#!/usr/bin/env python3
"""Same-session A/B of the repository benchmark: a base revision against the
working tree.

    python3 scripts/perf_ab.py --base REV --workload W [--pairs K]
                               [--seed S] [--seconds T]

Checks REV out into a temporary git worktree (removed on exit), then runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
that worktree and in the working tree, taking turns for K pairs. The side
that goes first alternates from pair to pair, so slow drift of the machine
lands on both sides. Each tree builds its own program on its first run.

For every end-to-end metric of BENCHMARK.json it prints the per-pair ratios
(working tree / base), each side's median and quartiles, and the share of
pairs the working tree won. Exits 1 if any run reports `correct: false`,
2 on a failed run or bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def log(message: str) -> None:
    print(f"perf_ab: {message}", file=sys.stderr, flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]],
              metrics: list[dict]) -> list[dict]:
    """Summarizes (base result, head result) pairs of perfbench runs.

    For each metric present in every run: the per-pair ratios head / base,
    each side's quartiles, and the share of pairs where the head is better
    in the metric's direction (a tie wins nothing).
    """
    summary = []
    for metric in metrics:
        name = metric["name"]
        higher = metric["better"] == "higher"
        try:
            base = [b["metrics"][name]["value"] for b, _ in pairs]
            head = [h["metrics"][name]["value"] for _, h in pairs]
        except KeyError:
            continue
        ratios = [h / b if b else float("inf") for b, h in zip(base, head)]
        won = sum(1 for b, h in zip(base, head)
                  if (h > b if higher else h < b))
        summary.append({
            "name": name,
            "better": metric["better"],
            "ratios": ratios,
            "base": quartiles(base),
            "head": quartiles(head),
            "won": won,
            "pairs": len(pairs),
        })
    return summary


def format_summary(summary: list[dict]) -> str:
    lines = []
    for entry in summary:
        ratios = " ".join(f"{r:.3f}" for r in entry["ratios"])
        base_q1, base_med, base_q3 = entry["base"]
        head_q1, head_med, head_q3 = entry["head"]
        lines += [
            f"{entry['name']} ({entry['better']} is better)",
            f"  head/base per pair: {ratios}",
            f"  base median {base_med:.6g}  quartiles [{base_q1:.6g}, "
            f"{base_q3:.6g}]",
            f"  head median {head_med:.6g}  quartiles [{head_q1:.6g}, "
            f"{head_q3:.6g}]",
            f"  head won {entry['won']}/{entry['pairs']} pairs",
        ]
    return "\n".join(lines)


def run_perfbench(tree: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    head_tree = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True,
        stdout=subprocess.PIPE, text=True).stdout.strip())
    metrics = json.loads(
        (head_tree / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        base_tree = Path(tmp) / "base"
        if subprocess.run(["git", "worktree", "add", "--detach",
                           str(base_tree), args.base], cwd=head_tree,
                          stdout=sys.stderr).returncode != 0:
            log(f"cannot check out {args.base}")
            return 2
        try:
            pairs = []
            for index in range(args.pairs):
                sides = {}
                order = (("base", "head") if index % 2 == 0
                         else ("head", "base"))
                for side in order:
                    tree = base_tree if side == "base" else head_tree
                    sides[side] = run_perfbench(tree, args.workload, args.seed,
                                                args.seconds)
                    log(f"pair {index + 1}/{args.pairs} {side}: "
                        f"{json.dumps(sides[side]['metrics'])} "
                        f"correct={sides[side]['correct']}")
                pairs.append((sides["base"], sides["head"]))
        except (RuntimeError, ValueError) as error:
            log(str(error))
            return 2
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base_tree)], cwd=head_tree,
                           stdout=sys.stderr, stderr=sys.stderr)

    print(f"perf_ab: {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"base {args.base} vs working tree")
    print(format_summary(summarize(pairs, metrics)))
    incorrect = [side for base, head in pairs
                 for side, run in (("base", base), ("head", head))
                 if not run.get("correct", False)]
    if incorrect:
        print(f"perf_ab: {len(incorrect)} run(s) reported correct: false "
              f"({', '.join(sorted(set(incorrect)))})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
