#!/usr/bin/env python3
"""Same-session A/B of the repository benchmark: a base revision against the
working tree.

    python3 scripts/perf_ab.py --base REV --workload W[,W...]|all
                               [--pairs K] [--seed S] [--seconds T]

Checks REV out into a temporary git worktree (removed on exit), then, for
each workload in turn, runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` in that worktree and in the working tree, taking
turns for K pairs. The side that goes first alternates from pair to pair,
so slow drift of the machine lands on both sides. `all` means every
workload of BENCHMARK.json. Each tree builds its program once, on its
first run.

For every workload and every end-to-end metric of BENCHMARK.json it prints
the per-pair ratios (working tree / base), each side's median and
quartiles, and the share of pairs the working tree won. It ends with one
row per (workload, metric): the median ratio, the wins, each side's failed
share (failed / attempted) and a verdict against the metric's `bound`:
`worse` when the working tree's median is worse than the base's by more
than the bound, `unresolved` when the base's own quartile spread is wider
than the bound (unless every working-tree run beats every base run), and
`ok` otherwise. Exits 1 if any run reports `correct: false`, 2 on a failed
run or bad arguments.
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


def verdict(better: str, bound: float | None, base: list[float],
            head: list[float]) -> str:
    """`worse`, `unresolved` or `ok` for one metric (see the module doc).

    `bound` is the relative amount by which the metric may worsen; without
    one there is nothing to judge against.
    """
    if bound is None:
        return "-"
    higher = better == "higher"
    base_q1, base_med, base_q3 = quartiles(base)
    head_med = quartiles(head)[1]
    limit = base_med * (1 - bound if higher else 1 + bound)
    if head_med < limit if higher else head_med > limit:
        return "worse"
    every_run_better = (min(head) > max(base)) if higher else (
        max(head) < min(base))
    if base_q3 - base_q1 > bound * abs(base_med) and not every_run_better:
        return "unresolved"
    return "ok"


def summarize(pairs: list[tuple[dict, dict]],
              metrics: list[dict]) -> list[dict]:
    """Summarizes (base result, head result) pairs of perfbench runs.

    For each metric present in every run: the per-pair ratios head / base,
    each side's quartiles, the share of pairs where the head is better in
    the metric's direction (a tie wins nothing) and the verdict against the
    metric's bound.
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
            "verdict": verdict(metric["better"], metric.get("bound"), base,
                               head),
        })
    return summary


def failed_share(runs: list[dict]) -> float | None:
    """Failed operations over attempted ones across `runs`; None if none
    were attempted."""
    attempted = sum(run.get("attempted", 0) for run in runs)
    if not attempted:
        return None
    return sum(run.get("failed", 0) for run in runs) / attempted


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


def format_table(results: dict[str, list[tuple[dict, dict]]],
                 metrics: list[dict]) -> str:
    """One row per (workload, metric) over every workload's pairs."""

    def share(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.3f}"

    header = ("workload", "metric", "median ratio", "won", "failed base",
              "failed head", "verdict")
    rows = []
    for workload, pairs in results.items():
        failed_base = share(failed_share([base for base, _ in pairs]))
        failed_head = share(failed_share([head for _, head in pairs]))
        for entry in summarize(pairs, metrics):
            rows.append((workload, entry["name"],
                         f"{statistics.median(entry['ratios']):.3f}",
                         f"{entry['won']}/{entry['pairs']}", failed_base,
                         failed_head, entry["verdict"]))
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip()
                     for row in [header] + rows)


def parse_workloads(spec: str, known: list[str]) -> list[str]:
    """The workloads named by `spec`: `all`, or a comma-separated list of
    names from `known` (raises ValueError on an unknown or empty list)."""
    if spec == "all":
        return list(known)
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in known]
    if not names or unknown:
        raise ValueError(f"unknown workload(s) {', '.join(unknown) or spec!r}"
                         f"; BENCHMARK.json has {', '.join(known)}")
    return names


def run_perfbench(tree: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(base_tree: Path, head_tree: Path, workload: str,
              args: argparse.Namespace) -> list[tuple[dict, dict]]:
    pairs = []
    for index in range(args.pairs):
        sides = {}
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        for side in order:
            tree = base_tree if side == "base" else head_tree
            sides[side] = run_perfbench(tree, workload, args.seed,
                                        args.seconds)
            log(f"{workload} pair {index + 1}/{args.pairs} {side}: "
                f"{json.dumps(sides[side]['metrics'])} "
                f"correct={sides[side]['correct']}")
        pairs.append((sides["base"], sides["head"]))
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    head_tree = Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], check=True,
        stdout=subprocess.PIPE, text=True).stdout.strip())
    benchmark = json.loads((head_tree / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    try:
        workloads = parse_workloads(
            args.workload, [w["name"] for w in benchmark["workloads"]])
    except ValueError as error:
        parser.error(str(error))
    results: dict[str, list[tuple[dict, dict]]] = {}
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        base_tree = Path(tmp) / "base"
        if subprocess.run(["git", "worktree", "add", "--detach",
                           str(base_tree), args.base], cwd=head_tree,
                          stdout=sys.stderr).returncode != 0:
            log(f"cannot check out {args.base}")
            return 2
        try:
            for workload in workloads:
                results[workload] = run_pairs(base_tree, head_tree, workload,
                                              args)
        except (RuntimeError, ValueError) as error:
            log(str(error))
            return 2
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base_tree)], cwd=head_tree,
                           stdout=sys.stderr, stderr=sys.stderr)

    for workload, pairs in results.items():
        print(f"perf_ab: {workload}, seed {args.seed}, {args.pairs} pairs, "
              f"base {args.base} vs working tree")
        print(format_summary(summarize(pairs, metrics)))
    print(f"perf_ab: seed {args.seed}, {args.pairs} pairs per workload, "
          f"base {args.base} vs working tree")
    print(format_table(results, metrics))
    incorrect = [f"{workload} {side}"
                 for workload, pairs in results.items()
                 for base, head in pairs
                 for side, run in (("base", base), ("head", head))
                 if not run.get("correct", False)]
    if incorrect:
        print(f"perf_ab: {len(incorrect)} run(s) reported correct: false "
              f"({', '.join(sorted(set(incorrect)))})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
