#!/usr/bin/env python3
"""CI perf-regression gate for the plain-binary benches.

Compares a freshly produced bench JSON (bench_throughput --quick,
bench_trace_replay --quick, bench_offline_optimal --quick) against a
committed baseline and fails when any throughput metric regressed beyond
the tolerance band.

Matching: entries of the top-level ``results`` array are keyed by their
``leg`` field if present, otherwise by ``n``. Within a matched pair,
every numeric field ending in ``_per_sec`` (higher is better) is
compared; a current value below ``baseline * (1 - tolerance)`` is a
regression. Faster-than-baseline results always pass (print a note so
baselines can be refreshed when hardware improves).

Noise hardening (the CI container is 1-2 shared cores):

* ``--leg-tolerance LEG=TOL`` (repeatable) widens the band for an
  individually noisy leg (short legs such as ``record`` jitter more
  than long replay legs) without loosening the whole gate.
* ``--retries N --rerun-cmd CMD`` re-runs the bench command when a
  regression is found and keeps the *best* value seen per metric
  (best-of-N): a transient scheduling hiccup must lose to the gate, a
  real regression must survive it. CMD is run through the shell and must
  rewrite the CURRENT json in place.
* ``--parallel-leg LEG`` (repeatable) names legs whose throughput only
  means anything with real cores behind it (thread-pool decode, parallel
  replay). When the CURRENT run reports ``hardware_concurrency`` 1 those
  legs are skipped with a visible notice instead of gating on what is
  effectively a serialized run.
* A ``hardware_concurrency`` mismatch between baseline and current run is
  warned about: deltas on parallel legs across different core counts are
  apples to oranges and the baseline deserves a refresh.

Scaling floors: ``--min-speedup LEG/METRIC=FLOOR`` (repeatable) checks an
*absolute* property of the CURRENT run rather than a delta against the
baseline: the named metric (e.g. the trial fan-out's ``speedup`` on the
``aggregation_n256`` leg) must be at least FLOOR. This is the multi-core
scaling-curve gate — a baseline delta cannot express "the worker pool
must actually beat the serial loop", only "no slower than last time". Floors
are skipped with a notice when the current run reports
``hardware_concurrency`` 1 (a speedup on a single core is meaningless),
and a floor failure triggers the same best-of-N retry loop as a
regression (keeping the max of the named metric across re-runs).

When the ``GITHUB_STEP_SUMMARY`` environment variable is set (GitHub
Actions sets it for every step) a markdown verdict table — leg, baseline,
current, delta, verdict — is appended to that file so the gate's outcome
is readable from the run's Summary page without digging through logs.

Usage:
    check_bench_regression.py BASELINE CURRENT [--tolerance 0.25]
        [--leg-tolerance LEG=TOL ...] [--parallel-leg LEG ...]
        [--min-speedup LEG/METRIC=FLOOR ...]
        [--retries N] [--rerun-cmd CMD]

Refreshing a baseline after an intentional perf change:
    ./build/bench_throughput --quick --out ci/baselines/bench_throughput_ci.json
    ./build/bench_trace_replay --quick --out ci/baselines/bench_trace_replay_ci.json

Exit codes: 0 ok, 1 regression detected, 2 bad input (malformed JSON,
missing metrics, bad flags), 3 input file does not exist. The distinct
code 3 lets CI tell "nobody committed / produced the file" (typically a
new bench whose baseline was never generated) apart from "the file is
there but broken", which deserves investigation rather than a refresh.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def entry_key(entry: dict) -> str:
    if "leg" in entry:
        return f"leg={entry['leg']}"
    if "n" in entry:
        return f"n={entry['n']}"
    return "?"


def load_results(path: str, role: str = "input") -> tuple[dict, dict[str, dict]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        # Distinct from malformed input: the file simply is not there.
        hint = (" — generate it with the bench's --out flag and commit it"
                if role == "baseline" else " — did the bench run?")
        print(f"error: {role} file {path} does not exist{hint}",
              file=sys.stderr)
        sys.exit(3)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {role} file {path}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        print(f"error: {path} has no 'results' array", file=sys.stderr)
        sys.exit(2)
    table = {entry_key(e): e for e in results if isinstance(e, dict)}
    return doc, table


def merge_best(best: dict[str, dict], fresh: dict[str, dict],
               extra_metrics: frozenset[str] = frozenset()) -> None:
    """Folds a re-run into ``best``, keeping the max of every metric.

    Throughput metrics (``*_per_sec``) always fold; ``extra_metrics``
    names additional higher-is-better metrics (the --min-speedup ones).
    """
    for key, fresh_entry in fresh.items():
        entry = best.setdefault(key, dict(fresh_entry))
        for metric, value in fresh_entry.items():
            if not metric.endswith("_per_sec") and metric not in extra_metrics:
                continue
            if not isinstance(value, (int, float)):
                continue
            old = entry.get(metric)
            if not isinstance(old, (int, float)) or value > old:
                entry[metric] = value


def tolerance_for(key: str, default: float, overrides: dict[str, float]) -> float:
    """Per-leg override: keys look like 'leg=replay_streaming_serial'."""
    name = key.split("=", 1)[1] if "=" in key else key
    return overrides.get(name, default)


def leg_name(key: str) -> str:
    """'leg=decode_v4' -> 'decode_v4' (n-keyed entries pass through)."""
    return key.split("=", 1)[1] if "=" in key else key


def evaluate(baseline: dict[str, dict], current: dict[str, dict],
             default_tolerance: float, overrides: dict[str, float],
             skip_legs: frozenset[str] = frozenset(),
             ) -> tuple[int, int, list[dict]]:
    """Returns (regressions, compared, rows).

    ``rows`` is the per-metric verdict table (entry/metric/baseline/
    current/ratio/verdict) that feeds the markdown step summary; legs in
    ``skip_legs`` are reported but neither compared nor failed.
    """
    regressions = 0
    compared = 0
    rows: list[dict] = []
    header = (f"{'entry':<34} {'metric':<24} {'baseline':>12} "
              f"{'current':>12} {'ratio':>7}")
    print(header)
    print("-" * len(header))
    for key, base_entry in baseline.items():
        if leg_name(key) in skip_legs:
            print(f"{key:<34} {'<skipped: single-core runner>':<24}")
            rows.append({"entry": key, "metric": "*",
                         "verdict": "skipped (single-core runner)"})
            continue
        tolerance = tolerance_for(key, default_tolerance, overrides)
        floor_factor = 1.0 - tolerance
        cur_entry = current.get(key)
        if cur_entry is None:
            print(f"{key:<34} {'<missing from current>':<24}")
            rows.append({"entry": key, "metric": "*",
                         "verdict": "missing from current"})
            regressions += 1
            continue
        for metric, base_value in base_entry.items():
            if not metric.endswith("_per_sec"):
                continue
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            cur_value = cur_entry.get(metric)
            if not isinstance(cur_value, (int, float)):
                print(f"{key:<34} {metric:<24} {'<missing metric>':>12}")
                rows.append({"entry": key, "metric": metric,
                             "baseline": base_value,
                             "verdict": "missing metric"})
                regressions += 1
                continue
            compared += 1
            ratio = cur_value / base_value
            verdict = ""
            row_verdict = f"ok (band {tolerance:.0%})"
            if cur_value < base_value * floor_factor:
                verdict = f"  REGRESSION (band {tolerance:.0%})"
                row_verdict = f"REGRESSION (band {tolerance:.0%})"
                regressions += 1
            elif ratio > 1.0 / floor_factor:
                verdict = "  (faster — consider refreshing baseline)"
                row_verdict = "faster — consider refreshing baseline"
            rows.append({"entry": key, "metric": metric,
                         "baseline": base_value, "current": cur_value,
                         "ratio": ratio, "verdict": row_verdict})
            print(f"{key:<34} {metric:<24} {base_value:>12.1f} "
                  f"{cur_value:>12.1f} {ratio:>6.2f}x{verdict}")
    return regressions, compared, rows


def check_min_speedups(current: dict[str, dict],
                       specs: list[tuple[str, str, float]],
                       skip: bool) -> tuple[int, list[dict]]:
    """Absolute scaling floors against the CURRENT run.

    Returns (failures, rows). With ``skip`` (single-core runner) every
    floor is reported as skipped and never failed.
    """
    failures = 0
    rows: list[dict] = []
    for leg, metric, floor in specs:
        key = f"leg={leg}"
        label = f"{metric} >= {floor:g}"
        if skip:
            print(f"{key:<34} {label:<24} {'<skipped: single-core runner>'}")
            rows.append({"entry": key, "metric": metric,
                         "baseline": floor,
                         "verdict": "skipped (single-core runner)"})
            continue
        entry = current.get(key)
        value = entry.get(metric) if isinstance(entry, dict) else None
        if not isinstance(value, (int, float)):
            what = "missing leg" if entry is None else "missing metric"
            print(f"{key:<34} {label:<24} {'<' + what + '>':>12}")
            rows.append({"entry": key, "metric": metric, "baseline": floor,
                         "verdict": what})
            failures += 1
            continue
        ok = value >= floor
        verdict = (f"ok (floor {floor:g})" if ok
                   else f"BELOW FLOOR {floor:g}")
        rows.append({"entry": key, "metric": metric, "baseline": floor,
                     "current": value, "verdict": verdict})
        print(f"{key:<34} {label:<24} {floor:>12.2f} {value:>12.2f}"
              + ("" if ok else f"  BELOW FLOOR"))
        if not ok:
            failures += 1
    return failures, rows


def render_markdown(bench: str, rows: list[dict], ok: bool) -> str:
    """Markdown verdict table for the GitHub Actions step summary."""

    def num(value) -> str:
        return f"{value:.4g}" if isinstance(value, (int, float)) else "—"

    status = "✅ pass" if ok else "❌ **FAIL**"
    lines = [
        f"### Perf gate — `{bench}`: {status}",
        "",
        "| entry | metric | baseline | current | delta | verdict |",
        "|---|---|---:|---:|---:|---|",
    ]
    for row in rows:
        ratio = row.get("ratio")
        delta = (f"{(ratio - 1.0) * 100.0:+.1f}%"
                 if isinstance(ratio, (int, float)) else "—")
        verdict = row["verdict"]
        if verdict.startswith("REGRESSION") or verdict.startswith(
                "BELOW FLOOR"):
            verdict = f"❌ {verdict}"
        elif verdict.startswith("missing"):
            verdict = f"❌ {verdict}"
        elif verdict.startswith("skipped"):
            verdict = f"⏭️ {verdict}"
        elif verdict.startswith("faster"):
            verdict = f"🔼 {verdict}"
        else:
            verdict = f"✅ {verdict}"
        lines.append(f"| {leg_name(row['entry'])} | {row['metric']} | "
                     f"{num(row.get('baseline'))} | "
                     f"{num(row.get('current'))} | {delta} | {verdict} |")
    lines.append("")
    return "\n".join(lines) + "\n"


def write_step_summary(text: str) -> None:
    """Appends to $GITHUB_STEP_SUMMARY when set (no-op elsewhere)."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"warning: cannot write step summary {path}: {exc}",
              file=sys.stderr)


def parse_min_speedup(spec: str) -> tuple[str, str, float]:
    """'aggregation_n256/speedup=1.2' -> (leg, metric, floor)."""
    head, sep, value = spec.partition("=")
    if not sep or "/" not in head:
        raise argparse.ArgumentTypeError(
            f"--min-speedup expects LEG/METRIC=FLOOR, got '{spec}'")
    leg, _, metric = head.partition("/")
    if not leg or not metric:
        raise argparse.ArgumentTypeError(
            f"--min-speedup expects LEG/METRIC=FLOOR, got '{spec}'")
    try:
        floor = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--min-speedup {spec}: bad floor") from exc
    if floor <= 0.0:
        raise argparse.ArgumentTypeError(
            f"--min-speedup {spec}: floor must be positive")
    return leg, metric, floor


def parse_leg_tolerance(spec: str) -> tuple[str, float]:
    if "=" not in spec:
        raise argparse.ArgumentTypeError(
            f"--leg-tolerance expects LEG=TOL, got '{spec}'")
    name, _, value = spec.partition("=")
    try:
        tol = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--leg-tolerance {spec}: bad tolerance") from exc
    if not 0.0 <= tol < 1.0:
        raise argparse.ArgumentTypeError(
            f"--leg-tolerance {spec}: tolerance must be in [0, 1)")
    return name, tol


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced bench JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--leg-tolerance",
        type=parse_leg_tolerance,
        action="append",
        default=[],
        metavar="LEG=TOL",
        help="per-leg tolerance override (repeatable), e.g. record=0.4",
    )
    parser.add_argument(
        "--parallel-leg",
        action="append",
        default=[],
        metavar="LEG",
        help="leg that needs >1 hardware thread to be meaningful; skipped "
             "with a notice when the current run reports "
             "hardware_concurrency 1 (repeatable)",
    )
    parser.add_argument(
        "--min-speedup",
        type=parse_min_speedup,
        action="append",
        default=[],
        metavar="LEG/METRIC=FLOOR",
        help="absolute scaling floor on the current run (repeatable), e.g. "
             "aggregation_n256/speedup=1.2; skipped when "
             "the current run reports hardware_concurrency 1",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-run the bench up to N times on regression, keeping the "
             "best value per metric (requires --rerun-cmd)",
    )
    parser.add_argument(
        "--rerun-cmd",
        default="",
        help="shell command that regenerates CURRENT in place",
    )
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        print("error: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    if args.retries > 0 and not args.rerun_cmd:
        print("error: --retries needs --rerun-cmd", file=sys.stderr)
        return 2
    overrides = dict(args.leg_tolerance)

    base_doc, baseline = load_results(args.baseline, "baseline")
    cur_doc, current = load_results(args.current, "current")

    bench = base_doc.get("bench", "?")
    print(f"bench '{bench}': comparing {args.current} against "
          f"{args.baseline} (tolerance {args.tolerance:.0%}"
          + (f", overrides {overrides}" if overrides else "") + ")")

    base_hc = base_doc.get("hardware_concurrency")
    cur_hc = cur_doc.get("hardware_concurrency")
    if (isinstance(base_hc, int) and isinstance(cur_hc, int)
            and base_hc != cur_hc):
        print(f"warning: baseline was recorded at hardware_concurrency="
              f"{base_hc} but this run reports {cur_hc} — parallel-leg "
              f"deltas are not comparable across core counts; consider "
              f"refreshing the baseline", file=sys.stderr)

    skip_legs = frozenset()
    if args.parallel_leg and cur_hc == 1:
        skip_legs = frozenset(args.parallel_leg)
        print(f"notice: hardware_concurrency is 1 — skipping parallel "
              f"leg(s) {sorted(skip_legs)} (their throughput is "
              f"meaningless on a single-core runner)")
    skip_floors = bool(args.min_speedup) and cur_hc == 1
    if skip_floors:
        print("notice: hardware_concurrency is 1 — scaling floors "
              "(--min-speedup) are skipped (a speedup on a single core is "
              "meaningless)")
    floor_metrics = frozenset(metric for _, metric, _ in args.min_speedup)

    best = {key: dict(entry) for key, entry in current.items()}
    attempt = 0
    while True:
        regressions, compared, rows = evaluate(
            baseline, best, args.tolerance, overrides, skip_legs)
        floor_failures, floor_rows = check_min_speedups(
            best, args.min_speedup, skip_floors)
        rows += floor_rows
        failures = regressions + floor_failures
        skipped = sum(1 for r in rows if r["verdict"].startswith("skipped"))
        if compared == 0 and skipped == 0 and not args.min_speedup:
            print("error: no comparable *_per_sec metrics found",
                  file=sys.stderr)
            return 2
        if failures == 0:
            print(f"\nOK: {compared} metrics within tolerance"
                  + (f", {len(args.min_speedup)} floor(s) checked"
                     if args.min_speedup and not skip_floors else "")
                  + (f", {skipped} leg(s)/floor(s) skipped" if skipped else "")
                  + (f" (after {attempt} re-run(s))" if attempt else ""))
            write_step_summary(render_markdown(bench, rows, ok=True))
            return 0
        if attempt >= args.retries:
            print(f"\nFAIL: {regressions} regression(s) beyond the "
                  f"tolerance band, {floor_failures} floor failure(s)"
                  + (f" (best of {attempt + 1} runs)" if attempt else ""))
            write_step_summary(render_markdown(bench, rows, ok=False))
            return 1
        attempt += 1
        print(f"\nregression detected — re-running bench "
              f"({attempt}/{args.retries}): {args.rerun_cmd}")
        proc = subprocess.run(args.rerun_cmd, shell=True)
        if proc.returncode != 0:
            print(f"error: re-run command failed with exit "
                  f"{proc.returncode}", file=sys.stderr)
            return 2
        _, fresh = load_results(args.current, "current")
        merge_best(best, fresh, floor_metrics)


if __name__ == "__main__":
    sys.exit(main())
