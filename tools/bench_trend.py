#!/usr/bin/env python3
"""Diff freshly generated BENCH_*.json files against the committed
baselines and print a regression table (GitHub-flavoured markdown, suited
for piping into $GITHUB_STEP_SUMMARY).

Usage:
    bench_trend.py --baseline-dir DIR --fresh-dir DIR [--threshold PCT]
                   [--strict]

Every file named BENCH_*.json present in BOTH directories is compared:
the JSON trees are flattened to dotted numeric leaves (list elements keyed
by their "design" field when present, else by index) and each metric is
shown as baseline -> fresh with the relative change. Metrics fall into
two classes:

  - VOLATILE metrics — wall-clock timings, throughput, speedups, and
    machine/schedule-dependent gauges (hardware_concurrency, byte
    footprints that vary with the standard library, peak_active_bodies,
    hit/coalesced splits under concurrency). Timings are flagged as a
    regression when they worsen beyond --threshold percent (default 25):
    up for *seconds* metrics, DOWN for *speedup* ratios (a shrinking
    delta-path speedup means the warm path got slower relative to cold).
    The rest are shown unflagged. None of these ever fail the job.
  - DETERMINISTIC metrics — constraint counts, job/subtask counts,
    determinism flags, entry counts. These must not drift with the
    hardware; ANY change is flagged, and fails the job under --strict.

Timings only compare on like hardware: when both files record a
top-level hardware_concurrency and the two core counts differ, the table
carries a note saying so and its timing and speedup rows are shown
without regression flags. Deterministic drift (and --strict) is checked
the same way at any core count.

Boolean leaves participate as 0/1.
"""
import argparse
import glob
import json
import os
import sys


def flatten(node, prefix, out):
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            label = (
                value.get("design", str(index))
                if isinstance(value, dict)
                else str(index)
            )
            flatten(value, f"{prefix}[{label}]", out)
    elif isinstance(node, bool):
        out[prefix] = 1.0 if node else 0.0
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)


VOLATILE_MARKERS = (
    "seconds",
    "speedup",
    "hardware_concurrency",  # whatever machine CI hands us
    "peak_active_bodies",    # scheduling high-water mark, noisy by design
    "bytes",                 # footprints vary with the stdlib (SSO, nodes)
    "hits",                  # concurrent hit/coalesced split is a race
    "pool_workers",
)


def is_volatile(path: str) -> bool:
    return any(marker in path for marker in VOLATILE_MARKERS)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--fresh-dir", required=True)
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="flag timing regressions beyond this percent")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when a non-timing metric changed")
    args = parser.parse_args()

    baselines = sorted(
        glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json"))
    )
    if not baselines:
        print(f"no BENCH_*.json baselines in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    drifted = False
    for baseline_path in baselines:
        name = os.path.basename(baseline_path)
        fresh_path = os.path.join(args.fresh_dir, name)
        print(f"\n### Bench trend: {name}\n")
        if not os.path.exists(fresh_path):
            print(f"_no fresh run found in {args.fresh_dir}; skipped_")
            continue
        with open(baseline_path) as f:
            base = {}
            flatten(json.load(f), "", base)
        with open(fresh_path) as f:
            fresh = {}
            flatten(json.load(f), "", fresh)

        base_cores = base.get("hardware_concurrency")
        fresh_cores = fresh.get("hardware_concurrency")
        cross_core = (base_cores is not None and fresh_cores is not None
                      and base_cores != fresh_cores)

        rows = []
        for path in sorted(set(base) | set(fresh)):
            b, f_ = base.get(path), fresh.get(path)
            if b is None or f_ is None:
                rows.append((path, b, f_, None, "added/removed"))
                drifted = drifted or not is_volatile(path)
                continue
            if b == f_:
                continue
            delta = (f_ - b) / b * 100.0 if b != 0 else float("inf")
            if is_volatile(path):
                # Timings regress UP; speedup ratios (the delta-path's
                # cold/warm quotient) regress DOWN.
                if cross_core:
                    flag = ""
                elif "seconds" in path and delta > args.threshold:
                    flag = "regression"
                elif "speedup" in path and delta < -args.threshold:
                    flag = "regression"
                else:
                    flag = ""
            else:
                flag = "drift"
                drifted = True
            rows.append((path, b, f_, delta, flag))

        if not rows:
            print("_all tracked metrics unchanged_")
            continue
        if cross_core:
            print(f"_hardware_concurrency differs (baseline "
                  f"{base_cores:g}, fresh {fresh_cores:g}): timing and "
                  f"speedup rows are not comparable and carry no "
                  f"regression flags_\n")
        print("| metric | baseline | fresh | delta | |")
        print("|---|---:|---:|---:|---|")
        for path, b, f_, delta, flag in rows:
            fmt = lambda v: "-" if v is None else (
                f"{v:.6g}" if v == int(v or 0.5) or abs(v) < 1 else f"{v:.4g}"
            )
            delta_text = "-" if delta is None else f"{delta:+.1f}%"
            mark = {"regression": "🔺", "drift": "⚠️"}.get(flag, "")
            print(f"| `{path}` | {fmt(b)} | {fmt(f_)} | {delta_text} |"
                  f" {mark} {flag} |")

    if args.strict and drifted:
        print("\nnon-timing metrics drifted (see tables above)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
