#!/usr/bin/env python3
"""Delta table between BENCH_*.json runs and committed baselines.

The modeled timeline is deterministic, so any delta in a *_ms metric at the
same scale is a real change in the cost model or the kernels, not noise.
By default this script REPORTS deltas — a changed metric does not fail the
build; the table is for whoever reads the CI log.  With --exact it
GATES them: any compared metric that changed, appeared or disappeared
exits 1, so a commit that moves a modeled number must rewrite the
baseline in the same commit (the baseline diff is then the evidence).
Benches the baseline does not cover are skipped either way.  Wall-timed
metrics drift between runs of one commit and must not be gated exactly.
Broken *inputs* always fail it:
a missing/unreadable baseline, a run directory with no BENCH_*.json, or a
malformed run file exits 1, so CI can't silently "pass" a bench step whose
output was never produced.  So does a run whose recorded scale differs
from its baseline's (or either side not recording one): a delta between
different instance sizes means nothing, so that bench is not tabulated.

Usage:
    bench_delta.py --dir <dir with BENCH_*.json runs>
    bench_delta.py --baseline BENCH_seed.json --dir <dir> [--exact]

With no --baseline, EVERY BENCH_*.json committed at the repo root (or
--baseline-dir) is loaded, so adding a baseline file is all it takes to
put a bench under delta coverage — no script change, no hardcoded list.
Two baseline formats are accepted and merged:

  seed format (BENCH_seed.json; "scale" covers every bench inside):
    {"schema": 1, "scale": 0.05,
     "benches": {"fig5_spmv": {"Dense": {"merge_ms": 0.016, ...}, ...}}}

  raw run format (what analysis::BenchJson writes, committed as-is):
    {"bench": "serve_throughput", "schema": 1,
     "cases": [{"name": "t1_w1", "metrics": {...}}, ...],
     "stats": {"scale": 0.05, ...}}
"""

import argparse
import glob
import json
import os
import sys


def load_run(path):
    """(bench, {case: {metric: value}}, scale or None) of one run file."""
    with open(path) as f:
        doc = json.load(f)
    cases = {c["name"]: c.get("metrics", {}) for c in doc.get("cases", [])}
    scale = doc.get("stats", {}).get("scale")
    return doc.get("bench", os.path.basename(path)), cases, scale


def load_baselines(paths):
    """Merge any mix of seed-format and raw-run-format baseline files into
    one {bench: {case: {metric: value}}} table plus {bench: scale}.  Raises
    on unreadable or malformed input (the caller turns that into exit 1)."""
    merged, scales = {}, {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if "benches" in doc:  # seed format: a table of benches
            table = doc["benches"]
            if not isinstance(table, dict):
                raise ValueError(f"{path}: 'benches' is not a table")
            for bench, cases in table.items():
                merged.setdefault(bench, {}).update(cases)
                scales[bench] = doc.get("scale")
        elif "bench" in doc:  # raw BenchJson run committed as baseline
            bench, cases, scale = load_run(path)
            merged.setdefault(bench, {}).update(cases)
            scales[bench] = scale
        else:
            raise ValueError(f"{path}: neither seed nor run format")
    return merged, scales


def fmt_delta(base, cur):
    if base is None:
        return "new"
    if cur is None:
        return "gone"
    if base == cur:
        return "="
    if base == 0:
        return f"{cur:+.6g} (was 0)"
    pct = 100.0 * (cur - base) / abs(base)
    return f"{pct:+.2f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=None,
                    help="one baseline file (default: every BENCH_*.json "
                         "in --baseline-dir)")
    ap.add_argument("--baseline-dir",
                    default=os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__))),
                    help="where committed baselines live (default: repo root)")
    ap.add_argument("--dir", required=True,
                    help="directory with BENCH_*.json runs")
    ap.add_argument(
        "--metric-suffix",
        default="_ms",
        help="only compare metrics with this suffix (default: _ms)",
    )
    ap.add_argument(
        "--exact",
        action="store_true",
        help="exit 1 if any compared metric changed, appeared or "
             "disappeared (for deterministic modeled baselines only)",
    )
    args = ap.parse_args()

    if args.baseline:
        baseline_paths = [args.baseline]
        label = args.baseline
    else:
        baseline_paths = sorted(
            glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))
        label = f"{len(baseline_paths)} committed baseline(s)"
    try:
        baselines, base_scales = load_baselines(baseline_paths)
    except (OSError, json.JSONDecodeError, ValueError, TypeError,
            AttributeError) as e:
        print(f"bench_delta: ERROR: cannot read baseline: {e}", file=sys.stderr)
        return 1
    if not baselines:
        print("bench_delta: ERROR: no baselines found "
              f"({label}; looked in {args.baseline_dir})", file=sys.stderr)
        return 1

    runs = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not runs:
        print(f"bench_delta: ERROR: no BENCH_*.json under {args.dir} — "
              "did the bench step run?", file=sys.stderr)
        return 1

    if args.exact:
        print(f"bench delta vs {label} (exact: any changed, new or gone "
              "metric fails the build)")
    else:
        print(f"bench delta vs {label} "
              "(deltas are report-only — only broken inputs or a scale "
              "mismatch fail the build)")
    print(f"{'bench':<18} {'case':<14} {'metric':<14} "
          f"{'baseline':>14} {'current':>14} {'delta':>12}")
    exact, changed, uncovered, malformed, rescaled = 0, 0, 0, 0, 0
    for path in runs:
        try:
            bench, cases, scale = load_run(path)
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                AttributeError) as e:
            print(f"bench_delta: ERROR: malformed run file {path}: {e}",
                  file=sys.stderr)
            malformed += 1
            continue
        base_cases = baselines.get(bench)
        if base_cases is None:
            uncovered += 1
            print(f"{bench:<18} (no baseline recorded; skipped)")
            continue
        base_scale = base_scales.get(bench)
        if scale is None or base_scale is None or scale != base_scale:
            print(f"bench_delta: ERROR: {bench} ran at scale {scale} but its "
                  f"baseline records scale {base_scale}; not compared",
                  file=sys.stderr)
            rescaled += 1
            continue
        for case in sorted(set(base_cases) | set(cases)):
            b_metrics = base_cases.get(case, {})
            c_metrics = cases.get(case, {})
            for metric in sorted(set(b_metrics) | set(c_metrics)):
                if not metric.endswith(args.metric_suffix):
                    continue
                b, c = b_metrics.get(metric), c_metrics.get(metric)
                delta = fmt_delta(b, c)
                if delta == "=":
                    exact += 1
                    continue  # only print drift; exact matches are the norm
                changed += 1
                bs = "-" if b is None else f"{b:.6g}"
                cs = "-" if c is None else f"{c:.6g}"
                print(f"{bench:<18} {case:<14} {metric:<14} "
                      f"{bs:>14} {cs:>14} {delta:>12}")
    print(f"bench_delta: {exact} metric(s) exactly unchanged, "
          f"{changed} changed/new/gone, {uncovered} bench(es) without baseline")
    if malformed:
        print(f"bench_delta: ERROR: {malformed} malformed run file(s)",
              file=sys.stderr)
    if rescaled:
        print(f"bench_delta: ERROR: {rescaled} run(s) at a scale other than "
              "their baseline's", file=sys.stderr)
    drifted = args.exact and changed > 0
    if drifted:
        print(f"bench_delta: ERROR: {changed} metric(s) differ from the exact "
              "baseline; rewrite the baseline in the same commit if the "
              "change is intended", file=sys.stderr)
    return 1 if malformed or rescaled or drifted else 0


if __name__ == "__main__":
    sys.exit(main())
