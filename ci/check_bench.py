#!/usr/bin/env python3
"""Bench regression gate: compare a fresh bench JSON against the committed
baseline.

Usage:
    python3 ci/check_bench.py --baseline BENCH_exec.json --current fresh.json \
        [--fail-pct 25] [--warn-pct 10]

Both files are the flat `[{"name": ..., metric: value, ...}, ...]` arrays the
benches emit via --json. A curated subset of (entry, metric) pairs is gated:
the pipeline throughput numbers and the physical-planner sections, per
direction (higher-is-better throughput/speedups). The gate is one-sided —
only regressions beyond the thresholds matter, so a faster CI machine than
the baseline machine passes trivially, while a >fail-pct slowdown fails the
job and a >warn-pct slowdown prints a warning.

Entries absent from the gated set (serving/*, governed_overhead/*, ...) are
reported informationally. A gated entry missing from the current run is a
hard failure: a regression must not hide behind a renamed or dropped bench.
"""

import argparse
import json
import sys

# (entry name, metric, direction). direction "higher" means a drop is a
# regression; "lower" means a rise is.
GATED = [
    ("pipeline_join_agg/batch", "ops_per_sec", "higher"),
    ("pipeline_join_agg/batch_packed_swiss", "ops_per_sec", "higher"),
    ("hash_join/batch_packed_swiss", "ops_per_sec", "higher"),
    ("hash_marginalize/batch", "ops_per_sec", "higher"),
    ("hash_table/probe_swiss", "ops_per_sec", "higher"),
    ("hash_table/fold_swiss", "ops_per_sec", "higher"),
    ("mph_probe/probe_mph", "ops_per_sec", "higher"),
    ("physical_planner/mixed_plan", "speedup_vs_forced_hash", "higher"),
    ("physical_planner/order_reuse", "speedup_from_skip", "higher"),
    ("faq_planner/triangle", "speedup_vs_pairwise", "higher"),
    # Network serving (BENCH_serving.json; absent from BENCH_exec.json, so
    # these skip when the gate runs against the exec baseline and vice versa).
    ("net_serving/closed_loop", "queries_per_sec", "higher"),
    ("net_serving/closed_loop", "p50_ms", "lower"),
    ("net_serving/closed_loop", "p99_ms", "lower"),
    ("net_serving/open_loop", "p50_ms", "lower"),
    ("net_serving/open_loop", "p99_ms", "lower"),
    # Mixed readers + writers over the MVCC commit path (serve_loadgen).
    ("mixed_serving/mix95_5", "updates_per_sec", "higher"),
    ("mixed_serving/mix95_5", "read_p50_ms", "lower"),
    ("mixed_serving/mix95_5", "read_p99_ms", "lower"),
    ("mixed_serving/mix50_50", "updates_per_sec", "higher"),
    ("mixed_serving/mix50_50", "read_p50_ms", "lower"),
    ("mixed_serving/mix50_50", "read_p99_ms", "lower"),
    ("mixed_serving/refresh_ablation", "speedup_vs_full_refresh", "higher"),
    # Approximate inference (dissociation bounds + Gibbs anytime sampler).
    ("approx/bounds_cycle", "queries_per_sec", "higher"),
    ("approx/gibbs_cycle", "samples_per_sec", "higher"),
]

# Absolute floors, independent of the baseline: (entry, metric, minimum).
# These encode claims the design depends on — incremental delta refresh must
# beat per-commit full cache rebuild by a wide margin or MVCC serving loses
# its point — so a machine-speed excuse does not apply.
FLOORS = [
    ("mixed_serving/refresh_ablation", "speedup_vs_full_refresh", 5.0),
    # The FAQ planner's reason to exist: on the hub-skewed triangle the
    # worst-case-optimal multiway join must beat the best pairwise-hash plan
    # by a wide margin, or auto-selecting it is a pessimization.
    ("faq_planner/triangle", "speedup_vs_pairwise", 3.0),
]

# Absolute ceilings, independent of the baseline: (entry, metric, maximum).
# Quality metrics where growth is the regression, e.g. the dissociation
# bound gap — loose bounds make the whole approximate path pointless, and
# machine speed cannot excuse them (the gap is deterministic for a fixed
# workload and seed).
CEILINGS = [
    # Relative [lower, upper] spread of the dissociation/conditioning bound
    # pair on the dense small-domain cycle (the large-domain cycle saturates
    # the relative gap at 1.0 and is gated on throughput only). Measured
    # 0.942 raw / 0.903 after Gibbs tightening at the committed seed; both
    # are deterministic, so the margin only has to absorb cross-machine FP
    # fold-order noise. A worse split-var choice or a regressed sampler
    # pushes past these.
    ("approx/bounds_quality", "bound_gap_ratio", 0.96),
    ("approx/bounds_quality", "tightened_gap_ratio", 0.94),
]

# Ungated but reported, so the job log tracks them over time.
INFORMATIONAL = [
    ("serving/plan_cache", "speedup_from_cache"),
    ("serving/plan_cache", "hit_rate"),
    ("serving/concurrent_throughput", "queries_per_sec"),
    ("serving/concurrent_throughput", "plan_cache_hit_rate"),
    ("governed_overhead/batch_packed_swiss", "overhead_frac"),
    ("net_serving/open_loop", "achieved_qps"),
    ("net_serving/open_loop", "errors"),
    ("net_serving/closed_loop", "errors"),
    ("net_serving/drain", "drain_ms"),
    ("mixed_serving/mix95_5", "update_p99_ms"),
    ("mixed_serving/mix50_50", "update_p99_ms"),
    ("mixed_serving/mix95_5", "errors"),
    ("mixed_serving/mix50_50", "errors"),
    ("mixed_serving/refresh_ablation", "updates_per_sec_incremental"),
    ("mixed_serving/refresh_ablation", "updates_per_sec_full_rebuild"),
    ("approx/bounds_cycle", "bound_gap_ratio"),
    ("approx/gibbs_cycle", "samples"),
]


def load(path):
    with open(path) as f:
        entries = json.load(f)
    return {e["name"]: e for e in entries}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument("--fail-pct", type=float, default=25.0)
    parser.add_argument("--warn-pct", type=float, default=10.0)
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    warnings = []
    print(f"{'entry/metric':55s} {'baseline':>14s} {'current':>14s} "
          f"{'delta':>8s}")
    for name, metric, direction in GATED:
        base_entry = baseline.get(name)
        cur_entry = current.get(name)
        if base_entry is None or metric not in base_entry:
            # Nothing to compare against: a new bench primes the baseline on
            # the commit that introduces it.
            print(f"{name}/{metric:s}: no baseline value, skipping")
            continue
        if cur_entry is None or metric not in cur_entry:
            failures.append(f"{name}/{metric}: missing from current run")
            continue
        base = base_entry[metric]
        cur = cur_entry[metric]
        if base == 0:
            print(f"{name}/{metric}: baseline is 0, skipping")
            continue
        # Positive change_pct = improvement under the metric's direction.
        change = (cur - base) / abs(base) * 100.0
        if direction == "lower":
            change = -change
        marker = ""
        if change < -args.fail_pct:
            marker = "  FAIL"
            failures.append(
                f"{name}/{metric}: {change:+.1f}% vs baseline "
                f"(threshold -{args.fail_pct:.0f}%)")
        elif change < -args.warn_pct:
            marker = "  WARN"
            warnings.append(f"{name}/{metric}: {change:+.1f}% vs baseline")
        print(f"{name + '/' + metric:55s} {base:14.6g} {cur:14.6g} "
              f"{change:+7.1f}%{marker}")

    for name, metric, minimum in FLOORS:
        cur_entry = current.get(name)
        if cur_entry is None or metric not in cur_entry:
            # Floors only apply when the bench that emits them ran (the gate
            # also runs against BENCH_exec.json, which has no serving entries).
            continue
        cur = cur_entry[metric]
        marker = ""
        if cur < minimum:
            marker = "  FAIL"
            failures.append(
                f"{name}/{metric}: {cur:.3g} below absolute floor {minimum:g}")
        print(f"{name + '/' + metric:55s} {'floor ' + format(minimum, 'g'):>14s} "
              f"{cur:14.6g}         {marker}")

    for name, metric, maximum in CEILINGS:
        cur_entry = current.get(name)
        if cur_entry is None or metric not in cur_entry:
            # Like floors, ceilings only apply when their bench ran.
            continue
        cur = cur_entry[metric]
        marker = ""
        if cur > maximum:
            marker = "  FAIL"
            failures.append(
                f"{name}/{metric}: {cur:.3g} above absolute ceiling "
                f"{maximum:g}")
        print(f"{name + '/' + metric:55s} "
              f"{'ceiling ' + format(maximum, 'g'):>14s} "
              f"{cur:14.6g}         {marker}")

    print()
    for name, metric in INFORMATIONAL:
        cur_entry = current.get(name)
        if cur_entry is None or metric not in cur_entry:
            continue
        base_entry = baseline.get(name) or {}
        base = base_entry.get(metric)
        base_str = f"{base:14.6g}" if base is not None else f"{'-':>14s}"
        print(f"{name + '/' + metric:55s} {base_str} "
              f"{cur_entry[metric]:14.6g}   (info)")

    if warnings:
        print("\nWarnings (>{:.0f}% regression):".format(args.warn_pct))
        for w in warnings:
            print("  " + w)
    if failures:
        print("\nFailures (>{:.0f}% regression):".format(args.fail_pct))
        for f in failures:
            print("  " + f)
        return 1
    print("\nbench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
