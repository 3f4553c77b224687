#!/usr/bin/env python3
"""Compare the end-to-end metrics of two BENCH_<commit>.json records.

    python3 benchmarks/compare.py BENCH_parent.json BENCH_change.json

Reads the untraced runs that `benchmarks/record.py` stored and pairs the
two records' runs by seed.  For each workload and each end-to-end metric of
BENCHMARK.json it prints both medians with their quartiles [q1, q3], the
change in the median and the pairs in which the change is better.  Then:

    gain     the change is better in at least 9 of 10 pairs, and its median
             beats the parent's by more than the parent's quartile spread
    bound    the change's median is worse than the parent's by no more than
             the metric's relative bound in BENCHMARK.json

It also prints each workload's share of failed operations.  Quartiles are
`statistics.quantiles(values, n=4)`.  Exits 1 when a metric breaks its
bound or a larger share of operations fails, else 0.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9  # of the pairs, at least: 9 of 10


def untraced_runs(record: dict) -> dict:
    """{seed: {workload: result}} of a record's untraced runs."""
    return {run["seed"]: {name: w["result"] for name, w in run["workloads"].items()}
            for run in record["runs"] if run["trace"] == 0}


def metric_values(runs: dict, seeds, workload: str, metric: str) -> list:
    return [runs[s][workload]["metrics"][metric]["value"] for s in seeds
            if metric in runs[s].get(workload, {}).get("metrics", {})]


def quartiles(values) -> tuple:
    """(q1, median, q3)."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def compare_metric(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles, wins and the two rules for one metric, from
    values paired by seed."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    gain = sign * (c[1] - p[1])
    worse = -gain / abs(p[1]) if p[1] else 0.0  # relative loss of the median
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent),
            "relative": (c[1] - p[1]) / abs(p[1]) if p[1] else 0.0,
            "gain_holds": wins >= math.ceil(GAIN_SHARE * len(parent)) and gain > p[2] - p[0],
            "within_bound": worse <= bound}


def _summary(q) -> str:
    """The median and [q1, q3] of quartiles()."""
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def failed_share(runs: dict, seeds, workload: str) -> tuple:
    """(failed, attempted) operations over the paired runs."""
    results = [runs[s][workload] for s in seeds if workload in runs[s]]
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def compare(parent: dict, change: dict, benchmark: dict) -> tuple:
    """(report lines, whether every bound holds)."""
    p_runs, c_runs = untraced_runs(parent), untraced_runs(change)
    seeds = sorted(set(p_runs) & set(c_runs))
    lines = [f"{len(seeds)} seeds run by both: {seeds}"]
    ok = bool(seeds)
    for workload in (w["name"] for w in benchmark["workloads"]):
        p_fail, p_ops = failed_share(p_runs, seeds, workload)
        c_fail, c_ops = failed_share(c_runs, seeds, workload)
        more_failures = c_fail * max(p_ops, 1) > p_fail * max(c_ops, 1)
        ok &= not more_failures
        lines.append(f"{workload}: failed operations {p_fail}/{p_ops} -> {c_fail}/{c_ops}"
                     + ("  MORE FAILURES" if more_failures else ""))
        for m in benchmark["end_to_end"]:
            pv = metric_values(p_runs, seeds, workload, m["name"])
            cv = metric_values(c_runs, seeds, workload, m["name"])
            if len(pv) != len(seeds) or len(cv) != len(seeds) or not seeds:
                lines.append(f"  {m['name']}: missing from some runs")
                ok = False
                continue
            r = compare_metric(pv, cv, m["better"], m["bound"])
            ok &= r["within_bound"]
            lines.append(
                f"  {m['name']} ({m['unit']}, {m['better']} is better): "
                f"{_summary(r['parent'])} -> {_summary(r['change'])}, {r['relative']:+.1%}; "
                f"better in {r['wins']}/{r['pairs']} pairs; "
                f"gain {'holds' if r['gain_holds'] else 'does not hold'}; "
                f"{'within' if r['within_bound'] else 'OUTSIDE'} the {m['bound']:.0%} bound")
    return lines, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(json.loads(args.parent.read_text()),
                        json.loads(args.change.read_text()), benchmark)
    print(f"{args.parent.name} -> {args.change.name}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
