import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("compare", ROOT / "benchmarks" / "compare.py")
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)


def record(values_by_seed, trace_values=None, failed=0):
    """A record of benchmarks/record.py whose runs give every metric of
    every workload the value values_by_seed[seed][metric] (1.0 if absent)."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    def workloads(values):
        metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]}
                   for m in benchmark["end_to_end"]}
        return {w["name"]: {"info": {}, "result": {"correct": True, "attempted": 10,
                                                   "failed": failed, "metrics": metrics}}
                for w in benchmark["workloads"]}

    runs = [{"seed": s, "trace": 0, "workloads": workloads(v)} for s, v in values_by_seed.items()]
    if trace_values is not None:
        runs.append({"seed": 1, "trace": 1, "workloads": workloads(trace_values)})
    return {"commit": "0" * 40, "runs": runs}


def lines_of(output, metric):
    return [line for line in output.splitlines() if line.strip().startswith(metric + " ")]


def test_compare_pairs_runs_by_seed_and_applies_both_rules(tmp_path, capsys):
    seeds = list(range(1, 11))
    parent = record({s: {"graphs_per_s": 100.0 + s, "peak_rss_mb": 40.0} for s in seeds},
                    trace_values={"graphs_per_s": 1.0})  # traced runs are left out
    # the change: 20 % faster on every seed, listed in another order, one
    # unpaired seed that would lose; peak memory 15 % worse, beyond its 10 %
    values = {s: {"graphs_per_s": 1.2 * (100.0 + s), "peak_rss_mb": 46.0}
              for s in reversed(seeds)}
    values[99] = {"graphs_per_s": 1.0}
    paths = tmp_path / "BENCH_parent.json", tmp_path / "BENCH_change.json"
    paths[0].write_text(json.dumps(parent))
    paths[1].write_text(json.dumps(record(values)))
    assert compare.main([str(p) for p in paths]) == 1
    out = capsys.readouterr().out
    assert f"10 seeds run by both: {seeds}" in out
    for line in lines_of(out, "graphs_per_s"):
        assert "105.5 [102.8, 108.2] -> 126.6 [123.3, 129.9], +20.0%" in line
        assert "better in 10/10 pairs; gain holds; within the 25% bound" in line
    for line in lines_of(out, "peak_rss_mb"):
        assert "+15.0%; better in 0/10 pairs; gain does not hold; OUTSIDE the 10% bound" in line
    assert len(lines_of(out, "graphs_per_s")) == len(lines_of(out, "peak_rss_mb")) == 3


@pytest.mark.parametrize("wins, gap, holds", [(9, 10.0, True), (8, 10.0, False),
                                              (10, 0.5, False)])
def test_gain_needs_nine_pairs_and_a_gap_beyond_the_quartile_spread(wins, gap, holds):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # spread 5.5
    if gap > 5.5:
        change = [p + gap if i < wins else p - 0.1 for i, p in enumerate(parent)]
    else:  # a small gap: every pair wins, but by less than the spread
        change = [p + gap for p in parent]
    r = compare.compare_metric(parent, change, "higher", 0.25)
    assert r["wins"] == wins and r["gain_holds"] == holds and r["within_bound"]
    lower = compare.compare_metric(change, parent, "lower", 0.25)  # seconds: less is better
    assert lower["wins"] == wins and lower["gain_holds"] == holds


def test_more_failed_operations_fail_the_comparison(tmp_path):
    seeds = range(1, 4)
    paths = tmp_path / "p.json", tmp_path / "c.json"
    paths[0].write_text(json.dumps(record({s: {} for s in seeds})))
    paths[1].write_text(json.dumps(record({s: {} for s in seeds}, failed=1)))
    assert compare.main([str(p) for p in paths]) == 1
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
