#!/usr/bin/env python3
"""Benchmark of gram's three offline paths: training, sampling, evaluation.

    python3 perfbench/run.py --workload train-grid --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports `gram` from `src/` there and
fails without a result when that is missing.  Each workload runs in child
processes under an address-space limit (see child.py).  `--trace 0` prints
the end-to-end metrics of an untraced run; `--trace 1` prints the per-layer
metrics of a run whose every other operation is traced from outside
(tracer.py).  The last line of standard output is one JSON object; the lines
before it record the environment and the sample counts, and a table goes to
standard error.

    --workload all     every workload in turn, carrying on past failures
    --smoke            every workload at a tiny size, traced and untraced,
                       asserting that each metric of BENCHMARK.json is
                       emitted with its unit
    --record-reference rewrite reference.json from the fixed reference inputs
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("train-grid", "sample-grid", "eval-grid")
SETUPS = 5               # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0       # every child of one run ends within this
# One BLAS thread: the products are 128 wide, and on a 2-core machine one
# thread ran train-grid about 10 % faster and steadier than two.
BLAS_THREADS = 1
MEM_MB = 6144            # address-space limit of a child; train-grid peaks near 3.9 GB
REFERENCE = HERE / "reference.json"
TMP = ROOT / ".perfbench_tmp"


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:  # no git on this machine
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.started = time.monotonic()

    def child(self, workload: str, mode: str, size: str) -> dict:
        """Run one child to completion; a crash, a kill or a timeout comes
        back as {"crash": reason}."""
        TMP.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(dir=TMP)
        spec = {"workload": workload, "mode": mode, "size": size, "seed": self.args.seed,
                "seconds": self.args.seconds, "mem_mb": MEM_MB, "root": str(ROOT),
                "tmp": tmp, "reference": self.reference, "blas_threads": BLAS_THREADS,
                "t_spawn": time.monotonic()}
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"crash": f"killed after {timeout:.0f} s"}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            if TMP.is_dir() and not any(TMP.iterdir()):
                TMP.rmdir()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crash": f"exit code {proc.returncode}"}
        return json.loads(lines[-1])

    def workload(self, name: str, trace: bool, size: str = "full"):
        """(result dict, info dict) of one run of one workload."""
        self.started = time.monotonic()
        setups = []
        if not trace:
            for _ in range(SETUPS - 1):
                res = self.child(name, "setup", size)
                if "crash" in res:
                    return self.failure(name, res["crash"])
                setups.append(res["setup_s"] * res["setup_scale"])
        res = self.child(name, "trace" if trace else "time", size)
        if "crash" in res:
            return self.failure(name, res["crash"])
        setups.append(res["setup_s"] * res["setup_scale"])
        ops = [t * f for t, f in zip(res["op_s"], res["op_scale"])]
        correct = res["failed"] == 0 and res["reference_ok"] and res.get("trace_ok", True)
        info = {"workload": name, "seed": self.args.seed, "commit": git_commit(),
                "env": res["env"], "errors": res["errors"]}
        if trace:
            if "layers" not in res:
                return self.failure(name, "no traced operation finished", res)
            metrics = {m: {"value": res["layers"][m], "unit": unit}
                       for m, unit, _, _ in PER_LAYER}
            info.update(traced_operations=res["traced_ops"], absent=res["absent"],
                        probe_errors=res["probe_errors"], trace_coverage=res["trace_coverage"],
                        trace_tolerance=res["trace_tolerance"])
        else:
            per_graph = [s / res["graphs_per_op"] for s in ops]
            values = {
                "setup_s": (statistics.median(setups), len(setups)),
                "graphs_per_s": (len(ops) * res["graphs_per_op"] / sum(ops), len(per_graph))
                if ops else (0.0, 0),
                "graph_s_p50": (statistics.median(per_graph), len(ops)) if ops else (0.0, 0),
                "peak_rss_mb": (res["peak_rss_mb"], 1),
            }
            metrics = {m: {"value": values[m][0], "unit": unit} for m, unit, _ in END_TO_END}
            info["samples"] = {m: values[m][1] for m in values}
            info["graphs"] = len(ops) * res["graphs_per_op"]
            info["op_s"] = ops
            info["raw_op_s"] = res["op_s"]
            info["warmup_s"] = res["warmup_s"]
        result = {"correct": correct, "attempted": res["attempted"],
                  "failed": res["failed"], "metrics": metrics}
        return result, info

    def failure(self, name, reason, res=None):
        res = res or {}
        result = {"correct": False, "attempted": max(1, res.get("attempted", 1)),
                  "failed": max(1, res.get("failed", 1)), "metrics": {}}
        return result, {"workload": name, "seed": self.args.seed,
                        "errors": res.get("errors", []) + [reason]}


def table(result, info):
    rows = [f"{info['workload']}  seed {info['seed']}  attempted {result['attempted']}"
            f"  failed {result['failed']}  correct {result['correct']}"]
    moves = {name: move for name, _, _, move in PER_LAYER}
    for name, m in result["metrics"].items():
        extra = (f"n={info['samples'][name]}" if "samples" in info
                 else "absent" if name in info.get("absent", ()) else moves[name])
        rows.append(f"  {name:40s} {m['value']:14.6g} {m['unit']:16s} {extra}")
    rows += [f"  error: {e}" for e in info["errors"]]
    return "\n".join(rows)


def report(result, info):
    print(table(result, info), file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


def smoke(runner) -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner.args.seconds = 0.0
    ok = True
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, info = runner.workload(name, trace, size="smoke")
            print(table(result, info), file=sys.stderr)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want or not result["correct"] or result["failed"]:
                ok = False
                print(f"SMOKE FAIL {name} trace={int(trace)}: expected {want}, got {got}",
                      file=sys.stderr)
    print(json.dumps({"smoke_ok": ok}))
    return ok


def record_reference(runner):
    recorded = {}
    for name in WORKLOADS:
        res = runner.child(name, "reference", "full")
        if "crash" in res:
            sys.exit(f"reference run of {name} failed: {res['crash']}")
        if res:
            recorded[name] = res
    REFERENCE.write_text(json.dumps(recorded, indent=2) + "\n")
    print(json.dumps(recorded))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "gram" / "__init__.py").is_file():
        sys.exit(f"no gram sources under {ROOT / 'src'}: run from a checkout of the repository")
    if not REFERENCE.is_file() and not args.record_reference:
        sys.exit(f"missing {REFERENCE}")
    runner = Runner(args)
    if args.record_reference:
        record_reference(runner)
        return
    if args.smoke:
        sys.exit(0 if smoke(runner) else 1)
    if args.workload != "all":
        result, info = runner.workload(args.workload, bool(args.trace))
        report(result, info)
        sys.exit(0 if result["correct"] else 1)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result, info = runner.workload(name, bool(args.trace))
        report(result, info)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    sys.exit(0 if merged["correct"] else 1)


if __name__ == "__main__":
    main()
