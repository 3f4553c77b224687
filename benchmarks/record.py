#!/usr/bin/env python3
"""Record perfbench runs of a checkout in BENCH_<short-commit>.json.

    python3 benchmarks/record.py --seeds 11 12 13
    python3 benchmarks/record.py --seeds 11 --trace 1 --checkout ../parent

For each seed, runs the checkout's own `perfbench/run.py --workload all`,
unchanged, and stores every workload's info line and result.  The file is
named after the checkout's commit and written at the root of the
repository that holds this script, so a parent and a change measured in
turn land side by side.  Runs already in the file are kept; a new run of
the same seed and trace setting replaces the old one.  Exits non-zero when
a run reports a failure, after saving it.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout: Path, *args) -> str:
    out = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"git {' '.join(args)} failed in {checkout}: {out.stderr.strip()}")
    return out.stdout.strip()


def add_entry(checkout: Path, key: str, entry: dict, replaces=lambda old: False):
    """Add entry to the list under key of BENCH_<short-commit>.json, the
    file of the checkout's commit at the root of this repository, stamped
    with whether the checkout's tracked files differ from that commit and
    the time; the entries for which replaces(old) holds are dropped.  Exits
    when the file records another commit."""
    commit = git(checkout, "rev-parse", "HEAD")
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    path = ROOT / f"BENCH_{commit[:7]}.json"
    record = json.loads(path.read_text()) if path.is_file() else {"commit": commit, "runs": []}
    if record["commit"] != commit:
        sys.exit(f"{path.name} records commit {record['commit']}, not {commit}")
    kept = [old for old in record.get(key, []) if not replaces(old)]
    record[key] = kept + [{**entry, "dirty": dirty,
                           "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}]
    path.write_text(json.dumps(record, indent=1) + "\n")


def run_once(checkout: Path, seed: int, trace: int) -> dict:
    """{workload: {"info": ..., "result": ...}} of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--trace", str(trace)], cwd=checkout, stdout=subprocess.PIPE, text=True)
    runs, info = {}, None
    for line in proc.stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "info" in obj:
            info = obj["info"]
        elif info is not None:
            runs[info["workload"]] = {"info": info, "result": obj}
            info = None
    if not runs:
        sys.exit(f"perfbench printed no result (exit code {proc.returncode})")
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the checkout to measure (default: this repository)")
    args = ap.parse_args()
    checkout = args.checkout.resolve()
    ok = True
    for seed in args.seeds:
        workloads = run_once(checkout, seed, args.trace)
        ok &= all(w["result"]["correct"] for w in workloads.values())
        add_entry(checkout, "runs", {"seed": seed, "trace": args.trace, "workloads": workloads},
                  lambda old: (old["seed"], old["trace"]) == (seed, args.trace))
        print(f"seed {seed}: " + ", ".join(
            f"{name} {w['result']['metrics'].get('graphs_per_s', {}).get('value', '-')}"
            for name, w in workloads.items()), file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
