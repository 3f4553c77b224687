"""One benchmark child process: set up one workload, then time it.

Started by run.py with one JSON argument; prints one JSON line.  Its
address space is capped first, so a run out of memory raises MemoryError
here, which counts as a failed operation.

Speed scaling.  The 2-core virtual machine this benchmark was built on
changes speed by up to 1.5x from one second to the next and drifts as much
over minutes, for Python and numpy code alike and with no steal time
reported; no number of repetitions averages that away.  So while it sets up
and while each operation runs, the child times a fixed pure-Python task
every SPEED_INTERVAL_S (from a SIGALRM handler, so it samples the machine
as the work sees it), takes those sample seconds out of the measured time,
and reports the factor SPEED_REF_S / (mean sample time).  run.py multiplies
the remaining seconds by that factor: end-to-end times are seconds at the
speed where the task takes SPEED_REF_S.  Raw seconds are reported too.
"""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_OPS = 3              # timed operations per run, however short --seconds is
TRACE_TOLERANCE = 0.05   # top-level spans must cover the traced seconds to within this share
SPEED_INTERVAL_S = 0.1
SPEED_REF_S = 4.0e-4     # about the task's time on that machine at its fastest


class SpeedProbe:
    """Samples the machine's speed while the benchmark works."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        # integer arithmetic only: touching memory would time the caches
        # the interrupted work left behind, not the processor
        t0 = time.perf_counter()
        x = 1
        for _ in range(4000):
            x = (x * 1103515245 + 12345) & 0x3FFFFFFF
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)

    def stop(self):
        """(seconds the samples took, speed factor); one last sample makes
        sure there is at least one."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        busy = sum(self.samples)
        self._sample()
        return busy, SPEED_REF_S / statistics.mean(self.samples)


def emit(obj):
    print(json.dumps(obj), flush=True)


def environment(blas_threads) -> dict:
    import numpy as np
    from gram import kernels
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    backend = getattr(kernels, "backend", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "kernels_backend": backend() if backend else "absent",
    }


def main():
    spec = json.loads(sys.argv[1])
    limit = spec["mem_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    probe = SpeedProbe()
    probe.start()

    import gram
    src = Path(spec["root"]) / "src"
    if src.resolve() not in Path(gram.__file__).resolve().parents:
        sys.exit(f"imported gram from {gram.__file__}, not from {src}")
    from metrics import layer_values
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["size"], Path(spec["tmp"]))
    if spec["mode"] == "reference":
        probe.stop()
        emit(workload.reference())
        return

    trace = spec["mode"] == "trace"
    tracer = Tracer()
    if trace:
        tracer.install()
        tracer.phase = "setup"
    workload.setup()
    setup_s = time.monotonic() - spec["t_spawn"]
    busy, setup_scale = probe.stop()
    setup_s -= busy
    tracer.uninstall()
    tracer.phase = "idle"
    if spec["mode"] == "setup":
        emit({"setup_s": setup_s, "setup_scale": setup_scale})
        return

    def operation(i: int, traced: bool):
        """(wall seconds, seconds less the speed samples, speed factor) of
        one checked operation."""
        workload.prepare(i)
        if traced:
            tracer.install()
            tracer.phase = "timed"
        probe.start()
        t0 = time.perf_counter()
        try:
            output = workload.run(i)
        finally:
            dt = time.perf_counter() - t0
            busy, scale = probe.stop()
            tracer.phase = "idle"
            tracer.uninstall()
        workload.check(output)
        return dt, dt - busy, scale

    op_s, op_scale, op_wall, warmup_s, errors = [], [], [], [], []
    failed = 0
    start = None
    while len(op_s) < MIN_OPS or time.monotonic() - start < spec["seconds"]:
        i = len(warmup_s) + len(op_s)
        warmup = len(warmup_s) < workload.warmup_ops
        traced = trace and not warmup and len(op_s) % 2 == 1   # every other one, for the overhead
        try:
            wall, dt, scale = operation(i, traced)
        except MemoryError:
            failed += 1
            errors.append(f"operation {i}: out of memory under a {spec['mem_mb']} MB address space")
            break
        except Exception:  # a failed operation is a result, recorded with its traceback
            failed += 1
            errors.append(f"operation {i}: {traceback.format_exc()}")
            break
        if warmup:
            warmup_s.append(dt)
            continue
        if start is None:
            start = time.monotonic() - dt
        op_s.append(dt)
        op_scale.append(scale)
        op_wall.append(wall)

    reference_ok = True
    if not failed:
        try:
            workload.check_reference(spec["reference"].get(spec["workload"], {}))
        except Exception:
            reference_ok = False
            errors.append(f"reference check: {traceback.format_exc()}")

    result = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "warmup_s": warmup_s,
        "op_s": op_s,
        "op_scale": op_scale,
        "graphs_per_op": workload.graphs_per_op,
        "attempted": len(warmup_s) + len(op_s) + failed,
        "failed": failed,
        "reference_ok": reference_ok,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(spec["blas_threads"]),
    }
    traced_ops = op_s[1::2] if trace else []
    if traced_ops:
        scaled = [t * f for t, f in zip(op_s, op_scale)]
        overhead = statistics.median(scaled[1::2]) / statistics.median(scaled[0::2])
        values, absent = layer_values(tracer, workload.graphs_per_op * len(traced_ops),
                                      overhead, statistics.mean(op_scale[1::2]), setup_scale)
        coverage = tracer.top_level_s["timed"] / sum(op_wall[1::2])
        result.update(layers=values, absent=absent, probe_errors=tracer.probe_errors,
                      traced_ops=len(traced_ops), trace_coverage=coverage,
                      trace_tolerance=TRACE_TOLERANCE,
                      trace_ok=math.isclose(coverage, 1.0, abs_tol=TRACE_TOLERANCE))
    emit(result)


if __name__ == "__main__":
    main()
