import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_run_passes():
    """Every workload at its smoke size, traced and untraced: the calls the
    benchmark makes into gram still work, every declared metric is reported,
    and the float64 train NLL matches perfbench/reference.json to 1e-9."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke_ok": True}
