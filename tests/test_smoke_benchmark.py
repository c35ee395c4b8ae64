"""The benchmark's own smoke check, ``perfbench/smoke.py``, runs every
workload at a tiny size, untraced and traced. The workloads read the
training loops' return values and time epochs from their per-epoch ``log``
calls, so a change there that breaks ``perfbench/run.py`` fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_check_exits_zero():
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, (done.stdout + done.stderr)[-3000:]
