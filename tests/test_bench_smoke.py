"""The benchmark's own self-test runs as part of the test suite.

`perfbench/run.py --smoke` runs every workload at tiny sizes, with tracing
off and on, and checks that its oracle gate flags corrupted outputs. A
change that breaks a workload's listed bindings or a metric fails here.
It writes only under the git-ignored perfbench/out/.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
