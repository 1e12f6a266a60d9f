"""The measurement scripts run as part of the suite.

`scripts/pipeline_vs_scan.py --smoke` times every pipeline layer and the
equality scan on tiny verify-row and verify-conv instances and asserts that
their masks agree. A change that renames a function it times, or makes the
pipeline and the scan disagree, fails here. It writes no file.
`scripts/conv_count_timing.py` is run on one tiny cell.
`scripts/ab_pairs.py --smoke` compares this checkout with itself in
alternating benchmark pairs, untraced and traced, and checks the layout of
the BENCH file it would write and that the digests agree.
`scripts/level_memory.py --smoke` measures the peak of one tiny solve per
driver at a small and a large entry bound.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pipeline_vs_scan_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "scripts/pipeline_vs_scan.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "pipeline faster than the scan on" in proc.stdout


def test_conv_count_timing_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "scripts/conv_count_timing.py", "--cells", "8:13", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    (run,) = json.loads(proc.stdout.splitlines()[-1])["runs"]
    assert (run["n"], run["Q"]) == (8, 13) and run["hits"] > 0


def test_ab_pairs_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "scripts/ab_pairs.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"what", "claim", "command", "host", "protocol", "result", "runs"}
    assert [(r["pair"], r["side"], r["trace"]) for r in doc["runs"]] == [
        (1, "parent", 0), (1, "change", 0), (2, "change", 0), (2, "parent", 0),
        (1, "parent", 1), (1, "change", 1),
    ]
    p50 = doc["result"]["smoke: verify-mix seed 1"]["solve_s.p50"]
    assert set(p50) == {
        "parent_median", "parent_iqr", "change_median", "change_iqr", "change_pct", "pairs_won",
    }


def test_level_memory_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "scripts/level_memory.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    rows = json.loads(proc.stdout.splitlines()[-1])["rows"]
    assert [row["kind"] for row in rows] == ["product-row"] * 2 + ["product-col"] * 2 + ["conv"] * 2
