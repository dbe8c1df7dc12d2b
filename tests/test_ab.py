"""Smoke test of ``scripts/ab.py``: one round against ``HEAD`` finds the same
outputs and steps in both trees and reports the import time and every
workload, its peak memory included, each with the rounds the new tree won."""

from __future__ import annotations

import re
import subprocess
import sys

import pytest

from conftest import ROOT

AT_HEAD = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True).returncode == 0


@pytest.mark.skipif(not AT_HEAD, reason="needs a git checkout")
def test_one_round_against_head_reports_every_workload():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), "HEAD", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.startswith("1 rounds, outputs and steps identical")
    assert {row.split()[0] for row in rows} == {"setup", "stdlib", "eval", "bulk"}
    assert len(rows) == 16  # import_s, then verdict_s, item_ms.p50, item_ms.p90, peak_mb and iota_done per workload
    assert all(re.search(r"  new/old \d+\.\d{3}  wins [01]/1$", row) for row in rows), rows
    peaks = {row.split()[0]: [float(row.split()[i]) for i in (3, 5)] for row in rows if row.split()[1] == "peak_mb"}
    assert set(peaks) == {"stdlib", "eval", "bulk"}
    # a pass's own peak: more than a bare interpreter's, and far below perfbench's readings
    assert all(5 < mb < 200 for pair in peaks.values() for mb in pair), peaks
