"""Smoke test of ``scripts/ab.py``: one round against ``HEAD`` finds the same
outputs and steps in both trees and reports every workload."""

from __future__ import annotations

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
    assert {row.split()[0] for row in rows} == {"stdlib", "eval", "bulk"}
    assert len(rows) == 9  # verdict_s, item_ms.p50 and item_ms.p90 per workload
