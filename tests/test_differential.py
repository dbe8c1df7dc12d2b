"""Smoke test of ``scripts/differential.py`` on a few probes per family:
``HEAD`` agrees with the working tree, and a planted change is reported."""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

from conftest import ROOT

sys.path.insert(0, str(ROOT / "scripts"))
import differential  # noqa: E402

LIMIT = 5  # probes per family


def _at_head() -> bool:
    proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True)
    return proc.returncode == 0


@pytest.mark.skipif(not _at_head(), reason="needs a git checkout")
def test_head_agrees_with_the_working_tree(tmp_path):
    head = differential.export("HEAD", tmp_path)
    count, difference = differential.compare(head, ROOT / "src", LIMIT)
    assert difference is None
    assert count >= 3 * LIMIT  # front, kernel and reduce each hold more than LIMIT probes


def _plant(tmp_path, old: str, new: str):
    """A copy of ``src`` with ``old``, found once in ``reduce.py``, replaced by ``new``."""
    planted = tmp_path / "src"
    shutil.copytree(ROOT / "src", planted, ignore=shutil.ignore_patterns("__pycache__"))
    reduce_py = planted / "hott" / "reduce.py"
    text = reduce_py.read_text(encoding="utf-8")
    assert text.count(old) == 1
    reduce_py.write_text(text.replace(old, new), encoding="utf-8")
    return planted


def test_planted_difference_is_reported(tmp_path):
    planted = _plant(tmp_path, "self.steps_used += 1", "self.steps_used += 2")
    _, difference = differential.compare(ROOT / "src", planted, LIMIT)
    assert difference is not None
    probe, old, new = difference.splitlines()
    assert probe.startswith("probe: ") and old.startswith("old: ") and new.startswith("new: ")
    assert old.removeprefix("old: ") != new.removeprefix("new: ")


def test_planted_forced_constant_is_reported(tmp_path):
    # a constant under an update frame unfolds whatever ``unfold`` says: the
    # forced-constant probes, first in the ``reduce`` family, report it
    planted = _plant(tmp_path, "frames is not None and frames[2] is not _UPDATE)", "frames is not None)")
    _, difference = differential.compare(ROOT / "src", planted, LIMIT)
    assert difference is not None and difference.startswith("probe: reduce forced ")
