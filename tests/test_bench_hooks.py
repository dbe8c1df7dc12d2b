"""The benchmark's boundary tracer still reaches into hott.

``perfbench/boundary.py`` replaces, from outside, names that hott modules
import from one another; a refactor that renames or stops calling through
one of them would silently empty the traced benchmark's figures.
"""

from __future__ import annotations

import importlib
import sys

from conftest import ROOT, STDLIB

sys.path.insert(0, str(ROOT / "perfbench"))

from boundary import Tracer  # noqa: E402

# ``hott.check`` and ``hott.reduce`` also name functions the package exports.
check, cli, reduce = (importlib.import_module(f"hott.{name}") for name in ("check", "cli", "reduce"))


def test_tracer_counts_a_check_run(capsys):
    originals = (check.whnf, cli.Parser, reduce.ReductionBudget.tick)
    tracer = Tracer()
    tracer.install()
    try:
        assert check.whnf is not originals[0]
        assert cli.main(["check", str(STDLIB / "prelude.hott")]) == 0
    finally:
        tracer.uninstall()
    assert (check.whnf, cli.Parser, reduce.ReductionBudget.tick) == originals
    figures = tracer.layer_metrics()
    for name in ("reduce.whnf_calls", "reduce.conv_calls", "reduce.steps",
                 "parser.tokens", "parser.items", "loader.records", "terms.sig_extends"):
        assert figures[name] > 0, name
