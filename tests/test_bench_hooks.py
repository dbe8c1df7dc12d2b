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

import drive  # noqa: E402
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


def test_drive_builds_the_eval_signature(monkeypatch):
    monkeypatch.chdir(ROOT)  # the pass reads the stdlib from the benchmark's working directory
    sig = drive.nat_signature()
    assert "add" in sig and "factorial" in sig


# Six items, two of them #fail.  The first #fail's item resolves, so its
# attempt draws one more record; the second's is an unbound name, so it
# draws none.
COUNTED = """\
postulate p : Nat
def two : Nat := succ (succ zero)
#check two : Nat
#assert-neq two == p : Nat
#fail def bad : Nat := star
#fail #eval missing
"""


def test_tracer_counts_records_and_fail_items(tmp_path, capsys):
    path = tmp_path / "counted.hott"
    path.write_text(COUNTED, encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["check", str(path)]) == 0
    finally:
        tracer.uninstall()
    figures = tracer.layer_metrics()
    assert (figures["parser.items"], figures["loader.records"], figures["loader.fail_items"]) == (6, 7, 2)
