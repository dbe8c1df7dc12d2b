"""The negative corpus: every #fail item is rejected with the right rule."""

from __future__ import annotations

import pytest
from conftest import ROOT, fail_rules

from hott.check import CheckError
from hott.loader import ProcessOptions, attempt_item, process_module
from hott.parser import PragmaFail, SurfaceModule, parse
from hott.terms import EMPTY_SIGNATURE

NEGATIVE = ROOT / "tests" / "negative"

EXPECTED_RULES = {
    ("type-in-type.hott", 2): "universe-mismatch",
    ("rejections.hott", 17): "universe-mismatch",
    ("rejections.hott", 20): "refl-endpoints-not-convertible",
    ("rejections.hott", 23): "Nat-ind",
    ("rejections.hott", 26): "Nat-ind",
    ("rejections.hott", 29): "unbound-identifier",
    ("rejections.hott", 33): "assertion-failed",
    ("rejections.hott", 38): "W-intro",
    ("rejections.hott", 42): "not-a-function",
    ("rejections.hott", 45): "Sigma-intro",
    ("rejections.hott", 48): "cannot-synthesize",
    ("rejections.hott", 52): "duplicate-name",
    ("rejections.hott", 55): "type-mismatch",
    ("rejections.hott", 58): "not-a-type",
    ("rejections.hott", 61): "Coprod-ind",
    ("rejections.hott", 65): "Eq-ind",
    ("rejections.hott", 68): "lambda-domain-mismatch",
    ("rejections.hott", 71): "assertion-failed",
    ("rejections.hott", 75): "fail-expected",
    ("rejections.hott", 78): "Coprod-ind",
    ("rejections.hott", 82): "W-ind",
    ("rejections.hott", 89): "Trunc-ind",
    ("rejections.hott", 95): "not-a-type",
    ("rejections.hott", 98): "Sigma-ind",
    ("rejections.hott", 101): "Coprod-intro",
    ("rejections.hott", 104): "Trunc-intro",
    ("rejections.hott", 107): "not-a-type",
    ("rejections.hott", 110): "type-mismatch",
}

# A failed premise of an eliminator or of tree is reported under the
# rule's name, with the premise named before the inner message.
EXPECTED_PREFIXES = {
    ("rejections.hott", 23): "inductive step: ",
    ("rejections.hott", 26): "base case: ",
    ("rejections.hott", 38): "components: ",
    ("rejections.hott", 65): "center: ",
    ("rejections.hott", 78): "branch: ",
    ("rejections.hott", 82): "inductive step: ",
}


def outcomes():
    result = {}
    for path in sorted(NEGATIVE.glob("*.hott")):
        for line, rule in fail_rules(path).items():
            result[(path.name, line)] = rule
    return result


def test_at_least_twelve_fail_items():
    count = 0
    for path in NEGATIVE.glob("*.hott"):
        module = parse(path.read_text(), path.name)
        count += sum(isinstance(i, PragmaFail) for i in module.items)
    assert count >= 12


def test_every_fail_item_is_rejected():
    for key, rule in outcomes().items():
        assert rule is not None, f"{key} was accepted"


def test_rules_are_the_intended_ones():
    assert outcomes() == EXPECTED_RULES


def test_premise_messages_name_the_premise():
    messages = {}
    for path in sorted(NEGATIVE.glob("*.hott")):
        sig = EMPTY_SIGNATURE
        for item in parse(path.read_text(), path.name).items:
            key = (path.name, item.span[0])
            if not isinstance(item, PragmaFail):
                sig = process_module(sig, SurfaceModule((item,), path.name))
            elif key in EXPECTED_PREFIXES:
                with pytest.raises(CheckError) as e:
                    process_module(sig, SurfaceModule((item.item,), path.name))
                messages[key] = e.value.message
    assert messages.keys() == EXPECTED_PREFIXES.keys()
    for key, prefix in EXPECTED_PREFIXES.items():
        assert messages[key].startswith(prefix), (key, messages[key])


def test_cli_accepts_negative_corpus(capsys):
    from hott.cli import main

    for path in sorted(NEGATIVE.glob("*.hott")):
        assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_nested_fail_inverts_twice_and_traces_nothing():
    module = parse("#fail #fail def bad : Nat := star\n#fail #fail def fine : Nat := zero\n")
    trace: list[str] = []
    opts = ProcessOptions(trace=trace.append)
    # the wrapped items: `#fail def bad` holds, `#fail def fine` is rejected
    assert [attempt_item(EMPTY_SIGNATURE, item.item, opts) for item in module.items] == [None, "fail-expected"]
    assert trace == []
