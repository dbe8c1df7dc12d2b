"""The kernel's ``whnf``, ``normalize`` and ``conv`` against the frozen copy
in ``reference_reduce.py``: the same normal forms, the same conversion
verdicts and the same step counts (or the same exhausted budget), on the
criterion-5 population, on random scoped terms and on arithmetic over
numerals of a few hundred."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
import reference_reduce as ref  # noqa: E402
from enumeration import Enumerator, random_scoped_term  # noqa: E402

from hott import reduce
from hott.reduce import BudgetExhausted, ReductionBudget
from hott.terms import EMPTY_SIGNATURE, App, Const, numeral

PAIR_CAP = 20  # per-type sample width for the pairwise conv comparison


def _run(fn, *args, max_steps: int):
    budget = ReductionBudget(max_steps=max_steps)
    try:
        return fn(*args, budget), budget.steps_used
    except BudgetExhausted as e:
        return "exhausted", e.steps


def _whnf_unfold(module):
    return lambda sig, t, budget: module.whnf(sig, t, budget, unfold=True)


def assert_same(sig, op: str, *terms, max_steps: int = 10_000_000) -> None:
    fns = {
        "whnf": (reduce.whnf, ref.whnf),
        "whnf-unfold": (_whnf_unfold(reduce), _whnf_unfold(ref)),
        "normalize": (reduce.normalize, ref.normalize),
        "conv": (reduce.conv, ref.conv),
    }
    kernel, oracle = fns[op]
    got = _run(kernel, sig, *terms, max_steps=max_steps)
    with ref.deep():
        want = _run(oracle, sig, *terms, max_steps=max_steps)
    assert got == want, (op, terms)


@pytest.fixture(scope="module")
def population():
    return Enumerator(max_size=8).population()


def test_population_matches_reference(population):
    buckets: dict = {}
    for t, ty in population:
        for op in ("whnf", "whnf-unfold", "normalize"):
            assert_same(EMPTY_SIGNATURE, op, t)
        buckets.setdefault(ty, []).append(t)
    for terms in buckets.values():
        sample = terms[:PAIR_CAP]
        for a in sample:
            for b in sample:
                assert_same(EMPTY_SIGNATURE, "conv", a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=30))
def test_random_terms_match_reference(seed, fuel):
    rng = random.Random(seed)
    t = random_scoped_term(rng, rng.randrange(0, 3), fuel)
    u = random_scoped_term(rng, rng.randrange(0, 3), fuel)
    for op in ("whnf", "whnf-unfold", "normalize"):
        assert_same(EMPTY_SIGNATURE, op, t, max_steps=2_000)
    assert_same(EMPTY_SIGNATURE, "conv", t, u, max_steps=2_000)
    assert_same(EMPTY_SIGNATURE, "conv", t, t, max_steps=2_000)


# name -> (largest operand drawn, the function on host integers)
ARITHMETIC = {
    "add": (300, lambda a, b: a + b),
    "dist": (300, lambda a, b: abs(a - b)),
    "min": (300, min),
    "max": (300, max),
    "mul": (25, lambda a, b: a * b),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ARITHMETIC)), st.data())
def test_arithmetic_matches_reference(stdlib_sig, name, data):
    bound, value = ARITHMETIC[name]
    a = data.draw(st.integers(min_value=0, max_value=bound))
    b = data.draw(st.integers(min_value=0, max_value=bound))
    term = App(App(Const(name), numeral(a)), numeral(b))
    n = value(a, b)
    assert_same(stdlib_sig, "normalize", term)
    assert_same(stdlib_sig, "whnf-unfold", term)
    for other in (numeral(n), numeral(n + 1), App(App(Const(name), numeral(b)), numeral(a))):
        assert_same(stdlib_sig, "conv", term, other)


@pytest.mark.parametrize("n", [500, 2_000])
def test_conv_on_numerals_differing_at_the_base_is_linear(monkeypatch, n):
    # Every comparison of two Succ chains walks them with ``terms.spine``;
    # counted here, the walk stays linear in the length of the numerals.
    from hott import terms

    walked = []
    spine = terms.spine

    def counting(t):
        count, base = spine(t)
        walked.append(count)
        return count, base

    lhs, rhs = numeral(n), numeral(n + 1)
    monkeypatch.setattr(terms, "spine", counting)
    assert _run(reduce.conv, EMPTY_SIGNATURE, lhs, rhs, max_steps=0) == (False, 0)
    assert sum(walked) <= 2 * n + 1
