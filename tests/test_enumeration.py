"""Kernel property suite over enumerated well-typed closed terms.

Covers: population size, conversion as an equivalence relation and a
congruence, soundness of whnf, idempotence of normalize, subject
reduction, weakening and substitution soundness, the
substitution-cancels-weakening identity on random scoped terms, and
``at`` against the shift and substitution it fuses.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from enumeration import Enumerator, random_scoped_term, synthesizing  # noqa: E402

from hott.check import check, infer
from hott.reduce import ReductionBudget, conv, normalize, whnf
from hott.terms import (
    EMPTY_CONTEXT,
    EMPTY_SIGNATURE,
    NAT,
    STAR,
    UNIT,
    ZERO,
    App,
    IndNat,
    Inl,
    Inr,
    Lambda,
    Pair,
    Succ,
    Tree,
    TruncIn,
    Var,
    at,
    loose,
    numeral,
    shift,
    subst,
    subterms,
    well_scoped,
)

SIG = EMPTY_SIGNATURE
CTX = EMPTY_CONTEXT
PAIR_CAP = 40  # per-type sample width for the quadratic checks


def bud() -> ReductionBudget:
    return ReductionBudget()


@pytest.fixture(scope="module")
def population():
    return Enumerator(max_size=8).population()


@pytest.fixture(scope="module")
def normal_forms(population):
    return {id(t): normalize(SIG, t, bud()) for t, _ in population}


def _buckets(population):
    buckets: dict = {}
    for t, ty in population:
        buckets.setdefault(ty, []).append(t)
    return buckets


def test_population_size(population):
    assert 10**3 <= len(population) <= 10**5


def test_everything_checks(population):
    for t, ty in population:
        check(SIG, CTX, t, ty, bud())


def test_conv_reflexive(population):
    for t, _ in population:
        assert conv(SIG, t, t, bud())


def test_conv_matches_normal_forms_symmetric(population, normal_forms):
    # conv agrees with normal-form equality on sampled same-type pairs,
    # and is symmetric; together with test_conv_transitive this makes
    # conversion an equivalence relation on the suite.
    for ty, terms in _buckets(population).items():
        sample = terms[:PAIR_CAP]
        for i, a in enumerate(sample):
            for b in sample[i + 1 :]:
                lr = conv(SIG, a, b, bud())
                rl = conv(SIG, b, a, bud())
                assert lr == rl, (a, b)
                assert lr == (normal_forms[id(a)] == normal_forms[id(b)]), (a, b)


def test_conv_transitive(population, normal_forms):
    rng = random.Random(5)
    for ty, terms in _buckets(population).items():
        sample = terms[:PAIR_CAP]
        if len(sample) < 3:
            continue
        for _ in range(60):
            a, b, c = rng.sample(sample, 3)
            if conv(SIG, a, b, bud()) and conv(SIG, b, c, bud()):
                assert conv(SIG, a, c, bud())


def test_whnf_sound(population):
    # conv(t, whnf(t)) for every term in the suite
    for t, _ in population:
        assert conv(SIG, t, whnf(SIG, t, bud()), bud())


def test_normalize_idempotent(population, normal_forms):
    for t, _ in population:
        nf = normal_forms[id(t)]
        assert normalize(SIG, nf, bud()) == nf


def test_subject_reduction(population):
    # Reduction can surface a checkable-only constructor (for example an
    # ind-unit with an inl point); synthesis-level subject reduction is
    # asserted whenever both sides synthesize, and the checking-level
    # variant below covers the whole population.
    tested = 0
    for t, _ in population:
        if not synthesizing(t):
            continue
        b = bud()
        before = infer(SIG, CTX, t, b)
        reduced = whnf(SIG, t, b)
        if not synthesizing(reduced):
            continue
        after = infer(SIG, CTX, reduced, b)
        assert conv(SIG, before, after, b)
        tested += 1
    assert tested > 50


def test_check_preserved_by_whnf(population):
    for t, ty in population:
        b = bud()
        check(SIG, CTX, whnf(SIG, t, b), ty, b)


def _open_variants(population):
    """Open each closed Nat subterm Zero at the root spine into Var 0."""
    out = []
    for t, ty in population[: 2 * PAIR_CAP]:
        if isinstance(t, Succ):
            out.append((Succ(Var(0)), ty))
        if isinstance(t, IndNat):
            out.append((IndNat(t.motive, t.base, t.step, Var(0)), ty))
    return out


def test_weakening_soundness(population):
    ctx = EMPTY_CONTEXT.extend(NAT)
    for t, ty in _open_variants(population):
        check(SIG, ctx, t, ty, bud())
        # insert a fresh entry innermost: indices shift by one
        check(SIG, ctx.extend(UNIT), shift(t, 0, 1), shift(ty, 0, 1), bud())
        # insert a fresh entry outermost: indices unchanged
        check(SIG, EMPTY_CONTEXT.extend(UNIT).extend(NAT), t, ty, bud())
    # closed terms trivially survive weakening
    for t, ty in population[:PAIR_CAP]:
        check(SIG, ctx, t, ty, bud())


def test_substitution_soundness(population):
    ctx = EMPTY_CONTEXT.extend(NAT)
    two = numeral(2)
    for t, ty in _open_variants(population):
        check(SIG, ctx, t, ty, bud())
        check(SIG, CTX, subst(t, 0, two), subst(ty, 0, two), bud())


def test_subst_cancels_shift_on_random_terms():
    rng = random.Random(2024)
    for _ in range(1000):
        depth = rng.randrange(0, 3)
        t = random_scoped_term(rng, depth, rng.randrange(2, 20))
        s = random_scoped_term(rng, depth, 5)
        assert well_scoped(t, depth)
        assert subst(shift(t, 0, 1), 0, s) == t


# The constructors ``check.ELIM`` puts in a motive, each over the new
# binders of its method's type.
MOTIVE_CONSTRUCTORS = (ZERO, STAR, Succ(Var(1)), Pair(Var(1), Var(0)), Inl(Var(0)), Inr(Var(0)),
                       App(Var(1), Var(0)), Tree(Var(2), Var(1)), TruncIn(Var(0)))


def _with_subterms(population):
    """Every term and type of the population with all their subterms, the
    open ones under a binder included."""
    seen, stack = set(), [t for pair in population for t in pair]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(sub for sub, _ in subterms(t))
    return seen


def test_at_is_shift_then_subst(population):
    # ``at`` fuses the two walks the typing rules made over a motive
    rng = random.Random(2024)
    terms = [*_with_subterms(population),
             *(random_scoped_term(rng, rng.randrange(1, 4), rng.randrange(2, 20)) for _ in range(500))]
    assert sum(loose(t) > 0 for t in terms) > 250
    for t in terms:
        for k in range(4):
            for ctor in MOTIVE_CONSTRUCTORS:
                assert at(t, k, ctor) == subst(shift(t, 1, k), 0, ctor), (t, k, ctor)


def test_congruence(population, normal_forms):
    # convertible pairs plugged into one-hole contexts stay convertible
    succ_step = Lambda(NAT, Lambda(NAT, Succ(Var(0))))
    contexts_by_type = {
        NAT: [
            lambda hole: Succ(hole),
            lambda hole: Pair(hole, ZERO),
            lambda hole: Inl(hole),
            lambda hole: App(Lambda(NAT, Var(0)), hole),
            lambda hole: IndNat(NAT, hole, succ_step, numeral(2)),
            lambda hole: IndNat(NAT, ZERO, succ_step, hole),
        ],
        UNIT: [
            lambda hole: Pair(ZERO, hole),
            lambda hole: App(Lambda(UNIT, Var(0)), hole),
        ],
    }
    checked = 0
    for ty, contexts in contexts_by_type.items():
        terms = [t for t, t_ty in population if t_ty == ty][:PAIR_CAP]
        for a in terms:
            variants = [whnf(SIG, a, bud()), normal_forms[id(a)]]
            for a2 in variants:
                assert conv(SIG, a, a2, bud())
                for ctx_fn in contexts:
                    assert conv(SIG, ctx_fn(a), ctx_fn(a2), bud())
                    checked += 1
    assert checked > 100
