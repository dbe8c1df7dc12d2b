"""Bidirectional checking: synthesis, checking, universes, declarations."""

from __future__ import annotations

import pytest

import hott.terms
from hott.check import (
    ELIM,
    INTRO,
    CheckError,
    check,
    check_declaration,
    infer,
    infer_universe,
)
from hott.reduce import ReductionBudget, conv
from hott.terms import (
    EMPTY_CONTEXT,
    EMPTY_SIGNATURE,
    NAT,
    REFL,
    UNIT,
    ZERO,
    App,
    Const,
    Coprod,
    Declaration,
    Id,
    IndEq,
    IndNat,
    Inl,
    Lambda,
    Pair,
    Pi,
    Sigma,
    Succ,
    Term,
    Trunc,
    TruncIn,
    Universe,
    Var,
    W,
    numeral,
    shift,
)

SIG = EMPTY_SIGNATURE
CTX = EMPTY_CONTEXT


def rule_of(excinfo) -> str:
    return excinfo.value.rule


def add(m, n):
    return IndNat(NAT, m, Lambda(NAT, Lambda(NAT, Succ(Var(0)))), n)


def test_infer_identity_function():
    assert infer(SIG, CTX, Lambda(NAT, Var(0))) == Pi(NAT, NAT)


def test_infer_universe_tower():
    assert infer(SIG, CTX, Universe(0)) == Universe(1)


def test_pair_cannot_synthesize():
    with pytest.raises(CheckError) as e:
        infer(SIG, CTX, Pair(ZERO, ZERO))
    assert rule_of(e) == "cannot-synthesize"


def test_every_former_has_a_typing_rule():
    """Each eliminator has an ``ELIM`` row or ``IndEq``'s own branch, each
    ``INTRO`` former is refused by ``infer`` as checkable only, and no
    former reaches "no synthesis rule"."""
    formers = [c for c in vars(hott.terms).values()
               if isinstance(c, type) and issubclass(c, Term) and c is not Term]
    assert {c for c in formers if c.__name__.startswith("Ind")} == set(ELIM) | {IndEq}
    leaves = {Var: Var(0), Const: Const("c"), Universe: Universe(0)}
    for former in formers:
        t = leaves.get(former) or former(*(Var(0) for _ in former.__match_args__))
        try:
            infer(SIG, EMPTY_CONTEXT.extend(NAT), t)
            message = ""
        except CheckError as e:
            message = e.message
        assert "no synthesis rule" not in message, former
        assert ("checkable only" in message) == (former in INTRO), former


def test_check_refl_through_conversion():
    check(SIG, CTX, REFL, Id(NAT, add(numeral(2), numeral(3)), numeral(5)))


def test_check_refl_rejects_distinct_endpoints():
    with pytest.raises(CheckError) as e:
        check(SIG, CTX, REFL, Id(NAT, ZERO, Succ(ZERO)))
    assert rule_of(e) == "refl-endpoints-not-convertible"


def test_no_type_in_type():
    for level in range(4):
        with pytest.raises(CheckError) as e:
            check(SIG, CTX, Universe(level), Universe(level))
        assert rule_of(e) == "universe-mismatch"


def test_check_identity_lambda():
    check(SIG, CTX, Lambda(NAT, Var(0)), Pi(NAT, NAT))


def test_infer_universe_levels():
    assert infer_universe(SIG, CTX, Pi(NAT, Universe(0))) == 1
    assert infer_universe(SIG, CTX, NAT) == 0
    assert infer_universe(SIG, CTX, Sigma(Universe(0), Var(0))) == 1
    assert infer_universe(SIG, CTX, Coprod(NAT, UNIT)) == 0
    assert infer_universe(SIG, CTX, Id(NAT, ZERO, ZERO)) == 0
    assert infer_universe(SIG, CTX, W(NAT, UNIT)) == 0
    assert infer_universe(SIG, CTX, Trunc(NAT)) == 0


def test_infer_universe_rejects_elements():
    with pytest.raises(CheckError) as e:
        infer_universe(SIG, CTX, ZERO)
    assert rule_of(e) == "not-a-type"


def test_base_types_inhabit_every_universe():
    for level in (0, 1, 5):
        check(SIG, CTX, NAT, Universe(level))
        check(SIG, CTX, Pi(NAT, NAT), Universe(level))
    # a universe is rigid
    check(SIG, CTX, Universe(1), Universe(2))
    with pytest.raises(CheckError):
        check(SIG, CTX, Universe(1), Universe(3))


def test_mixed_level_formers():
    # (B : Type 0), (A : Type 1) |- B -> A : Type 1 and only Type 1
    ctx = CTX.extend(Universe(0)).extend(Universe(1))
    arrow = Pi(Var(1), shift(Var(0), 0, 1))
    check(SIG, ctx, arrow, Universe(1))
    with pytest.raises(CheckError):
        check(SIG, ctx, arrow, Universe(0))
    with pytest.raises(CheckError):
        check(SIG, ctx, arrow, Universe(2))


def test_check_declaration_and_duplicates():
    decl = Declaration("idN", Pi(NAT, NAT), Lambda(NAT, Var(0)))
    sig = check_declaration(SIG, decl)
    assert infer(sig, CTX, Const("idN")) == Pi(NAT, NAT)
    with pytest.raises(CheckError) as e:
        check_declaration(sig, decl)
    assert rule_of(e) == "duplicate-name"


def test_check_declaration_postulate():
    sig = check_declaration(SIG, Declaration("oracle", Pi(NAT, NAT), None))
    assert infer(sig, CTX, App(Const("oracle"), ZERO)) == NAT


def test_unbound_names():
    with pytest.raises(CheckError) as e:
        infer(SIG, CTX, Const("ghost"))
    assert rule_of(e) == "unbound-constant"
    with pytest.raises(CheckError) as e:
        infer(SIG, CTX, Var(0))
    assert rule_of(e) == "unbound-variable"


def test_infer_is_deterministic():
    t = IndNat(NAT, ZERO, Lambda(NAT, Lambda(NAT, Succ(Var(0)))), numeral(3))
    assert infer(SIG, CTX, t) == infer(SIG, CTX, t)


def test_weakening_soundness_spot():
    # ctx |- t : T  implies  ctx, A |- t^1 : T^1   (insert innermost)
    ctx = CTX.extend(NAT)
    t = add(Var(0), numeral(2))
    check(SIG, ctx, t, NAT)
    check(SIG, ctx.extend(UNIT), shift(t, 0, 1), NAT)
    # and inserting at the outer end leaves indices alone
    check(SIG, EMPTY_CONTEXT.extend(UNIT).extend(NAT), t, NAT)


def test_substitution_soundness_spot():
    ctx = CTX.extend(NAT)
    t = add(Var(0), numeral(2))
    check(SIG, CTX, __import__("hott.terms", fromlist=["subst"]).subst(t, 0, numeral(3)), NAT)


def test_checkable_scrutinee_requires_wrapper():
    from hott.terms import IndSigma

    sg = Sigma(NAT, NAT)
    direct = IndSigma(NAT, Lambda(NAT, Lambda(NAT, Var(1))), Pair(ZERO, ZERO))
    with pytest.raises(CheckError) as e:
        infer(SIG, CTX, direct)
    assert rule_of(e) == "cannot-synthesize"
    wrapped = App(
        Lambda(sg, IndSigma(NAT, Lambda(NAT, Lambda(NAT, Var(1))), Var(0))),
        Pair(ZERO, ZERO),
    )
    assert infer(SIG, CTX, wrapped) == NAT


def test_trunc_intro_and_elim_types():
    check(SIG, CTX, TruncIn(ZERO), Trunc(NAT))
    with pytest.raises(CheckError) as e:
        check(SIG, CTX, TruncIn(ZERO), NAT)
    assert rule_of(e) == "Trunc-intro"


def test_inl_checks_against_coproduct_only():
    check(SIG, CTX, Inl(ZERO), Coprod(NAT, UNIT))
    with pytest.raises(CheckError) as e:
        check(SIG, CTX, Inl(ZERO), NAT)
    assert rule_of(e) == "Coprod-intro"


def test_subject_reduction_spot():
    from hott.reduce import whnf

    t = App(Lambda(NAT, add(Var(0), numeral(1))), numeral(2))
    b = ReductionBudget()
    assert conv(SIG, infer(SIG, CTX, t), infer(SIG, CTX, whnf(SIG, t, b)), b)
