"""W-types with nontrivial arities: the naturals as well-founded trees.

The shape type is Unit + Unit; the left shape has arity Empty (the zero
tree) and the right shape arity Unit (successor).  Folding back to Nat
eliminates the shape under a motive that abstracts the components and
the recursive results, the standard commuting trick.
"""

from __future__ import annotations

from hott.check import check, infer
from hott.reduce import ReductionBudget, conv, normalize, whnf
from hott.terms import (
    EMPTY,
    EMPTY_CONTEXT,
    EMPTY_SIGNATURE,
    NAT,
    STAR,
    UNIT,
    ZERO,
    App,
    Coprod,
    IndCoprod,
    IndEmpty,
    IndW,
    Inl,
    Inr,
    Lambda,
    Pi,
    Succ,
    Tree,
    Universe,
    Var,
    W,
    numeral,
    as_int,
    shift,
)

SIG = EMPTY_SIGNATURE
CTX = EMPTY_CONTEXT

BOOL = Coprod(UNIT, UNIT)
UNIVERSE0 = Universe(0)
# arity(inl u) = Empty, arity(inr u) = Unit; binder over the shape
ARITY = IndCoprod(UNIVERSE0, Lambda(UNIT, EMPTY), Lambda(UNIT, UNIT), Var(0))
WNAT = W(BOOL, ARITY)


def bud() -> ReductionBudget:
    return ReductionBudget()


def zero_tree():
    # components : Empty -> WNat, by ex falso
    return Tree(Inl(STAR), Lambda(EMPTY, IndEmpty(shift(WNAT, 0, 1), Var(0))))


def succ_tree(n):
    return Tree(Inr(STAR), Lambda(UNIT, shift(n, 0, 1)))


def encode(n: int):
    t = zero_tree()
    for _ in range(n):
        t = succ_tree(t)
    return t


def _to_nat_step():
    # \(shape : bool).
    #   ind-sum (\(c : bool). (alpha : B c -> WNat) -> ((y : B c) -> Nat) -> Nat)
    #     (\(u : Unit). \(alpha : Empty -> WNat). \(rec : Empty -> Nat). zero)
    #     (\(u : Unit). \(alpha : Unit -> WNat).  \(rec : Unit -> Nat). succ (rec star))
    #     shape
    def arity_at(c):
        return IndCoprod(UNIVERSE0, Lambda(UNIT, EMPTY), Lambda(UNIT, UNIT), c)

    # motive over c (Var 0 under the binder): note internal shifts
    motive = Pi(
        Pi(arity_at(Var(0)), shift(WNAT, 0, 2)),
        Pi(Pi(arity_at(Var(1)), NAT), NAT),
    )
    branch_l = Lambda(
        UNIT, Lambda(Pi(EMPTY, shift(WNAT, 0, 2)), Lambda(Pi(EMPTY, NAT), ZERO))
    )
    branch_r = Lambda(
        UNIT,
        Lambda(
            Pi(UNIT, shift(WNAT, 0, 2)),
            Lambda(Pi(UNIT, NAT), Succ(App(Var(0), STAR))),
        ),
    )
    return Lambda(BOOL, IndCoprod(motive, branch_l, branch_r, Var(0)))


def to_nat(tree_term):
    # ind-w (\(w : WNat). Nat) (\(x : bool). \(alpha). \(rec). step x alpha rec) t
    step_core = _to_nat_step()
    arity_x = IndCoprod(UNIVERSE0, Lambda(UNIT, EMPTY), Lambda(UNIT, UNIT), Var(0))

    step = Lambda(
        BOOL,
        Lambda(
            Pi(arity_x, shift(WNAT, 0, 2)),
            Lambda(
                Pi(shift(arity_x, 0, 1), NAT),
                App(App(App(shift(step_core, 0, 3), Var(2)), Var(1)), Var(0)),
            ),
        ),
    )
    return App(Lambda(WNAT, IndW(NAT, shift(step, 0, 1), Var(0))), tree_term)


def test_trees_check():
    for n in range(4):
        check(SIG, CTX, encode(n), WNAT, bud())


def test_fold_types_and_computes():
    for n in range(5):
        t = to_nat(encode(n))
        assert infer(SIG, CTX, t, bud()) == NAT
        assert as_int(normalize(SIG, t, bud())) == n


def test_fold_is_stuck_on_a_variable():
    ctx = CTX.extend(WNAT)
    body = IndW(NAT, Var(1), Var(0))
    # with an opaque step the eliminator is neutral
    ctx2 = CTX.extend(Pi(BOOL, Pi(Pi(ARITY, shift(WNAT, 0, 2)), Pi(Pi(shift(ARITY, 0, 1), NAT), NAT)))).extend(WNAT)
    w = whnf(SIG, body, bud())
    assert w == body


def test_roundtrip_against_host_oracle():
    # independent oracle: count successor layers on the host side
    def host_depth(n: int) -> int:
        return n  # encode applies succ_tree exactly n times

    for n in range(6):
        got = as_int(normalize(SIG, to_nat(encode(n)), bud()))
        assert got == host_depth(n)


def test_ind_w_open_motive_over_context():
    # ctx: T : Type 0, t : T; motive mentions the ambient T
    ctx = CTX.extend(UNIVERSE0).extend(Var(0))
    motive = Var(2)  # T, seen under the w binder
    arity_x = IndCoprod(UNIVERSE0, Lambda(UNIT, EMPTY), Lambda(UNIT, UNIT), Var(0))
    step = Lambda(
        BOOL,
        Lambda(
            Pi(arity_x, shift(WNAT, 0, 2)),
            Lambda(Pi(shift(arity_x, 0, 1), Var(4)), Var(3)),
        ),
    )
    term = App(Lambda(WNAT, IndW(shift(motive, 1, 1), shift(step, 0, 1), Var(0))), encode(2))
    got = infer(SIG, ctx, term, bud())
    assert conv(SIG, got, Var(1), bud())
    assert whnf(SIG, term, bud()) == Var(0)  # folds to the ambient t


def test_ind_trunc_open_motive_over_context():
    from hott.check import check_declaration
    from hott.terms import Declaration, Id, IndTrunc, Trunc, TruncIn

    # a postulated proposition-ness witness for the constant family at T
    sig = SIG
    sig = check_declaration(
        sig,
        Declaration("T0", UNIVERSE0, None),
    )
    from hott.terms import Const

    sig = check_declaration(
        sig, Declaration("t0", Const("T0"), None)
    )
    T0, t0 = Const("T0"), Const("t0")
    sig = check_declaration(
        sig,
        Declaration(
            "T0-prop",
            Pi(Trunc(UNIT), Pi(T0, Pi(T0, Id(T0, Var(1), Var(0))))),
            None,
        ),
    )
    # the scrutinee position synthesizes, so the point constructor enters
    # through a beta-redex
    term = App(
        Lambda(Trunc(UNIT), IndTrunc(T0, Lambda(UNIT, t0), Const("T0-prop"), Var(0))),
        TruncIn(STAR),
    )
    assert infer(sig, CTX, term, bud()) == T0
    assert whnf(sig, term, bud()) == t0
