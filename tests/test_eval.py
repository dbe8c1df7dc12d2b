"""Reduction and conversion: the kernel's computational behavior."""

from __future__ import annotations

import pytest

import reference_reduce as ref
from conftest import assert_formers, flat
from hott import reduce
from hott.check import check, infer
from hott.loader import ProcessOptions, process_module
from hott.parser import parse, parse_expression, resolve_expr
from hott.pretty import pretty
from hott.reduce import IOTA, BudgetExhausted, ReductionBudget, conv, normalize, whnf
from hott.terms import (
    EMPTY,
    EMPTY_CONTEXT,
    EMPTY_SIGNATURE,
    NAT,
    REFL,
    STAR,
    UNIT,
    ZERO,
    App,
    Const,
    Declaration,
    IndCoprod,
    IndEmpty,
    IndEq,
    IndNat,
    IndSigma,
    IndTrunc,
    IndUnit,
    IndW,
    Inl,
    Inr,
    Lambda,
    Pair,
    Pi,
    Sigma,
    Succ,
    Tree,
    TruncIn,
    Var,
    W,
    as_int,
    numeral,
    shift,
)

SIG = EMPTY_SIGNATURE


def bud():
    return ReductionBudget()


def add(m, n):
    """add m n, recursion on n; the step is an opaque-free lambda."""
    return IndNat(NAT, m, Lambda(NAT, Lambda(NAT, Succ(Var(0)))), n)


def test_whnf_unit_computation():
    assert whnf(SIG, IndUnit(UNIT, STAR, STAR), bud()) == STAR


def test_whnf_nat_step_computation():
    # with an opaque step (a variable) the inductive step is exposed as is
    t = IndNat(NAT, ZERO, Var(0), Succ(ZERO))
    expected = App(App(Var(0), ZERO), IndNat(NAT, ZERO, Var(0), ZERO))
    assert whnf(SIG, t, bud()) == expected


def test_whnf_beta_identity():
    assert whnf(SIG, App(Lambda(NAT, Var(0)), ZERO), bud()) == ZERO


def test_whnf_ignores_non_redex():
    assert whnf(SIG, Succ(App(Lambda(NAT, Var(0)), ZERO)), bud()) == Succ(
        App(Lambda(NAT, Var(0)), ZERO)
    )


def test_normalize_addition_oracle():
    # the expected value is recomputed with host integers
    for m in range(4):
        for n in range(4):
            expected = m + n
            got = normalize(SIG, add(numeral(m), numeral(n)), bud())
            assert got == numeral(expected)


def test_normalize_idempotent_on_samples():
    samples = [
        add(numeral(2), numeral(3)),
        Pair(add(numeral(1), numeral(1)), STAR),
        Lambda(NAT, add(Var(0), numeral(2))),
    ]
    for t in samples:
        once = normalize(SIG, t, bud())
        assert normalize(SIG, once, bud()) == once


def test_conv_add_right_unit_but_not_left():
    ctx = EMPTY_CONTEXT.extend(NAT)
    assert conv(SIG, add(Var(0), ZERO), Var(0), bud())
    assert not conv(SIG, add(ZERO, Var(0)), Var(0), bud())


def test_conv_eta():
    # \x. f x == f   for f : Nat -> Nat bound in the context
    assert conv(SIG, Lambda(NAT, App(Var(1), Var(0))), Var(0), bud())


def test_conv_is_not_eta_for_pairs():
    sg = Sigma(NAT, NAT)
    fst = IndSigma(NAT, Lambda(NAT, Lambda(NAT, Var(1))), Var(0))
    snd = IndSigma(NAT, Lambda(NAT, Lambda(NAT, Var(0))), Var(0))
    assert not conv(SIG, Pair(fst, snd), Var(0), bud())


def test_conv_unfolds_definitions_on_demand():
    five = Declaration("five", NAT, numeral(5))
    sig = EMPTY_SIGNATURE.extend(five)
    assert conv(sig, Const("five"), numeral(5), bud())
    assert conv(sig, Const("five"), Const("five"), bud())
    assert not conv(sig, Const("five"), numeral(4), bud())


def test_conv_same_postulate_applied():
    sig = EMPTY_SIGNATURE.extend(Declaration("f", Pi(NAT, NAT), None))
    lhs = App(Const("f"), numeral(1))
    assert conv(sig, lhs, App(Const("f"), add(numeral(1), ZERO)), bud())
    assert not conv(sig, lhs, App(Const("f"), numeral(2)), bud())


def test_ind_eq_computation():
    t = IndEq(ZERO, NAT, numeral(9), ZERO, REFL)
    assert whnf(SIG, t, bud()) == numeral(9)


def test_ind_trunc_computation():
    t = IndTrunc(NAT, Lambda(NAT, Succ(Var(0))), STAR, TruncIn(ZERO))
    assert whnf(SIG, t, bud()) == Succ(ZERO)


def test_ind_w_computation():
    wt = W(UNIT, EMPTY)
    leaf = Tree(STAR, Lambda(EMPTY, IndEmpty(shift(wt, 0, 1), Var(0))))
    step = Lambda(UNIT, Lambda(Pi(EMPTY, shift(wt, 0, 1)), Lambda(Pi(EMPTY, NAT), numeral(3))))
    cnt = App(Lambda(wt, IndW(NAT, shift(step, 0, 1), Var(0))), leaf)
    assert normalize(SIG, cnt, bud()) == numeral(3)


def test_budget_exhaustion():
    small = ReductionBudget(max_steps=3)
    with pytest.raises(BudgetExhausted):
        normalize(SIG, add(numeral(5), numeral(5)), small)


def test_budget_counts_steps():
    b = bud()
    normalize(SIG, add(numeral(2), numeral(2)), b)
    assert 0 < b.steps_used < 100


# -- application spines: a head's leading lambdas take their arguments at once --


def _apply(fn, *args):
    for a in args:
        fn = App(fn, a)
    return fn


def _outcome(module, op, sig, t, max_steps=10_000_000):
    """``op``'s value and steps under ``module`` (the kernel or the reference),
    or ``("exhausted", steps)``."""
    budget = ReductionBudget(max_steps=max_steps)
    try:
        if op == "normalize":
            return module.normalize(sig, t, budget), budget.steps_used
        return module.whnf(sig, t, budget, unfold=op == "whnf-unfold"), budget.steps_used
    except BudgetExhausted as e:
        return "exhausted", e.steps


# In a context whose Var(0) is an opaque function; open arguments.
A1, A2, A3 = Var(1), Succ(Var(2)), Lambda(NAT, Var(1))
LAM3 = Lambda(NAT, Lambda(NAT, Lambda(NAT, _apply(Var(3), Var(2), Var(1), Var(0)))))
SUCC_K = EMPTY_SIGNATURE.extend(Declaration("k", Pi(NAT, NAT), Lambda(NAT, Succ(Var(0)))))
# ``g`` is a postulate, and ``h`` unfolds to it
G_H = EMPTY_SIGNATURE.extend(Declaration("g", Pi(NAT, Pi(NAT, NAT)), None)).extend(
    Declaration("h", Pi(NAT, Pi(NAT, NAT)), Lambda(NAT, App(Const("g"), Var(0)))))
G1 = App(Const("g"), numeral(1))

# (signature, spine, whnf, steps)
SPINES = {
    "3 lambdas, 3 arguments": (SIG, _apply(LAM3, A1, A2, A3), _apply(Var(0), A1, A2, A3), 3),
    # two betas, k unfolds to a lambda (delta), which takes the third argument
    "2 lambdas, 3 arguments, body unfolds": (
        SUCC_K, _apply(Lambda(NAT, Lambda(NAT, Const("k"))), A1, A2, A3), Succ(A3), 4),
    "3 lambdas, 2 arguments": (
        SIG, _apply(LAM3, A1, A2),
        Lambda(NAT, _apply(Var(1), shift(A1, 0, 1), shift(A2, 0, 1), Var(0))), 2),
    # a constant that the head forces: without ``unfold`` it is the value,
    # as call by name leaves it when nothing waits on it
    "forced constant": (SUCC_K, App(Lambda(Pi(NAT, NAT), Var(0)), Const("k")), Const("k"), 1),
    # an argument that the head forces, stuck: the arguments below the
    # forcing apply to the spine it is stuck on
    "forced argument stuck": (G_H, App(Lambda(NAT, App(Var(0), numeral(2))), G1), App(G1, numeral(2)), 1),
    "forced argument stuck after unfolding": (
        G_H, App(Lambda(NAT, App(Var(0), numeral(2))), App(Const("h"), numeral(1))), App(G1, numeral(2)), 3),
    "forced scrutinee stuck": (
        G_H, App(Lambda(NAT, IndNat(NAT, ZERO, Var(0), App(Var(0), numeral(3)))), App(Const("h"), numeral(1))),
        IndNat(NAT, ZERO, App(Const("h"), numeral(1)), App(G1, numeral(3))), 3),
    "forcings nested, stuck": (
        G_H, App(Lambda(NAT, App(Lambda(NAT, App(Var(1), Var(0))), App(Var(0), ZERO))), App(Const("h"), numeral(1))),
        App(G1, _apply(Const("h"), numeral(1), ZERO)), 4),
}


@pytest.mark.parametrize("case", SPINES)
def test_spine_contracts_like_the_reference(case):
    sig, t, expected, steps = SPINES[case]
    assert _outcome(reduce, "whnf", sig, t) == (expected, steps)
    for op in ("whnf", "whnf-unfold", "normalize"):
        assert _outcome(reduce, op, sig, t) == _outcome(ref, op, sig, t), op


def test_stuck_spine_is_returned_as_is():
    sig = EMPTY_SIGNATURE.extend(Declaration("p", Pi(NAT, Pi(NAT, NAT)), None))
    for head in (Var(0), Const("p")):
        t = _apply(head, A1, App(Lambda(NAT, Var(0)), ZERO))
        for unfold in (False, True):
            b = bud()
            assert whnf(sig, t, b, unfold=unfold) is t
            assert b.steps_used == 0


@flat
def test_long_spine_costs_no_depth():
    sig = EMPTY_SIGNATURE.extend(Declaration("p", NAT, None))
    t = _apply(Const("p"), *[ZERO] * 5_000)
    assert whnf(sig, t, bud()) is t


@flat
def test_long_spine_evaluates_and_prints(stdlib_sig):
    # checking, normalizing and printing each walk the spine in a loop
    n = 5_000
    text = "postulate f : " + "Nat -> " * n + "Nat\n#eval f" + " (add zero 1)" * n + "\n"
    out: list[str] = []
    process_module(stdlib_sig, parse(text, "spine.hott"), ProcessOptions(out=out.append))
    assert out == ["f" + " 1" * n]


@flat
def test_arrow_into_long_spine_checks_and_prints():
    # the printer tests a non-dependent Pi's codomain for its variable and
    # prints it in place, both in a loop along the spine
    n = 3_000
    spine = "Nat -> F" + " zero" * n
    text = ("postulate F : " + "Nat -> " * n + "Type 0\n"
            f"#eval {spine}\n#check {spine} : Type 0\n")
    out: list[str] = []
    process_module(EMPTY_SIGNATURE, parse(text, "arrow.hott"), ProcessOptions(out=out.append))
    assert out == ["Nat -> F" + " 0" * n]


@flat
def test_open_spine_substitutes_in_a_loop():
    # beta binds ``x`` to zero's closure, and reading the body back walks the
    # spine of ``f x … x`` in a loop
    n = 5_000
    term = r"(\(x : Nat). f" + " x" * n + ") zero"
    text = "postulate f : " + "Nat -> " * n + f"Nat\n#eval {term}\n#check {term} : Nat\n"
    out: list[str] = []
    process_module(EMPTY_SIGNATURE, parse(text, "spine.hott"), ProcessOptions(out=out.append))
    assert out == ["f" + " 0" * n]


def test_budget_ladder_matches_reference(stdlib_sig):
    # Every budget short of the total runs out at the same step as the
    # reference's, which ticks once per beta, one application at a time.
    # ``fib 6`` shares the fields of its pairs, so some budgets run out while
    # a forced closure's steps are charged again.
    for t in (_apply(Const("exp"), numeral(2), numeral(3)), App(Const("fib"), numeral(6))):
        value, total = _outcome(reduce, "normalize", stdlib_sig, t)
        assert value == numeral(8)
        for max_steps in range(total + 1):
            got = _outcome(reduce, "normalize", stdlib_sig, t, max_steps)
            assert got == _outcome(ref, "normalize", stdlib_sig, t, max_steps)
            assert got == (("exhausted", max_steps + 1) if max_steps < total else (value, total))


def test_forced_argument_reads_back_as_written(stdlib_sig):
    # ``x`` is forced as the scrutinee and left, as ``f``'s argument, in the
    # stuck spine that ``whnf`` returns: it reads back as the closure it was,
    # ``add 1 1``, not as its value.  Each call forces its own closures, so
    # the same term costs the same steps again, whichever call came before.
    sig = stdlib_sig.extend(Declaration("f", Pi(NAT, NAT), None))
    t = resolve_expr(parse_expression(
        r"(\(x : Nat). ind-nat (\(k : Nat). Nat) (f x) (\(k : Nat). \(y : Nat). y) x) (add 1 1)"), [], sig)
    first = {op: _outcome(reduce, op, sig, t) for op in ("whnf", "whnf-unfold", "normalize")}
    assert first["whnf"][0] == App(Const("f"), _apply(Const("add"), numeral(1), numeral(1)))
    for op in ("normalize", "whnf", "whnf-unfold", "normalize", "whnf"):
        assert _outcome(reduce, op, sig, t) == first[op] == _outcome(ref, op, sig, t), op


# Opaque fields: variables, so that every reduct below is itself stuck.
A, B, C = Var(1), Var(2), Var(3)
W_COMPONENTS = Lambda(EMPTY, C)

# (eliminator around a scrutinee, scrutinee field, constructor, reduct)
IOTA_CASES = {
    "nat-zero": (lambda s: IndNat(NAT, A, B, s), "scrutinee", ZERO, A),
    "nat-succ": (lambda s: IndNat(NAT, A, B, s), "scrutinee", Succ(C),
                 App(App(B, C), IndNat(NAT, A, B, C))),
    "sigma-pair": (lambda s: IndSigma(NAT, A, s), "scrutinee", Pair(B, C), App(App(A, B), C)),
    "unit-star": (lambda s: IndUnit(NAT, A, s), "scrutinee", STAR, A),
    "coprod-inl": (lambda s: IndCoprod(NAT, A, B, s), "scrutinee", Inl(C), App(A, C)),
    "coprod-inr": (lambda s: IndCoprod(NAT, A, B, s), "scrutinee", Inr(C), App(B, C)),
    "eq-refl": (lambda s: IndEq(NAT, NAT, A, B, s), "path", REFL, A),
    "trunc-in": (lambda s: IndTrunc(NAT, A, B, s), "scrutinee", TruncIn(C), App(A, C)),
    "w-tree": (lambda s: IndW(NAT, A, s), "scrutinee", Tree(B, W_COMPONENTS),
               App(App(App(A, B), W_COMPONENTS),
                   Lambda(EMPTY, IndW(NAT, Var(2), App(Lambda(EMPTY, Var(4)), Var(0)))))),
}


def test_iota_cases_cover_every_rule():
    covered = {(type(mk(Var(0))), type(con)) for mk, _, con, _ in IOTA_CASES.values()}
    rules = {(elim, con) for elim, (_, contractions) in IOTA.items() for con in contractions}
    assert covered == rules
    assert IndEmpty not in IOTA


@pytest.mark.parametrize("case", IOTA_CASES)
def test_iota_rule(case):
    mk, field, constructor, reduct = IOTA_CASES[case]
    assert IOTA[type(mk(Var(0)))][0] == field

    # each constructor contracts in exactly one step
    b = bud()
    assert whnf(SIG, mk(constructor), b) == reduct
    assert b.steps_used == 1

    # the reduct waits on an opaque field: each operation agrees with the
    # reference, and no closure of the machine escapes into its result
    for op in ("whnf", "whnf-unfold", "normalize"):
        got = _outcome(reduce, op, SIG, mk(constructor))
        assert got == _outcome(ref, op, SIG, mk(constructor)), op
        assert_formers(got[0])

    # stuck on a variable: the term itself, no step
    t = mk(Var(0))
    b = bud()
    assert whnf(SIG, t, b) is t
    assert b.steps_used == 0

    # stuck on a reducible scrutinee: rebuilt around its whnf, the other
    # fields shared
    t = mk(App(Lambda(NAT, Var(0)), Var(0)))
    b = bud()
    got = whnf(SIG, t, b)
    assert type(got) is type(t) and b.steps_used == 1
    for name in type(t).__match_args__:
        if name == field:
            assert getattr(got, name) == Var(0)
        else:
            assert getattr(got, name) is getattr(t, name)


def test_w_tree_waits_for_its_components():
    # IndW's step fires only once the tree's components show a lambda; on
    # other components the eliminator is stuck, rebuilt around their whnf
    def w(components):
        return IndW(NAT, A, Tree(B, components))

    t = w(Var(0))
    b = bud()
    assert whnf(SIG, t, b) is t and b.steps_used == 0
    assert _outcome(reduce, "whnf", SIG, w(App(Lambda(NAT, Var(0)), Var(0)))) == (w(Var(0)), 1)
    t = w(App(Lambda(NAT, shift(W_COMPONENTS, 0, 1)), ZERO))  # W_COMPONENTS after one step
    assert _outcome(reduce, "whnf", SIG, t) == (IOTA_CASES["w-tree"][3], 2)
    for op in ("whnf", "whnf-unfold", "normalize"):
        assert _outcome(reduce, op, SIG, t) == _outcome(ref, op, SIG, t), op


WU = r"W Unit (\(x : Unit). Empty)"

# Definition chains ``x0``, ``x1`` … ``xk`` in which each ``xi`` is an
# eliminator on ``x(i-1)``: (x, k, its type, x0's body, xi's body but for the
# scrutinee).  Each eliminator waits on ``whnf``'s stack, so ``#eval xk``
# nests k scrutinees and costs no depth; every ``xi`` computes to ``x0``.
CHAINS = {
    "unit": ("u", 5_000, "Unit", "star", r"ind-unit (\(x : Unit). Unit) star"),
    "w": ("t", 1_000, WU, rf"tree star (\(e : Empty). ind-empty (\(z : Empty). {WU}) e)",
          rf"ind-w (\(w : {WU}). {WU}) (\(x : Unit). \(c : Empty -> {WU}). \(r : Empty -> {WU}). tree x c)"),
}


@pytest.mark.parametrize("chain", CHAINS)
@flat
def test_nested_scrutinees_cost_no_depth(chain):
    x, k, ty, base, elim = CHAINS[chain]
    text = f"def {x}0 : {ty} := {base}\n" + "".join(
        f"def {x}{i} : {ty} := {elim} {x}{i - 1}\n" for i in range(1, k + 1))
    text += f"#eval {x}{k}\n#eval {x}0\n#assert-eq {x}{k} == {x}0 : {ty}\n"
    out: list[str] = []
    process_module(EMPTY_SIGNATURE, parse(text, "chain.hott"), ProcessOptions(out=out.append))
    assert len(out) == 2 and out[0] == out[1]


# A numeral far deeper than the interpreter's recursion limit, on the main
# thread at whatever limit the test process has: checking, reducing,
# comparing and printing it loops over its chain of Succ.
BIG = 500_000


@flat
def test_deep_numeral_checks_normalizes_and_converts():
    n = numeral(BIG)
    check(SIG, EMPTY_CONTEXT, n, NAT, bud())
    assert infer(SIG, EMPTY_CONTEXT, Succ(n), bud()) == NAT
    budget = bud()
    assert normalize(SIG, n, budget) is n and budget.steps_used == 0
    assert conv(SIG, n, numeral(BIG), bud())
    assert not conv(SIG, n, ZERO, bud())
    # one step per contraction: the redex on the chain is reduced once, and
    # the numeral under it is shared, not copied
    budget = bud()
    normal = normalize(SIG, Succ(App(Lambda(NAT, Succ(Var(0))), n)), budget)
    assert as_int(normal) == BIG + 2 and normal.pred.pred is n and budget.steps_used == 1


@flat
def test_deep_numeral_prints():
    n = numeral(BIG)
    assert pretty(n) == str(BIG)
    text = pretty(n, sugar_numerals=False)
    assert text == "succ (" * (BIG - 1) + "succ zero" + ")" * (BIG - 1)
    assert pretty(Succ(Succ(Var(0))), ["x"]) == "succ (succ x)"
    assert pretty(Succ(Succ(Var(0))), ["x"], sugar_numerals=False) == "succ (succ x)"
    # a free variable prints as its index, not counting the binders of a
    # non-dependent Pi or of a binding field that prints as its function
    assert pretty(Pi(NAT, Var(3))) == "Nat -> !2"
    assert pretty(IndNat(App(Var(4), Var(0)), ZERO, Var(2), Var(7))) == "ind-nat !3 0 !2 !7"
    # a binding field whose function uses its own variable prints as a lambda
    assert pretty(IndNat(App(App(Const("P"), Var(0)), Var(0)), ZERO, Const("s"), ZERO)) \
        == "ind-nat (\\(x0 : Nat). P x0 x0) 0 s 0"
    assert pretty(W(NAT, App(Pi(NAT, Var(3)), Var(0))), ["a", "b"]) == "W Nat (Nat -> a)"
    assert pretty(Lambda(NAT, Pi(NAT, Pi(Var(0), Var(5)))), ["a"]) == "\\(x0 : Nat). (x1 : Nat) -> x1 -> !4"
