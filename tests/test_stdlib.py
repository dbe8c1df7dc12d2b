"""The shipped proof corpus: manifest coverage, tiers, postulate census."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from conftest import ROOT, STDLIB, STDLIB_ORDER, load_stdlib, stdlib_paths

from hott.check import CheckError, check, check_declaration, infer, infer_universe
from hott.loader import process_module
from hott.parser import parse, parse_expression, resolve_expr
from hott.reduce import ReductionBudget, conv, normalize, whnf
from hott.terms import (
    EMPTY_CONTEXT,
    App,
    Const,
    Pi,
    Signature,
    as_int,
    subst,
)

TIER1 = {"prelude.hott", "nat.hott", "int.hott", "identity.hott"}
TIER2 = {"eqnat.hott", "fin.hott", "equiv.hott", "sigma-id.hott"}
TIER3 = {"axioms.hott", "circle.hott"}

EXPECTED_POSTULATES = {
    "funext0",
    "funext1",
    "ua0",
    "trunc-eq0",
    "S1",
    "base",
    "loop",
    "ind-S1",
    "comp-S1",
}


def test_corpus_checks_and_prints_deterministically(stdlib_sig):
    first: list[str] = []
    second: list[str] = []
    load_stdlib(first)
    load_stdlib(second)
    assert first == second
    assert first  # the #eval pragmas printed something


def test_manifest_matches_the_printer():
    # MANIFEST states each type as the printer prints it: any byte drift in
    # the printer shows up here
    spec = importlib.util.spec_from_file_location("gen_manifest", ROOT / "scripts" / "gen_manifest.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    expected = "".join(line + "\n" for line in gen.manifest_lines())
    assert (STDLIB / "MANIFEST").read_text() == expected


def test_manifest_names_exist_with_stated_types(stdlib_sig):
    manifest = (STDLIB / "MANIFEST").read_text().strip().splitlines()
    assert len(manifest) >= 55
    seen = set()
    for line in manifest:
        name, filename, type_src = line.split("\t")
        assert filename in STDLIB_ORDER
        decl = stdlib_sig.lookup(name)
        assert decl is not None, f"{name} missing from signature"
        stated = resolve_expr(parse_expression(type_src), [], stdlib_sig)
        bud = ReductionBudget()
        infer_universe(stdlib_sig, EMPTY_CONTEXT, stated, bud)
        # the declared constant checks against the stated type: exactly the
        # pragma  #check name : type
        check(stdlib_sig, EMPTY_CONTEXT, Const(name), stated, bud)
        seen.add(name)
    mandated = {
        "id", "comp", "const",
        "add", "mul", "exp", "min", "max", "triangle", "factorial", "binom",
        "fib", "div2", "dist",
        "Int", "in-pos", "in-neg", "succ-Z", "pred-Z",
        "concat", "inv", "assoc", "left-unit", "right-unit", "left-inv",
        "right-inv", "ap", "ap-id", "ap-comp", "ap-refl", "ap-inv",
        "ap-concat", "tr", "apd", "lift",
        "left-unit-law-add", "right-unit-law-add", "left-successor-law-add",
        "right-successor-law-add", "associative-add", "commutative-add",
        "Eq-nat", "refl-Eq-nat", "eq-to-Eq", "Eq-to-eq", "Eq-eq-nat", "peano7", "peano8",
        "Fin", "iota", "fin-zero", "fin-succ",
        "sec", "retr", "is-equiv", "has-inverse", "has-inverse-to-is-equiv",
        "is-contr", "fiber", "Eq-Sigma", "pair-eq", "eq-pair", "pair-eq-sec",
        "pair-eq-retr", "is-contr-total-path", "pair-eq-is-equiv",
        "htpy-eq", "equiv-eq",
        "funext0", "funext1", "ua0", "trunc-eq0",
        "S1", "base", "loop", "ind-S1", "comp-S1",
    }
    missing = mandated - seen
    assert not missing, f"manifest lacks: {sorted(missing)}"


def test_tiers_have_no_unexpected_postulates(stdlib_sig):
    # textual scan (token level, so comments do not count)
    from hott.parser import tokenize

    for name in TIER1 | TIER2:
        kinds = {t.kind for t in tokenize((STDLIB / name).read_text())}
        assert "postulate" not in kinds, name
    # signature scan: census of postulated names
    postulated = {d.name for d in stdlib_sig.declarations if d.body is None}
    assert postulated == EXPECTED_POSTULATES


def test_tier_files_exist_in_order():
    assert [p.name for p in stdlib_paths()] == STDLIB_ORDER
    assert set(STDLIB_ORDER) == TIER1 | TIER2 | TIER3


def eval_in(sig, src: str) -> int:
    term = resolve_expr(parse_expression(src), [], sig)
    value = normalize(sig, term, ReductionBudget())
    n = as_int(value)
    assert n is not None, f"{src} did not evaluate to a numeral"
    return n


def test_judgmental_clauses_of_eq_nat(stdlib_sig):
    bud = ReductionBudget()
    sig = stdlib_sig
    lhs = resolve_expr(parse_expression("Eq-nat zero zero"), [], sig)
    rhs = resolve_expr(parse_expression("Unit"), [], sig)
    assert conv(sig, lhs, rhs, bud)


def test_fin_clauses(stdlib_sig):
    bud = ReductionBudget()
    sig = stdlib_sig
    assert conv(
        sig,
        resolve_expr(parse_expression("Fin zero"), [], sig),
        resolve_expr(parse_expression("Empty"), [], sig),
        bud,
    )


def test_iota_matches_hand_rolled_recursion(stdlib_sig):
    # oracle: the inclusion recursion hand-rolled over the constructor
    # layout -- the top element of k+1 answers k, a lowered element
    # answers whatever it answered one stage down
    def element(k: int, i: int):
        assert 0 <= i < k
        layers = k - 1 - i
        node: tuple = ("top",)
        for _ in range(layers):
            node = ("in", node)
        return node

    def render(node) -> str:
        if node == ("top",):
            return "(inr star)"
        return f"(inl {render(node[1])})"

    def oracle(k: int, node) -> int:
        if node == ("top",):
            return k - 1
        return oracle(k - 1, node[1])

    for k in range(1, 5):
        for i in range(k):
            node = element(k, i)
            got = eval_in(stdlib_sig, f"iota {k} {render(node)}")
            assert got == oracle(k, node)


def test_fin_succ_cycles(stdlib_sig):
    for k in range(1, 5):
        expr = "(fin-zero %d)" % (k - 1)
        values = []
        for _ in range(k + 1):
            values.append(eval_in(stdlib_sig, f"iota {k} {expr}"))
            expr = f"(fin-succ {k} {expr})"
        assert values == [i % k for i in range(k + 1)]


def test_arithmetic_against_host_oracles(stdlib_sig):
    import math

    cases = [
        ("add 11 6", 11 + 6),
        ("mul 9 8", 9 * 8),
        ("exp 3 4", 3 ** 4),
        ("min 12 5", min(12, 5)),
        ("max 12 5", max(12, 5)),
        ("triangle 7", sum(range(8))),
        ("factorial 6", math.factorial(6)),
        ("binom 7 3", math.comb(7, 3)),
        ("binom 3 7", 0),
        ("fib 12", 144),
        ("div2 9", 9 // 2),
        ("dist 4 11", abs(4 - 11)),
        ("dist 11 4", abs(11 - 4)),
    ]
    for src, expected in cases:
        assert eval_in(stdlib_sig, src) == expected, src


def test_int_successor_walks(stdlib_sig):
    sig = stdlib_sig
    bud = ReductionBudget()
    succ_of_two = resolve_expr(parse_expression("succ-Z (in-pos 1)"), [], sig)
    expected = resolve_expr(parse_expression("in-pos 2"), [], sig)
    assert conv(sig, succ_of_two, expected, bud)


def test_trunc_eliminator_through_eta(stdlib_sig):
    sig = stdlib_sig
    bud = ReductionBudget()
    lhs = resolve_expr(
        parse_expression("trunc-rec-nat Nat (eta 3) (\\(m : Nat). eta (succ m))"), [], sig
    )
    rhs = resolve_expr(parse_expression("eta 4"), [], sig)
    assert conv(sig, lhs, rhs, bud)


def test_corpus_eval_output_is_the_expected_golden():
    outs: list[str] = []
    load_stdlib(outs)
    assert outs == [
        "5",      # add 2 3
        "42",     # mul 6 7
        "120",    # factorial 5
        "55",     # fib 10
        "10",     # binom 5 2
        "4",      # min 4 9
        "9",      # max 4 9
        "4",      # dist 3 7
        "55",     # triangle 10
        "1024",   # exp 2 10
        "5",      # div2 11
        "3",      # iota 4 (inr star)
        "0",      # iota 3 (fin-zero 2)
        "1",      # one successor up
        "0",      # three successors wrap around in Fin 3
    ]


@pytest.mark.parametrize(
    "src, steps",
    [("exp 2 10", 53_230), ("factorial 6", 36_033), ("fib 10", 2_888), ("triangle 30", 1_608)],
)
def test_reduction_steps_are_pinned(stdlib_sig, src, steps):
    """Step counts are deterministic: any change in kernel work fails here."""
    term = resolve_expr(parse_expression(src), [], stdlib_sig)
    budget = ReductionBudget()
    infer(stdlib_sig, EMPTY_CONTEXT, term, budget)
    normalize(stdlib_sig, term, budget)
    assert budget.steps_used == steps


# Checking a declaration takes steps too, in ``whnf`` of the types that the
# rules compare: any change in that work fails here.
CHECK_STEPS = {
    "succ-Z": 19, "associative-add": 48, "ap-concat": 46, "skip-zero": 61, "fin-succ": 54,
    "eq-pair": 190, "pair-eq-sec": 613, "has-inverse-to-is-equiv": 83, "pair-eq-is-equiv": 85,
}


@pytest.mark.parametrize("name, steps", sorted(CHECK_STEPS.items()))
def test_check_steps_are_pinned(stdlib_sig, name, steps):
    decls = stdlib_sig.declarations
    i = next(i for i, decl in enumerate(decls) if decl.name == name)
    budget = ReductionBudget()
    check_declaration(Signature(decls[:i]), decls[i], budget)
    assert budget.steps_used == steps


def _one_argument_at_a_time(sig, ctx, t, budget):
    """The application rule as the theory states it, ``f a : B[a/x]``: the
    head's type in whnf for each argument, and one substitution each."""
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    ty = infer(sig, ctx, t, budget)
    for arg in reversed(args):
        fn_ty = whnf(sig, ty, budget, unfold=True)
        if not isinstance(fn_ty, Pi):
            raise CheckError("not-a-function", "application head is not of function type", found=fn_ty, context=ctx)
        check(sig, ctx, arg, fn_ty.domain, budget)
        ty = subst(fn_ty.codomain, 0, arg)
    return ty


def _typing(rule, sig, t):
    budget = ReductionBudget()
    try:
        return "ok", rule(sig, EMPTY_CONTEXT, t, budget), budget.steps_used
    except CheckError as e:
        return e.rule, e.message, e.found, e.expected, budget.steps_used


FAMILIES = """
postulate e : Empty
postulate h : (A : Type 0) -> neg A
def B : Nat -> Type 0 := \\(n : Nat). Nat -> Nat
postulate q : Sig (x : Nat), B x
"""

# Spines whose type is a Pi only after ``whnf`` midway: a variable
# instantiated to a function type, a defined family applied to its index,
# and a motive applied to its scrutinee; then two that fail there.
MIDWAY = {
    "id (Nat -> Nat) (\\(n : Nat). succ n) zero": 0,
    "ex-falso (Nat -> Nat) e zero": 0,
    "h Nat zero": 2,
    "pr2 Nat B q zero": 2,
    "ind-bool (\\(b : bool). Nat -> Nat) (\\(n : Nat). n) (\\(n : Nat). succ n) true zero": 4,
    "id Nat zero zero": 0,
    "h Nat star": 2,
}


@pytest.mark.parametrize("src", sorted(MIDWAY))
def test_application_rule_matches_one_argument_at_a_time(stdlib_sig, src):
    sig = process_module(stdlib_sig, parse(FAMILIES, "families.hott"))
    t = resolve_expr(parse_expression(src), [], sig)
    got = _typing(infer, sig, t)
    assert got == _typing(_one_argument_at_a_time, sig, t)
    assert got[-1] == MIDWAY[src]
