"""Concrete syntax: lexing, parsing, resolution, printing round trips."""

from __future__ import annotations

import pytest

from conftest import stdlib_paths

from hott.parser import (
    DefItem,
    LexError,
    ParseError,
    PostulateItem,
    PragmaAssertEq,
    ResolveError,
    parse,
    parse_expression,
    resolve_expr,
    tokenize,
)
from hott.pretty import pretty
from hott.terms import (
    NAT,
    ZERO,
    App,
    Coprod,
    Id,
    IndNat,
    Lambda,
    Pi,
    Succ,
    Universe,
    Var,
    numeral,
)


def test_tokenize_lambda():
    kinds = [t.kind for t in tokenize("\\(x : Nat). x")]
    assert kinds == ["\\", "(", "ident", ":", "Nat", ")", ".", "ident", "eof"]


def test_tokenize_comment():
    kinds = [t.kind for t in tokenize("-- comment\nNat")]
    assert kinds == ["Nat", "eof"]


@pytest.mark.parametrize("src", ["@", "²", "٣", "def café : Nat := 0"])
def test_tokenize_rejects_stray_character(src):
    with pytest.raises(LexError):
        tokenize(src)


def test_tokenize_spans():
    toks = tokenize("def x : Nat\n  := zero")
    assert toks[0].span == (1, 1)
    assert toks[-2].span == (2, 6)


def test_parse_def_item():
    mod = parse("def idN : Nat -> Nat := \\(x : Nat). x")
    item = mod.items[0]
    assert isinstance(item, DefItem) and item.name == "idN"


def test_parse_requires_type_ascription():
    with pytest.raises(ParseError):
        parse("def x := 3")


def test_parse_assert_eq():
    mod = parse("#assert-eq zero == zero : Nat")
    assert isinstance(mod.items[0], PragmaAssertEq)


def resolve(src: str, names=frozenset()):
    return resolve_expr(parse_expression(src), [], names)


def test_resolve_nested_binders():
    assert resolve("\\(x : Nat). \\(y : Nat). x") == Lambda(NAT, Lambda(NAT, Var(1)))


def test_resolve_shadowing_innermost_wins():
    t = resolve("\\(x : Nat). \\(x : Nat). x")
    assert t == Lambda(NAT, Lambda(NAT, Var(0)))


def test_resolve_constant_reference():
    t = resolve("idN zero", names={"idN"})
    from hott.terms import Const

    assert t == App(Const("idN"), ZERO)


def test_resolve_unbound():
    with pytest.raises(ResolveError):
        resolve("foo")


def test_numeral_sugar():
    assert resolve("3") == numeral(3)


def test_arrow_right_associative():
    assert resolve("Nat -> Nat -> Nat") == Pi(NAT, Pi(NAT, NAT))


def test_sum_sugar():
    assert resolve("Nat + Unit + Nat") == Coprod(NAT, Coprod(Unit := resolve("Unit"), NAT))


def test_id_in_sugar():
    assert resolve("zero = zero in Nat") == Id(NAT, ZERO, ZERO)


def test_eliminator_motive_wrapping():
    t = resolve("ind-nat (\\(n : Nat). Nat) zero (\\(k : Nat). \\(x : Nat). succ x) 2")
    assert isinstance(t, IndNat)
    assert t.motive == App(Lambda(NAT, NAT), Var(0))


def test_bare_succ_is_a_function():
    assert resolve("succ") == Lambda(NAT, Succ(Var(0)))


def test_dependent_pi_lookahead():
    assert resolve("(A : Type 0) -> A -> A") == Pi(Universe(0), Pi(Var(0), Var(1)))
    # parenthesized expression, not a binder
    assert resolve("(Nat -> Nat) -> Nat") == Pi(Pi(NAT, NAT), NAT)


ROUND_TRIP_SOURCES = [
    "\\(x : Nat). \\(y : Nat). x",
    "(A : Type 0) -> A -> A",
    "Sig (x : Nat), Id Nat x zero",
    "Nat + Unit",
    "ind-nat (\\(n : Nat). Nat) zero (\\(k : Nat). \\(x : Nat). succ x) 2",
    "W Nat (\\(n : Nat). Unit)",
    "pair zero star",
    "ind-eq (\\(y : Nat). \\(p : Id Nat zero y). Id Nat y zero) zero refl zero refl",
    "Trunc (Nat + Unit)",
    "eta 4",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip_samples(src):
    t = resolve(src)
    assert resolve(pretty(t)) == t


def test_round_trip_all_stdlib_declarations():
    names: set[str] = set()
    for path in stdlib_paths():
        module = parse(path.read_text(), path.name)
        for item in module.items:
            if isinstance(item, (DefItem, PostulateItem)):
                ty = resolve_expr(item.type, [], names)
                assert resolve_expr(parse_expression(pretty(ty)), [], names) == ty
                if isinstance(item, DefItem):
                    body = resolve_expr(item.body, [], names)
                    assert resolve_expr(parse_expression(pretty(body)), [], names) == body
                names.add(item.name)


def test_diagnostics_carry_spans(tmp_path):
    from hott.check import CheckError
    from hott.loader import process_module
    from hott.terms import EMPTY_SIGNATURE

    bad = parse("def ok : Nat := zero\ndef bad : Nat := star", "bad.hott")
    with pytest.raises(CheckError) as e:
        process_module(EMPTY_SIGNATURE, bad)
    assert e.value.diagnostic.span == (2, 1)
