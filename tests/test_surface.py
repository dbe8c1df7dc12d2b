"""Concrete syntax: lexing, parsing, resolution, printing round trips."""

from __future__ import annotations

import random

import pytest

from conftest import stdlib_paths

from hott.loader import _label
from hott.parser import (
    CONSTANTS,
    FORMS,
    ITEMS,
    DefItem,
    LexError,
    ParseError,
    Parser,
    PostulateItem,
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
    Const,
    Coprod,
    Id,
    IndNat,
    Lambda,
    Pi,
    Sigma,
    Succ,
    Term,
    Universe,
    Var,
    numeral,
    shift,
    subterms,
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


# Text -> its (kind, text, span) tokens, or the LexError it raises and where.
LEXER_CASES = [
    # columns: a tab and a \r are one column each; \r\n ends a line
    ("\tx", [("ident", "x", (1, 2)), ("eof", "", (1, 3))]),
    ("\rx", [("ident", "x", (1, 2)), ("eof", "", (1, 3))]),
    ("x\r\ny", [("ident", "x", (1, 1)), ("ident", "y", (2, 1)), ("eof", "", (2, 2))]),
    # names: a - joins name characters only
    ("a-b", [("ident", "a-b", (1, 1)), ("eof", "", (1, 4))]),
    ("a--b", [("ident", "a", (1, 1)), ("eof", "", (1, 5))]),
    ("a->b", [("ident", "a", (1, 1)), ("->", "->", (1, 2)), ("ident", "b", (1, 4)), ("eof", "", (1, 5))]),
    ("x'", [("ident", "x'", (1, 1)), ("eof", "", (1, 3))]),
    ("_", [("hole", "_", (1, 1)), ("eof", "", (1, 2))]),
    ("_x", [("ident", "_x", (1, 1)), ("eof", "", (1, 3))]),
    ("12ab", [("nat", "12", (1, 1)), ("ident", "ab", (1, 3)), ("eof", "", (1, 5))]),
    # directives
    ("#assert-eq", [("#assert-eq", "#assert-eq", (1, 1)), ("eof", "", (1, 11))]),
    ("#assert-", ("unknown directive '#assert'", (1, 1))),
    ("x #foo", ("unknown directive '#foo'", (1, 3))),
    ("#", ("unknown directive '#'", (1, 1))),
    # stray characters
    ("x -", ("unexpected character '-'", (1, 3))),
    ("é", ("unexpected character 'é'", (1, 1))),
    ("\n\f", ("unexpected character '\\x0c'", (2, 1))),
    # the end of input, after a comment that ends the text
    ("x -- no newline", [("ident", "x", (1, 1)), ("eof", "", (1, 16))]),
]


@pytest.mark.parametrize("text, expected", LEXER_CASES, ids=[repr(text) for text, _ in LEXER_CASES])
def test_tokenize_edge_cases(text, expected):
    if isinstance(expected, list):
        assert [(t.kind, t.text, t.span) for t in tokenize(text)] == expected
    else:
        with pytest.raises(LexError) as info:
            tokenize(text)
        assert (info.value.args[0], info.value.span) == expected


def test_tokenize_spans():
    toks = tokenize("def x : Nat\n  := zero")
    assert toks[0].span == (1, 1)
    assert toks[-2].span == (2, 6)


# Directive -> a one-item text of it, which holds each token of the
# directive's grammar once, and the item's ``--trace`` label.
ITEM_TEXTS = {
    "def": ("def idN : Nat -> Nat := succ", "idN"),
    "postulate": ("postulate p : Nat", "p"),
    "#check": ("#check zero : Nat", "#check"),
    "#eval": ("#eval succ zero", "#eval"),
    "#assert-eq": ("#assert-eq zero == zero : Nat", "#assert-eq"),
    "#assert-neq": ("#assert-neq zero == 1 : Nat", "#assert-neq"),
    "#fail": ("#fail #eval star", "#fail"),
}


@pytest.mark.parametrize("directive", sorted(ITEMS))
def test_parse_item(directive):
    text, label = ITEM_TEXTS[directive]
    (item,) = parse(text).items
    cls, parts, fields = ITEMS[directive]
    assert type(item) is cls and all(getattr(item, f) == v for f, v in fields.items())
    assert _label(item) == label
    tokens = tokenize(text)
    for part in parts:
        if part in cls.__match_args__:
            continue
        # dropping the token is a parse error that expects it
        (i,) = [i for i, tok in enumerate(tokens) if tok.kind == part]
        with pytest.raises(ParseError) as e:
            Parser(tokens[:i] + tokens[i + 1:]).parse_module()
        assert e.value.expected == {part}, part


def test_parse_requires_type_ascription():
    with pytest.raises(ParseError):
        parse("def x := 3")


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


def _resolver_shape(fn: Term, k: int) -> Term:
    """A field binding ``k`` variables as resolution builds it from the
    ``k``-argument function ``fn``."""
    t = shift(fn, 0, k)
    for i in reversed(range(k)):
        t = App(t, Var(i))
    return t


def _random_term(rng: random.Random, depth: int, scope: int) -> Term:
    """A term over ``scope`` bound variables, built from every keyword
    former, the binders, application and ``+``."""
    if depth == 0 or rng.random() < 0.3:
        leaves = [Const("c"), Universe(rng.randrange(2)), numeral(rng.randrange(4)), *CONSTANTS.values()]
        leaves += [Var(rng.randrange(scope))] * 3 if scope else []
        return rng.choice(leaves)
    kind = rng.choice([*FORMS, Lambda, Pi, Sigma, App, Coprod])
    if kind in (Lambda, Pi, Sigma):
        return kind(_random_term(rng, depth - 1, scope), _random_term(rng, depth - 1, scope + 1))
    if kind in (App, Coprod):
        return kind(_random_term(rng, depth - 1, scope), _random_term(rng, depth - 1, scope))
    cls = FORMS[kind][0]
    return cls(*(_resolver_shape(_random_term(rng, depth - 1, scope), k) for k in cls.BINDERS))


def _formers(t: Term) -> set[type]:
    return {type(t)}.union(*(_formers(sub) for sub, _ in subterms(t)))


@pytest.mark.parametrize("sugar_numerals", [True, False])
def test_round_trip_every_former(sugar_numerals):
    rng = random.Random(4)
    seen: set[type] = set()
    for _ in range(1500):
        t = _random_term(rng, rng.randrange(1, 5), 0)
        printed = pretty(t, sugar_numerals=sugar_numerals)
        assert resolve_expr(parse_expression(printed), [], {"c"}) == t, printed
        seen |= _formers(t)
    assert seen >= {cls for cls, _ in FORMS.values()}


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
    assert e.value.span == (2, 1)


def test_budget_exhaustion_carries_span(stdlib_sig):
    from hott.loader import ProcessOptions, process_module
    from hott.reduce import BudgetExhausted

    module = parse("-- needs 53,230 steps\n\n#eval exp 2 10\n", "exp.hott")
    with pytest.raises(BudgetExhausted) as e:
        process_module(stdlib_sig, module, ProcessOptions(max_steps=100))
    assert str(e.value) == "3:1: reduction budget exhausted after 101 steps"
