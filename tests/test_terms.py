"""Index calculus: shift, subst, scoping, and their algebra."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import pickle
import random
import threading

import pytest
from hypothesis import given, strategies as st

from hott import terms
from hott.reduce import BudgetExhausted, ReductionBudget, normalize, whnf
from hott.terms import (
    EMPTY_CONTEXT,
    EMPTY_SIGNATURE,
    NAT,
    ZERO,
    App,
    Const,
    Context,
    Declaration,
    IndEq,
    KernelBug,
    Lambda,
    Pair,
    Pi,
    Sigma,
    Signature,
    Succ,
    Term,
    Universe,
    Var,
    numeral,
    as_int,
    instantiate,
    loose,
    shift,
    spine,
    subst,
    well_scoped,
)

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import flat  # noqa: E402
from enumeration import random_scoped_term  # noqa: E402


def test_shift_free_variable():
    assert shift(Var(0), 0, 1) == Var(1)


def test_shift_bound_variable_unaffected():
    assert shift(Lambda(NAT, Var(0)), 0, 1) == Lambda(NAT, Var(0))


def test_shift_free_under_binder():
    assert shift(Lambda(NAT, Var(1)), 0, 1) == Lambda(NAT, Var(2))


def test_subst_direct_hit():
    assert subst(Var(0), 0, ZERO) == ZERO


def test_subst_decrements_above():
    assert subst(Var(1), 0, ZERO) == Var(0)


def test_subst_capture_avoidance():
    assert subst(Lambda(NAT, Var(1)), 0, Succ(ZERO)) == Lambda(NAT, Succ(ZERO))


def test_well_scoped():
    assert well_scoped(Var(0), 1)
    assert not well_scoped(Var(0), 0)
    assert well_scoped(Lambda(NAT, Var(0)), 0)


def test_shift_underflow_is_kernel_bug():
    with pytest.raises(KernelBug):
        shift(Var(0), 0, -1)


def test_numerals():
    assert as_int(numeral(7)) == 7
    assert as_int(Succ(Var(0))) is None


def test_context_lookup_shifts():
    ctx = Context().extend(NAT).extend(App(Var(0), ZERO))
    assert ctx.lookup(0) == App(Var(1), ZERO)
    assert ctx.lookup(1) == NAT


def test_context_extend_shares_the_context_it_extends():
    ctx = EMPTY_CONTEXT.extend(NAT)
    grown = ctx.extend(App(Var(0), ZERO))
    assert grown.prefix is ctx
    assert len(grown) == 2 and grown.last == App(Var(0), ZERO) and grown.prefix.last == NAT
    assert len(ctx) == 1 and ctx.last == NAT and len(ctx.prefix) == 0
    wide = Context()
    for i in range(100_000):
        wide = wide.extend(Const(f"c{i}"))
    assert len(wide) == 100_000
    assert wide.lookup(0) == Const("c99999")
    assert wide.lookup(99_999) == Const("c0")


def test_signature_rejects_duplicates():
    sig = Signature().extend(Declaration("c", NAT, ZERO))
    with pytest.raises(KernelBug):
        sig.extend(Declaration("c", NAT, ZERO))


# -- exhaustive index algebra over a small fragment -------------------------


def _enumerate_raw(max_size: int, max_index: int = 2):
    """All terms built from Var(<3), Zero, Succ, App, Lambda(Nat, -)."""
    by_size = {1: [ZERO] + [Var(i) for i in range(max_index + 1)]}
    for n in range(2, max_size + 1):
        items = []
        items.extend(Succ(t) for t in by_size[n - 1])
        items.extend(Lambda(NAT, t) for t in by_size.get(n - 2, []))
        for k in range(1, n - 1):
            for f in by_size[k]:
                items.extend(App(f, a) for a in by_size[n - 1 - k])
        by_size[n] = items
    return [t for items in by_size.values() for t in items]


RAW_TERMS = _enumerate_raw(6)


def test_raw_enumeration_is_substantial():
    assert len(RAW_TERMS) > 500


def test_shift_composition():
    for t in RAW_TERMS:
        for c in (0, 1):
            assert shift(shift(t, c, 1), c, 2) == shift(t, c, 3)


def test_subst_cancels_shift_enumerated():
    s = Succ(Var(0))
    for t in RAW_TERMS:
        assert subst(shift(t, 0, 1), 0, s) == t


def test_subst_commutes_with_shift():
    # For c <= j: shifting after substitution equals substituting the
    # shifted parts at the displaced index.
    s = Succ(Var(0))
    for t in RAW_TERMS:
        for c, j in ((0, 0), (0, 1), (1, 1), (0, 2)):
            lhs = shift(subst(t, j, s), c, 2)
            rhs = subst(shift(t, c, 2), j + 2, shift(s, c, 2))
            assert lhs == rhs, (t, c, j)


def test_scoping_preserved_by_shift_and_subst():
    for t in RAW_TERMS:
        if well_scoped(t, 3):
            assert well_scoped(shift(t, 0, 2), 5)
            assert well_scoped(subst(t, 0, numeral(2)), 2)


# -- randomized properties ---------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=24))
def test_subst_cancels_shift_random(seed, fuel):
    rng = random.Random(seed)
    t = random_scoped_term(rng, 2, fuel)
    s = random_scoped_term(rng, 2, 5)
    assert well_scoped(t, 2)
    assert subst(shift(t, 0, 1), 0, s) == t


@given(st.integers(min_value=0, max_value=10_000))
def test_random_terms_are_scoped(seed):
    rng = random.Random(seed)
    depth = rng.randrange(0, 4)
    t = random_scoped_term(rng, depth, 16)
    assert well_scoped(t, depth)
    assert well_scoped(shift(t, 0, 3), depth + 3)


# -- loose-index bounds against a full-traversal reference -------------------
#
# The reference code below is the substitution calculus without the cached
# bound: it visits every node and rebuilds every term former it passes.


def _children(t: Term):
    # dataclasses.fields, not terms.subterms: an independent route to the children
    return [(getattr(t, f.name), k) for f, k in zip(dataclasses.fields(t), type(t).BINDERS)]


def _naive_loose(t: Term, depth: int = 0) -> int:
    if isinstance(t, Var):
        return t.index - depth + 1 if t.index >= depth else 0
    return max((_naive_loose(sub, depth + k) for sub, k in _children(t)), default=0)


def _ref_map(t: Term, depth: int, on_var) -> Term:
    if isinstance(t, Var):
        return on_var(t, depth)
    if not type(t).BINDERS:
        return t
    return type(t)(*[_ref_map(sub, depth + k, on_var) for sub, k in _children(t)])


def _ref_shift(t: Term, cutoff: int, amount: int) -> Term:
    return _ref_map(t, 0, lambda v, d: Var(v.index + amount) if v.index >= cutoff + d else v)


def _ref_subst(t: Term, j: int, s: Term) -> Term:
    def on_var(v: Var, d: int) -> Term:
        if v.index == j + d:
            return _ref_shift(s, 0, d)
        return Var(v.index - 1) if v.index > j + d else v

    return _ref_map(t, 0, on_var)


def _fresh(t: Term) -> Term:
    """An equal copy of ``t`` with no node shared, each built afresh."""
    return dataclasses.replace(t) if not type(t).BINDERS else type(t)(*[_fresh(sub) for sub, _ in _children(t)])


def _assert_matches_reference(t: Term) -> None:
    assert loose(_fresh(t)) == _naive_loose(t), t
    assert loose(t) == _naive_loose(t), t
    s = Succ(Var(1))
    for c in range(4):
        for a in (1, 2):
            assert shift(t, c, a) == _ref_shift(t, c, a), (t, c, a)
        assert subst(t, c, s) == _ref_subst(t, c, s), (t, c)
        if loose(t) <= c:
            assert shift(t, c, 1) is t
            assert subst(t, c, s) is t
        assert well_scoped(t, c) == (_naive_loose(t) <= c)


def _every_former_over_vars():
    """Each binding term former with variables of several indices as children,
    so every binder count in ``BINDERS`` (0, 1 and 2) is exercised."""
    formers = [cls for cls in vars(terms).values()
               if isinstance(cls, type) and issubclass(cls, Term) and cls.BINDERS]
    for cls in formers:
        for shiftby in range(3):
            yield cls(*[Var((i + shiftby) % 4) for i in range(len(cls.BINDERS))])


def test_loose_shift_subst_match_reference_enumerated():
    for t in RAW_TERMS:
        _assert_matches_reference(t)
    for t in _every_former_over_vars():
        _assert_matches_reference(t)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=24))
def test_loose_shift_subst_match_reference_random(seed, fuel):
    rng = random.Random(seed)
    t = random_scoped_term(rng, rng.randrange(0, 4), fuel)
    _assert_matches_reference(t)


# -- simultaneous substitution against one reference substitution at a time --


def _ref_instantiate(t: Term, args: list[Term]) -> Term:
    """``t`` under ``len(args)`` lambdas, applied to ``args`` one beta at a time."""
    for _ in args:
        t = Lambda(NAT, t)
    for a in args:
        t = _ref_subst(t.body, 0, a)
    return t


INSTANCE_ARGS = [ZERO, numeral(2), Lambda(NAT, Var(0)), Var(0), Succ(Var(1)), Lambda(NAT, Var(2))]


def _assert_instantiate_matches_reference(t: Term, args: list[Term]) -> None:
    assert instantiate(t, args) == _ref_instantiate(t, args), (t, args)
    if loose(t) == 0:
        assert instantiate(t, args) is t


def test_instantiate_matches_sequential_subst_enumerated():
    rng = random.Random(5)
    for t in [*RAW_TERMS, *_every_former_over_vars()]:
        for n in (1, 2, 3):
            _assert_instantiate_matches_reference(t, INSTANCE_ARGS[:n])  # closed
            _assert_instantiate_matches_reference(t, INSTANCE_ARGS[-n:])  # open
            _assert_instantiate_matches_reference(t, rng.sample(INSTANCE_ARGS, n))


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=24))
def test_instantiate_matches_sequential_subst_random(seed, fuel):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    t = random_scoped_term(rng, n + rng.randrange(0, 3), fuel)
    args = [random_scoped_term(rng, rng.randrange(0, 3), 5) for _ in range(n)]
    _assert_instantiate_matches_reference(t, args)


# -- the bound set on each node when it is built -----------------------------
#
# A node built with too small a bound would make a later substitution skip
# one of its variables; so every node's bound must equal the reference's,
# whether the parser, shift, instantiate or whnf built it.


def _assert_cached_bounds_sound(t: Term) -> None:
    todo = [t]
    while todo:
        u = todo.pop()
        assert u._loose == _naive_loose(u), u
        todo.extend(sub for sub, _ in _children(u))


def _apply(fn: Term, *args: Term) -> Term:
    for arg in args:
        fn = App(fn, arg)
    return fn


def _assert_built_bounds_sound(t: Term, args: list[Term]) -> None:
    assert instantiate(t, []) is t
    for c in range(3):
        _assert_cached_bounds_sound(shift(t, c, 2))
    for n in range(1, len(args) + 1):
        for j in range(2):
            _assert_cached_bounds_sound(instantiate(t, args[:n], j))
    _assert_cached_bounds_sound(t)
    with contextlib.suppress(BudgetExhausted):  # whnf's reducts, rebuilt under binders
        _assert_cached_bounds_sound(normalize(EMPTY_SIGNATURE, _apply(Lambda(NAT, t), *args), ReductionBudget(200)))


def test_built_bounds_are_sound_enumerated():
    for t in _every_former_over_vars():
        for args in (INSTANCE_ARGS[:3], INSTANCE_ARGS[-3:]):
            _assert_built_bounds_sound(t, args)
            _assert_built_bounds_sound(_fresh(t), [_fresh(a) for a in args])


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=24))
def test_built_bounds_are_sound_random(seed, fuel):
    rng = random.Random(seed)
    t = random_scoped_term(rng, rng.randrange(0, 5), fuel)
    args = [random_scoped_term(rng, rng.randrange(0, 3), 6) for _ in range(3)]
    _assert_built_bounds_sound(t, args)


def test_parsed_and_reduced_bounds_are_exact(stdlib_sig):
    for decl in stdlib_sig.declarations:
        _assert_cached_bounds_sound(decl.type)
        if decl.body is not None:
            _assert_cached_bounds_sound(decl.body)
            _assert_cached_bounds_sound(whnf(stdlib_sig, decl.body, ReductionBudget(), unfold=True))
    for name in ("exp", "factorial", "fib"):
        _assert_cached_bounds_sound(normalize(stdlib_sig, App(Const(name), numeral(3)), ReductionBudget()))


def test_loose_is_invisible_to_equality():
    t = Lambda(NAT, App(Var(1), Var(0)))
    assert loose(t) == 1
    fresh = Lambda(NAT, App(Var(1), Var(0)))
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert "_loose" not in {f.name for f in dataclasses.fields(t)}


def test_nodes_are_slotted_frozen_dataclasses():
    leaves = [Var(3), Const("c"), Universe(1), NAT, ZERO, terms.UNIT, terms.STAR, terms.EMPTY, terms.REFL]
    for t in [*leaves, *_every_former_over_vars()]:
        assert not hasattr(t, "__dict__"), t
        assert type(t).__match_args__ == tuple(f.name for f in dataclasses.fields(t))
        for name in type(t).__match_args__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, ZERO)
        # not a field: CPython 3.11's frozen slotted __setattr__ raises TypeError
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            t._loose = 0
        for twin in (dataclasses.replace(t), copy.copy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t), t
            assert twin._loose == t._loose == _naive_loose(t), t


def test_nodes_compare_print_and_match_as_dataclasses():
    t = App(Lambda(NAT, Var(1)), Var(0))
    assert repr(t) == "App(fn=Lambda(domain=Nat(), body=Var(index=1)), arg=Var(index=0))"
    assert App.__match_args__ == ("fn", "arg")
    assert IndEq.__match_args__ == ("base", "motive", "center", "endpoint", "path")
    assert t == App(Lambda(NAT, Var(1)), Var(0)) and hash(t) == hash(App(Lambda(NAT, Var(1)), Var(0)))
    assert t != App(Lambda(NAT, Var(1)), Var(1)) and t != Pair(Lambda(NAT, Var(1)), Var(0))
    closed = dataclasses.replace(t, arg=ZERO)
    assert closed == App(Lambda(NAT, Var(1)), ZERO) and (loose(closed), loose(t)) == (1, 1)
    assert loose(dataclasses.replace(closed, fn=Lambda(NAT, Var(0)))) == 0
    match t:
        case App(Lambda(domain, body), arg):
            assert (domain, body, arg) == (NAT, Var(1), Var(0))
        case _:
            raise AssertionError(t)


# Numerals far deeper than the interpreter's recursion limit, on the main
# thread at whatever limit the test process has: every traversal of a chain
# of Succ is a loop.
BIG = 500_000


@flat
def test_closed_deep_numeral_is_shared_on_main_thread():
    assert threading.current_thread() is threading.main_thread()
    n = numeral(BIG)
    assert loose(n) == 0 and n.pred._loose == 0  # set on every node of the chain
    assert shift(n, 0, 1) is n
    assert subst(n, 0, ZERO) is n
    body = subst(Lambda(NAT, App(Var(1), Var(1))), 0, n)
    assert body.body.fn is n and body.body.arg is n


@flat
def test_deep_numeral_equality_and_hash():
    n, fresh = numeral(BIG), numeral(BIG)
    assert n == fresh and hash(n) == hash(fresh)
    assert n != n.pred and n != Succ(n)
    assert Succ(n) == Succ(fresh) and App(n, ZERO) == App(fresh, ZERO)
    assert as_int(n) == BIG and spine(n) == (BIG, ZERO)
    assert len({n, fresh, numeral(3)}) == 2


@flat
def test_deep_open_chain_shift_and_subst():
    def chain(base: Term, k: int = 5_000) -> Term:
        for _ in range(k):
            base = Succ(base)
        return base

    t = chain(Var(0))
    assert t == chain(Var(0)) and t != chain(Var(1)) and t != chain(ZERO)
    assert loose(t) == 1
    assert shift(t, 0, 2) == chain(Var(2))
    assert shift(t, 1, 2) is t
    assert subst(t, 0, numeral(3)) == numeral(5_003)
    assert subst(Lambda(NAT, t), 0, ZERO) == Lambda(NAT, chain(Var(0)))
    assert subst(Lambda(NAT, chain(Var(1))), 0, Var(4)) == Lambda(NAT, chain(Var(5)))


@flat
def test_deep_binder_chain_bound():
    # Each node's bound is set when it is built: reading it walks nothing.
    t = Var(6_000)
    for former in [Pi, Sigma, Lambda] * 2_000:
        t = former(NAT, t)
    assert loose(t) == 1
    assert t.body.second.codomain._loose == 4  # set on every node of the chain


# -- signatures sharing one store ------------------------------------------


def _decl(name: str, body: Term = ZERO) -> Declaration:
    return Declaration(name, NAT, body)


def _names(sig: Signature) -> list[str]:
    return [d.name for d in sig.declarations]


def test_signature_branches_do_not_see_each_other():
    base = Signature().extend(_decl("a"))
    left = base.extend(_decl("l"))
    right = base.extend(_decl("r"))  # base is no longer the newest: copies its prefix
    left2 = left.extend(_decl("m"))
    for sig, absent in ((base, "lrm"), (left, "rm"), (right, "lm"), (left2, "r")):
        for name in absent:
            assert name not in sig and sig.lookup(name) is None, (name, _names(sig))
    assert _names(base) == ["a"]
    assert _names(left) == ["a", "l"]
    assert _names(left2) == ["a", "l", "m"]
    assert _names(right) == ["a", "r"]
    # a sibling may declare a name another branch already holds
    again = base.extend(_decl("l", Succ(ZERO)))
    assert again.lookup("l").body == Succ(ZERO)
    assert left.lookup("l").body == ZERO and left2.lookup("l").body == ZERO
    assert "l" in again and "l" in left and "a" in right


def test_signature_duplicates_raise_on_every_branch():
    base = Signature().extend(_decl("a"))
    left = base.extend(_decl("l"))
    for sig, name in ((left, "a"), (left, "l"), (base, "a")):
        with pytest.raises(KernelBug):
            sig.extend(_decl(name))
    assert _names(left) == ["a", "l"] and _names(base) == ["a"]


def test_signature_from_declarations():
    sig = Signature((_decl("a"), _decl("b")))
    assert _names(sig) == ["a", "b"] and "b" in sig and sig.lookup("a") == _decl("a")
    assert _names(sig.extend(_decl("c"))) == ["a", "b", "c"]
    assert Signature().declarations == ()
