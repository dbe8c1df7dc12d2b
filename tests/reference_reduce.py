"""A frozen copy of ``hott.reduce`` as it stood before numerals were
walked by loops: ``whnf``, ``normalize`` and ``conv`` recurse once per
level, ``Succ`` included.  ``test_reference_reduce.py`` compares the
kernel with it on normal forms, conversion verdicts and step counts, as
``test_terms.py`` keeps the old ``shift`` and ``subst``.  Do not edit it
to follow the kernel: a difference is what it is kept to find.

The copy recurses once per ``Succ``, so callers raise the recursion
limit around it (``deep``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Callable, Iterator

from hott.reduce import ReductionBudget
from hott.terms import (
    App,
    Const,
    IndCoprod,
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
    Refl,
    Signature,
    Star,
    Succ,
    Term,
    Tree,
    TruncIn,
    Universe,
    Var,
    Zero,
    shift,
    subst,
    subterms,
)


@contextmanager
def deep() -> Iterator[None]:
    """Room for the copy's recursion; the caller's limit comes back."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 20_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _unfold(sig: Signature, t: Term) -> Term | None:
    """Body of a defined constant, or None when ``t`` is not unfoldable."""
    if isinstance(t, Const):
        decl = sig.lookup(t.name)
        if decl is not None and decl.body is not None:
            return decl.body
    return None


# Eliminator -> (scrutinee field, constructor -> contraction); a
# contraction maps the eliminator and its scrutinee in whnf to the reduct.
# ``IndEmpty`` has no constructor, hence no rule.
IOTA: dict[type, tuple[str, dict[type, Callable[[Term, Term], Term]]]] = {
    IndNat: ("scrutinee", {
        Zero: lambda t, s: t.base,
        Succ: lambda t, s: App(App(t.step, s.pred), IndNat(t.motive, t.base, t.step, s.pred)),
    }),
    IndSigma: ("scrutinee", {Pair: lambda t, s: App(App(t.step, s.fst), s.snd)}),
    IndUnit: ("scrutinee", {Star: lambda t, s: t.point}),
    IndCoprod: ("scrutinee", {
        Inl: lambda t, s: App(t.on_left, s.value),
        Inr: lambda t, s: App(t.on_right, s.value),
    }),
    IndEq: ("path", {Refl: lambda t, s: t.center}),
    IndTrunc: ("scrutinee", {TruncIn: lambda t, s: App(t.point, s.value)}),
}


def rebuild(t: Term, children: list[Term]) -> Term:
    """``t`` with its subterms replaced by ``children``; ``t`` itself when
    every child is the subterm it replaces.  (``hott.terms`` had this once.)"""
    if all(getattr(t, name) is c for name, c in zip(type(t).__match_args__, children)):
        return t
    return type(t)(*children)


def whnf(sig: Signature, t: Term, budget: ReductionBudget, unfold: bool = False) -> Term:
    """Weak head normal form.

    A defined constant in head position unfolds only when it blocks a
    redex (function position, eliminator scrutinee); a bare defined
    constant at the top is left alone unless ``unfold`` is set, so that
    conversion can compare equal-named constants without unfolding.
    """
    while True:
        if isinstance(t, App):
            fn = whnf(sig, t.fn, budget, unfold=True)
            if isinstance(fn, Lambda):
                budget.tick()
                t = subst(fn.body, 0, t.arg)
                continue
            return t if fn is t.fn else App(fn, t.arg)

        rule = IOTA.get(type(t))
        if rule is not None:
            field, contractions = rule
            old = getattr(t, field)
            s = whnf(sig, old, budget, unfold=True)
            contract = contractions.get(type(s))
            if contract is not None:
                budget.tick()
                t = contract(t, s)
                continue
            return t if s is old else type(t)(*(s if f == field else getattr(t, f) for f in t.__match_args__))

        # Not in IOTA: the recursive branch is a function over the arity
        # of the tree, whose domain annotation comes from the components
        # function, so the rule fires only once the components' whnf
        # exposes a lambda (always the case for closed canonical trees).
        if isinstance(t, IndW):
            s = whnf(sig, t.scrutinee, budget, unfold=True)
            if isinstance(s, Tree):
                comps = whnf(sig, s.components, budget, unfold=True)
                if isinstance(comps, Lambda):
                    budget.tick()
                    rec = Lambda(
                        comps.domain,
                        IndW(
                            shift(t.motive, 1, 1),
                            shift(t.step, 0, 1),
                            App(shift(comps, 0, 1), Var(0)),
                        ),
                    )
                    t = App(App(App(t.step, s.shape), comps), rec)
                    continue
                s = Tree(s.shape, comps)
            return t if s is t.scrutinee else IndW(t.motive, t.step, s)

        if unfold:
            body = _unfold(sig, t)
            if body is not None:
                budget.tick()
                t = body
                continue
        return t


def normalize(sig: Signature, t: Term, budget: ReductionBudget) -> Term:
    """Full beta/iota/delta-normal form (recurses under binders)."""
    t = whnf(sig, t, budget, unfold=True)
    if not type(t).BINDERS:
        return t
    return rebuild(t, [normalize(sig, sub, budget) for sub, _ in subterms(t)])


def conv(sig: Signature, t1: Term, t2: Term, budget: ReductionBudget) -> bool:
    """Decide judgmental equality of two terms of a common type.

    Both sides are reduced to WHNF and compared head-first; when exactly
    one side is a lambda the other is eta-expanded.  Equal-named constants
    compare equal without unfolding; unfolding happens only on head
    mismatch.
    """
    if t1 == t2:
        return True
    a = whnf(sig, t1, budget)
    b = whnf(sig, t2, budget)
    if a == b:
        return True

    if type(a) is type(b):
        if isinstance(a, Const):
            # Same name is definitionally reflexive; different names fall
            # through to delta below.
            if a.name == b.name:
                return True
        elif isinstance(a, (Var, Universe)):
            return a == b
        elif isinstance(a, Lambda):
            # The common type forces the domains; compare bodies.
            return conv(sig, a.body, b.body, budget)
        else:
            subs_a = list(subterms(a))
            subs_b = list(subterms(b))
            if len(subs_a) == len(subs_b):
                return all(
                    conv(sig, x, y, budget) for (x, _), (y, _) in zip(subs_a, subs_b)
                )
            return False

    if isinstance(a, Lambda) and not isinstance(b, Lambda):
        return conv(sig, a.body, App(shift(b, 0, 1), Var(0)), budget)
    if isinstance(b, Lambda) and not isinstance(a, Lambda):
        return conv(sig, App(shift(a, 0, 1), Var(0)), b.body, budget)

    body = _unfold(sig, a)
    if body is not None:
        return conv(sig, body, b, budget)
    body = _unfold(sig, b)
    if body is not None:
        return conv(sig, a, body, budget)
    return False
