"""Reduction and judgmental equality.

``whnf`` contracts head redexes (beta, all iota rules, and definition
unfolding where a constant blocks progress).  The iota rules are one
table, ``IOTA``: each eliminator's scrutinee field and, per constructor,
its contraction; one loop in ``whnf`` reads it, and only ``IndW`` has a
branch of its own.  ``normalize`` produces full beta/iota/delta-normal
forms.  ``conv`` decides judgmental equality of well-typed terms, with
eta for Pi and for no other former.

The theory has no general fixpoints, so every well-typed term normalizes;
the step budget turns a kernel bug or an adversarial input into an error
instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .terms import (
    DEFAULT_MAX_STEPS,
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
    LocatedError,
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
    instantiate,
    rebuild,
    shift,
    subst,  # unused here, but perfbench/boundary.py patches ``reduce.subst``
    subterms,
)


class BudgetExhausted(LocatedError):
    def __init__(self, steps: int):
        super().__init__(f"reduction budget exhausted after {steps} steps")
        self.steps = steps


@dataclass
class ReductionBudget:
    max_steps: int = DEFAULT_MAX_STEPS
    steps_used: int = 0

    def tick(self) -> None:
        self.steps_used += 1
        if self.steps_used > self.max_steps:
            raise BudgetExhausted(self.steps_used)


def _unfold(sig: Signature, t: Term) -> Term | None:
    """Body of a defined constant, or None when ``t`` is not unfoldable."""
    decl = sig.lookup(t.name) if isinstance(t, Const) else None
    return decl and decl.body


# Eliminator -> (scrutinee field, constructor -> contraction).  A contraction
# maps the eliminator and its scrutinee in whnf to the reduct's head and then
# its arguments, for ``whnf``'s stack.  ``IndEmpty`` has no constructor: no rule.
IOTA: dict[type, tuple[str, dict[type, Callable[[Term, Term], tuple[Term, ...]]]]] = {
    IndNat: ("scrutinee", {
        Zero: lambda t, s: (t.base,),
        Succ: lambda t, s: (t.step, s.pred, IndNat(t.motive, t.base, t.step, s.pred)),
    }),
    IndSigma: ("scrutinee", {Pair: lambda t, s: (t.step, s.fst, s.snd)}),
    IndUnit: ("scrutinee", {Star: lambda t, s: (t.point,)}),
    IndCoprod: ("scrutinee", {
        Inl: lambda t, s: (t.on_left, s.value),
        Inr: lambda t, s: (t.on_right, s.value),
    }),
    IndEq: ("path", {Refl: lambda t, s: (t.center,)}),
    IndTrunc: ("scrutinee", {TruncIn: lambda t, s: (t.point, s.value)}),
}


def whnf(sig: Signature, t: Term, budget: ReductionBudget, unfold: bool = False) -> Term:
    """Weak head normal form, ``t`` itself when no step is taken.

    One loop over the head, with the spine's arguments on a stack (the next
    one last): a lambda head takes them one tick each, in one substitution,
    and a head with arguments unfolds if it is a defined constant.  A bare
    defined constant at the top is left alone unless ``unfold`` is set, so
    that conversion can compare equal-named constants without unfolding.
    """
    start, steps, args = t, budget.steps_used, []
    while True:
        while isinstance(t, App):
            args.append(t.arg)
            t = t.fn
        if isinstance(t, Lambda) and args:
            taken = []
            while isinstance(t, Lambda) and args:
                budget.tick()
                taken.append(args.pop())
                t = t.body
            t = instantiate(t, taken)
            continue
        rule = IOTA.get(type(t))
        if rule is not None:
            field, contractions = rule
            old = getattr(t, field)
            s = whnf(sig, old, budget, unfold=True)
            contract = contractions.get(type(s))
            if contract is not None:
                budget.tick()
                t, *pushed = contract(t, s)
                args.extend(reversed(pushed))
                continue
            t = t if s is old else type(t)(*(s if f == field else getattr(t, f) for f in t.__match_args__))
            break

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
                    rec = Lambda(comps.domain, IndW(shift(t.motive, 1, 1), shift(t.step, 0, 1),
                                                    App(shift(comps, 0, 1), Var(0))))
                    t = App(App(App(t.step, s.shape), comps), rec)
                    continue
                s = Tree(s.shape, comps)
            t = IndW(t.motive, t.step, s)
            break

        body = _unfold(sig, t) if unfold or args else None
        if body is None:
            break
        budget.tick()
        t = body

    if budget.steps_used == steps:
        return start
    while args:
        t = App(t, args.pop())
    return t


def normalize(sig: Signature, t: Term, budget: ReductionBudget) -> Term:
    """Full beta/iota/delta-normal form: recurses under binders, loops on ``Succ``
    and on an application's spine (the head first, then the arguments in order)."""
    chain, apps = [], []
    t = whnf(sig, t, budget, unfold=True)
    while isinstance(t, Succ):
        chain.append(t)
        t = whnf(sig, t.pred, budget, unfold=True)
    while isinstance(t, App):  # a neutral spine: its head is stuck
        apps.append(t)
        t = t.fn
    if type(t).BINDERS:
        t = rebuild(t, [normalize(sig, sub, budget) for sub, _ in subterms(t)])
    for app in reversed(apps):
        t = rebuild(app, [t, normalize(sig, app.arg, budget)])
    for succ in reversed(chain):
        t = rebuild(succ, [t])
    return t


def conv(sig: Signature, t1: Term, t2: Term, budget: ReductionBudget) -> bool:
    """Decide judgmental equality of two terms of a common type.

    Both sides are reduced to WHNF and compared head-first; when exactly
    one side is a lambda the other is eta-expanded.  Equal-named constants
    compare equal without unfolding; unfolding happens only on head
    mismatch.
    """
    if t1 == t2:
        return True
    while True:  # here t1 != t2, so a == b is known false when whnf changed neither
        a = whnf(sig, t1, budget)
        b = whnf(sig, t2, budget)
        if (a is not t1 or b is not t2) and a == b:
            return True
        if not (isinstance(a, Succ) and isinstance(b, Succ)):
            break
        t1, t2 = a.pred, b.pred  # matching Succ heads, unequal: compare the predecessors

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
        else:  # one former, so as many subterms on each side
            return all(conv(sig, x, y, budget) for (x, _), (y, _) in zip(subterms(a), subterms(b)))

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
