"""Reduction and judgmental equality.

``whnf`` contracts head redexes (beta, all iota rules, and definition
unfolding where a constant blocks progress) in one loop over one stack;
the iota rules are one table, ``IOTA``.  ``normalize`` produces full
beta/iota/delta-normal forms.  ``conv`` decides judgmental equality of
well-typed terms, with eta for Pi and for no other former.

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
# ``IndW``'s tree maps to a rule, not a contraction: it waits for its components'
# lambda, whose domain annotates the recursive branch, and contracts with the tree.
IOTA: dict[type, tuple[str, dict[type, Callable | tuple]]] = {
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
    IndW: ("scrutinee", {Tree: ("components", {Lambda: lambda t, s, c: (t.step, s.shape, c, Lambda(
        c.domain, IndW(shift(t.motive, 1, 1), shift(t.step, 0, 1), App(shift(c, 0, 1), Var(0)))))})}),
}


def whnf(sig: Signature, t: Term, budget: ReductionBudget, unfold: bool = False) -> Term:
    """Weak head normal form, ``t`` itself when no step is taken.

    One loop over one stack: the spine's arguments (the next one last) above
    frames, each an eliminator waiting for its scrutinee's head.  A lambda
    head takes arguments one tick each, in one substitution; a head with no
    arguments above the top frame contracts through that frame's table.  A
    defined constant unfolds if something waits on it or ``unfold`` is set;
    ``conv`` leaves it unset, to compare equal names before unfolding.  Any
    other head is stuck, and so is every waiting eliminator: each is rebuilt
    around the term reached, or is itself if its wait took no step.
    """
    start, steps, args = t, budget.steps_used, []
    frames = None  # or (eliminator, rule, its arguments, steps when it began, the frame below)
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
        if frames and rule is None and not args:
            contract = frames[1][1].get(type(t))  # through the top frame's table
            if type(contract) is tuple:  # IndW's tree: its components are waited for next
                rule = contract
            elif contract is not None:
                budget.tick()
                elim, _, args, _, frames = frames
                if type(elim) in IOTA:
                    t, *pushed = contract(elim, t)
                else:  # the tree, with IndW waiting below it
                    w, _, args, _, frames = frames
                    t, *pushed = contract(w, elim, t)
                args.extend(reversed(pushed))
                continue
        if rule is not None:
            frames = (t, rule, args, budget.steps_used, frames)
            t, args = getattr(t, rule[0]), []
            continue
        body = _unfold(sig, t) if unfold or args or frames else None
        if body is None:
            break
        budget.tick()
        t = body

    if budget.steps_used == steps:
        return start
    while True:  # the head is stuck: rebuild each waiting eliminator, top frame first
        while args:
            t = App(t, args.pop())
        if frames is None:
            return t
        elim, (field, _), args, waited, frames = frames
        if budget.steps_used != waited:
            elim = type(elim)(*(t if f == field else getattr(elim, f) for f in elim.__match_args__))
        t = elim


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
