"""Bidirectional type checking.

``infer`` synthesizes types for Var, Const, Universe, the type formers,
App, annotated Lambda, Zero/Succ/Star and every eliminator; the formers
of ``INTRO`` (Pair, Inl, Inr, Refl, Tree, TruncIn) are checkable only.
``check`` switches modes through conversion.

The typing rules of the inductive formers are two tables, as their
computation rules are one (``reduce.IOTA``, each rule giving a reduct's
head and arguments):

- ``ELIM`` maps each eliminator but ``IndEq`` to ``(rule, scrutinee,
  methods)``.  ``scrutinee`` is the scrutinee's type when that is fixed
  (``NAT``, ``UNIT``, ``EMPTY``), else ``(former, what)``: the former its
  inferred type must have, and the words of the error when it has not.
  Each method is ``(field, prefix, type)``: that field is checked against
  ``type(motive, scrutinee type)``, and a failure is re-raised as ``rule``
  with ``prefix`` before its message (as it is when ``prefix`` is None).
- ``INTRO`` maps each checkable-only former to ``(former, rule, message,
  premises)``: the expected type must be a ``former``, else ``rule`` fails
  with ``message``; each premise ``(field, prefix, type)`` checks that
  field against ``type(term, expected type)`` as a method is checked.
  Refl's one premise is an equation instead, ``(None, None, sides)``: the
  two sides must be convertible.

Universe discipline: a non-cumulative tower.  Nat, Unit and Empty check
against every universe and synthesize level 0; binary formers synthesize
the maximum of their component levels; Universe(l) : Universe(l+1) and
nothing else.

Rule names form a closed vocabulary:

    unbound-variable unbound-constant duplicate-name cannot-synthesize
    not-a-type not-a-function type-mismatch universe-mismatch
    lambda-domain-mismatch refl-endpoints-not-convertible
    Sigma-intro Coprod-intro W-intro Trunc-intro
    Nat-ind Sigma-ind Coprod-ind Eq-ind W-ind Trunc-ind
    max-depth (raised by ``loader``: nesting too deep)
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import attrgetter
from typing import Iterator, Optional

from .reduce import ReductionBudget, conv, whnf
from .terms import (
    EMPTY,
    EMPTY_CONTEXT,
    NAT,
    REFL,
    STAR,
    UNIT,
    ZERO,
    App,
    Const,
    Context,
    Coprod,
    Declaration,
    Empty,
    Id,
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
    LocatedError,
    Nat,
    Pair,
    Pi,
    Refl,
    Sigma,
    Signature,
    Star,
    Succ,
    Term,
    Tree,
    Trunc,
    TruncIn,
    Unit,
    Universe,
    Var,
    W,
    Zero,
    at,
    instantiate,
    shift,
    spine,
    subst,
)


class CheckError(LocatedError):
    """A violated typing rule: its name, the offending term, the expected
    shape when there is one, and the context it was checked in."""

    def __init__(self, rule: str, message: str, found: Optional[Term] = None, expected: Optional[Term] = None,
                 context: Context = EMPTY_CONTEXT, span: Optional[tuple[int, int]] = None):
        super().__init__(f"[{rule}] {message}", span)
        self.rule, self.message, self.found, self.expected, self.context = rule, message, found, expected, context


@contextmanager
def _premise(rule: str, prefix: Optional[str], ctx: Context) -> Iterator[None]:
    """Re-raise a failed premise of ``rule`` as that rule's error, keeping
    the inner message (after ``prefix``) and the terms it found and
    expected; with no ``prefix``, the failure passes unchanged."""
    try:
        yield
    except CheckError as e:
        if prefix is None:
            raise
        raise CheckError(rule, prefix + e.message, found=e.found, expected=e.expected, context=ctx)


ELIM: dict[type, tuple] = {
    IndNat: ("Nat-ind", NAT, (
        ("base", "base case: ", lambda m, s: at(m, 0, ZERO)),
        # (k : Nat) -> motive[k] -> motive[succ k]
        ("step", "inductive step: ", lambda m, s: Pi(NAT, Pi(m, at(m, 2, Succ(Var(1)))))),
    )),
    IndSigma: ("Sigma-ind", (Sigma, "a pair type"), (
        # (x : A) -> (y : B x) -> motive[pair x y]
        ("step", None, lambda m, s: Pi(s.first, Pi(s.second, at(m, 2, Pair(Var(1), Var(0)))))),
    )),
    # Unit-ind and Empty-ind never surface: no former check, no re-wrapped method.
    IndUnit: ("Unit-ind", UNIT, (("point", None, lambda m, s: at(m, 0, STAR)),)),
    IndEmpty: ("Empty-ind", EMPTY, ()),
    IndCoprod: ("Coprod-ind", (Coprod, "a coproduct"), (
        ("on_left", "branch: ", lambda m, s: Pi(s.left, at(m, 1, Inl(Var(0))))),
        ("on_right", "branch: ", lambda m, s: Pi(s.right, at(m, 1, Inr(Var(0))))),
    )),
    IndW: ("W-ind", (W, "a tree type"), (
        # (x : A) -> (c : B x -> W A B) -> ((y : B x) -> motive[c y]) -> motive[tree x c]
        ("step", "inductive step: ", lambda m, s: Pi(s.shapes, Pi(
            Pi(s.arities, shift(s, 0, 2)),
            Pi(Pi(shift(s.arities, 0, 1), at(m, 3, App(Var(1), Var(0)))), at(m, 3, Tree(Var(2), Var(1)))),
        ))),
    )),
    IndTrunc: ("Trunc-ind", (Trunc, "a truncation"), (
        ("point", "", lambda m, s: Pi(s.type, at(m, 1, TruncIn(Var(0))))),
        # (s : Trunc A) -> (u v : motive[s]) -> Id (motive[s]) u v, i.e. the
        # motive is a family of propositions; this is equivalent to the
        # transport condition of the induction principle.
        ("coherence", "", lambda m, s: Pi(s, Pi(m, Pi(shift(m, 0, 1), Id(shift(m, 0, 2), Var(1), Var(0)))))),
    )),
}

INTRO: dict[type, tuple] = {
    Pair: (Sigma, "Sigma-intro", "pair expects a pair type", (
        ("fst", None, lambda t, w: w.first),
        ("snd", None, lambda t, w: subst(w.second, 0, t.fst)),
    )),
    Inl: (Coprod, "Coprod-intro", "inl expects a coproduct type", (("value", None, lambda t, w: w.left),)),
    Inr: (Coprod, "Coprod-intro", "inr expects a coproduct type", (("value", None, lambda t, w: w.right),)),
    Refl: (Id, "Eq-ind", "refl expects an identity type", ((None, None, lambda t, w: (w.lhs, w.rhs)),)),
    Tree: (W, "W-intro", "tree expects a tree type", (
        ("shape", None, lambda t, w: w.shapes),
        ("components", "components: ", lambda t, w: Pi(subst(w.arities, 0, t.shape), shift(w, 0, 1))),
    )),
    TruncIn: (Trunc, "Trunc-intro", "the point constructor expects a truncation",
              (("value", None, lambda t, w: w.type),)),
}


def infer_universe(
    sig: Signature, ctx: Context, ty: Term, budget: Optional[ReductionBudget] = None
) -> int:
    """Level l with ctx |- ty : Universe(l)."""
    budget = budget or ReductionBudget()
    got = whnf(sig, infer(sig, ctx, ty, budget), budget, unfold=True)
    if isinstance(got, Universe):
        return got.level
    raise CheckError("not-a-type", "term does not inhabit a universe", found=ty, context=ctx)


def infer(
    sig: Signature, ctx: Context, t: Term, budget: Optional[ReductionBudget] = None
) -> Term:
    """Synthesize the type of ``t`` (unique up to conversion)."""
    budget = budget or ReductionBudget()
    if isinstance(t, Var):
        if t.index >= len(ctx):
            raise CheckError("unbound-variable", f"variable index {t.index} out of scope", context=ctx)
        return ctx.lookup(t.index)

    if isinstance(t, Const):
        decl = sig.lookup(t.name)
        if decl is None:
            raise CheckError("unbound-constant", f"constant {t.name!r} is not declared", context=ctx)
        return decl.type

    if isinstance(t, (Universe, Nat, Unit, Empty, Pi, Sigma, Coprod, Id, W, Trunc)):
        return Universe(_levels(sig, ctx, t, budget)[0])

    if isinstance(t, Zero):
        return NAT
    if isinstance(t, Succ):  # one premise for the whole chain: its base is a Nat
        check(sig, ctx, spine(t)[1], NAT, budget)
        return NAT
    if isinstance(t, Star):
        return UNIT

    if isinstance(t, Lambda):
        infer_universe(sig, ctx, t.domain, budget)
        body_ty = infer(sig, ctx.extend(t.domain), t.body, budget)
        return Pi(t.domain, body_ty)

    if isinstance(t, App):  # the spine in a loop: one frame however many arguments
        args = []
        while isinstance(t, App):
            args.append(t.arg)
            t = t.fn
        ty, taken = infer(sig, ctx, t, budget), []  # a run of Pis: one substitution
        for arg in reversed(args):
            if not isinstance(ty, Pi):  # ``whnf`` of a Pi takes no step: reduce only a type that is none
                ty, taken = whnf(sig, instantiate(ty, taken), budget, unfold=True), []
                if not isinstance(ty, Pi):
                    raise CheckError("not-a-function", "application head is not of function type",
                                     found=ty, context=ctx)
            check(sig, ctx, arg, instantiate(ty.domain, taken), budget)
            ty = ty.codomain
            taken.append(arg)
        return instantiate(ty, taken)

    elim = ELIM.get(type(t))
    if elim is not None:
        rule, scrutinee, methods = elim
        if isinstance(scrutinee, Term):
            check(sig, ctx, t.scrutinee, scrutinee, budget)
            sc_ty = scrutinee
        else:
            former, what = scrutinee
            sc_ty = whnf(sig, infer(sig, ctx, t.scrutinee, budget), budget, unfold=True)
            if not isinstance(sc_ty, former):
                raise CheckError(rule, f"scrutinee is not {what}", found=sc_ty, context=ctx)
        infer_universe(sig, ctx.extend(sc_ty), t.motive, budget)
        for name, prefix, method_ty in methods:
            with _premise(rule, prefix, ctx):
                check(sig, ctx, getattr(t, name), method_ty(t.motive, sc_ty), budget)
        return subst(t.motive, 0, t.scrutinee)

    if isinstance(t, IndEq):
        base_ty = infer(sig, ctx, t.base, budget)
        # motive lives in ctx, x : A, p : Id(A^1, base^1, x)
        motive_ctx = ctx.extend(base_ty).extend(
            Id(shift(base_ty, 0, 1), shift(t.base, 0, 1), Var(0))
        )
        infer_universe(sig, motive_ctx, t.motive, budget)
        with _premise("Eq-ind", "center: ", ctx):
            check(sig, ctx, t.center, instantiate(t.motive, [t.base, REFL]), budget)
        check(sig, ctx, t.endpoint, base_ty, budget)
        check(sig, ctx, t.path, Id(base_ty, t.base, t.endpoint), budget)
        return instantiate(t.motive, [t.endpoint, t.path])

    if type(t) in INTRO:
        raise CheckError("cannot-synthesize", f"{type(t).__name__} is checkable only; an expected type is required",
                         found=t, context=ctx)

    raise CheckError("cannot-synthesize", f"no synthesis rule for {type(t).__name__}", context=ctx)


# The binary type formers, each to the getter of its two components.
_PARTS = {cls: attrgetter(*cls.__match_args__) for cls in (Pi, Sigma, W, Coprod)}


def _levels(sig: Signature, ctx: Context, t: Term, budget: ReductionBudget) -> tuple[int, bool]:
    """Admissible universe levels of the type ``t`` under the max rule.

    Returns ``(low, flexible)``: the levels are exactly ``{low}`` when not
    flexible and every level ``>= low`` otherwise.  Base types inhabit
    every universe; ``Universe(j)`` inhabits only ``j + 1``; composite
    formers take the image of ``max`` over their components; everything
    else is pinned to its synthesized level.  ``infer`` synthesizes
    ``Universe(low)`` for every type former, so this is the only level rule.
    A chain of formers nested in their last component is walked in a loop.
    """
    low, flexible = 0, False
    while isinstance(t, (Pi, Sigma, W, Coprod, Trunc)):
        if isinstance(t, Trunc):
            t = t.type
            continue
        first, rest = _PARTS[type(t)](t)
        first_low, first_flexible = _levels(sig, ctx, first, budget)
        low, flexible = max(low, first_low), flexible or first_flexible
        ctx, t = ctx if isinstance(t, Coprod) else ctx.extend(first), rest
    if isinstance(t, (Nat, Unit, Empty)):
        return low, True
    if isinstance(t, Universe):
        return max(low, t.level + 1), flexible
    if isinstance(t, Id):
        last_low, last_flexible = _levels(sig, ctx, t.type, budget)
        check(sig, ctx, t.lhs, t.type, budget)
        check(sig, ctx, t.rhs, t.type, budget)
        return max(low, last_low), flexible or last_flexible
    return max(low, infer_universe(sig, ctx, t, budget)), flexible


def check(
    sig: Signature, ctx: Context, t: Term, ty: Term, budget: Optional[ReductionBudget] = None
) -> None:
    """Check ``t`` against the well-formed type ``ty``; raises CheckError."""
    budget = budget or ReductionBudget()
    want = whnf(sig, ty, budget, unfold=True)

    if isinstance(t, Lambda) and isinstance(want, Pi):  # else synthesis, failing as type-mismatch
        infer_universe(sig, ctx, t.domain, budget)
        if not conv(sig, t.domain, want.domain, budget):
            raise CheckError("lambda-domain-mismatch", "lambda annotation differs from expected domain",
                             found=t.domain, expected=want.domain, context=ctx)
        check(sig, ctx.extend(want.domain), t.body, want.codomain, budget)
        return

    intro = INTRO.get(type(t))
    if intro is not None:
        former, rule, message, premises = intro
        if not isinstance(want, former):
            raise CheckError(rule, message, found=t, expected=want, context=ctx)
        for name, prefix, premise in premises:
            if name is None:
                lhs, rhs = premise(t, want)
                if not conv(sig, lhs, rhs, budget):
                    raise CheckError("refl-endpoints-not-convertible", "refl requires judgmentally equal endpoints",
                                     found=lhs, expected=rhs, context=ctx)
                continue
            with _premise(rule, prefix, ctx):
                check(sig, ctx, getattr(t, name), premise(t, want), budget)
        return

    if isinstance(want, Universe):
        low, flexible = _levels(sig, ctx, t, budget)
        if want.level == low or (flexible and want.level >= low):
            return
        raise CheckError("universe-mismatch", f"type inhabits Universe({low}){' and above' if flexible else ''}, "
                         f"not Universe({want.level})", found=t, expected=want, context=ctx)

    got = infer(sig, ctx, t, budget)
    if not conv(sig, got, want, budget):
        raise CheckError("type-mismatch", "inferred type does not match expected type",
                         found=got, expected=want, context=ctx)


def check_declaration(
    sig: Signature, decl: Declaration, budget: Optional[ReductionBudget] = None
) -> Signature:
    """Check one declaration against ``sig`` and return the extension."""
    budget = budget or ReductionBudget()
    if sig.lookup(decl.name) is not None:
        raise CheckError("duplicate-name", f"{decl.name!r} is already declared")
    infer_universe(sig, EMPTY_CONTEXT, decl.type, budget)
    if decl.body is not None:
        check(sig, EMPTY_CONTEXT, decl.body, decl.type, budget)
    return sig.extend(decl)
