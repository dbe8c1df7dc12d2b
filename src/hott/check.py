"""Bidirectional type checking.

``infer`` synthesizes types for Var, Const, Universe, the type formers,
App, annotated Lambda, Zero/Succ/Star and every eliminator; Pair, Inl,
Inr, Refl, Tree and TruncIn are checkable only.  ``check`` switches modes
through conversion.

Universe discipline: a non-cumulative tower.  Nat, Unit and Empty check
against every universe and synthesize level 0; binary formers synthesize
the maximum of their component levels; Universe(l) : Universe(l+1) and
nothing else.

Diagnostic rule names form a closed vocabulary:

    unbound-variable unbound-constant duplicate-name cannot-synthesize
    not-a-type not-a-function type-mismatch universe-mismatch
    lambda-domain-mismatch refl-endpoints-not-convertible
    Sigma-intro Coprod-intro W-intro Trunc-intro
    Nat-ind Sigma-ind Coprod-ind Eq-ind W-ind Trunc-ind
    context-entry max-depth (raised by ``loader``: nesting too deep)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .reduce import ReductionBudget, conv, whnf
from .terms import (
    CHECKABLE_ONLY,
    DEFINITION,
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
    shift,
    spine,
    subst,
)

Span = tuple[int, int]


@dataclass
class Diagnostic:
    """Structured checker error: the violated rule, the offending term,
    the expected shape when there is one, and a source span when the term
    came from a file."""

    rule: str
    message: str
    found: Optional[Term] = None
    expected: Optional[Term] = None
    context: Context = field(default_factory=Context)
    span: Optional[Span] = None

    def __str__(self) -> str:
        loc = f"{self.span[0]}:{self.span[1]}: " if self.span else ""
        return f"{loc}[{self.rule}] {self.message}"


class CheckError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__()
        self.diagnostic = diagnostic

    def __str__(self) -> str:
        return str(self.diagnostic)


def _fail(rule: str, message: str, **kw) -> "CheckError":
    return CheckError(Diagnostic(rule, message, **kw))


@contextmanager
def _premise(rule: str, prefix: str, ctx: Context) -> Iterator[None]:
    """Re-raise a failed premise of ``rule`` as that rule's error, keeping
    the inner message (after ``prefix``) and the terms it found and
    expected.  A context entry has no expected type, so ``context-entry``
    reports the found term alone."""
    try:
        yield
    except CheckError as e:
        d = e.diagnostic
        expected = None if rule == "context-entry" else d.expected
        raise _fail(rule, prefix + d.message, found=d.found, expected=expected, context=ctx)


def _budget(budget: Optional[ReductionBudget]) -> ReductionBudget:
    return budget if budget is not None else ReductionBudget()


def infer(
    sig: Signature, ctx: Context, t: Term, budget: Optional[ReductionBudget] = None
) -> Term:
    """Synthesize the type of ``t`` (unique up to conversion)."""
    bud = _budget(budget)
    return _infer(sig, ctx, t, bud)


def check(
    sig: Signature,
    ctx: Context,
    t: Term,
    ty: Term,
    budget: Optional[ReductionBudget] = None,
) -> None:
    """Check ``t`` against the well-formed type ``ty``; raises CheckError."""
    bud = _budget(budget)
    _check(sig, ctx, t, ty, bud)


def infer_universe(
    sig: Signature, ctx: Context, ty: Term, budget: Optional[ReductionBudget] = None
) -> int:
    """Level l with ctx |- ty : Universe(l)."""
    bud = _budget(budget)
    return _infer_universe(sig, ctx, ty, bud)


def _infer_universe(sig: Signature, ctx: Context, ty: Term, bud: ReductionBudget) -> int:
    got = whnf(sig, _infer(sig, ctx, ty, bud), bud, unfold=True)
    if isinstance(got, Universe):
        return got.level
    raise _fail("not-a-type", "term does not inhabit a universe", found=ty, context=ctx)


def _ensure(sig, ctx, t, bud, cls, rule: str, what: str) -> Term:
    ty = whnf(sig, _infer(sig, ctx, t, bud), bud, unfold=True)
    if not isinstance(ty, cls):
        raise _fail(rule, f"scrutinee is not {what}", found=ty, context=ctx)
    return ty


def _infer(sig: Signature, ctx: Context, t: Term, bud: ReductionBudget) -> Term:
    if isinstance(t, Var):
        if t.index >= len(ctx):
            raise _fail("unbound-variable", f"variable index {t.index} out of scope", context=ctx)
        return ctx.lookup(t.index)

    if isinstance(t, Const):
        decl = sig.lookup(t.name)
        if decl is None:
            raise _fail("unbound-constant", f"constant {t.name!r} is not declared", context=ctx)
        return decl.type

    if isinstance(t, (Universe, Nat, Unit, Empty, Pi, Sigma, Coprod, Id, W, Trunc)):
        return Universe(_levels(sig, ctx, t, bud)[0])

    if isinstance(t, Zero):
        return NAT
    if isinstance(t, Succ):  # one premise for the whole chain: its base is a Nat
        _check(sig, ctx, spine(t)[1], NAT, bud)
        return NAT
    if isinstance(t, Star):
        return UNIT

    if isinstance(t, Lambda):
        _infer_universe(sig, ctx, t.domain, bud)
        body_ty = _infer(sig, ctx.extend(t.domain), t.body, bud)
        return Pi(t.domain, body_ty)

    if isinstance(t, App):  # the spine in a loop: one frame however many arguments
        args = []
        while isinstance(t, App):
            args.append(t.arg)
            t = t.fn
        ty = _infer(sig, ctx, t, bud)
        for arg in reversed(args):
            fn_ty = whnf(sig, ty, bud, unfold=True)
            if not isinstance(fn_ty, Pi):
                raise _fail("not-a-function", "application head is not of function type",
                            found=fn_ty, context=ctx)
            _check(sig, ctx, arg, fn_ty.domain, bud)
            ty = subst(fn_ty.codomain, 0, arg)
        return ty

    if isinstance(t, IndNat):
        _check(sig, ctx, t.scrutinee, NAT, bud)
        _infer_universe(sig, ctx.extend(NAT), t.motive, bud)
        with _premise("Nat-ind", "base case: ", ctx):
            _check(sig, ctx, t.base, subst(t.motive, 0, ZERO), bud)
        # step : (k : Nat) -> motive[k] -> motive[succ k]
        step_ty = Pi(NAT, Pi(t.motive, subst(shift(t.motive, 1, 2), 0, Succ(Var(1)))))
        with _premise("Nat-ind", "inductive step: ", ctx):
            _check(sig, ctx, t.step, step_ty, bud)
        return subst(t.motive, 0, t.scrutinee)

    if isinstance(t, IndSigma):
        sc_ty = _ensure(sig, ctx, t.scrutinee, bud, Sigma, "Sigma-ind", "a pair type")
        _infer_universe(sig, ctx.extend(sc_ty), t.motive, bud)
        # step : (x : A) -> (y : B x) -> motive[pair x y]
        step_ty = Pi(
            sc_ty.first,
            Pi(sc_ty.second, subst(shift(t.motive, 1, 2), 0, Pair(Var(1), Var(0)))),
        )
        _check(sig, ctx, t.step, step_ty, bud)
        return subst(t.motive, 0, t.scrutinee)

    if isinstance(t, IndUnit):
        _check(sig, ctx, t.scrutinee, UNIT, bud)
        _infer_universe(sig, ctx.extend(UNIT), t.motive, bud)
        _check(sig, ctx, t.point, subst(t.motive, 0, STAR), bud)
        return subst(t.motive, 0, t.scrutinee)

    if isinstance(t, IndEmpty):
        _check(sig, ctx, t.scrutinee, EMPTY, bud)
        _infer_universe(sig, ctx.extend(EMPTY), t.motive, bud)
        return subst(t.motive, 0, t.scrutinee)

    if isinstance(t, IndCoprod):
        sc_ty = _ensure(sig, ctx, t.scrutinee, bud, Coprod, "Coprod-ind", "a coproduct")
        _infer_universe(sig, ctx.extend(sc_ty), t.motive, bud)
        left_ty = Pi(sc_ty.left, subst(shift(t.motive, 1, 1), 0, Inl(Var(0))))
        right_ty = Pi(sc_ty.right, subst(shift(t.motive, 1, 1), 0, Inr(Var(0))))
        with _premise("Coprod-ind", "branch: ", ctx):
            _check(sig, ctx, t.on_left, left_ty, bud)
            _check(sig, ctx, t.on_right, right_ty, bud)
        return subst(t.motive, 0, t.scrutinee)

    if isinstance(t, IndEq):
        base_ty = _infer(sig, ctx, t.base, bud)
        # motive lives in ctx, x : A, p : Id(A^1, base^1, x)
        motive_ctx = ctx.extend(base_ty).extend(
            Id(shift(base_ty, 0, 1), shift(t.base, 0, 1), Var(0))
        )
        _infer_universe(sig, motive_ctx, t.motive, bud)
        with _premise("Eq-ind", "center: ", ctx):
            _check(sig, ctx, t.center, _inst2(t.motive, t.base, REFL), bud)
        _check(sig, ctx, t.endpoint, base_ty, bud)
        _check(sig, ctx, t.path, Id(base_ty, t.base, t.endpoint), bud)
        return _inst2(t.motive, t.endpoint, t.path)

    if isinstance(t, IndW):
        sc_ty = _ensure(sig, ctx, t.scrutinee, bud, W, "W-ind", "a tree type")
        _infer_universe(sig, ctx.extend(sc_ty), t.motive, bud)
        a, b = sc_ty.shapes, sc_ty.arities
        # step : (x : A) -> (c : B x -> W A B)
        #      -> ((y : B x) -> motive[c y]) -> motive[tree x c]
        alpha_dom = Pi(b, shift(sc_ty, 0, 2))
        rec_dom = Pi(shift(b, 0, 1), subst(shift(t.motive, 1, 3), 0, App(Var(1), Var(0))))
        result = subst(shift(t.motive, 1, 3), 0, Tree(Var(2), Var(1)))
        step_ty = Pi(a, Pi(alpha_dom, Pi(rec_dom, result)))
        with _premise("W-ind", "inductive step: ", ctx):
            _check(sig, ctx, t.step, step_ty, bud)
        return subst(t.motive, 0, t.scrutinee)

    if isinstance(t, IndTrunc):
        sc_ty = _ensure(sig, ctx, t.scrutinee, bud, Trunc, "Trunc-ind", "a truncation")
        _infer_universe(sig, ctx.extend(sc_ty), t.motive, bud)
        point_ty = Pi(sc_ty.type, subst(shift(t.motive, 1, 1), 0, TruncIn(Var(0))))
        # coherence : (s : Trunc A) -> (u v : motive[s]) -> Id (motive[s]) u v,
        # i.e. the motive is a family of propositions; this is equivalent to
        # the transport condition of the induction principle.
        coh_ty = Pi(
            sc_ty,
            Pi(t.motive, Pi(shift(t.motive, 0, 1), Id(shift(t.motive, 0, 2), Var(1), Var(0)))),
        )
        with _premise("Trunc-ind", "", ctx):
            _check(sig, ctx, t.point, point_ty, bud)
            _check(sig, ctx, t.coherence, coh_ty, bud)
        return subst(t.motive, 0, t.scrutinee)

    if isinstance(t, CHECKABLE_ONLY):
        raise _fail(
            "cannot-synthesize",
            f"{type(t).__name__} is checkable only; an expected type is required",
            found=t,
            context=ctx,
        )

    raise _fail("cannot-synthesize", f"no synthesis rule for {type(t).__name__}", context=ctx)


def _inst2(motive: Term, endpoint: Term, path: Term) -> Term:
    """Instantiate a two-variable motive (endpoint at index 1, path at 0)."""
    return subst(subst(motive, 0, shift(path, 0, 1)), 0, endpoint)


def _levels(sig: Signature, ctx: Context, t: Term, bud: ReductionBudget) -> tuple[int, bool]:
    """Admissible universe levels of the type ``t`` under the max rule.

    Returns ``(low, flexible)``: the levels are exactly ``{low}`` when not
    flexible and every level ``>= low`` otherwise.  Base types inhabit
    every universe; ``Universe(j)`` inhabits only ``j + 1``; composite
    formers take the image of ``max`` over their components; everything
    else is pinned to its synthesized level.  ``_infer`` synthesizes
    ``Universe(low)`` for every type former, so this is the only level rule.
    """
    if isinstance(t, (Nat, Unit, Empty)):
        return 0, True
    if isinstance(t, Universe):
        return t.level + 1, False
    if isinstance(t, (Pi, Sigma, W)):
        first, second = (
            (t.domain, t.codomain) if isinstance(t, Pi)
            else (t.first, t.second) if isinstance(t, Sigma)
            else (t.shapes, t.arities)
        )
        l1, f1 = _levels(sig, ctx, first, bud)
        l2, f2 = _levels(sig, ctx.extend(first), second, bud)
        return max(l1, l2), f1 or f2
    if isinstance(t, Coprod):
        l1, f1 = _levels(sig, ctx, t.left, bud)
        l2, f2 = _levels(sig, ctx, t.right, bud)
        return max(l1, l2), f1 or f2
    if isinstance(t, Id):
        low, flexible = _levels(sig, ctx, t.type, bud)
        _check(sig, ctx, t.lhs, t.type, bud)
        _check(sig, ctx, t.rhs, t.type, bud)
        return low, flexible
    if isinstance(t, Trunc):
        return _levels(sig, ctx, t.type, bud)
    return _infer_universe(sig, ctx, t, bud), False


def _check(sig: Signature, ctx: Context, t: Term, ty: Term, bud: ReductionBudget) -> None:
    want = whnf(sig, ty, bud, unfold=True)

    if isinstance(t, Lambda):
        if isinstance(want, Pi):
            _infer_universe(sig, ctx, t.domain, bud)
            if not conv(sig, t.domain, want.domain, bud):
                raise _fail("lambda-domain-mismatch", "lambda annotation differs from expected domain",
                            found=t.domain, expected=want.domain, context=ctx)
            _check(sig, ctx.extend(want.domain), t.body, want.codomain, bud)
            return
        # fall through to synthesis (error surfaces as type-mismatch)

    if isinstance(t, Pair):
        if not isinstance(want, Sigma):
            raise _fail("Sigma-intro", "pair expects a pair type", found=t, expected=want, context=ctx)
        _check(sig, ctx, t.fst, want.first, bud)
        _check(sig, ctx, t.snd, subst(want.second, 0, t.fst), bud)
        return

    if isinstance(t, Inl):
        if not isinstance(want, Coprod):
            raise _fail("Coprod-intro", "inl expects a coproduct type", found=t, expected=want, context=ctx)
        _check(sig, ctx, t.value, want.left, bud)
        return

    if isinstance(t, Inr):
        if not isinstance(want, Coprod):
            raise _fail("Coprod-intro", "inr expects a coproduct type", found=t, expected=want, context=ctx)
        _check(sig, ctx, t.value, want.right, bud)
        return

    if isinstance(t, Refl):
        if not isinstance(want, Id):
            raise _fail("Eq-ind", "refl expects an identity type", found=t, expected=want, context=ctx)
        if not conv(sig, want.lhs, want.rhs, bud):
            raise _fail(
                "refl-endpoints-not-convertible",
                "refl requires judgmentally equal endpoints",
                found=want.lhs,
                expected=want.rhs,
                context=ctx,
            )
        return

    if isinstance(t, Tree):
        if not isinstance(want, W):
            raise _fail("W-intro", "tree expects a tree type", found=t, expected=want, context=ctx)
        _check(sig, ctx, t.shape, want.shapes, bud)
        comp_ty = Pi(subst(want.arities, 0, t.shape), shift(want, 0, 1))
        with _premise("W-intro", "components: ", ctx):
            _check(sig, ctx, t.components, comp_ty, bud)
        return

    if isinstance(t, TruncIn):
        if not isinstance(want, Trunc):
            raise _fail("Trunc-intro", "the point constructor expects a truncation",
                        found=t, expected=want, context=ctx)
        _check(sig, ctx, t.value, want.type, bud)
        return

    if isinstance(want, Universe):
        low, flexible = _levels(sig, ctx, t, bud)
        if want.level == low or (flexible and want.level >= low):
            return
        raise _fail(
            "universe-mismatch",
            f"type inhabits Universe({low}){' and above' if flexible else ''}, "
            f"not Universe({want.level})",
            found=t,
            expected=want,
            context=ctx,
        )

    got = _infer(sig, ctx, t, bud)
    if not conv(sig, got, want, bud):
        rule = "universe-mismatch" if isinstance(got, Universe) and isinstance(want, Universe) \
            else "type-mismatch"
        raise _fail(rule, "inferred type does not match expected type",
                    found=got, expected=want, context=ctx)


def check_declaration(
    sig: Signature, decl: Declaration, budget: Optional[ReductionBudget] = None
) -> Signature:
    """Check one declaration against ``sig`` and return the extension."""
    bud = _budget(budget)
    if sig.lookup(decl.name) is not None:
        raise _fail("duplicate-name", f"{decl.name!r} is already declared")
    _infer_universe(sig, EMPTY_CONTEXT, decl.type, bud)
    if decl.kind == DEFINITION:
        _check(sig, EMPTY_CONTEXT, decl.body, decl.type, bud)
    return sig.extend(decl)


def check_context(
    sig: Signature, ctx: Context, budget: Optional[ReductionBudget] = None
) -> None:
    """Each entry must be a well-formed type over its prefix."""
    bud = _budget(budget)
    prefix = EMPTY_CONTEXT
    for i, entry in enumerate(ctx.entries):
        with _premise("context-entry", f"entry {i}: ", prefix):
            _infer_universe(sig, prefix, entry, bud)
        prefix = prefix.extend(entry)
