"""Driver: lower parsed modules into signature extensions and pragma runs.

Files form a flat, ordered namespace; one growing signature is threaded
through every item.  ``process_module`` is the one loop that runs items,
for a file and for ``hott eval``'s expression alike.  A failure raised
while running an item that lacks a span of its own is stamped with the
item's span, and so is nesting past the interpreter's recursion limit, as
``[max-depth]``.  ``#fail`` inverts the outcome of its wrapped item,
which is attempted and rolled back.  A failure is a rejection when it
names its ``rule``.  A spent budget names none, and nesting too deep is a
``RecursionError`` until ``process_module`` catches it, so neither is
a rejection that a ``#fail`` accepts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .check import CheckError, check, check_declaration, infer, infer_universe
from .parser import (
    ITEMS,
    DefItem,
    PostulateItem,
    PragmaAssert,
    PragmaCheck,
    PragmaEval,
    PragmaFail,
    SurfaceItem,
    SurfaceModule,
    resolve,
)
from .pretty import pretty
from .reduce import ReductionBudget, conv, normalize, whnf
from .terms import (
    DEFAULT_MAX_STEPS,
    EMPTY_CONTEXT,
    Declaration,
    LocatedError,
    Nat,
    Signature,
    Term,
    as_int,
)


class AssertionFailed(LocatedError):
    """An ``#assert-eq`` or ``#assert-neq`` whose sides disagree with it."""

    rule = "assertion-failed"


class FailExpected(LocatedError):
    """A ``#fail`` item was accepted by the checker."""

    rule = "fail-expected"


@dataclass
class ProcessOptions:
    max_steps: int = DEFAULT_MAX_STEPS
    trace: Optional[Callable[[str], None]] = None  # where ``--trace`` lines go; None: nowhere
    print_normal_forms: bool = False
    out: Callable[[str], None] = print


def render_value(
    sig: Signature, value: Term, ty: Term, opts: ProcessOptions, budget: Optional[ReductionBudget] = None
) -> list[str]:
    """Rendering for #eval: closed Nat-typed results print as decimal
    numerals, everything else as concrete syntax.  Unfolding the type
    spends ``budget``, the item's own; a fresh one when none is given."""
    lines = []
    ty_w = whnf(sig, ty, budget or ReductionBudget(max_steps=opts.max_steps), unfold=True)
    n = as_int(value)
    if isinstance(ty_w, Nat) and n is not None:
        lines.append(str(n))
        if opts.print_normal_forms:
            lines.append(pretty(value, sugar_numerals=False))
    else:
        lines.append(pretty(value))
    return lines


def execute(sig: Signature, item: SurfaceItem, opts: ProcessOptions) -> Signature:
    """Run one resolved item against the signature, within one budget."""
    bud = ReductionBudget(max_steps=opts.max_steps)
    if isinstance(item, (DefItem, PostulateItem)):
        body = item.body.term if isinstance(item, DefItem) else None
        return check_declaration(sig, Declaration(item.name, item.type.term, body), bud)

    if isinstance(item, PragmaCheck):
        infer_universe(sig, EMPTY_CONTEXT, item.type.term, bud)
        check(sig, EMPTY_CONTEXT, item.expr.term, item.type.term, bud)
        return sig

    if isinstance(item, PragmaEval):
        ty = infer(sig, EMPTY_CONTEXT, item.expr.term, bud)
        value = normalize(sig, item.expr.term, bud)
        for line in render_value(sig, value, ty, opts, bud):
            opts.out(line)
        return sig

    if isinstance(item, PragmaAssert):
        ty, lhs, rhs = item.type.term, item.lhs.term, item.rhs.term
        infer_universe(sig, EMPTY_CONTEXT, ty, bud)
        check(sig, EMPTY_CONTEXT, lhs, ty, bud)
        check(sig, EMPTY_CONTEXT, rhs, ty, bud)
        equal = conv(sig, lhs, rhs, bud)
        if item.equal and not equal:
            raise AssertionFailed("assert-eq: sides are not judgmentally equal", item.span)
        if not item.equal and equal:
            raise AssertionFailed("assert-neq: sides are judgmentally equal", item.span)
        return sig

    if isinstance(item, PragmaFail):
        outcome = attempt_item(sig, item.item, opts)
        if outcome is None:
            raise FailExpected("item wrapped in #fail was accepted", item.span)
        if opts.trace:
            opts.trace(f"#fail: rejected as expected [{outcome}]")
        return sig

    raise AssertionError(f"unknown item {item!r}")


def attempt_item(sig: Signature, item: SurfaceItem, opts: ProcessOptions) -> Optional[str]:
    """Try one surface item in isolation and in silence: the rejection rule
    name when it fails, None when it is accepted (the signature is discarded).
    A failure that names no rule is no rejection and passes."""
    module = SurfaceModule((item,), "<fail>")
    opts = replace(opts, trace=None, out=lambda line: None)
    try:
        for resolved in resolve(module, sig):
            sig = execute(sig, resolved, opts)
    except LocatedError as e:
        if e.rule is None:
            raise
        return e.rule
    return None


# (item class, the ``equal`` its directive sets) -> the directive.
_DIRECTIVES = {(cls, fields.get("equal")): directive for directive, (cls, _, fields) in ITEMS.items()}


def _label(item: SurfaceItem) -> str:
    """How ``--trace`` names an item: a declaration by its name, a pragma
    by its directive."""
    if isinstance(item, (DefItem, PostulateItem)):
        return item.name
    return _DIRECTIVES[type(item), getattr(item, "equal", None)]


def process_module(
    sig: Signature, module: SurfaceModule, opts: Optional[ProcessOptions] = None
) -> Signature:
    opts = opts or ProcessOptions()
    for item in resolve(module, sig):  # each item resolved as it is drawn
        started = time.perf_counter()
        try:
            sig = execute(sig, item, opts)
        except RecursionError:
            message = "term nesting exceeds the interpreter's recursion limit"
            raise CheckError("max-depth", message, span=item.span) from None
        except LocatedError as e:
            e.span = e.span or item.span
            raise
        if opts.trace:
            elapsed = (time.perf_counter() - started) * 1000.0
            opts.trace(f"{module.path}:{item.span[0]}: {_label(item)} ok ({elapsed:.1f} ms)")
    return sig

