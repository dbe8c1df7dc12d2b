"""Driver: lower parsed modules into signature extensions and pragma runs.

Files form a flat, ordered namespace; one growing signature is threaded
through every item.  ``#fail`` inverts the outcome of its wrapped item,
which is attempted and rolled back.  A failure raised while processing
an item that lacks a span of its own is stamped with the item's span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

from .check import CheckError, check, check_declaration, infer, infer_universe
from .parser import (
    DefItem,
    PostulateItem,
    PragmaAssert,
    PragmaCheck,
    PragmaEval,
    PragmaFail,
    ResolveError,
    SurfaceItem,
    SurfaceModule,
    resolve,
)
from .pretty import pretty
from .reduce import ReductionBudget, conv, normalize, whnf
from .terms import (
    DEFAULT_MAX_STEPS,
    DEFINITION,
    EMPTY_CONTEXT,
    POSTULATE,
    Declaration,
    LocatedError,
    Nat,
    Signature,
    Term,
    as_int,
)


class AssertionFailed(LocatedError):
    """An ``#assert-eq`` or ``#assert-neq`` whose sides disagree with it."""


class FailExpected(LocatedError):
    """A ``#fail`` item was accepted by the checker."""


@dataclass
class ProcessOptions:
    max_steps: int = DEFAULT_MAX_STEPS
    trace: bool = False
    print_normal_forms: bool = False
    out: Callable[[str], None] = field(default=lambda line: print(line))
    err: Callable[[str], None] = field(default=lambda line: None)


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
    if isinstance(item, DefItem):
        decl = Declaration(item.name, item.type.term, item.body.term, DEFINITION)
        return check_declaration(sig, decl, bud)

    if isinstance(item, PostulateItem):
        decl = Declaration(item.name, item.type.term, None, POSTULATE)
        return check_declaration(sig, decl, bud)

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
            opts.err(f"#fail: rejected as expected [{outcome}]")
        return sig

    raise AssertionError(f"unknown item {item!r}")


def attempt_item(sig: Signature, item: SurfaceItem, opts: ProcessOptions) -> Optional[str]:
    """Try one surface item in isolation and in silence: the rejection rule
    name when it fails, None when it is accepted (the signature is discarded)."""
    module = SurfaceModule((item,), "<fail>")
    opts = replace(opts, trace=False, out=lambda line: None)
    try:
        for resolved in resolve(module, sig):
            sig = execute(sig, resolved, opts)
    except CheckError as e:
        return e.rule
    except ResolveError:
        return "unbound-identifier"
    except AssertionFailed:
        return "assertion-failed"
    except FailExpected:
        return "fail-expected"
    return None


@contextmanager
def nesting_limit(span) -> Iterator[None]:
    """Around running the item at ``span``: a ``RecursionError``
    ends it with one ``[max-depth]`` diagnostic there.  Like a spent budget,
    it is no rejection: ``attempt_item`` lets it pass, so no ``#fail``
    accepts it."""
    try:
        yield
    except RecursionError:
        message = "term nesting exceeds the interpreter's recursion limit"
        raise CheckError("max-depth", message, span=span) from None


def _label(item: SurfaceItem) -> str:
    """How ``--trace`` names an item: a declaration by its name, a pragma
    by its directive."""
    if isinstance(item, (DefItem, PostulateItem)):
        return item.name
    if isinstance(item, PragmaAssert):
        return "#assert-eq" if item.equal else "#assert-neq"
    return {PragmaCheck: "#check", PragmaEval: "#eval", PragmaFail: "#fail"}[type(item)]


def process_module(
    sig: Signature, module: SurfaceModule, opts: Optional[ProcessOptions] = None
) -> Signature:
    opts = opts or ProcessOptions()
    for item in resolve(module, sig):  # each item resolved as it is drawn
        try:
            with nesting_limit(item.span):
                started = time.perf_counter()
                sig = execute(sig, item, opts)
        except LocatedError as e:
            e.span = e.span or item.span
            raise
        if opts.trace:
            elapsed = (time.perf_counter() - started) * 1000.0
            opts.err(f"{module.path}:{item.span[0]}: {_label(item)} ok ({elapsed:.1f} ms)")
    return sig


def fail_outcomes(
    sig: Signature, module: SurfaceModule, opts: Optional[ProcessOptions] = None
) -> list[tuple[SurfaceItem, Optional[str]]]:
    """For inspection by tests: run a module and report, for each #fail
    item, the diagnostic rule (or exception name) it was rejected with."""
    opts = opts or ProcessOptions()
    outcomes: list[tuple[SurfaceItem, Optional[str]]] = []
    for item in module.items:
        if isinstance(item, PragmaFail):
            outcomes.append((item, attempt_item(sig, item.item, opts)))
        else:
            single = SurfaceModule((item,), module.path)
            sig = process_module(sig, single, opts)
    return outcomes
