"""Core term language: nameless (de Bruijn) syntax, contexts, signatures.

Every binder is positional: a subterm that "binds one variable" sees the
bound variable as index 0, with all enclosing indices shifted up by one.
The index-manipulation calculus (shift/subst) lives here; evaluation and
type checking are built on top of it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional

# Recursion tracks term depth; numerals are unary, so evaluating even
# modest arithmetic needs more headroom than the interpreter default.
# 12k keeps the guard below the C-stack ceiling of the main thread, so
# over-deep terms raise RecursionError instead of overflowing; the CLI
# runs in a worker thread with a larger stack and a larger limit.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 12_000))

DEFAULT_MAX_STEPS = 10_000_000


class KernelBug(Exception):
    """Internal invariant failure (never a user-facing diagnostic)."""


@dataclass(frozen=True)
class Term:
    """Base class; one subclass per term former.

    ``BINDERS`` aligns with the dataclass fields (``__match_args__``) and
    records how many variables each subterm binds.  Leaves (and non-term
    payloads such as ``Var.index``) use an empty tuple.
    """

    BINDERS: ClassVar[tuple[int, ...]] = ()


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Universe(Term):
    level: int


@dataclass(frozen=True)
class Pi(Term):
    domain: Term
    codomain: Term  # binds one variable
    BINDERS = (0, 1)


@dataclass(frozen=True)
class Lambda(Term):
    domain: Term
    body: Term  # binds one variable
    BINDERS = (0, 1)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term
    BINDERS = (0, 0)


@dataclass(frozen=True)
class Sigma(Term):
    first: Term
    second: Term  # binds one variable
    BINDERS = (0, 1)


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term
    BINDERS = (0, 0)


@dataclass(frozen=True)
class IndSigma(Term):
    motive: Term  # binds one variable (the scrutinee)
    step: Term
    scrutinee: Term
    BINDERS = (1, 0, 0)


@dataclass(frozen=True)
class Nat(Term):
    pass


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Succ(Term):
    pred: Term
    BINDERS = (0,)


@dataclass(frozen=True)
class IndNat(Term):
    motive: Term  # binds one variable
    base: Term
    step: Term
    scrutinee: Term
    BINDERS = (1, 0, 0, 0)


@dataclass(frozen=True)
class Unit(Term):
    pass


@dataclass(frozen=True)
class Star(Term):
    pass


@dataclass(frozen=True)
class IndUnit(Term):
    motive: Term  # binds one variable
    point: Term
    scrutinee: Term
    BINDERS = (1, 0, 0)


@dataclass(frozen=True)
class Empty(Term):
    pass


@dataclass(frozen=True)
class IndEmpty(Term):
    motive: Term  # binds one variable
    scrutinee: Term
    BINDERS = (1, 0)


@dataclass(frozen=True)
class Coprod(Term):
    left: Term
    right: Term
    BINDERS = (0, 0)


@dataclass(frozen=True)
class Inl(Term):
    value: Term
    BINDERS = (0,)


@dataclass(frozen=True)
class Inr(Term):
    value: Term
    BINDERS = (0,)


@dataclass(frozen=True)
class IndCoprod(Term):
    motive: Term  # binds one variable
    on_left: Term
    on_right: Term
    scrutinee: Term
    BINDERS = (1, 0, 0, 0)


@dataclass(frozen=True)
class Id(Term):
    type: Term
    lhs: Term
    rhs: Term
    BINDERS = (0, 0, 0)


@dataclass(frozen=True)
class Refl(Term):
    pass


@dataclass(frozen=True)
class IndEq(Term):
    base: Term
    motive: Term  # binds two variables (endpoint, path)
    center: Term
    endpoint: Term
    path: Term
    BINDERS = (0, 2, 0, 0, 0)


@dataclass(frozen=True)
class W(Term):
    shapes: Term
    arities: Term  # binds one variable
    BINDERS = (0, 1)


@dataclass(frozen=True)
class Tree(Term):
    shape: Term
    components: Term
    BINDERS = (0, 0)


@dataclass(frozen=True)
class IndW(Term):
    motive: Term  # binds one variable
    step: Term
    scrutinee: Term
    BINDERS = (1, 0, 0)


@dataclass(frozen=True)
class Trunc(Term):
    type: Term
    BINDERS = (0,)


@dataclass(frozen=True)
class TruncIn(Term):
    value: Term
    BINDERS = (0,)


@dataclass(frozen=True)
class IndTrunc(Term):
    motive: Term  # binds one variable
    point: Term
    coherence: Term
    scrutinee: Term
    BINDERS = (1, 0, 0, 0)


NAT = Nat()
ZERO = Zero()
UNIT = Unit()
STAR = Star()
EMPTY = Empty()
REFL = Refl()

# Term formers whose instances synthesize no type on their own; they are
# checked against an expected type supplied from the outside.
CHECKABLE_ONLY = (Pair, Inl, Inr, Refl, Tree, TruncIn)


def subterms(t: Term) -> Iterator[tuple[Term, int]]:
    """Yield each direct subterm together with the binders entering it."""
    cls = type(t)
    for name, k in zip(cls.__match_args__, cls.BINDERS):
        yield getattr(t, name), k


def rebuild(t: Term, children: list[Term]) -> Term:
    """``t`` with its subterms replaced by ``children``; ``t`` itself when
    every child is the subterm it replaces."""
    if all(getattr(t, name) is c for name, c in zip(type(t).__match_args__, children)):
        return t
    return type(t)(*children)


def _map_vars(t: Term, depth: int, on_var) -> Term:
    if isinstance(t, Var):
        return on_var(t, depth)
    if not type(t).BINDERS:
        return t
    children = [_map_vars(sub, depth + k, on_var) for sub, k in subterms(t)]
    return rebuild(t, children)


def shift(t: Term, cutoff: int, amount: int) -> Term:
    """Add ``amount`` to every free index >= ``cutoff``.

    Negative amounts are permitted only when no index would underflow;
    underflow indicates a kernel bug, not bad user input.
    """
    if amount == 0:
        return t

    def on_var(v: Var, depth: int) -> Term:
        if v.index >= cutoff + depth:
            new = v.index + amount
            if new < 0:
                raise KernelBug(f"index underflow shifting {v.index} by {amount}")
            return Var(new)
        return v

    return _map_vars(t, 0, on_var)


def subst(t: Term, j: int, s: Term) -> Term:
    """Replace index ``j`` by ``s`` and close the gap above it."""

    def on_var(v: Var, depth: int) -> Term:
        if v.index == j + depth:
            return shift(s, 0, depth)
        if v.index > j + depth:
            return Var(v.index - 1)
        return v

    return _map_vars(t, 0, on_var)


def well_scoped(t: Term, depth: int) -> bool:
    """True iff every variable index is below ``depth`` plus local binders."""
    if isinstance(t, Var):
        return t.index < depth
    return all(well_scoped(sub, depth + k) for sub, k in subterms(t))


def numeral(n: int) -> Term:
    """The canonical representation of the host integer ``n``."""
    if n < 0:
        raise ValueError("numerals are naturals")
    t: Term = ZERO
    for _ in range(n):
        t = Succ(t)
    return t


def as_int(t: Term) -> Optional[int]:
    """Decode an iterated-successor term, or None if it is not one."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.pred
    return n if isinstance(t, Zero) else None


@dataclass(frozen=True)
class Context:
    """Telescope of types; entry i is well-scoped over entries 0..i-1."""

    entries: tuple[Term, ...] = ()

    def extend(self, ty: Term) -> "Context":
        return Context(self.entries + (ty,))

    def lookup(self, index: int) -> Term:
        """Type of ``Var(index)``, shifted into the full context."""
        if index < 0 or index >= len(self.entries):
            raise KernelBug(f"variable {index} out of context of length {len(self.entries)}")
        return shift(self.entries[-1 - index], 0, index + 1)

    def __len__(self) -> int:
        return len(self.entries)


EMPTY_CONTEXT = Context()

DEFINITION = "definition"
POSTULATE = "postulate"
PRIMITIVE = "primitive"


@dataclass(frozen=True)
class Declaration:
    name: str
    type: Term
    body: Optional[Term]
    kind: str = DEFINITION

    def __post_init__(self) -> None:
        if self.kind == DEFINITION and self.body is None:
            raise KernelBug(f"definition {self.name} lacks a body")
        if self.kind in (POSTULATE, PRIMITIVE) and self.body is not None:
            raise KernelBug(f"{self.kind} {self.name} must not have a body")


@dataclass(frozen=True)
class Signature:
    """Immutable ordered global environment; extension copies."""

    declarations: tuple[Declaration, ...] = ()

    def extend(self, decl: Declaration) -> "Signature":
        if self.lookup(decl.name) is not None:
            raise KernelBug(f"duplicate declaration {decl.name}")
        return Signature(self.declarations + (decl,))

    def lookup(self, name: str) -> Optional[Declaration]:
        return self._index().get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._index()

    def _index(self) -> dict[str, Declaration]:
        # Frozen dataclass: cache on the instance via object.__setattr__.
        cached = self.__dict__.get("_by_name")
        if cached is None:
            cached = {d.name: d for d in self.declarations}
            object.__setattr__(self, "_by_name", cached)
        return cached


EMPTY_SIGNATURE = Signature()
