"""Core term language: nameless (de Bruijn) syntax, contexts, signatures.

Every binder is positional: a subterm that "binds one variable" sees the
bound variable as index 0, with all enclosing indices shifted up by one.
The index-manipulation calculus (shift/subst/instantiate) lives here;
evaluation and type checking are built on top of it.

``loose(t)`` caches on each node 1 + its highest free index (0 when
closed), like Lean 4's ``looseBVarRange``: shift and subst share each
subterm whose indices cannot move, and a node they build reads its bound
off its children's caches.  It is an instance attribute outside the
dataclass fields, so ``==``, ``hash`` and ``repr`` ignore it, set with
``object.__setattr__``, as ``t.__dict__`` would build a dict per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Iterator, Optional

DEFAULT_MAX_STEPS = 10_000_000


class KernelBug(Exception):
    """Internal invariant failure (never a user-facing diagnostic)."""


class LocatedError(Exception):
    """A failure a run can end in: read as ``line:col: message`` once its
    ``span`` is set, which may be after it is raised; the message alone before.
    A rejection names the ``rule`` it broke; a failure with no rule is no
    rejection, so no ``#fail`` accepts it."""

    rule: Optional[str] = None

    def __init__(self, message: str, span: Optional[tuple[int, int]] = None):
        super().__init__(message)
        self.span = span

    def __str__(self) -> str:
        return f"{self.span[0]}:{self.span[1]}: {self.args[0]}" if self.span else self.args[0]


@dataclass(frozen=True)
class Term:
    """Base class; one subclass per term former.

    ``BINDERS`` aligns with the dataclass fields (``__match_args__``) and
    records how many variables each subterm binds.  Leaves (and non-term
    payloads such as ``Var.index``) use an empty tuple.
    """

    BINDERS: ClassVar[tuple[int, ...]] = ()
    FIELDS: ClassVar[tuple[tuple[str, int], ...]] = ()  # each field with its ``BINDERS`` entry
    _loose: ClassVar[Optional[int]] = None  # until ``loose`` caches it on the instance


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

    def __eq__(self, other: object) -> bool:
        return spine(self) == spine(other) if type(other) is Succ else NotImplemented

    def __hash__(self) -> int:
        return hash((Succ, *spine(self)))


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


for _former in Term.__subclasses__():
    _former.FIELDS = tuple(zip(_former.__match_args__, _former.BINDERS))

NAT = Nat()
ZERO = Zero()
UNIT = Unit()
STAR = Star()
EMPTY = Empty()
REFL = Refl()


def subterms(t: Term) -> Iterator[tuple[Term, int]]:
    """Yield each direct subterm together with the binders entering it."""
    for name, k in t.FIELDS:
        yield getattr(t, name), k


def rebuild(t: Term, children: list[Term]) -> Term:
    """``t`` with its subterms replaced by ``children``; ``t`` itself when
    every child is the subterm it replaces."""
    if all(getattr(t, name) is c for name, c in zip(type(t).__match_args__, children)):
        return t
    return type(t)(*children)


def spine(t: Term) -> tuple[int, Term]:
    """``(n, base)`` with ``t`` = ``Succ^n base`` and ``base`` no ``Succ``; numerals
    are unary, so traversals walk them with this loop, at no recursion depth."""
    n = 0
    while type(t) is Succ:
        n += 1
        t = t.pred
    return n, t


def loose(t: Term) -> int:
    """One more than the highest free index of ``t``; 0 when ``t`` is closed."""
    n = t._loose
    if n is None:
        # The last component of each node (a predecessor, a binder's body,
        # an argument, ...) is walked in a loop: chains cost no depth.
        chain = []
        while t._loose is None and t.BINDERS:
            chain.append(t)
            t = getattr(t, t.FIELDS[-1][0])
        n = t._loose
        if n is None:
            n = t.index + 1 if isinstance(t, Var) else 0
            object.__setattr__(t, "_loose", n)
        for u in reversed(chain):
            if type(u) is not Succ:  # a Succ shares its predecessor's bound
                n = 0
                for sub, k in subterms(u):  # the last one is cached by now
                    n = max(n, loose(sub) - k)
            object.__setattr__(u, "_loose", n)
    return n


def _map_vars(t: Term, cutoff: int, depth: int, on_var) -> Term:
    """``on_var`` applied to each index >= ``cutoff`` outside ``t``; the rest
    shared.  A node built caches its bound when each child has one cached."""
    n = t._loose
    if (loose(t) if n is None else n) <= cutoff + depth:
        return t
    if isinstance(t, Var):
        return on_var(t, depth)
    if type(t) is Succ:
        n, t = spine(t)
        t = _map_vars(t, cutoff, depth, on_var)
        for _ in range(n):
            t = Succ(t)
        return t
    children, n = [], 0
    for name, k in t.FIELDS:
        sub = _map_vars(getattr(t, name), cutoff, depth + k, on_var)
        children.append(sub)
        bound = sub._loose
        if bound is None:
            n = None
        elif n is not None and bound - k > n:
            n = bound - k
    t = type(t)(*children)
    if n is not None:
        object.__setattr__(t, "_loose", n)
    return t


def shift(t: Term, cutoff: int, amount: int) -> Term:
    """Add ``amount`` to every free index >= ``cutoff``.

    Negative amounts are permitted only when no index would underflow;
    underflow indicates a kernel bug, not bad user input.
    """
    if amount == 0:
        return t

    def on_var(v: Var, depth: int) -> Term:
        new = v.index + amount
        if new < 0:
            raise KernelBug(f"index underflow shifting {v.index} by {amount}")
        return Var(new)

    return _map_vars(t, cutoff, 0, on_var)


def instantiate(t: Term, args: list[Term], j: int = 0) -> Term:
    """Replace indices ``j`` .. ``j + len(args) - 1`` by ``args``, the last
    argument binding ``j`` (a body under ``len(args)`` binders applied to them
    at once), and close the gap above them."""
    n = len(args)
    if not n:
        return t

    def on_var(v: Var, depth: int) -> Term:
        i = v.index - depth - j
        return shift(args[-1 - i], 0, depth) if i < n else Var(v.index - n)

    return _map_vars(t, j, 0, on_var)


def subst(t: Term, j: int, s: Term) -> Term:
    """Replace index ``j`` by ``s`` and close the gap above it."""
    return instantiate(t, [s], j)


def well_scoped(t: Term, depth: int) -> bool:
    """True iff every variable index is below ``depth`` plus local binders."""
    return loose(t) <= depth


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
    n, base = spine(t)
    return n if isinstance(base, Zero) else None


class Context:
    """Telescope of types, each well-scoped over the ones before it.  A cons
    cell: ``last`` is the newest entry and ``prefix`` the context it extends,
    shared, so ``extend`` is O(1) and ``lookup`` walks ``index`` cells."""

    __slots__ = ("prefix", "last", "_length")

    def __new__(cls, types: Iterable[Term] = ()) -> "Context":
        ctx = object.__new__(cls)
        ctx.prefix, ctx.last, ctx._length = None, None, 0
        for ty in types:
            ctx = ctx.extend(ty)
        return ctx

    def extend(self, ty: Term) -> "Context":
        ctx = object.__new__(Context)
        ctx.prefix, ctx.last, ctx._length = self, ty, self._length + 1
        return ctx

    def lookup(self, index: int) -> Term:
        """Type of ``Var(index)``, shifted into the full context."""
        if index < 0 or index >= self._length:
            raise KernelBug(f"variable {index} out of context of length {self._length}")
        ctx = self
        for _ in range(index):
            ctx = ctx.prefix
        return shift(ctx.last, 0, index + 1)

    def __len__(self) -> int:
        return self._length


EMPTY_CONTEXT = Context()


@dataclass(frozen=True)
class Declaration:
    name: str
    type: Term
    body: Optional[Term]  # None for a postulate


class Signature:
    """Immutable ordered global environment.

    Signatures on one line of extensions share an append-only store (a
    declaration list and a name -> (position, declaration) index); each sees
    only its first ``_size`` declarations.  Only the newest of a line appends in
    place; extending an older or an empty one (``EMPTY_SIGNATURE`` is shared
    by every caller) copies its prefix into a new store first.
    """

    __slots__ = ("_decls", "_index", "_size")

    def __init__(self, declarations: Iterable[Declaration] = ()) -> None:
        self._decls = list(declarations)
        self._index = {d.name: (i, d) for i, d in enumerate(self._decls)}
        self._size = len(self._decls)

    @property
    def declarations(self) -> tuple[Declaration, ...]:
        return tuple(self._decls[: self._size])

    def extend(self, decl: Declaration) -> "Signature":
        if self.lookup(decl.name) is not None:
            raise KernelBug(f"duplicate declaration {decl.name}")
        line = self if 0 < self._size == len(self._decls) else Signature(self.declarations)
        line._index[decl.name] = (line._size, decl)
        line._decls.append(decl)
        new = object.__new__(Signature)
        new._decls, new._index, new._size = line._decls, line._index, line._size + 1
        return new

    def lookup(self, name: str) -> Optional[Declaration]:
        pos, decl = self._index.get(name, (self._size, None))
        return decl if pos < self._size else None

    def __contains__(self, name: str) -> bool:
        return self._index.get(name, (self._size,))[0] < self._size


EMPTY_SIGNATURE = Signature()
