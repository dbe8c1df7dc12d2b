"""Core term language: nameless (de Bruijn) syntax, contexts, signatures.

Every binder is positional: a subterm that "binds one variable" sees the
bound variable as index 0, with all enclosing indices shifted up by one.
The index-manipulation calculus (shift/subst/instantiate) lives here;
evaluation and type checking are built on top of it.

Nodes are slotted frozen dataclasses.  Each carries ``_loose``, 1 + its
highest free index (0 when closed), set when the node is built from its
children's, like Lean 4's ``looseBVarRange``: shift and subst share each
subterm whose indices cannot move.  It is a slot outside the dataclass
fields, so ``==``, ``hash`` and ``repr`` ignore it.
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


class Term:
    """Base class; one slotted frozen dataclass per term former.  ``BINDERS``
    aligns with its fields (``__match_args__``): how many variables each
    subterm binds, none for a leaf's or a payload's (such as ``Var.index``)."""

    __slots__ = ("_loose",)
    BINDERS: ClassVar[tuple[int, ...]] = ()
    FIELDS: ClassVar[tuple[tuple[str, int], ...]] = ()  # each field with its ``BINDERS`` entry

    def __reduce__(self):  # copy and pickle rebuild through ``__init__``, which sets ``_loose``
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, slots=True)
class Var(Term):
    index: int


@dataclass(frozen=True, slots=True)
class Const(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Universe(Term):
    level: int


@dataclass(frozen=True, slots=True)
class Pi(Term):
    domain: Term
    codomain: Term  # binds one variable
    BINDERS = (0, 1)


@dataclass(frozen=True, slots=True)
class Lambda(Term):
    domain: Term
    body: Term  # binds one variable
    BINDERS = (0, 1)


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term
    BINDERS = (0, 0)


@dataclass(frozen=True, slots=True)
class Sigma(Term):
    first: Term
    second: Term  # binds one variable
    BINDERS = (0, 1)


@dataclass(frozen=True, slots=True)
class Pair(Term):
    fst: Term
    snd: Term
    BINDERS = (0, 0)


@dataclass(frozen=True, slots=True)
class IndSigma(Term):
    motive: Term  # binds one variable (the scrutinee)
    step: Term
    scrutinee: Term
    BINDERS = (1, 0, 0)


@dataclass(frozen=True, slots=True)
class Nat(Term):
    pass


@dataclass(frozen=True, slots=True)
class Zero(Term):
    pass


@dataclass(frozen=True, slots=True)
class Succ(Term):
    pred: Term
    BINDERS = (0,)

    def __eq__(self, other: object) -> bool:
        return spine(self) == spine(other) if type(other) is Succ else NotImplemented

    def __hash__(self) -> int:
        return hash((Succ, *spine(self)))


@dataclass(frozen=True, slots=True)
class IndNat(Term):
    motive: Term  # binds one variable
    base: Term
    step: Term
    scrutinee: Term
    BINDERS = (1, 0, 0, 0)


@dataclass(frozen=True, slots=True)
class Unit(Term):
    pass


@dataclass(frozen=True, slots=True)
class Star(Term):
    pass


@dataclass(frozen=True, slots=True)
class IndUnit(Term):
    motive: Term  # binds one variable
    point: Term
    scrutinee: Term
    BINDERS = (1, 0, 0)


@dataclass(frozen=True, slots=True)
class Empty(Term):
    pass


@dataclass(frozen=True, slots=True)
class IndEmpty(Term):
    motive: Term  # binds one variable
    scrutinee: Term
    BINDERS = (1, 0)


@dataclass(frozen=True, slots=True)
class Coprod(Term):
    left: Term
    right: Term
    BINDERS = (0, 0)


@dataclass(frozen=True, slots=True)
class Inl(Term):
    value: Term
    BINDERS = (0,)


@dataclass(frozen=True, slots=True)
class Inr(Term):
    value: Term
    BINDERS = (0,)


@dataclass(frozen=True, slots=True)
class IndCoprod(Term):
    motive: Term  # binds one variable
    on_left: Term
    on_right: Term
    scrutinee: Term
    BINDERS = (1, 0, 0, 0)


@dataclass(frozen=True, slots=True)
class Id(Term):
    type: Term
    lhs: Term
    rhs: Term
    BINDERS = (0, 0, 0)


@dataclass(frozen=True, slots=True)
class Refl(Term):
    pass


@dataclass(frozen=True, slots=True)
class IndEq(Term):
    base: Term
    motive: Term  # binds two variables (endpoint, path)
    center: Term
    endpoint: Term
    path: Term
    BINDERS = (0, 2, 0, 0, 0)


@dataclass(frozen=True, slots=True)
class W(Term):
    shapes: Term
    arities: Term  # binds one variable
    BINDERS = (0, 1)


@dataclass(frozen=True, slots=True)
class Tree(Term):
    shape: Term
    components: Term
    BINDERS = (0, 0)


@dataclass(frozen=True, slots=True)
class IndW(Term):
    motive: Term  # binds one variable
    step: Term
    scrutinee: Term
    BINDERS = (1, 0, 0)


@dataclass(frozen=True, slots=True)
class Trunc(Term):
    type: Term
    BINDERS = (0,)


@dataclass(frozen=True, slots=True)
class TruncIn(Term):
    value: Term
    BINDERS = (0,)


@dataclass(frozen=True, slots=True)
class IndTrunc(Term):
    motive: Term  # binds one variable
    point: Term
    coherence: Term
    scrutinee: Term
    BINDERS = (1, 0, 0, 0)


def _generate_inits(formers: list[type]) -> None:
    """Replace each former's ``__init__`` by one generated in one ``exec``, as
    ``dataclass`` generates its own: it sets each field through its slot
    descriptor, then ``_loose`` to the highest of the children's bounds, each
    less the binders entering it (``index + 1`` for a ``Var``, 0 for a leaf)."""
    source, namespace = [], {}
    for cls in formers:
        names, tag = cls.__match_args__, cls.__name__
        cls.FIELDS = tuple(zip(names, cls.BINDERS))
        namespace.update({f"{tag}_{name}": getattr(cls, name).__set__ for name in ("_loose", *names)})
        bounds = [f"{name}._loose - {k}" if k else f"{name}._loose" for name, k in cls.FIELDS]
        if all(cls.BINDERS):  # a leaf, or every child under a binder: start at the least bound
            bounds.insert(0, "index + 1" if cls is Var else "0")
        body = [*(f"{tag}_{name}(self, {name})" for name in names), f"n = {bounds[0]}",
                *(f"if (b := {bound}) > n: n = b" for bound in bounds[1:]), f"{tag}__loose(self, n)"]
        source.append(f"def {tag}__init__(self, {', '.join(names)}):\n" + "".join(f"    {line}\n" for line in body))
    exec("".join(source), namespace)
    for cls in formers:
        cls.__init__ = namespace[f"{cls.__name__}__init__"]


_generate_inits([cls for cls in list(globals().values())
                 if isinstance(cls, type) and issubclass(cls, Term) and cls is not Term])

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
    return t._loose


def _map_vars(t: Term, cutoff: int, depth: int, on_var) -> Term:
    """``on_var`` applied to each index >= ``cutoff`` outside ``t``, which has
    one; a child with none is shared, and a chain of ``fn`` or ``pred`` (an
    application's spine, a numeral) is walked in a loop."""
    if type(t) is Var:
        return on_var(t, depth)
    bound, chain = cutoff + depth, []
    while type(t) in (App, Succ) and t._loose > bound:
        chain.append(t)
        t = t.fn if type(t) is App else t.pred
    if chain:
        t = t if t._loose <= bound else _map_vars(t, cutoff, depth, on_var)
        for u in reversed(chain):
            a = u.arg if type(u) is App else None
            if a is not None and a._loose > bound:
                a = on_var(a, depth) if type(a) is Var else _map_vars(a, cutoff, depth, on_var)
            t = Succ(t) if a is None else App(t, a)
        return t
    children = []
    for name, k in t.FIELDS:
        sub = getattr(t, name)
        if sub._loose > bound + k:
            sub = on_var(sub, depth + k) if type(sub) is Var else _map_vars(sub, cutoff, depth + k, on_var)
        children.append(sub)
    return type(t)(*children)


def shift(t: Term, cutoff: int, amount: int) -> Term:
    """Add ``amount`` to every free index >= ``cutoff``.

    Negative amounts are permitted only when no index would underflow;
    underflow indicates a kernel bug, not bad user input.
    """
    if amount == 0 or t._loose <= cutoff:
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
    if not n or t._loose <= j:
        return t

    def on_var(v: Var, depth: int) -> Term:
        i = v.index - depth - j
        if i >= n:
            return Var(v.index - n)
        a = args[-1 - i]
        return shift(a, 0, depth) if depth and a._loose else a

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

    def __init__(self) -> None:  # the empty context
        self.prefix, self.last, self._length = None, None, 0

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
