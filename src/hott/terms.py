"""Core term language: nameless (de Bruijn) syntax, contexts, signatures.

Every binder is positional: a subterm that "binds one variable" sees the
bound variable as index 0, with all enclosing indices shifted up by one.
The index-manipulation calculus (shift/subst/instantiate/at) lives here, as
the kernel's one walker, which maps each variable itself: an index in the
substituted range becomes its argument, a term shifted over the binders it
crossed or a closure of ``reduce``'s machine read back, and any other index
moves by one fixed amount.  Type checking is built on top of it; evaluation
(``reduce``) binds closures in environments instead and reads them back here.

Nodes are slotted and frozen, and compare, hash and print as frozen
dataclasses do, but are none: one generator, ``Term.__init_subclass__``,
writes each former's ``__init__``, ``__eq__`` and ``__hash__``.  Each node
carries ``_loose``, 1 + its highest free index (0 when closed), set when the
node is built from its children's, like Lean 4's ``looseBVarRange``: shift
and subst share each subterm whose indices cannot move.  It is a slot
outside the fields, so ``==``, ``hash`` and ``repr`` ignore it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import ClassVar, Iterable, Iterator, Optional, Sequence

DEFAULT_MAX_STEPS = 10_000_000
_OPEN = 1 << 39  # above the ``_loose`` of every term without a ``Rec`` in it


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
    """Base class of the term formers.  A former lists its fields as
    ``__slots__ = __match_args__`` and, aligned with them, ``BINDERS``: how
    many variables each subterm binds, none for a leaf's or a payload's
    (such as ``Var.index``).  ``__init_subclass__`` writes each former's
    ``__init__``, ``__eq__`` and ``__hash__``; ``Term`` gives every former
    a frozen dataclass's ``__setattr__``, ``__delattr__`` and ``repr``."""

    __slots__ = ("_loose",)
    BINDERS: ClassVar[tuple[int, ...]] = ()
    FIELDS: ClassVar[tuple[tuple[str, int], ...]] = ()  # each field with its ``BINDERS`` entry

    def __init_subclass__(cls) -> None:
        """Generate the former's methods from one source string in one
        ``exec``, as ``dataclass`` generates its own.  ``__init__`` sets each
        field through its slot descriptor, then ``_loose`` to the highest of
        the children's bounds, each less the binders entering it (``index +
        1`` for a ``Var``, 0 for a leaf).  ``__eq__`` and ``__hash__`` are a
        dataclass's: same class and equal field tuples, and the field tuple's
        hash; a former that defines its own ``__eq__`` keeps both of its own."""
        names = cls.__match_args__
        cls.FIELDS = tuple(zip(names, cls.BINDERS))
        bounds = [f"{name}._loose - {k}" if k else f"{name}._loose" for name, k in cls.FIELDS]
        if all(cls.BINDERS):  # a leaf, or every child under a binder: start at the least bound
            bounds.insert(0, "index + 1" if cls.__name__ == "Var" else "0")
        body = [*(f"set_{name}(self, {name})" for name in names), f"n = {bounds[0]}",
                *(f"if (b := {bound}) > n: n = b" for bound in bounds[1:]), "set__loose(self, n)"]
        source = [f"def __init__(self, {', '.join(names)}):", *(f"    {line}" for line in body)]
        if "__eq__" not in cls.__dict__:
            mine = "(" + "".join(f"self.{name}, " for name in names) + ")"
            theirs = "(" + "".join(f"other.{name}, " for name in names) + ")"
            source += ["def __eq__(self, other):", "    if other.__class__ is self.__class__:",
                       f"        return {mine} == {theirs}", "    return NotImplemented",
                       "def __hash__(self):", f"    return hash({mine})"]
        namespace = {f"set_{name}": getattr(cls, name).__set__ for name in ("_loose", *names)}
        # compiled under the former's name, which tracebacks and profiles show as the file
        exec(compile("\n".join(source), f"<{cls.__name__}>", "exec"), namespace)
        for method in ("__init__", "__eq__", "__hash__"):
            if method in namespace:
                setattr(cls, method, namespace[method])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through ``__init__``, which sets ``_loose``
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Var(Term):
    __slots__ = __match_args__ = ("index",)


class Const(Term):
    __slots__ = __match_args__ = ("name",)


class Universe(Term):
    __slots__ = __match_args__ = ("level",)


class Pi(Term):
    __slots__ = __match_args__ = ("domain", "codomain")
    BINDERS = (0, 1)


class Lambda(Term):
    __slots__ = __match_args__ = ("domain", "body")
    BINDERS = (0, 1)


class App(Term):
    __slots__ = __match_args__ = ("fn", "arg")
    BINDERS = (0, 0)


class Sigma(Term):
    __slots__ = __match_args__ = ("first", "second")
    BINDERS = (0, 1)


class Pair(Term):
    __slots__ = __match_args__ = ("fst", "snd")
    BINDERS = (0, 0)


class IndSigma(Term):
    __slots__ = __match_args__ = ("motive", "step", "scrutinee")  # the motive binds the scrutinee
    BINDERS = (1, 0, 0)


class Nat(Term):
    __slots__ = __match_args__ = ()


class Zero(Term):
    __slots__ = __match_args__ = ()


class Succ(Term):
    __slots__ = __match_args__ = ("pred",)
    BINDERS = (0,)

    def __eq__(self, other: object) -> bool:
        return spine(self) == spine(other) if type(other) is Succ else NotImplemented

    def __hash__(self) -> int:
        return hash((Succ, *spine(self)))


class IndNat(Term):
    __slots__ = __match_args__ = ("motive", "base", "step", "scrutinee")
    BINDERS = (1, 0, 0, 0)


class Unit(Term):
    __slots__ = __match_args__ = ()


class Star(Term):
    __slots__ = __match_args__ = ()


class IndUnit(Term):
    __slots__ = __match_args__ = ("motive", "point", "scrutinee")
    BINDERS = (1, 0, 0)


class Empty(Term):
    __slots__ = __match_args__ = ()


class IndEmpty(Term):
    __slots__ = __match_args__ = ("motive", "scrutinee")
    BINDERS = (1, 0)


class Coprod(Term):
    __slots__ = __match_args__ = ("left", "right")
    BINDERS = (0, 0)


class Inl(Term):
    __slots__ = __match_args__ = ("value",)
    BINDERS = (0,)


class Inr(Term):
    __slots__ = __match_args__ = ("value",)
    BINDERS = (0,)


class IndCoprod(Term):
    __slots__ = __match_args__ = ("motive", "on_left", "on_right", "scrutinee")
    BINDERS = (1, 0, 0, 0)


class Id(Term):
    __slots__ = __match_args__ = ("type", "lhs", "rhs")
    BINDERS = (0, 0, 0)


class Refl(Term):
    __slots__ = __match_args__ = ()


class IndEq(Term):
    # the motive binds two variables (endpoint, path)
    __slots__ = __match_args__ = ("base", "motive", "center", "endpoint", "path")
    BINDERS = (0, 2, 0, 0, 0)


class W(Term):
    __slots__ = __match_args__ = ("shapes", "arities")
    BINDERS = (0, 1)


class Tree(Term):
    __slots__ = __match_args__ = ("shape", "components")
    BINDERS = (0, 0)


class IndW(Term):
    __slots__ = __match_args__ = ("motive", "step", "scrutinee")
    BINDERS = (1, 0, 0)


class Trunc(Term):
    __slots__ = __match_args__ = ("type",)
    BINDERS = (0,)


class TruncIn(Term):
    __slots__ = __match_args__ = ("value",)
    BINDERS = (0,)


class IndTrunc(Term):
    __slots__ = __match_args__ = ("motive", "point", "coherence", "scrutinee")
    BINDERS = (1, 0, 0, 0)


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


class Rec:
    """A closure of ``reduce``'s machine that can step, as a cell: the closure
    ``scrutinee`` alone, or an ``IOTA`` reduct's recursive call, ``elim`` with
    its fields read in ``env`` waiting on it (for ``IndW``, under its lambda
    and applied to the variable bound last, no cell).  Forcing it writes
    ``value``: ``(head, its env, steps)``.  It unpacks as ``(itself, env)``, as
    a closure ``(term, env)`` does, and ``_map_vars`` reads back its closure."""

    __slots__ = ("elim", "scrutinee", "env", "value")
    _loose = 2 * _OPEN  # no term around it is shared

    def __init__(self, elim: Optional[Term], scrutinee: tuple, env: tuple):
        self.elim, self.scrutinee, self.env, self.value = elim, scrutinee, env, None

    def __iter__(self):
        return iter((self, self.env))


def _map_vars(t: Term, cutoff: int, depth: int, args: Sequence, amount: int) -> Term:
    """Map each index ``i`` >= ``cutoff`` outside ``t``, which has one, under
    ``depth`` binders: ``i - cutoff - depth`` < ``len(args)`` counts from the
    last argument, any other ``i`` becomes ``i + amount``.  An argument is a
    term under the output's root, taken as it is when closed, else shifted
    over ``depth``; or, with ``cutoff`` 0, a closure ``(term, env)`` (or a
    ``Rec``) where ``t``'s other indices live, read back in its ``env`` and
    moved over ``depth + amount + len(args)``.  A child with no index that
    moves, and no ``Rec``, is shared, and a chain of ``fn`` or ``pred`` (an
    application's spine, a numeral) is walked in a loop."""
    if (cls := type(t)) is Var:
        i = t.index - cutoff - depth
        if i < len(args):
            a = args[-1 - i]
            if isinstance(a, Term):
                return _map_vars(a, 0, 0, (), depth) if depth and a._loose else a
            (t, env), up = a, depth + amount + len(args)
            while type(t) is Var and t.index < len(env):  # bound again: continue in its closure
                t, env = env[-1 - t.index]
            return t if t._loose <= (0 if env or up else _OPEN) else _map_vars(t, 0, 0, env, up - len(env))
        if t.index + amount < 0:
            raise KernelBug(f"index underflow shifting {t.index} by {amount}")
        return Var(t.index + amount)
    bound, chain = cutoff + depth if args or amount else _OPEN, []  # moving nothing, only a Rec changes
    while ((cls := type(t)) is App or cls is Succ) and t._loose > bound:
        chain.append(t)
        t = t.fn if cls is App else t.pred
    if chain:
        t = t if t._loose <= bound else _map_vars(t, cutoff, depth, args, amount)
        for u in reversed(chain):
            if type(u) is Succ:
                t = Succ(t)
            else:
                t = App(t, a if (a := u.arg)._loose <= bound else _map_vars(a, cutoff, depth, args, amount))
        return t
    children = []
    if cls is Rec:  # its closure, alone or as its eliminator's scrutinee, read back as a variable bound to it
        env, up = t.env, depth + amount + len(args)
        hole = _map_vars(Var(0), 0, 0, (t.scrutinee,), up - 1)
        if t.elim is None:
            return hole
        t, cls, limit = t.elim, type(t.elim), 0 if env or up else _OPEN
        for name, k in t.FIELDS[:-1]:  # a loop: a comprehension would make its locals cells of every call
            sub = getattr(t, name)
            children.append(sub if sub._loose <= limit + k else _map_vars(sub, 0, k, env, up - len(env)))
        return cls(*children, App(hole, Var(0)) if cls is IndW else hole)  # IndW's is under its lambda
    for name, k in t.FIELDS:
        sub = getattr(t, name)
        children.append(sub if sub._loose <= bound + k else _map_vars(sub, cutoff, depth + k, args, amount))
    return cls(*children)


def shift(t: Term, cutoff: int, amount: int) -> Term:
    """Add ``amount`` to every free index >= ``cutoff``.

    Negative amounts are permitted only when no index would underflow;
    underflow indicates a kernel bug, not bad user input.
    """
    return t if amount == 0 or t._loose <= cutoff else _map_vars(t, cutoff, 0, (), amount)


def instantiate(t: Term, args: list[Term], j: int = 0) -> Term:
    """Replace indices ``j`` .. ``j + len(args) - 1`` by ``args``, the last
    argument binding ``j`` (a body under ``len(args)`` binders applied to them
    at once), and close the gap above them."""
    return t if not args or t._loose <= j else _map_vars(t, j, 0, args, -len(args))


def at(motive: Term, k: int, s: Term) -> Term:
    """``motive`` (binding index 0) at ``s``, under ``k`` new binders that ``s``
    may refer to: ``subst(shift(motive, 1, k), 0, s)`` in one walk."""
    return motive if not motive._loose else _map_vars(motive, 0, 0, (s,), k - 1)


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
