"""Pretty-printing core terms back to concrete syntax.

Printing inverts parsing: re-parsing and resolving printed output
yields a structurally equal term.  Keyword formers print from the inverse
of ``parser.CONSTANTS`` and ``parser.FORMS``.  A field binding ``k``
variables that has the parser's shape ``f^k (k-1) ... 0`` prints as
``f``; one that lost that shape prints as a ``k``-argument lambda whose
first domain is reconstructed when the former fixes it (Nat, Unit, Empty
for their eliminators, the shapes for ``W``) and is the placeholder ``_``
otherwise.
"""

from __future__ import annotations

from .parser import CONSTANTS, FORM_FIELDS, FORMS
from .terms import (
    EMPTY,
    NAT,
    UNIT,
    App,
    Const,
    Coprod,
    IndEmpty,
    IndNat,
    IndUnit,
    Lambda,
    Pi,
    Sigma,
    Succ,
    Term,
    Universe,
    Var,
    W,
    Zero,
    spine,
    subterms,
)

_ATOM = 4
_APP = 3
_PLUS = 2
_EXPR = 0


def _const_names(t: Term) -> set[str]:
    names: set[str] = set()
    todo = [t]
    while todo:
        u = spine(todo.pop())[1]  # a numeral's chain of ``Succ`` in one loop
        if isinstance(u, Const):
            names.add(u.name)
        todo.extend(sub for sub, _ in subterms(u))
    return names


# Former -> its keyword and ``FORM_FIELDS`` entry.
_KEYWORDS = {FORMS[head][0]: (head, fields) for head, fields in FORM_FIELDS.items()}
_CONSTANT_NAMES = {type(t): name for name, t in CONSTANTS.items()}

# Former -> the domain of the variable its one-variable field binds, when
# the former fixes it.
_DOMAINS = {
    IndNat: lambda t: NAT,
    IndUnit: lambda t: UNIT,
    IndEmpty: lambda t: EMPTY,
    W: lambda t: t.shapes,
}


def _unbinder(binder: Term, k: int) -> Term | None:
    """Invert ``Parser.parse_binding``: ``f`` when ``binder`` is
    ``f (k-1) ... 0`` with ``f`` not using those variables.  ``f`` still
    counts them: it prints under ``k`` placeholders."""
    t = binder
    for i in range(k):
        if not (isinstance(t, App) and t.arg == Var(i)):
            return None
        t = t.fn
    if any(_uses(t, i) for i in range(k)):
        return None
    return t


def _uses(t: Term, index: int = 0) -> bool:
    """True iff the free variable ``index`` occurs in ``t``."""
    todo = [(t, index)]
    while todo:
        u, i = todo.pop()
        u = spine(u)[1]
        if isinstance(u, Var):
            if u.index == i:
                return True
        else:
            todo.extend((sub, i + k) for sub, k in subterms(u))
    return False


class _Printer:
    def __init__(self, avoid: set[str], sugar_numerals: bool = True):
        self.avoid = avoid
        self.sugar_numerals = sugar_numerals
        self.counter = 0

    def fresh(self) -> str:
        while True:
            name = f"x{self.counter}"
            self.counter += 1
            if name not in self.avoid:
                return name

    def binder_fn(self, binder: Term, env: list[str], k: int, domain: str | None) -> str:
        """Print a field binding ``k`` variables as a function expression atom."""
        fn = _unbinder(binder, k)
        if fn is not None:
            return self.atom(fn, env + [None] * k)
        names = [self.fresh() for _ in range(k)]
        doms = ["_" if domain is None else domain] + ["_"] * (k - 1)
        lams = " ".join(f"\\({n} : {d})." for n, d in zip(names, doms))
        return f"({lams} {self.expr(binder, env + names)})"

    def expr(self, t: Term, env: list[str]) -> str:
        return self.show(t, env, _EXPR)

    def atom(self, t: Term, env: list[str]) -> str:
        return self.show(t, env, _ATOM)

    def show(self, t: Term, env: list[str], prec: int) -> str:
        s, level = self.render(t, env)
        if level < prec:
            return f"({s})"
        return s

    def render(self, t: Term, env: list[str]) -> tuple[str, int]:
        # a chain of binders and sums in a loop: each prefix, then the tail at the level it needs,
        # which after a ``+`` is an operand of ``+``
        parts, level, tail = [], _PLUS if isinstance(t, Coprod) else _EXPR, _EXPR
        while isinstance(t, Coprod) or tail == _EXPR and isinstance(t, (Lambda, Pi, Sigma)):
            if isinstance(t, Coprod):
                parts.append(f"{self.show(t.left, env, _APP)} + ")
                t, tail = t.right, _PLUS
            elif isinstance(t, Pi) and not _uses(t.codomain):
                parts.append(f"{self.show(t.domain, env, _PLUS)} -> ")
                t, env = t.codomain, env + [None]
            else:
                name = self.fresh()
                if isinstance(t, Sigma):
                    parts.append(f"Sig ({name} : {self.expr(t.first, env)}), ")
                    t = t.second
                elif isinstance(t, Pi):
                    parts.append(f"({name} : {self.expr(t.domain, env)}) -> ")
                    t = t.codomain
                else:
                    parts.append(f"\\({name} : {self.expr(t.domain, env)}). ")
                    t = t.body
                env = env + [name]
        if parts:
            return "".join(parts) + self.show(t, env, tail), level
        if isinstance(t, Var):
            if t.index < len(env):
                return env[-1 - t.index], _ATOM
            return f"!{t.index - env.count(None)}", _ATOM
        if isinstance(t, Const):
            return t.name, _ATOM
        if isinstance(t, Succ):  # numerals are long chains: keep this before the tables
            n, base = spine(t)
            if self.sugar_numerals and isinstance(base, Zero):
                return str(n), _ATOM
            return "succ (" * (n - 1) + f"succ {self.atom(base, env)}" + ")" * (n - 1), _APP
        name = _CONSTANT_NAMES.get(type(t))
        if name is not None:
            return ("0" if name == "zero" and self.sugar_numerals else name), _ATOM
        form = _KEYWORDS.get(type(t))
        if form is not None:
            head, fields = form
            parts = [head]
            for f, k in fields:
                if k == 0:
                    parts.append(self.atom(getattr(t, f), env))
                else:
                    domain = _DOMAINS.get(type(t))
                    dom = self.expr(domain(t), env) if domain else None
                    parts.append(self.binder_fn(getattr(t, f), env, k, dom))
            return " ".join(parts), _APP
        if isinstance(t, Universe):
            return f"Type {t.level}", _APP
        if isinstance(t, App):  # the spine in a loop: the head, then each argument as an atom
            args = []
            while isinstance(t, App):
                args.append(t.arg)
                t = t.fn
            return " ".join([self.show(t, env, _APP), *(self.atom(a, env) for a in reversed(args))]), _APP
        raise AssertionError(f"unprintable term {t!r}")


def pretty(t: Term, env: list[str] | None = None, sugar_numerals: bool = True) -> str:
    printer = _Printer(_const_names(t), sugar_numerals)
    return printer.expr(t, env or [])
