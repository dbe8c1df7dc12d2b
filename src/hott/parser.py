"""Concrete syntax: lexer, parser and name resolution for ``.hott`` files.

The grammar is ASCII-only.  Line comments run from ``--`` to end of line.
``_LEXEME`` is the one statement of the lexical grammar; ``tokenize``
only reads its matches.
``CONSTANTS`` and ``FORMS`` are the one place a keyword former is spelled,
and ``ITEMS`` the one place an item's directive and grammar are: lexing,
parsing and printing (``pretty``, ``--trace`` labels) all read them.
A keyword former takes its fields in order, as atoms; eliminators take
the motive first.
A field that binds ``k`` variables is written as a ``k``-argument
function; the parser reads it under ``k`` unnamed binders and applies it
to those variables (``Parser.parse_binding``).  Numerals desugar to
iterated ``succ zero``; a bare ``succ`` in argument position desugars to
``\\(n : Nat). succ n``.

The parser resolves binders as it reads them and returns core terms;
name resolution only checks that every free name is declared, and the
loader runs the parsed items themselves.  ``_`` is
accepted by the parser only so that printed terms with unreconstructible
binders stay readable; resolving it is an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .terms import (
    EMPTY,
    NAT,
    REFL,
    STAR,
    UNIT,
    ZERO,
    App,
    Const,
    Coprod,
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
    Pair,
    Pi,
    Sigma,
    Succ,
    Term,
    Tree,
    Trunc,
    TruncIn,
    Universe,
    Var,
    W,
    numeral,
)

Span = tuple[int, int]
T = TypeVar("T")


class LexError(LocatedError):
    """A character or directive the lexer does not know."""


class ParseError(LocatedError):
    def __init__(self, message: str, span: Span, expected: Optional[set[str]] = None):
        detail = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(message + detail, span)
        self.expected = expected or set()


class ResolveError(LocatedError):
    """A free name that is not declared, or a ``_``."""

    rule = "unbound-identifier"


# Keyword -> the constant it denotes.
CONSTANTS: dict[str, Term] = {
    "Nat": NAT, "Unit": UNIT, "Empty": EMPTY, "zero": ZERO, "star": STAR, "refl": REFL,
}

# Keyword -> (term former, its fields in surface order); the arity is the
# number of fields.
FORMS: dict[str, tuple[type[Term], tuple[str, ...]]] = {
    "succ": (Succ, ("pred",)),
    "pair": (Pair, ("fst", "snd")),
    "inl": (Inl, ("value",)),
    "inr": (Inr, ("value",)),
    "eta": (TruncIn, ("value",)),
    "tree": (Tree, ("shape", "components")),
    "Trunc": (Trunc, ("type",)),
    "W": (W, ("shapes", "arities")),
    "Id": (Id, ("type", "lhs", "rhs")),
    "ind-nat": (IndNat, ("motive", "base", "step", "scrutinee")),
    "ind-sigma": (IndSigma, ("motive", "step", "scrutinee")),
    "ind-unit": (IndUnit, ("motive", "point", "scrutinee")),
    "ind-empty": (IndEmpty, ("motive", "scrutinee")),
    "ind-sum": (IndCoprod, ("motive", "on_left", "on_right", "scrutinee")),
    "ind-eq": (IndEq, ("motive", "base", "center", "endpoint", "path")),
    "ind-w": (IndW, ("motive", "step", "scrutinee")),
    "ind-trunc": (IndTrunc, ("motive", "point", "coherence", "scrutinee")),
}

# Keyword -> each field of its former, in surface order, with the number
# of variables the field binds.
FORM_FIELDS = {
    head: tuple((f, dict(cls.FIELDS)[f]) for f in fields)
    for head, (cls, fields) in FORMS.items()
}

PUNCT = [":=", "==", "->", "(", ")", ":", ".", ",", "\\", "+", "="]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "nat", or the literal keyword/punctuation
    text: str
    span: Span


# The lexical grammar: after blanks, the first alternative that matches.
_NAME_TAIL = r"(?:[A-Za-z0-9_']|-(?=[A-Za-z0-9_']))*"  # ASCII only; a - only before a name character
_LEXEME = re.compile(
    rf"""[ \t\r]*(?:  # a tab or a \r is one column
      (?P<newline>\n)
    | (?P<comment>--[^\n]*)
    | (?P<directive>\#{_NAME_TAIL})
    | (?P<nat>[0-9]+)
    | (?P<name>[A-Za-z_]{_NAME_TAIL})
    | (?P<punct>{"|".join(map(re.escape, PUNCT))})  # in the order of PUNCT, longest first
    | (?P<stray>.)
    | (?P<eof>\Z))""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # the current line and the offset it starts at
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        word = m[kind]
        span = (line, m.start(kind) - line_start + 1)
        if kind == "name":
            kind = word if word in KEYWORDS else "hole" if word == "_" else "ident"
        elif kind == "punct" or (kind == "directive" and word in DIRECTIVES):
            kind = word
        elif kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        elif kind == "comment":
            continue
        elif kind == "directive":
            raise LexError(f"unknown directive {word!r}", span)
        elif kind == "stray":
            raise LexError(f"unexpected character {word!r}", span)
        tokens.append(Token(kind, word, span))
        if kind == "eof":  # trailing blanks match with the end, which would then match again, empty
            break
    return tokens


# ---------------------------------------------------------------------------
# Parsed items


@dataclass(frozen=True)
class SExpr:
    """A parsed expression: its core term, binders already resolved to
    indices, and the free names it uses with their spans (``_`` among
    them), in the order ``resolve_expr`` reports them: textual, except
    that ``a = b in T`` lists ``T``'s names first, as ``Id(T, a, b)`` does."""

    term: Term
    names: tuple[tuple[str, Span], ...]


@dataclass(frozen=True)
class SurfaceItem:
    """A parsed item, which the loader runs once ``resolve`` has checked
    its free names; ``span`` is where its first token starts."""

    span: Span


@dataclass(frozen=True)
class DefItem(SurfaceItem):
    name: str
    type: SExpr
    body: SExpr


@dataclass(frozen=True)
class PostulateItem(SurfaceItem):
    name: str
    type: SExpr


@dataclass(frozen=True)
class PragmaCheck(SurfaceItem):
    expr: SExpr
    type: SExpr


@dataclass(frozen=True)
class PragmaEval(SurfaceItem):
    expr: SExpr


@dataclass(frozen=True)
class PragmaAssert(SurfaceItem):
    equal: bool  # #assert-eq when true, #assert-neq when false
    lhs: SExpr
    rhs: SExpr
    type: SExpr


@dataclass(frozen=True)
class PragmaFail(SurfaceItem):
    item: SurfaceItem


# Directive -> its item class, what follows the directive in order, and
# the fields the directive itself sets.  ``name`` reads an identifier,
# ``item`` a nested item and any other field of the class an expression;
# anything else is that token.
ITEMS: dict[str, tuple[type[SurfaceItem], tuple[str, ...], dict[str, bool]]] = {
    "def": (DefItem, ("name", ":", "type", ":=", "body"), {}),
    "postulate": (PostulateItem, ("name", ":", "type"), {}),
    "#check": (PragmaCheck, ("expr", ":", "type"), {}),
    "#eval": (PragmaEval, ("expr",), {}),
    "#assert-eq": (PragmaAssert, ("lhs", "==", "rhs", ":", "type"), {"equal": True}),
    "#assert-neq": (PragmaAssert, ("lhs", "==", "rhs", ":", "type"), {"equal": False}),
    "#fail": (PragmaFail, ("item",), {}),
}

# ``ITEMS`` with each part classified once: "name", "item", "expr" or "token".
_ITEM_GRAMMAR = {
    directive: (cls, fields, tuple(
        (part if part in ("name", "item") else "expr" if part in cls.__match_args__ else "token", part)
        for part in parts))
    for directive, (cls, parts, fields) in ITEMS.items()
}
DIRECTIVES = {directive for directive in ITEMS if directive.startswith("#")}
KEYWORDS = {"in", "Sig", "Type", *CONSTANTS, *FORMS, *(ITEMS.keys() - DIRECTIVES)}


@dataclass(frozen=True)
class SurfaceModule:
    items: tuple[SurfaceItem, ...]
    path: str = "<input>"


class Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.pos = 0
        self.env: list[Optional[str]] = []  # binder names, innermost last; None when unnamed
        self.names: list[tuple[str, Span]] = []  # free names of the expression being read

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text!r}", tok.span, {kind})
        return self.next()

    def expect_literal(self) -> int:
        """The next token, a numeric literal, as an int.  One longer than the
        interpreter converts is a parse error at the literal."""
        tok = self.expect("nat")
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"numeric literal of {len(tok.text)} digits is too long", tok.span) from None

    # -- items --------------------------------------------------------------

    def parse_module(self, path: str = "<input>") -> SurfaceModule:
        items = []
        while self.peek().kind != "eof":
            items.append(self.bounded(self.parse_item))
        return SurfaceModule(tuple(items), path)

    def bounded(self, parse: Callable[[], T]) -> T:
        """``parse()``; nesting past the interpreter's recursion limit is a
        ParseError at the token reached."""
        try:
            return parse()
        except RecursionError:
            tok = self.peek()
            raise ParseError(f"expression nested too deeply at {tok.text!r}", tok.span) from None

    def parse_item(self) -> SurfaceItem:
        tok = self.peek()
        if tok.kind not in _ITEM_GRAMMAR:
            raise ParseError(f"unexpected {tok.text!r}", tok.span, set(ITEMS))
        self.next()
        cls, preset, parts = _ITEM_GRAMMAR[tok.kind]
        fields = dict(preset)
        for kind, part in parts:
            if kind == "token":
                self.expect(part)
            elif kind == "expr":
                fields[part] = self.expression()
            elif kind == "name":
                fields[part] = self.expect("ident").text
            else:
                fields[part] = self.parse_item()
        return cls(tok.span, **fields)

    # -- expressions ----------------------------------------------------------

    def expression(self) -> SExpr:
        """One closed expression, with the free names it uses."""
        self.names = []
        return SExpr(self.parse_expr(), tuple(self.names))

    # Binder opening -> its former and the token after its ")".
    _BINDERS = {"\\": (Lambda, "."), "Sig": (Sigma, ","), "(": (Pi, "->")}

    def parse_expr(self) -> Term:
        """Binders and arrows nest to the right; they are read in a loop,
        so a chain of them costs no recursion depth.  Each binds its
        variable for the rest of the chain; an arrow binds an unnamed one."""
        outer = []  # (former, domain), outermost first
        while True:
            tok = self.peek()
            if tok.kind in ("\\", "Sig") or (
                tok.kind == "(" and self.peek(1).kind == "ident" and self.peek(2).kind == ":"
            ):
                cls, sep = self._BINDERS[tok.kind]
                if tok.kind != "(":
                    self.next()
                self.expect("(")
                var = self.expect("ident").text
                self.expect(":")
                dom = self.parse_expr()
                self.expect(")")
                self.expect(sep)
                outer.append((cls, dom))
                self.env.append(var)
                continue
            e = self.parse_plus()
            if self.peek().kind != "->":
                break
            self.next()
            outer.append((Pi, e))
            self.env.append(None)
        del self.env[len(self.env) - len(outer):]
        for cls, dom in reversed(outer):
            e = cls(dom, e)
        return e

    def parse_plus(self) -> Term:
        """``+`` nests to the right; a chain of it is read in a loop."""
        summands = [self.parse_eq()]
        while self.peek().kind == "+":
            self.next()
            summands.append(self.parse_eq())
        e = summands.pop()
        for left in reversed(summands):
            e = Coprod(left, e)
        return e

    def parse_eq(self) -> Term:
        start = len(self.names)
        left = self.parse_app()
        if self.peek().kind == "=":
            self.next()
            right = self.parse_app()
            self.expect("in")
            mid = len(self.names)
            ty = self.parse_app()
            self.names[start:] = self.names[mid:] + self.names[start:mid]  # as Id(ty, left, right)
            return Id(ty, left, right)
        return left

    _ATOM_STARTERS = {"ident", "nat", "hole", "(", "succ", "Type", *CONSTANTS}

    def parse_app(self) -> Term:
        head = self.parse_unit()
        while self.peek().kind in self._ATOM_STARTERS:
            head = App(head, self.parse_atom())
        return head

    def parse_unit(self) -> Term:
        tok = self.peek()
        if tok.kind in FORMS and not (tok.kind == "succ" and self.peek(1).kind not in self._ATOM_STARTERS):
            self.next()
            fields = {}
            for field, k in FORM_FIELDS[tok.kind]:
                fields[field] = self.parse_atom() if k == 0 else self.parse_binding(k)
            return FORMS[tok.kind][0](**fields)
        return self.parse_atom()

    def parse_binding(self, k: int) -> Term:
        """A field binding ``k`` variables, written as a ``k``-argument
        function: the atom, read under ``k`` unnamed binders, applied to
        ``Var(k-1) ... Var(0)``."""
        self.env.extend([None] * k)
        t = self.parse_atom()
        del self.env[-k:]
        for i in reversed(range(k)):
            t = App(t, Var(i))
        return t

    def parse_atom(self) -> Term:
        tok = self.peek()
        if tok.kind in ("ident", "hole"):  # a free ``_`` is recorded for resolution to reject
            self.next()
            for i, name in enumerate(reversed(self.env)):
                if name == tok.text:
                    return Var(i)
            self.names.append((tok.text, tok.span))
            return Const(tok.text)
        if tok.kind == "nat":
            return numeral(self.expect_literal())
        if tok.kind == "succ":  # bare succ: the successor function
            self.next()
            return Lambda(NAT, Succ(Var(0)))
        if tok.kind in CONSTANTS:
            self.next()
            return CONSTANTS[tok.kind]
        if tok.kind == "Type":
            self.next()
            return Universe(self.expect_literal())
        if tok.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ParseError(f"unexpected {tok.text!r}", tok.span, self._ATOM_STARTERS)


def parse(text: str, path: str = "<input>") -> SurfaceModule:
    return Parser(tokenize(text)).parse_module(path)


def parse_expression(text: str) -> SExpr:
    parser = Parser(tokenize(text))
    e = parser.bounded(parser.expression)
    parser.expect("eof")
    return e


# ---------------------------------------------------------------------------
# Name resolution


def _term(e: SExpr, declared: Callable[[str], bool]) -> Term:
    """The term of ``e``, once every free name it uses is ``declared``."""
    for name, span in e.names:
        if name == "_":
            raise ResolveError("'_' is a printing placeholder, not an expression", span)
        if not declared(name):
            raise ResolveError(f"unbound identifier {name!r}", span)
    return e.term


def resolve_expr(e: SExpr, env: list[str], names) -> Term:
    """The core term of ``e``, once each free name it uses is in the
    container ``names``.  The parser resolves binders itself, so ``env``
    must be empty."""
    if env:
        raise ValueError("binders are resolved by the parser: env must be empty")
    return _term(e, names.__contains__)


# ---------------------------------------------------------------------------
# Module resolution


# ``#fail`` items under the name the benchmark's tracer counts them by.
RFail = PragmaFail


def resolve(module: SurfaceModule, sig) -> Iterator[SurfaceItem]:
    """Yield each item of a module once every free name it uses is a
    constant of ``sig`` or of the module's earlier items.

    Items wrapped in ``#fail`` are yielded unresolved: their rejection,
    which may be a resolution error, is observed by whoever executes them.
    """
    declared: set[str] = set()  # names of this module's earlier items

    def known(name: str) -> bool:
        return name in declared or name in sig

    for item in module.items:
        for field in type(item).__match_args__:
            e = getattr(item, field)
            if isinstance(e, SExpr):
                _term(e, known)
        if isinstance(item, (DefItem, PostulateItem)):
            declared.add(item.name)
        yield item
