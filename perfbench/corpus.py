"""Benchmark inputs and their references, computed without importing hott.

* ``stdlib_items`` scans the ten stdlib files for their items and computes
  the value every ``#eval`` must print from Python integer arithmetic.
* ``eval_expressions`` draws closed Nat expressions over the ``nat.hott``
  functions from a seed, each with its value.
* ``bulk_library`` generates a seeded library of small items, each with
  the verdict the checker must reach.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

# README order: each file checks against everything before it.
STDLIB_FILES = (
    "prelude", "nat", "int", "identity", "eqnat",
    "fin", "sigma-id", "equiv", "axioms", "circle",
)


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# The meaning of each nat.hott function, in host arithmetic.
NAT_FUNCTIONS = {
    "add": lambda m, n: m + n,
    "mul": lambda m, n: m * n,
    "exp": lambda m, n: m ** n,
    "min": min,
    "max": max,
    "dist": lambda m, n: abs(m - n),
    "triangle": lambda n: n * (n + 1) // 2,
    "factorial": math.factorial,
    "binom": math.comb,  # zero when k > n, as in nat.hott
    "fib": _fib,
    "div2": lambda n: n // 2,
}

# An expression is a numeral, a bare name, or a head applied to arguments.
Expr = Union[int, str, tuple]


def render(e: Expr) -> str:
    if isinstance(e, (int, str)):
        return str(e)
    head, *args = e
    return " ".join([head] + [f"({render(a)})" if isinstance(a, tuple) else render(a) for a in args])


def parse(text: str) -> Expr:
    """Parse the application syntax used by #eval lines: names, numerals,
    parentheses and juxtaposition."""
    tokens = re.findall(r"\(|\)|[A-Za-z_][A-Za-z0-9_'-]*|\d+", text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"cannot read expression {text!r}")
    pos = 0

    def atom() -> Expr:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            e = spine()
            if tokens[pos] != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            pos += 1
            return e
        return int(tok) if tok.isdigit() else tok

    def spine() -> Expr:
        parts = [atom()]
        while pos < len(tokens) and tokens[pos] != ")":
            parts.append(atom())
        return parts[0] if len(parts) == 1 else tuple(parts)

    e = spine()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return e


def _fin_value(e: Expr, size: int) -> int:
    """Index of an element of ``Fin size``, the way fin.hott builds them:
    ``Fin (k+1) = Fin k + Unit``, so ``inr star`` is the top element."""
    if isinstance(e, tuple):
        head, *args = e
        if head == "inr" and args == ["star"]:
            return size - 1
        if head == "inl":
            return _fin_value(args[0], size - 1)
        if head == "fin-zero" and args[0] + 1 == size:
            return 0
        if head == "fin-succ" and args[0] == size:
            return (_fin_value(args[1], size) + 1) % size
    raise ValueError(f"no reference for Fin {size} element {render(e)!r}")


def value(e: Expr) -> int:
    """The natural number an expression denotes."""
    if isinstance(e, int):
        return e
    if isinstance(e, tuple):
        head, *args = e
        if head == "iota":
            return _fin_value(args[1], args[0])
        if head in NAT_FUNCTIONS:
            return NAT_FUNCTIONS[head](*(value(a) for a in args))
    raise ValueError(f"no reference for {render(e)!r}")


def constructor_form(n: int) -> str:
    """How a numeral prints without sugar: ``succ (succ zero)`` for 2."""
    if n == 0:
        return "zero"
    return "succ (" * (n - 1) + "succ zero" + ")" * (n - 1)


# --------------------------------------------------------------------------
# stdlib

_ITEM_START = re.compile(r"(def|postulate|#check|#eval|#assert-eq|#assert-neq|#fail)\b")


@dataclass(frozen=True)
class StdlibItem:
    path: str
    kind: str
    text: str
    expected: Optional[str]  # the line an #eval prints


def stdlib_items(root: Path) -> list[StdlibItem]:
    """Every item of the stdlib, in checking order.  An item starts at
    column 0 with a keyword or directive and runs to the next one."""
    items: list[StdlibItem] = []
    for name in STDLIB_FILES:
        path = f"stdlib/{name}.hott"
        lines = (root / path).read_text(encoding="utf-8").splitlines()
        starts = [i for i, line in enumerate(lines) if _ITEM_START.match(line)]
        for k, i in enumerate(starts):
            end = starts[k + 1] if k + 1 < len(starts) else len(lines)
            body = " ".join(line.split("--")[0] for line in lines[i:end]).strip()
            kind = _ITEM_START.match(body).group(1)
            expected = None
            if kind == "#eval":
                expected = str(value(parse(body[len("#eval"):])))
            items.append(StdlibItem(path, kind, body, expected))
    return items


# --------------------------------------------------------------------------
# eval

# Each slot is (function, base arguments, jitter).  A slot yields two
# expressions whose jittered arguments move in opposite directions from
# the base, so a pass costs nearly the same on every seed.  A base
# argument that is itself an expression (a fixed, steep core such as
# ``factorial 5``) is never jittered.  Sizes put each expression between
# about 1 and 500 ms of kernel work.
EVAL_SLOTS = (
    # cheap
    ("add", (10, 10), (5, 3)),
    ("add", (30, 40), (10, 5)),
    ("add", (5, 80), (3, 8)),
    ("add", (60, 120), (10, 10)),
    ("add", (20, 25), (5, 5)),
    ("mul", (3, 4), (1, 1)),
    ("mul", (5, 6), (1, 1)),
    ("mul", (7, 8), (2, 1)),
    ("mul", (4, 12), (1, 2)),
    ("triangle", (6,), (2,)),
    ("triangle", (10,), (2,)),
    ("triangle", (14,), (2,)),
    ("div2", (12,), (3,)),
    ("div2", (20,), (3,)),
    ("div2", (30,), (4,)),
    ("min", (6, 8), (2, 2)),
    ("min", (10, 7), (2, 2)),
    ("max", (8, 6), (2, 2)),
    ("max", (12, 9), (2, 2)),
    ("dist", (9, 4), (2, 2)),
    ("dist", (5, 13), (2, 2)),
    ("add", (("exp", 2, 3), 10), (0, 5)),
    ("add", (("factorial", 3), 12), (0, 5)),
    ("add", (("fib", 5), 14), (0, 5)),
    ("add", (("binom", 4, 2), 16), (0, 5)),
    # medium
    ("add", (150, 300), (20, 20)),
    ("add", (200, 400), (20, 30)),
    ("mul", (12, 12), (2, 2)),
    ("mul", (15, 18), (2, 2)),
    ("mul", (20, 10), (2, 2)),
    ("triangle", (18,), (2,)),
    ("triangle", (22,), (2,)),
    ("div2", (50,), (5,)),
    ("div2", (70,), (5,)),
    ("min", (25, 30), (3, 3)),
    ("max", (30, 25), (3, 3)),
    ("dist", (20, 35), (3, 3)),
    ("add", (("exp", 2, 5), 20), (0, 8)),
    ("add", (("factorial", 4), 22), (0, 8)),
    ("add", (("fib", 8), 24), (0, 8)),
    ("add", (("binom", 5, 2), 26), (0, 8)),
    # heavy
    ("mul", (25, 25), (2, 2)),
    ("triangle", (35,), (2,)),
    ("div2", (120,), (6,)),
    ("min", (40, 40), (3, 3)),
    ("max", (40, 45), (3, 3)),
    ("add", (("exp", 3, 4), 30), (0, 10)),
    ("add", (("factorial", 5), 32), (0, 10)),
    ("add", (("fib", 10), 34), (0, 10)),
    ("add", (("binom", 7, 3), 36), (0, 10)),
)


@dataclass(frozen=True)
class EvalItem:
    text: str
    value: int


def eval_expressions(seed: int) -> list[EvalItem]:
    """Two distinct expressions per slot, in a seeded order."""
    rng = random.Random(seed)
    seen: set[str] = set()
    items: list[EvalItem] = []
    for fn, base, jitter in EVAL_SLOTS:
        while True:
            d = [rng.randint(-j, j) for j in jitter]
            pair = [
                (fn, *(b if isinstance(b, tuple) else b + sign * x for b, x in zip(base, d)))
                for sign in (1, -1)
            ]
            texts = [render(e) for e in pair]
            if texts[0] != texts[1] and not seen.intersection(texts):
                break
        seen.update(texts)
        items.extend(EvalItem(t, value(e)) for t, e in zip(texts, pair))
    rng.shuffle(items)
    return items


# --------------------------------------------------------------------------
# bulk

BULK_FILES = 8
BULK_ITEMS_PER_FILE = 625

# Share of each item kind, in items per 20.
_BULK_MIX = (
    ("def", 7),        # Nat -> Nat definitions chaining earlier functions
    ("combinator", 2),  # polymorphic combinators
    ("postulate", 2),
    ("check", 3),
    ("assert-eq", 4),  # eta: \x. f x == f
    ("fail", 2),       # type-mismatch or unbound-identifier
)


@dataclass(frozen=True)
class BulkItem:
    kind: str
    text: str
    name: Optional[str]  # the declared name, for def/combinator/postulate
    rule: Optional[str]  # the rejection rule, for fail


@dataclass(frozen=True)
class BulkLibrary:
    files: tuple[tuple[str, tuple[BulkItem, ...]], ...]  # (file name, items)

    @property
    def items(self) -> list[BulkItem]:
        return [item for _, items in self.files for item in items]

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for item in self.items:
            key = f"fail:{item.rule}" if item.kind == "fail" else item.kind
            counts[key] = counts.get(key, 0) + 1
        return counts

    def texts(self) -> list[tuple[str, str]]:
        return [(name, "\n".join(item.text for item in items) + "\n") for name, items in self.files]


def _combinator(name: str, k: int, shape: int) -> str:
    """A polymorphic combinator over ``A`` with ``k`` applications."""
    if shape == 0:  # iterate f k times
        body = "x"
        for _ in range(k):
            body = f"f ({body})"
        return (f"def {name} : (A : Type 0) -> (A -> A) -> A -> A\n"
                f"  := \\(A : Type 0). \\(f : A -> A). \\(x : A). {body}")
    if shape == 1:  # compose g after f, k times g
        body = "f x"
        for _ in range(k):
            body = f"g ({body})"
        return (f"def {name} : (A : Type 0) -> (B : Type 0) -> (B -> B) -> (A -> B) -> A -> B\n"
                f"  := \\(A : Type 0). \\(B : Type 0). \\(g : B -> B). \\(f : A -> B). \\(x : A). {body}")
    # constant in the k-th of k+1 arguments
    binders = " ".join(f"\\(y{i} : A)." for i in range(k + 1))
    arrows = " -> ".join(["A"] * (k + 2))
    return f"def {name} : (A : Type 0) -> {arrows}\n  := \\(A : Type 0). {binders} y{k}"


def bulk_library(seed: int) -> BulkLibrary:
    """A library of ``BULK_FILES`` files with ``BULK_ITEMS_PER_FILE`` items
    each.  Every file has the same mix of kinds; the seed picks names,
    references to earlier functions, numerals and the order of items."""
    rng = random.Random(seed)
    funs: list[str] = []      # Nat -> Nat, defined or postulated
    iterators: list[str] = []  # combinators of shape 0: (A : Type 0) -> (A -> A) -> A -> A
    serial = 0

    def fresh(prefix: str) -> str:
        nonlocal serial
        serial += 1
        return f"{prefix}{serial}"

    def nat_term(var: str, depth: int) -> str:
        """A Nat-valued term over ``var`` that applies earlier functions."""
        term = var
        for _ in range(depth):
            pick = rng.random()
            f = rng.choice(funs)
            if pick < 0.6:
                term = f"{f} ({term})"
            elif pick < 0.8:
                term = f"succ ({f} ({term}))"
            else:
                term = f"{f} (succ ({term}))"
        return term

    per_round = sum(n for _, n in _BULK_MIX)
    files = []
    for index in range(BULK_FILES):
        kinds = [kind for kind, n in _BULK_MIX for _ in range(n)] * (BULK_ITEMS_PER_FILE // per_round)
        kinds += [kind for kind, _ in _BULK_MIX][: BULK_ITEMS_PER_FILE - len(kinds)]
        rng.shuffle(kinds)
        if index == 0:  # the chain needs functions to start from
            kinds = ["postulate", "postulate"] + kinds[2:]
        items = []
        for kind in kinds:
            if kind == "postulate":
                name = fresh("p")
                items.append(BulkItem(kind, f"postulate {name} : Nat -> Nat", name, None))
                funs.append(name)
            elif kind == "def":
                name = fresh("f")
                body = nat_term("x", rng.randint(1, 3))
                items.append(BulkItem(kind, f"def {name} : Nat -> Nat\n  := \\(x : Nat). {body}", name, None))
                funs.append(name)
            elif kind == "combinator":
                name = fresh("c")
                shape = rng.randrange(3)
                items.append(BulkItem(kind, _combinator(name, rng.randint(1, 4), shape), name, None))
                if shape == 0:
                    iterators.append(name)
            elif kind == "check":
                if iterators and rng.random() < 0.4:
                    text = f"#check {rng.choice(iterators)} Nat {rng.choice(funs)} {rng.randint(0, 9)} : Nat"
                else:
                    text = f"#check {nat_term(str(rng.randint(0, 9)), rng.randint(1, 3))} : Nat"
                items.append(BulkItem(kind, text, None, None))
            elif kind == "assert-eq":
                f = rng.choice(funs)
                items.append(BulkItem(kind, f"#assert-eq (\\(x : Nat). {f} x) == {f} : Nat -> Nat", None, None))
            else:
                name = fresh("bad")
                if rng.random() < 0.5:
                    f = rng.choice(funs)
                    text = rng.choice((
                        f"#fail def {name} : Nat := {f}",
                        f"#fail #check {f} {rng.randint(0, 9)} : Nat -> Nat",
                        f"#fail def {name} : Nat -> Nat := \\(x : Nat). {f}",
                    ))
                    items.append(BulkItem(kind, text, None, "type-mismatch"))
                else:
                    body = nat_term(f"missing{serial} x", rng.randint(0, 2))
                    text = f"#fail def {name} : Nat -> Nat := \\(x : Nat). {body}"
                    items.append(BulkItem(kind, text, None, "unbound-identifier"))
        files.append((f"bulk{index:02d}.hott", tuple(items)))
    return BulkLibrary(tuple(files))
