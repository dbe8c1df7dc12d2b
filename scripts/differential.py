#!/usr/bin/env python3
"""Differential gate: the kernel of a git revision against the working tree's.

    python scripts/differential.py REV

exports ``src/`` at ``REV`` with ``git archive`` into a temporary
directory and runs the same seeded probes against that tree's ``hott``
package and against this tree's, each in its own interpreter.  The inputs
(the stdlib, ``tests/negative/``, the generators in ``tests/enumeration.py``
and ``perfbench/corpus.py``, and the seeds below) come from this tree, so
only the program differs.  It prints the first probe whose result
differs and exits 1 on any difference; it exits 0 when every probe
agrees, and 2 when ``REV`` cannot be exported.

A probe's result is its value or its error, with the reduction steps it
used.  The families:

- ``cli``: ``hott check`` on the stdlib under four flag sets and on the
  stdlib plus each ``tests/negative/`` file under three, and ``hott eval``
  of nine expressions at three budgets over the definitions of ``prelude``
  and ``nat``, and with and without ``--trace`` over those two files,
  pragmas included: stdout, stderr (times masked) and exit code.
- ``front``: token soup and grammar-directed text through
  ``parse_expression`` + ``resolve_expr``, and every stdlib record.
- ``kernel``: ``infer`` and ``check`` with full diagnostics on the
  criterion-5 population, on ``random_scoped_term`` terms and on every
  stdlib declaration; and spines: each stdlib definition applied to its
  first k arguments, for every k up to its arity, each argument a fresh
  postulate of the domain its type has there, with ``infer`` and ``whnf``
  with ``unfold`` of each.
- ``reduce``: first, ``whnf`` without ``unfold`` of each stdlib
  definition ``c : T`` forced through a cell, ``(\\(x : T). x) c``, which
  must leave ``c`` folded; then ``whnf`` (with and without ``unfold``),
  ``normalize`` and ``conv`` on the same populations as ``kernel`` and on
  stdlib arithmetic; and a budget ladder: ``normalize`` and ``whnf`` with
  ``unfold`` of ten arithmetic spines at every ``max_steps`` from 0 to the
  steps each takes, so that every point where a budget runs out is
  compared.
- ``fail``: each ``tests/negative/`` file over the stdlib, its other
  items run with ``execute``: for each ``#fail`` item, the rule that
  ``attempt_item`` reports for the item it wraps.
- ``bulk``: ``hott check --trace`` on the benchmark's seed-7 library of
  5,000 small items, from ``perfbench/corpus.py``: one probe per line of
  stdout and stderr (times masked), and one for the exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parents[1]
STDLIB = ROOT / "stdlib"
NEGATIVE = ROOT / "tests" / "negative"
STDLIB_ORDER = [
    "prelude.hott", "nat.hott", "int.hott", "identity.hott", "eqnat.hott",
    "fin.hott", "sigma-id.hott", "equiv.hott", "axioms.hott", "circle.hott",
]

SOUP_PROBES = 20_000
TEXT_PROBES = 10_000
RANDOM_TERMS = 6_000
PAIR_CAP = 12  # per-type sample width for conv on the population
RANDOM_MAX_STEPS = 2_000
# stdlib function -> the bounds of its two numeral operands
ARITHMETIC = {"add": (60, 60), "min": (60, 60), "max": (60, 60), "dist": (60, 60),
              "mul": (30, 5), "exp": (4, 5), "binom": (10, 4)}
LADDER_SPINES = 10  # arithmetic spines run at every budget up to their total

# Words of the token soup: keywords, punctuation, names declared in
# ``NAMES`` and two that are not, and the printing placeholder; then, for
# the lexer, a comment, blanks, bad directives, stray characters and words
# that border on a name.
SOUP = [
    "\\", "(", ")", ":", ".", ",", "->", "+", "=", "in", "Sig", "Type", "Nat", "Unit",
    "Empty", "zero", "succ", "star", "refl", "pair", "inl", "inr", "eta", "tree", "Trunc",
    "W", "Id", "ind-nat", "ind-sigma", "ind-unit", "ind-empty", "ind-sum", "ind-eq",
    "ind-w", "ind-trunc", "0", "1", "3", "x", "y", "add", "c", "undeclared", "_",
    "--", "\t", "\r\n", "#", "#bogus", "@", "é", "a-b", "a--b", "12ab",
]
NAMES = {"add", "c", "x"}
FORM_ARITY = {
    "succ": 1, "pair": 2, "inl": 1, "inr": 1, "eta": 1, "tree": 2, "Trunc": 1, "W": 2,
    "Id": 3, "ind-nat": 4, "ind-sigma": 3, "ind-unit": 3, "ind-empty": 2, "ind-sum": 4,
    "ind-eq": 5, "ind-w": 3, "ind-trunc": 4,
}

EVAL_EXPRS = [
    "add 2 3", "mul 3 4", "exp 2 5", "factorial 4", "fib 8", "binom 6 3",
    "\\(n : Nat). add n 1", "pair zero star", "add 2",
]
EVAL_BUDGETS = ["30", "1000", "100000"]  # each definition checks within 20 steps
TIMES = re.compile(r"\(\d+\.\d+ ms\)")
BULK_SEED = 7


# ---------------------------------------------------------------------------
# The probes, run in a worker interpreter against one tree's ``hott``.  They
# import ``hott`` only when they run, so the driver loads neither tree's.

Probe = tuple[str, str]  # (probe id, result)


def _show(x) -> str:
    """``repr``, except that a chain of ``Succ`` prints as ``Succ^n(...)``,
    so that long numerals print flat."""
    try:
        return _repr(x)
    except RecursionError:
        return f"<too deep to print: {type(x).__name__}>"


def _repr(x) -> str:
    if type(x).__name__ == "Context":  # cons cells: the entries, oldest first
        newest_first = []
        for _ in range(len(x)):
            newest_first.append(x.last)
            x = x.prefix
        return _repr(newest_first[::-1])
    if hasattr(type(x), "__match_args__") and not isinstance(x, type):  # a term or a dataclass
        n = 0
        while type(x).__name__ == "Succ":
            n, x = n + 1, x.pred
        args = ", ".join(f"{name}={_repr(getattr(x, name))}" for name in type(x).__match_args__)
        return f"Succ^{n}({type(x).__name__}({args}))" if n else f"{type(x).__name__}({args})"
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(_repr(y) for y in x) + ")"
    return repr(x)


def _outcome(fn: Callable, *args, max_steps: Optional[int] = None) -> str:
    """What ``fn(*args, budget)`` returns or raises, with the steps it used."""
    from hott.check import CheckError
    from hott.reduce import BudgetExhausted, ReductionBudget

    budget = ReductionBudget() if max_steps is None else ReductionBudget(max_steps=max_steps)
    try:
        value = fn(*args, budget)
    except CheckError as e:
        return f"CheckError {_show_check_error(e)} steps={budget.steps_used}"
    except BudgetExhausted as e:
        return f"BudgetExhausted {e.steps}"
    except RecursionError:
        return "RecursionError"
    except Exception as e:  # a kernel bug is a result too
        return f"{type(e).__name__}: {e}"
    return f"ok {_show(value)} steps={budget.steps_used}"


def _show_check_error(e) -> str:
    """A ``CheckError``'s fields."""
    names = ("rule", "message", "found", "expected", "context", "span")
    return ", ".join(f"{name}={_show(getattr(e, name))}" for name in names)


def _run_cli(argv: list[str]) -> str:
    from hott import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return json.dumps([code, out.getvalue(), TIMES.sub("(- ms)", err.getvalue())])


def _stdlib_paths() -> list[str]:
    return [str(STDLIB / name) for name in STDLIB_ORDER]


def _negatives() -> list[Path]:
    return sorted(NEGATIVE.glob("*.hott"))


def cli_probes() -> Iterator[Probe]:
    stdlib = _stdlib_paths()
    for flags in ([], ["--trace"], ["--print-normal-forms"], ["--max-steps", "1000"]):
        argv = ["check", *flags, *stdlib]
        yield " ".join(argv[:1] + flags), _run_cli(argv)
    for path in _negatives():
        for flags in ([], ["--trace"], ["--max-steps", "60000"]):
            argv = ["check", *flags, *stdlib, str(path)]
            yield " ".join(["check", *flags, path.name]), _run_cli(argv)
    with tempfile.TemporaryDirectory() as tmp:  # the budget then bounds the expression alone
        definitions = Path(tmp) / "definitions.hott"
        definitions.write_text("".join(_definitions(Path(path)) for path in stdlib[:2]), encoding="utf-8")
        for expr in EVAL_EXPRS:
            for budget in EVAL_BUDGETS:
                argv = ["eval", "--print-normal-forms", "--max-steps", budget, "--expr", expr, str(definitions)]
                yield f"eval {expr!r} {budget}", _run_cli(argv)
    for expr in EVAL_EXPRS:  # the files' pragmas run too: silenced, and traced under --trace
        for flags in ([], ["--trace"]):
            argv = ["eval", *flags, "--expr", expr, *stdlib[:2]]
            yield " ".join(["eval", *flags, repr(expr), "prelude nat"]), _run_cli(argv)


def _definitions(path: Path) -> str:
    """The text of ``path`` without its pragmas.  Each stdlib item starts
    in column 1 and continues on indented lines."""
    kept, keep = [], True
    for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
        if line[:1] not in ("", " ", "\n", "-"):
            keep = not line.startswith("#")
        if keep:
            kept.append(line)
    return "".join(kept)


def _soup_text(rng: random.Random) -> str:
    return " ".join(rng.choice(SOUP) for _ in range(rng.randrange(1, 12)))


def _grammar_text(rng: random.Random, depth: int, scope: list[str]) -> str:
    """Mostly well-formed text over every former, binder and sugar; names
    come from ``scope``, ``NAMES`` and a few undeclared ones."""
    if depth == 0 or rng.random() < 0.25:
        leaves = scope + ["zero", "Nat", "Unit", "3", "star", "refl", "succ", "Type 0", "add", "c", "nope", "_"]
        return rng.choice(leaves)
    sub = lambda s=scope: _grammar_text(rng, depth - 1, s)  # noqa: E731
    var = rng.choice("xyz")
    kind = rng.randrange(9)
    if kind == 0:
        return f"\\({var} : {sub()}). {sub(scope + [var])}"
    if kind == 1:
        return f"({var} : {sub()}) -> {sub(scope + [var])}"
    if kind == 2:
        return f"Sig ({var} : {sub()}), {sub(scope + [var])}"
    if kind == 3:
        return f"({sub()}) -> {sub()}"
    if kind == 4:
        return f"({sub()}) ({sub()})"
    if kind == 5:
        return f"({sub()}) = ({sub()}) in ({sub()})"
    if kind == 6:
        return f"({sub()}) + ({sub()})"
    head = rng.choice(sorted(FORM_ARITY))
    return " ".join([head] + [f"({sub()})" for _ in range(FORM_ARITY[head])])


def _resolved(text: str) -> str:
    from hott.parser import parse_expression, resolve_expr

    try:
        return "ok " + _show(resolve_expr(parse_expression(text), [], NAMES))
    except Exception as e:
        return f"{type(e).__name__}: {e}"


# Class name -> the kind of item it is.
_KINDS = {
    "DefItem": "def", "PostulateItem": "postulate", "PragmaCheck": "#check",
    "PragmaEval": "#eval", "PragmaAssert": "#assert", "PragmaFail": "#fail",
}
# Field -> the name it is compared under: a pragma's expression is its term.
_TERM_FIELDS = {"expr": "term", "lhs": "lhs", "rhs": "rhs", "body": "body", "type": "type"}


def _kind(record) -> str:
    kind = _KINDS[type(record).__name__]
    if kind == "#assert":  # one class for both assertions
        kind += "-eq" if record.equal else "-neq"
    return kind


def _record_terms(record) -> dict:
    """Each resolved term of ``record``, under its field's name in
    ``_TERM_FIELDS``."""
    terms = {}
    for field, shown in _TERM_FIELDS.items():
        value = getattr(record, field, None)
        if value is not None:
            terms[shown] = value.term
    return terms


def _show_record(record) -> str:
    """Kind, name, span and resolved terms; a ``#fail`` record holds an
    unresolved item, shown by its kind."""
    fields = {"name": getattr(record, "name", None), "span": record.span}
    if _kind(record) == "#fail":
        fields["item"] = _kind(record.item)
    else:
        fields.update(_record_terms(record))
    return f"{_kind(record)} " + ", ".join(f"{k}={_show(v)}" for k, v in fields.items())


def _stdlib_records() -> Iterator[tuple[str, object, object]]:
    """Each stdlib record, labelled, with the signature it is resolved in;
    the signature grows as ``hott check`` grows it."""
    from hott.loader import ProcessOptions, execute, resolve
    from hott.parser import parse
    from hott.terms import EMPTY_SIGNATURE

    sig = EMPTY_SIGNATURE
    opts = ProcessOptions(out=lambda line: None)
    for name in STDLIB_ORDER:
        module = parse((STDLIB / name).read_text(encoding="utf-8"), name)
        records = resolve(module, sig)
        for item in module.items:
            record = next(records)
            yield f"{name}:{item.span[0]}", record, sig
            sig = execute(sig, record, opts)


def _stdlib_signature():
    from hott.loader import ProcessOptions, execute

    *_, (_, record, sig) = _stdlib_records()
    return execute(sig, record, ProcessOptions(out=lambda line: None))


def front_probes() -> Iterator[Probe]:
    rng = random.Random(7)
    for i in range(SOUP_PROBES):
        text = _soup_text(rng)
        yield f"soup {i} {text!r}", _resolved(text)
    for i in range(TEXT_PROBES):
        text = _grammar_text(rng, rng.randrange(1, 5), [])
        yield f"text {i} {text!r}", _resolved(text)
    for label, record, _ in _stdlib_records():
        yield f"record {label}", _show_record(record)


def _population() -> list:
    from enumeration import Enumerator

    return Enumerator(max_size=8).population()


def _random_terms() -> Iterator[tuple[int, object]]:
    from enumeration import random_scoped_term

    for seed in range(RANDOM_TERMS):
        rng = random.Random(seed)
        yield seed, random_scoped_term(rng, rng.randrange(0, 3), rng.randrange(1, 31))


def kernel_probes() -> Iterator[Probe]:
    from hott.check import check, infer
    from hott.terms import EMPTY_CONTEXT, EMPTY_SIGNATURE, NAT

    for i, (t, ty) in enumerate(_population()):
        yield f"population {i} infer", _outcome(infer, EMPTY_SIGNATURE, EMPTY_CONTEXT, t)
        yield f"population {i} check", _outcome(check, EMPTY_SIGNATURE, EMPTY_CONTEXT, t, ty)
    ctx = EMPTY_CONTEXT.extend(NAT).extend(NAT)
    for seed, t in _random_terms():
        yield f"random {seed} infer", _outcome(infer, EMPTY_SIGNATURE, ctx, t, max_steps=RANDOM_MAX_STEPS)
        yield f"random {seed} check", _outcome(check, EMPTY_SIGNATURE, ctx, t, NAT, max_steps=RANDOM_MAX_STEPS)
    for label, record, sig in _stdlib_records():
        terms = _record_terms(record)
        for field, t in terms.items():
            yield f"stdlib {label} {field} infer", _outcome(infer, sig, EMPTY_CONTEXT, t)
        if _kind(record) == "def":
            yield f"stdlib {label} check", _outcome(check, sig, EMPTY_CONTEXT, terms["body"], terms["type"])
    yield from spine_probes()


def spine_probes() -> Iterator[Probe]:
    """Each stdlib definition applied to its first k arguments, for every k;
    argument i is a postulate ``arg-i`` of the domain the type has there."""
    from hott.check import infer
    from hott.reduce import ReductionBudget, whnf
    from hott.terms import EMPTY_CONTEXT, App, Const, Declaration, Pi, subst

    sig = _stdlib_signature()
    for decl in sig.declarations:
        if decl.body is None:
            continue
        t, ty, at, k = Const(decl.name), decl.type, sig, 0
        while True:
            yield f"spine {decl.name} {k} infer", _outcome(infer, at, EMPTY_CONTEXT, t)
            yield f"spine {decl.name} {k} whnf-unfold", _outcome(_whnf_unfold, at, t)
            ty = whnf(at, ty, ReductionBudget(), unfold=True)
            if not isinstance(ty, Pi):
                break
            arg = Const(f"arg-{k}")
            at = at.extend(Declaration(arg.name, ty.domain, None))
            t, ty, k = App(t, arg), subst(ty.codomain, 0, arg), k + 1


def _whnf_unfold(sig, t, budget):
    from hott.reduce import whnf

    return whnf(sig, t, budget, unfold=True)


def _reductions(sig, label: str, t, max_steps: Optional[int] = None) -> Iterator[Probe]:
    from hott.reduce import normalize, whnf

    yield f"{label} whnf", _outcome(whnf, sig, t, max_steps=max_steps)
    yield f"{label} whnf-unfold", _outcome(_whnf_unfold, sig, t, max_steps=max_steps)
    yield f"{label} normalize", _outcome(normalize, sig, t, max_steps=max_steps)


def reduce_probes() -> Iterator[Probe]:
    from hott.reduce import ReductionBudget, conv, normalize, whnf
    from hott.terms import EMPTY_SIGNATURE, App, Const, Lambda, Var, numeral

    sig = _stdlib_signature()
    for decl in sig.declarations:  # first, so that a run limited to a few probes per family has some
        if decl.body is not None:
            forced = App(Lambda(decl.type, Var(0)), Const(decl.name))
            yield f"forced {decl.name} whnf", _outcome(whnf, sig, forced)
    buckets: dict = {}
    for i, (t, ty) in enumerate(_population()):
        yield from _reductions(EMPTY_SIGNATURE, f"population {i}", t)
        buckets.setdefault(ty, []).append((i, t))
    for ty in buckets.values():
        for i, a in ty[:PAIR_CAP]:
            for j, b in ty[:PAIR_CAP]:
                yield f"population conv {i} {j}", _outcome(conv, EMPTY_SIGNATURE, a, b)
    previous = None
    for seed, t in _random_terms():
        yield from _reductions(EMPTY_SIGNATURE, f"random {seed}", t, RANDOM_MAX_STEPS)
        yield f"random {seed} conv self", _outcome(conv, EMPTY_SIGNATURE, t, t, max_steps=RANDOM_MAX_STEPS)
        if previous is not None:
            yield f"random {seed} conv previous", _outcome(
                conv, EMPTY_SIGNATURE, t, previous, max_steps=RANDOM_MAX_STEPS)
        previous = t
    rng = random.Random(11)
    for i in range(200):
        name = rng.choice(sorted(ARITHMETIC))
        a, b = (rng.randrange(bound) for bound in ARITHMETIC[name])
        t = App(App(Const(name), numeral(a)), numeral(b))
        yield from _reductions(sig, f"arith {i} {name} {a} {b}", t)
        for k, other in enumerate((numeral(a + b), numeral(a), App(App(Const(name), numeral(b)), numeral(a)))):
            yield f"arith {i} conv {k}", _outcome(conv, sig, t, other)
    rng = random.Random(13)
    for i in range(LADDER_SPINES):
        name = rng.choice(sorted(ARITHMETIC))
        a, b = (rng.randrange(bound) for bound in ARITHMETIC[name])
        t = App(App(Const(name), numeral(a)), numeral(b))
        for op, fn in (("normalize", normalize), ("whnf-unfold", _whnf_unfold)):
            budget = ReductionBudget()
            fn(sig, t, budget)
            for max_steps in range(budget.steps_used + 1):
                yield f"ladder {i} {name} {a} {b} {op} {max_steps}", _outcome(fn, sig, t, max_steps=max_steps)


def fail_probes() -> Iterator[Probe]:
    from hott.loader import ProcessOptions, attempt_item, execute, resolve
    from hott.parser import PragmaFail, parse

    stdlib, opts = _stdlib_signature(), ProcessOptions(out=lambda line: None)
    for path in _negatives():
        sig = stdlib
        module = parse(path.read_text(encoding="utf-8"), path.name)
        for item in resolve(module, sig):
            if isinstance(item, PragmaFail):
                yield f"fail {path.name}:{item.span[0]}", str(attempt_item(sig, item.item, opts))
            else:
                sig = execute(sig, item, opts)


def bulk_probes() -> Iterator[Probe]:
    from corpus import bulk_library  # the benchmark's generator; it imports no hott

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, text in bulk_library(BULK_SEED).texts():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
            paths.append(str(Path(tmp) / name))
        code, out, err = json.loads(_run_cli(["check", "--trace", *paths]))
    for stream, text in (("stdout", out), ("stderr", err)):
        for i, line in enumerate(text.replace(tmp + os.sep, "").splitlines()):
            yield f"bulk {stream} {i}", line
    yield "bulk exit", str(code)


FAMILIES = {"cli": cli_probes, "front": front_probes, "kernel": kernel_probes,
            "reduce": reduce_probes, "fail": fail_probes, "bulk": bulk_probes}


def worker(limit: int, out_path: str) -> None:
    """Write every probe's line to ``out_path``: at most ``limit`` per
    family when ``limit`` is positive.  The first line names the ``hott``
    package that ran them."""
    import hott

    with open(out_path, "w", encoding="utf-8") as out:
        out.write(f"hott {Path(hott.__file__).resolve().parent}\n")
        for family, probes in FAMILIES.items():
            for n, (probe, result) in enumerate(probes()):
                if 0 < limit <= n:
                    break
                out.write(f"{family} {probe}\t{result}\n")


# ---------------------------------------------------------------------------
# The driver


def export(rev: str, dest: Path) -> Path:
    """``src/`` at ``rev``, written under ``dest``; the exported ``src``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def run_probes(src: Path, limit: int = 0) -> list[str]:
    """The probe lines of the ``hott`` package under ``src``, from a fresh
    interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "probes.txt"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), str(ROOT / "scripts"), str(ROOT / "tests"), str(ROOT / "perfbench")]))
        code = "import sys, differential; differential.worker(int(sys.argv[1]), sys.argv[2])"
        subprocess.run([sys.executable, "-c", code, str(limit), str(out_path)],
                       cwd=tmp, env=env, check=True)
        lines = out_path.read_text(encoding="utf-8").splitlines()
    ran = lines[0].removeprefix("hott ")
    if Path(ran) != (src / "hott").resolve():
        raise RuntimeError(f"probes meant for {src} ran against {ran}")
    return lines[1:]


def first_difference(old: list[str], new: list[str]) -> Optional[str]:
    """The first probe whose line differs, with both results; None when
    the two runs agree line for line."""
    for a, b in zip(old, new):
        if a != b:
            probe = a.split("\t", 1)[0]
            return f"probe: {probe}\nold: {a[len(probe) + 1:]}\nnew: {b[len(probe) + 1:]}"
    if len(old) != len(new):
        return f"probe counts differ: old {len(old)}, new {len(new)}"
    return None


def compare(old_src: Path, new_src: Path, limit: int = 0) -> tuple[int, Optional[str]]:
    """Run the probes against both trees, each in its own interpreter, at
    the same time: the number of probes and the first difference."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        old, new = pool.map(lambda src: run_probes(src, limit), (old_src, new_src))
    return len(old), first_difference(old, new)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: differential.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old_src = export(argv[0], Path(tmp))
        except subprocess.CalledProcessError as e:
            print(f"cannot export {argv[0]}: {e.stderr.decode().strip()}", file=sys.stderr)
            return 2
        count, difference = compare(old_src, ROOT / "src")
    if difference is not None:
        print(difference)
        return 1
    print(f"{count} probes agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
