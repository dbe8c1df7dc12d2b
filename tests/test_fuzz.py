"""Fuzzed front end: whatever a file holds, ``hott check`` ends with an
exit code from 0 to 3 and at most one diagnostic line, never a traceback.
That holds for nesting of any depth too: past the interpreter's recursion
limit, the parser reports a parse error and the checker a ``[max-depth]``
diagnostic at the item."""

from __future__ import annotations

import contextlib
import io
import random
import re
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import STDLIB, run

from hott import cli
from hott.parser import DIRECTIVES, KEYWORDS, PUNCT

# Words a .hott file is made of, plus stray characters the lexer rejects.
SOUP = sorted(KEYWORDS) + sorted(DIRECTIVES) + PUNCT + [
    "x", "y", "A", "id", "add", "mul", "const", "_", "0", "1", "2", "10", "300",
    "--", "\n", "\t", "@", "#", "#bogus", "é", "\x00", "\r\n",
]
WORD_OR_SPACE = re.compile(r"(\s+)")


def run_check(*texts: str) -> tuple[int, str]:
    """``hott check`` on files holding ``texts``, in order: exit code and
    stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"f{i}.hott"
            path.write_text(text, encoding="utf-8", newline="")
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", *paths])
    return code, err.getvalue()


def assert_clean_outcome(code: int, stderr: str) -> None:
    assert code in (0, 1, 2, 3), (code, stderr)
    assert "Traceback" not in stderr and "internal error" not in stderr, stderr
    lines = stderr.splitlines()
    if code == 0:
        assert lines == [], stderr
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr


def mutate(text: str, rng: random.Random) -> str:
    """Delete, duplicate, swap, replace or insert whole words, one to three
    times; whitespace between words is kept.  A replacement is another
    word of the same text, so that more mutants get past the parser."""
    parts = WORD_OR_SPACE.split(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(parts))
        j = min(len(parts), i + rng.randint(1, 12))
        op = rng.randrange(5)
        if op == 0:
            del parts[i:j]
        elif op == 1:
            parts[i:i] = parts[i:j]
        elif op == 2:
            k = rng.randrange(len(parts))
            parts[i], parts[k] = parts[k], parts[i]
        elif op == 3:
            parts[i] = rng.choice(parts)
        else:
            parts.insert(i, f" {rng.choice(SOUP)} ")
        if not parts:
            parts = [""]
    return "".join(parts)


@seed(2026)
@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SOUP), st.text(max_size=3)), max_size=40),
       st.sampled_from([" ", "", "\n"]))
def test_token_soup(words, sep):
    assert_clean_outcome(*run_check(sep.join(words)))


@seed(2026)
@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["prelude", "nat"]))
def test_mutated_stdlib(rng_seed, name):
    prelude = (STDLIB / "prelude.hott").read_text(encoding="utf-8")
    rng = random.Random(rng_seed)
    if name == "prelude":
        code, stderr = run_check(mutate(prelude, rng))
    else:
        nat = (STDLIB / "nat.hott").read_text(encoding="utf-8")
        code, stderr = run_check(prelude, mutate(nat, rng))
    assert_clean_outcome(code, stderr)


# -- deep nesting -------------------------------------------------------------
# Seeded generators of well-typed items nested ``depth`` deep.  Each returns
# the text of a file whose last item holds the nesting.


def _space(rng: random.Random) -> str:
    return rng.choice([" ", "", "\n"])


def deep_parens(rng: random.Random, depth: int) -> str:
    atom = rng.choice(["zero", "0", "7"])
    return "def x : Nat := " + "".join("(" + _space(rng) for _ in range(depth)) + atom + ")" * depth + "\n"


def deep_lambdas(rng: random.Random, depth: int) -> str:
    names = [f"{rng.choice('xyz')}{i}" for i in range(depth)]
    ty = "".join(rng.choice(["Nat -> ", f"({n} : Nat) -> "]) for n in names) + "Nat"
    body = "".join(f"\\({n} : Nat).{_space(rng)}" for n in names) + rng.choice(names)
    return f"def f : {ty} :=\n  {body}\n"


def deep_apps(rng: random.Random, depth: int) -> str:
    args = " ".join(rng.choice(["zero", "0", "(succ zero)", "3"]) for _ in range(depth))
    return f"postulate g : {'Nat -> ' * depth}Nat\ndef y : Nat := g {args}\n"


def deep_succs(rng: random.Random, depth: int) -> str:
    base = rng.choice(["zero", "0", "5"])
    return "def s : Nat := " + "succ (" * (depth - 1) + f"succ {base}" + ")" * (depth - 1) + "\n"


def deep_arrows(rng: random.Random, depth: int) -> str:
    arrows = "".join(rng.choice(["Nat -> ", f"(x{i} : Nat) -> "]) for i in range(depth))
    return f"postulate g : {arrows}Nat\n"


def deep_sigmas(rng: random.Random, depth: int) -> str:
    return "postulate g : " + "".join(f"Sig (x{i} : Nat),{_space(rng)}" for i in range(depth)) + "Nat\n"


NESTINGS = {"parens": deep_parens, "lambdas": deep_lambdas, "apps": deep_apps, "succs": deep_succs,
            "arrows": deep_arrows, "sigmas": deep_sigmas}


@pytest.mark.parametrize("depth", [10, 100, 300, 1_000, 5_000])
@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_deep_nesting_ends_cleanly(kind, depth):
    for rng_seed in range(2):
        code, stderr = run_check(NESTINGS[kind](random.Random(rng_seed), depth))
        assert_clean_outcome(code, stderr)
        # a well-typed item fails only for its depth
        expected = {0: "", 1: "[max-depth]", 2: "nested too deeply"}
        assert code in expected and expected[code] in stderr, stderr
        assert code == 0 or depth > 10, stderr


def check_file(tmp_path: Path, text: str) -> subprocess.CompletedProcess:
    """``hott check`` on ``text`` in a fresh interpreter, at the interpreter's
    default recursion limit."""
    path = tmp_path / "deep.hott"
    path.write_text(text, encoding="utf-8")
    return run("check", str(path))


# The depth each kind of nesting is guaranteed at the interpreter's
# default recursion limit.  A type nested in its last component, as a
# chain of arrows or of ``Sig`` binders is, costs the checker no depth.
FLOORS = {"parens": 100, "lambdas": 300, "apps": 300, "succs": 100, "arrows": 3_000, "sigmas": 1_000}


@pytest.mark.parametrize("kind", sorted(FLOORS))
def test_depth_floor_checks(tmp_path, kind):
    proc = check_file(tmp_path, NESTINGS[kind](random.Random(0), FLOORS[kind]))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_too_deep_lambda_is_max_depth_at_its_item(tmp_path):
    text = "-- too deep for the kernel\n\n" + deep_lambdas(random.Random(0), 5_000)
    proc = check_file(tmp_path, text)
    assert proc.returncode == 1
    assert proc.stderr == "error: 3:1: [max-depth] term nesting exceeds the interpreter's recursion limit\n"


def test_too_deep_is_no_rejection_for_fail(tmp_path):
    proc = check_file(tmp_path, "#fail " + deep_lambdas(random.Random(0), 5_000))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: 1:1: [max-depth] ")


def test_too_deep_eval_is_max_depth():
    lambdas = "".join(f"\\(x{i} : Nat). " for i in range(5_000)) + "x0"
    proc = run("eval", "--expr", lambdas)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: 1:1: [max-depth] ")


def test_too_deep_parens_is_parse_error(tmp_path):
    proc = check_file(tmp_path, deep_parens(random.Random(0), 5_000))
    assert proc.returncode == 2
    assert_clean_outcome(proc.returncode, proc.stderr)
    assert "nested too deeply" in proc.stderr
