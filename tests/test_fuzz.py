"""Fuzzed front end: whatever a file holds, ``hott check`` ends with an
exit code from 0 to 3 and at most one diagnostic line, never a traceback."""

from __future__ import annotations

import contextlib
import io
import random
import re
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings, strategies as st

from conftest import STDLIB

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
