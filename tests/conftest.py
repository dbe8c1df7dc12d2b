from __future__ import annotations

import functools
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hott.loader import ProcessOptions, process_module
from hott.parser import parse
from hott.terms import EMPTY_SIGNATURE, Signature

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from differential import STDLIB, STDLIB_ORDER  # noqa: E402  (the one list of the stdlib's files)


def stdlib_paths() -> list[Path]:
    return [STDLIB / name for name in STDLIB_ORDER]


def run(*args: str) -> subprocess.CompletedProcess:
    """``hott ARGS`` in a fresh interpreter, from the repository root."""
    return subprocess.run(
        [sys.executable, "-m", "hott.cli", *args], capture_output=True, cwd=ROOT, text=True
    )


def load_stdlib(collect_output: list[str] | None = None) -> Signature:
    sig = EMPTY_SIGNATURE
    sink = collect_output.append if collect_output is not None else (lambda line: None)
    opts = ProcessOptions(out=sink)
    for path in stdlib_paths():
        sig = process_module(sig, parse(path.read_text(), path.name), opts)
    return sig


REJECTED = re.compile(r"#fail: rejected as expected \[(.*)\]")


def fail_rules(path: Path) -> dict[int, str]:
    """``hott check --trace`` of one file: the line of each ``#fail`` item
    -> the rule it was rejected with, which the trace reports just before
    the item's own line.  An accepted ``#fail`` raises ``FailExpected``."""
    lines: list[str] = []
    process_module(EMPTY_SIGNATURE, parse(path.read_text(), path.name), ProcessOptions(trace=lines.append))
    return {int(after.split(":")[1]): m[1] for line, after in zip(lines, lines[1:])
            if (m := REJECTED.fullmatch(line))}


@pytest.fixture(scope="session")
def stdlib_sig() -> Signature:
    return load_stdlib()


def flat(test):
    """Mark a test on terms far deeper than the recursion limit: if it
    recurses past the limit, it fails at once with a one-line message.
    pytest's own report of a ``RecursionError`` compares the locals of
    every frame, which on such terms takes hours."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        try:
            return test(*args, **kwargs)
        except RecursionError:
            pass
        raise AssertionError(f"{test.__name__} recursed past the interpreter's limit") from None

    return run
