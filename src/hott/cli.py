"""Command-line entry point.

``hott check FILES...`` processes files in the given order, threading one
growing signature, and executes every pragma.  ``hott eval --expr E
FILES...`` runs the files' items with their output suppressed, then runs
``E`` as one ``#eval`` item at ``1:1`` in the resulting signature: its
value prints (Nat-typed results as decimal numerals), and every failure
of ``E`` is located at ``1:1``.  Both run each item through
``loader.process_module``.

Exit codes: 0 success; 1 type, conversion, assertion or budget failure;
2 lexer or parser failure; 3 usage or I/O failure.  An unexpected
exception is an internal error and exits 1.  Results go to stdout,
diagnostics to stderr, one line per failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .loader import ProcessOptions, process_module
from .parser import LexError, ParseError, Parser, PragmaEval, SurfaceModule, parse_expression, tokenize
from .terms import DEFAULT_MAX_STEPS, EMPTY_SIGNATURE, LocatedError


class UsageError(Exception):
    """A bad command line or an input file that cannot be read."""


# The exit code of each failure a run can end in, the first row that
# matches: every other failure of a file or an expression exits 1.
EXIT_CODES: dict[type[Exception], int] = {UsageError: 3, LexError: 2, ParseError: 2, LocatedError: 1}
_FAILURES = tuple(EXIT_CODES)


def _report(e: Exception, err) -> int:
    err(f"error: {e}")
    return next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind))


def _validate(args: argparse.Namespace) -> None:
    if args.command == "check" and not args.paths:
        raise UsageError("check requires at least one file")
    if args.command == "eval" and args.expr is None:
        raise UsageError("eval requires --expr")
    if args.max_steps < 0:
        raise UsageError(f"--max-steps must be at least 0, not {args.max_steps}")
    for path in args.paths:
        if not Path(path).is_file():
            raise UsageError(f"no such file: {path}")


def _parse_file(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"cannot read {path}: not UTF-8 text") from None
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None
    return Parser(tokenize(text)).parse_module(path)


def _stderr(line: str) -> None:
    print(line, file=sys.stderr)


def _run(args: argparse.Namespace) -> None:
    _validate(args)
    # Every file is parsed before the first is checked, so a syntax error
    # anywhere stops the run before any pragma prints.
    modules = [_parse_file(path) for path in args.paths]
    opts = ProcessOptions(
        max_steps=args.max_steps,
        trace=_stderr if args.trace else None,
        print_normal_forms=args.print_normal_forms,
        out=print if args.command == "check" else lambda line: None,  # eval: the files print nothing
    )
    sig = EMPTY_SIGNATURE
    for module in modules:
        sig = process_module(sig, module, opts)
    if args.command == "eval":
        expr = SurfaceModule((PragmaEval((1, 1), parse_expression(args.expr)),), "<expr>")
        process_module(sig, expr, replace(opts, trace=None, out=print))


class ArgumentParser(argparse.ArgumentParser):
    """A bad command line is a ``UsageError``: one line, exit 3.  Subparsers share the class."""

    def error(self, message: str):
        raise UsageError(message)


def build_arg_parser() -> ArgumentParser:
    parser = ArgumentParser(prog="hott", description="Type checker and evaluator for .hott files")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("paths", nargs="*", help="input files, in dependency order")
        p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                       help="reduction step budget (default %(default)s)")
        p.add_argument("--trace", action="store_true",
                       help="log one line per item to stderr")
        p.add_argument("--print-normal-forms", action="store_true",
                       help="also print constructor normal forms for Nat results")

    check_p = sub.add_parser("check", help="check files and run their pragmas")
    common(check_p)
    eval_p = sub.add_parser("eval", help="normalize a closed expression")
    common(eval_p)
    eval_p.add_argument("--expr", help="expression to evaluate")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        _run(build_arg_parser().parse_args(argv))
    except SystemExit:  # --help, after printing the help
        return 0
    except _FAILURES as e:
        return _report(e, _stderr)
    except Exception as e:  # a bug, reported in one line with a defined code
        _stderr(f"error: internal error: {type(e).__name__}: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
