"""Command line: exit codes, stream discipline, flags."""

from __future__ import annotations

import re
import subprocess
import sys
import threading

import pytest

from conftest import ROOT, run, stdlib_paths
from hott import cli
from hott.check import CheckError
from hott.loader import AssertionFailed, FailExpected
from hott.parser import LexError, ParseError, ResolveError
from hott.reduce import BudgetExhausted

STDLIB = [str(p) for p in stdlib_paths()]


def test_check_stdlib_exit_zero():
    proc = run("check", *STDLIB)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_check_missing_file_exit_3():
    proc = run("check", "missing.hott")
    assert proc.returncode == 3
    assert "missing.hott" in proc.stderr


def test_check_no_files_exit_3():
    proc = run("check")
    assert proc.returncode == 3


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.hott"
    bad.write_text("def x := 3\n")
    proc = run("check", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "expected" in proc.stderr


def test_lex_error_exit_2(tmp_path):
    bad = tmp_path / "bad.hott"
    bad.write_text("def x : Nat := @\n")
    proc = run("check", str(bad))
    assert proc.returncode == 2


def test_type_error_exit_1(tmp_path):
    bad = tmp_path / "bad.hott"
    bad.write_text("def x : Nat := star\n")
    proc = run("check", str(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "type-mismatch" in proc.stderr


def test_failed_assert_exit_1(tmp_path):
    bad = tmp_path / "bad.hott"
    bad.write_text("#assert-eq zero == 1 : Nat\n")
    proc = run("check", str(bad))
    assert proc.returncode == 1


def test_eval_prints_decimal():
    proc = run("eval", "--expr", "binom 5 2", *STDLIB)
    assert proc.returncode == 0
    assert proc.stdout == "10\n"


def test_eval_six_digit_numeral():
    # far deeper than the interpreter's recursion limit: numerals are walked by loops
    proc = run("eval", "--expr", "500000", *STDLIB[:2])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "500000\n", "")


def test_eval_requires_expr():
    proc = run("eval", *STDLIB)
    assert proc.returncode == 3


def test_eval_type_error_exit_1():
    proc = run("eval", "--expr", "succ star", *STDLIB)
    assert proc.returncode == 1


def test_eval_parse_error_exit_2():
    proc = run("eval", "--expr", "((", *STDLIB)
    assert proc.returncode == 2


LONG = "1" * 5_000  # more digits than the interpreter converts to an int

# A literal too long to convert, in a file or in ``--expr``: (the file's text
# or None, the literal's position).
LONG_LITERALS = {
    "eval-pragma": (f"#eval {LONG}\n", "1:7"),
    "universe-level": (f"#check Type {LONG} : Type 0\n", "1:13"),
    "eval-expr": (None, "1:1"),
}


@pytest.mark.parametrize("case", LONG_LITERALS)
def test_long_literal_is_a_parse_error(tmp_path, case):
    text, position = LONG_LITERALS[case]
    if text is None:
        proc = run("eval", "--expr", LONG)
    else:
        (tmp_path / "long.hott").write_text(text)
        proc = run("check", str(tmp_path / "long.hott"))
    expected = f"error: {position}: numeric literal of 5000 digits is too long\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", expected)


def test_eval_non_nat_normal_form():
    proc = run("eval", "--expr", "pred-Z zero-Z", *STDLIB)
    assert proc.returncode == 0
    assert proc.stdout == "inl 0\n"


def test_eval_print_normal_forms_flag():
    proc = run("eval", "--print-normal-forms", "--expr", "add 1 2", *STDLIB)
    assert proc.returncode == 0
    assert proc.stdout == "3\nsucc (succ (succ zero))\n"


def test_eval_budget_exhausted_while_rendering(tmp_path):
    # the result needs no step; unfolding its type to decide how to print it does
    src = tmp_path / "my.hott"
    src.write_text("def MyNat : Type 0 := Nat\npostulate p : MyNat\n")
    proc = run("eval", "--max-steps", "0", "--expr", "p", str(src))
    assert proc.returncode == 1
    assert proc.stderr == "error: 1:1: reduction budget exhausted after 1 steps\n"


# One step normalizes q to p and one more unfolds MyNat to decide how p
# prints; the budget covers both.
MY_NAT = "def MyNat : Type 0 := Nat\npostulate p : MyNat\ndef q : MyNat := p\n"


def test_check_eval_pragma_renders_within_the_budget(tmp_path):
    src = tmp_path / "my.hott"
    src.write_text(MY_NAT + "#eval q\n")
    proc = run("check", "--max-steps", "1", str(src))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: 4:1: reduction budget exhausted after 2 steps\n"
    proc = run("check", "--max-steps", "2", str(src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "p\n", "")


def test_eval_renders_within_the_budget(tmp_path):
    src = tmp_path / "my.hott"
    src.write_text(MY_NAT)
    proc = run("eval", "--max-steps", "1", "--expr", "q", str(src))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: 1:1: reduction budget exhausted after 2 steps\n"
    proc = run("eval", "--max-steps", "2", "--expr", "q", str(src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "p\n", "")


def test_eval_type_error_is_located_at_the_expression():
    # The expression runs as one #eval item at 1:1, so its failures are located there.
    proc = run("eval", "--expr", "zero zero", STDLIB[0])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: 1:1: [not-a-function] application head is not of function type\n"


def test_eval_traces_the_files_and_not_the_expression():
    proc = run("eval", "--trace", "--expr", "add 2 3", *STDLIB[:2])
    assert (proc.returncode, proc.stdout) == (0, "5\n")
    check = run("check", "--trace", *STDLIB[:2])
    assert check.returncode == 0
    times = re.compile(r"\(\d+\.\d+ ms\)")
    assert times.sub("", proc.stderr) == times.sub("", check.stderr)
    assert "<expr>" not in proc.stderr


def test_budget_spent_inside_fail_is_no_rejection(tmp_path):
    # The spent budget passes through #fail and is located at the #fail item.
    src = tmp_path / "spend.hott"
    src.write_text("def two : Nat := 2\ndef f : Nat -> Nat := \\(n : Nat). succ n\n#fail #eval f (f (f two))\n")
    proc = run("check", "--max-steps", "2", str(src))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: 3:1: reduction budget exhausted after 3 steps\n"


def test_accepted_fail_prints_nothing_but_its_error(tmp_path):
    # The wrapped #eval runs only as an attempt: its value is not printed.
    src = tmp_path / "leak.hott"
    src.write_text("def two : Nat := 2\ndef f : Nat -> Nat := \\(n : Nat). succ n\n#fail #eval f (f (f two))\n")
    proc = run("check", str(src))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: 3:1: item wrapped in #fail was accepted\n"


def test_end_of_input_after_trailing_comment(tmp_path):
    # The end of input is located after the comment, not at its start.
    src = tmp_path / "missing.hott"
    src.write_text("def x : Nat := -- the body is missing")
    proc = run("check", str(src))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: 1:38: unexpected ''")
    assert_one_error_line(proc.stderr)


# Each failure a run can end in, its exit code and its one line.
FAILURES = [
    (LexError("unexpected character '@'", (1, 2)), 2, "error: 1:2: unexpected character '@'"),
    (ParseError("unexpected ')'", (3, 4), {"eof"}), 2, "error: 3:4: unexpected ')' (expected one of: eof)"),
    (ResolveError("unbound identifier 'x'", (5, 6)), 1, "error: 5:6: unbound identifier 'x'"),
    (CheckError("type-mismatch", "no", span=(7, 1)), 1, "error: 7:1: [type-mismatch] no"),
    (AssertionFailed("assert-eq: no", (8, 1)), 1, "error: 8:1: assert-eq: no"),
    (FailExpected("accepted", (9, 1)), 1, "error: 9:1: accepted"),
    (BudgetExhausted(3), 1, "error: reduction budget exhausted after 3 steps"),
    (cli.UsageError("no such file: x"), 3, "error: no such file: x"),
]


@pytest.mark.parametrize("failure, code, line", FAILURES, ids=[type(f).__name__ for f, _, _ in FAILURES])
def test_report_gives_each_failure_its_exit_code(failure, code, line):
    lines = []
    assert cli._report(failure, lines.append) == code
    assert lines == [line]


def test_max_steps_flag_budget():
    proc = run("eval", "--max-steps", "4", "--expr", "factorial 5", *STDLIB)
    assert proc.returncode == 1
    assert "budget" in proc.stderr


def test_trace_goes_to_stderr():
    proc = run("check", "--trace", STDLIB[0])
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "prelude.hott" in proc.stderr
    # items are named by line and directive or declared name, never by record class
    assert not re.search(r"\bR[A-Z]", proc.stderr)
    assert re.search(r"prelude\.hott:15: #assert-eq ok \(", proc.stderr)
    assert re.search(r"prelude\.hott:5: id ok \(", proc.stderr)


def test_trace_names_each_fail_rule_before_its_item(tmp_path):
    src = tmp_path / "fails.hott"
    src.write_text("#fail def bad : Nat := star\n\n#fail #eval missing\n")
    proc = run("check", "--trace", str(src))
    assert (proc.returncode, proc.stdout) == (0, "")
    assert re.sub(r"\(\d+\.\d ms\)", "(… ms)", proc.stderr).splitlines() == [
        "#fail: rejected as expected [type-mismatch]",
        f"{src}:1: #fail ok (… ms)",
        "#fail: rejected as expected [unbound-identifier]",
        f"{src}:3: #fail ok (… ms)",
    ]


def assert_one_error_line(stderr: str) -> None:
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr
    assert "Traceback" not in stderr


def test_non_utf8_file_exit_3(tmp_path):
    bad = tmp_path / "bad.hott"
    bad.write_bytes(b"def x : Nat := zero\n-- \xff\n")
    proc = run("check", str(bad))
    assert proc.returncode == 3
    assert_one_error_line(proc.stderr)
    assert "cannot read" in proc.stderr


def test_non_ascii_digit_exit_2(tmp_path):
    bad = tmp_path / "bad.hott"
    bad.write_text("#eval ²\n", encoding="utf-8")
    proc = run("check", str(bad))
    assert proc.returncode == 2
    assert_one_error_line(proc.stderr)


def test_negative_max_steps_is_usage_error():
    proc = run("eval", "--max-steps", "-5", "--expr", "add 1 2", *STDLIB)
    assert proc.returncode == 3
    assert_one_error_line(proc.stderr)


def test_internal_error_one_line():
    # A fresh interpreter: stderr is then exactly what the process printed.
    script = (
        "import sys\n"
        "from hott import cli\n"
        "def broken(*args):\n"
        "    raise RuntimeError('boom')\n"
        "cli.process_module = broken\n"
        f"sys.exit(cli.main(['check', {STDLIB[0]!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, cwd=ROOT, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: internal error: RuntimeError: boom\n"


def test_main_runs_on_the_callers_thread(monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("cli.main changed a process-wide setting or started a thread")

    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
    monkeypatch.setattr(threading, "stack_size", forbidden)
    monkeypatch.setattr(threading.Thread, "start", forbidden)
    assert cli.main(["check", *STDLIB]) == 0
    assert cli.main(["eval", "--expr", "add 2 3", *STDLIB]) == 0
    assert capsys.readouterr().out.endswith("5\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--jobs", "4", STDLIB[0]],
        ["check", "--max-steps", "abc", STDLIB[0]],
        ["--max-steps", "10", STDLIB[0]],
        [],
    ],
    ids=["unknown-flag", "malformed-max-steps", "missing-subcommand", "bare"],
)
def test_usage_error_is_one_line(argv):
    proc = run(*argv)
    assert proc.returncode == 3
    assert_one_error_line(proc.stderr)
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_zero(argv):
    proc = run(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: hott")
