"""The front end: where resolution reports a free name, and how wide an
application and how long a sum the checker takes at the interpreter's
default limit."""

from __future__ import annotations

import pytest

from conftest import run

from hott.loader import process_module
from hott.parser import ResolveError, parse, parse_expression, resolve_expr
from hott.terms import EMPTY_SIGNATURE


def test_id_sugar_reports_the_type_first():
    # ``a = b in T`` is ``Id T a b``: T's names are resolved before a's and b's.
    with pytest.raises(ResolveError) as e:
        resolve_expr(parse_expression("a = b in T"), [], set())
    assert (str(e.value), e.value.span) == ("1:10: unbound identifier 'T'", (1, 10))


def test_id_sugar_in_a_module_reports_the_type_first():
    module = parse("#check (\\(x : Nat). x) = y in\n  (Id Nat z z) : Type 0\n")
    with pytest.raises(ResolveError) as e:
        process_module(EMPTY_SIGNATURE, module)
    assert (str(e.value), e.value.span) == ("2:11: unbound identifier 'z'", (2, 11))


def test_hole_is_rejected_at_its_own_position(tmp_path):
    path = tmp_path / "hole.hott"
    path.write_text("def x : Nat :=\n  succ (succ _)\n", encoding="utf-8")
    proc = run("check", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "error: 2:14: '_' is a printing placeholder, not an expression\n"


def test_first_free_name_wins_over_a_later_hole():
    with pytest.raises(ResolveError) as e:
        resolve_expr(parse_expression("\\(x : Nat). f x _"), [], set())
    assert str(e.value) == "1:13: unbound identifier 'f'"


def test_resolve_expr_takes_no_binders():
    with pytest.raises(ValueError):
        resolve_expr(parse_expression("x"), ["x"], set())


def test_wide_application_checks_at_the_default_limit(tmp_path):
    # A fresh interpreter at the default recursion limit: the checker walks
    # an application spine in a loop, and each node of the function's type
    # carries its bound from construction, not one frame per argument or arrow.
    path = tmp_path / "wide.hott"
    arity = 1_100
    path.write_text(
        f"postulate g : {'Nat -> ' * arity}Nat\ndef y : Nat := g{' 0' * arity}\n", encoding="utf-8"
    )
    proc = run("check", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_long_sum_type_checks_at_the_default_limit(tmp_path):
    # The parser reads a chain of ``+`` in a loop, as it reads arrows.
    path = tmp_path / "sum.hott"
    path.write_text(f"postulate g : {' + '.join(['Nat'] * 3_000)}\n", encoding="utf-8")
    proc = run("check", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
