"""Verdicts for one pass: the raw outputs a ``drive.py`` child printed,
checked item by item against the references from ``corpus``.  Nothing
here imports hott.

Each function returns one flag per item and a list of problems.  A
traceback, an extra stdout line or a non-zero exit fails at least one
item, so ``failed_ratio`` counts it.
"""

from __future__ import annotations

import re

from corpus import BulkLibrary, EvalItem, StdlibItem, constructor_form


def _run_problems(result: dict) -> list[str]:
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}")
    if "Traceback" in result["stderr"]:
        problems.append("traceback on stderr")
    return problems


def _failed(ok: list[bool], problems: list[str]) -> int:
    failed = ok.count(False)
    return failed if failed or not problems else 1  # an anomaly no item accounts for


def stdlib(items: list[StdlibItem], result: dict) -> tuple[int, list[str]]:
    """Item i is good when it ran, the run exited 0, and an ``#eval``
    printed its reference value."""
    problems = _run_problems(result)
    printed = result["stdout"].splitlines()
    ran = len(result["item_ms"])
    if ran > len(items):
        problems.append(f"{ran} items ran, {len(items)} expected")
    ok = [i < ran for i in range(len(items))]
    if result["code"] != 0 and ran:
        ok[ran - 1] = False  # the item that stopped the run
    evals = [i for i, item in enumerate(items) if item.kind == "#eval"]
    for j, i in enumerate(evals):
        if j >= len(printed) or printed[j] != items[i].expected:
            ok[i] = False
    if len(printed) > len(evals):
        problems.append(f"{len(printed) - len(evals)} unexpected stdout lines")
    return _failed(ok, problems), problems


_REJECTED = re.compile(r"rejected as expected \[([^\]]+)\]")


def bulk(library: BulkLibrary, result: dict) -> tuple[int, list[str]]:
    """``hott check --trace`` logs one line per accepted item and the rule
    that rejected each ``#fail`` item, which must be the rule the
    generator intended."""
    items = library.items
    problems = _run_problems(result)
    if result["stdout"]:
        problems.append("unexpected stdout output")
    verdicts: list[tuple[str, str | None]] = []
    rule = None
    for line in result["stderr"].splitlines():
        m = _REJECTED.search(line)
        if m:
            rule = m.group(1)
        elif " ok (" in line:
            verdicts.append((line, rule))
            rule = None
    if len(verdicts) > len(items):
        problems.append(f"{len(verdicts)} items accepted, {len(items)} expected")
    ok = []
    for i, item in enumerate(items):
        if i >= len(verdicts):
            ok.append(False)
            continue
        line, got_rule = verdicts[i]
        named = item.name is None or re.search(rf"(^|\s){re.escape(item.name)}\s", line) is not None
        ok.append(named and got_rule == item.rule)
    return _failed(ok, problems), problems


def evaluation(items: list[EvalItem], result: dict) -> tuple[int, list[str]]:
    """Each expression must print its value and the constructor form of
    that value."""
    problems = []
    outputs = result["outputs"]
    if len(outputs) != len(items):
        problems.append(f"{len(outputs)} outputs for {len(items)} expressions")
    ok = []
    for item, lines in zip(items, outputs):
        good = lines == [str(item.value), constructor_form(item.value)]
        ok.append(good)
        if not good and len(problems) < 5:
            problems.append(f"{item.text}: {lines!r}")
    ok += [False] * (len(items) - len(outputs))
    return _failed(ok, problems), problems
