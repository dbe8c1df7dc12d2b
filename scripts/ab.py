#!/usr/bin/env python3
"""A/B timing: the kernel of a git revision against the working tree's,
side by side in one interpreter.

    python scripts/ab.py REV [--rounds N]

exports ``src/`` at ``REV`` as ``differential.py`` does and loads both
``hott`` packages at once, as ``hott_old`` and ``hott_new``.  Each round
runs three workloads on each tree, the trees in alternating order:

- ``stdlib``: ``hott check`` on the ten stdlib files through ``cli.main``.
- ``eval``: ``perfbench/corpus.py``'s seed-7 expressions, each run as
  ``hott eval --print-normal-forms`` runs it, as an ``#eval`` item through
  ``process_module``, over the declarations of ``prelude`` and ``nat``.
- ``bulk``: ``hott check --trace`` through ``cli.main`` on
  ``perfbench/corpus.py``'s seed-7 library of 5,000 small items, written
  into a temporary directory; its trace goes nowhere.

Items are timed at ``loader.execute``, as ``perfbench/drive.py``'s
``ItemTimer`` times them.  It exits 1 unless both trees print the same
output and take the same reduction steps on every item.  Then it prints,
per workload, the median verdict time over rounds, and item p50 and p90,
the deciles over items of each item's median time, each with its new/old
ratio.  Both trees share one process, so drift in the host's speed hits
both alike; the absolute times are not ``perfbench``'s, which starts a
fresh interpreter per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from differential import ROOT, STDLIB, STDLIB_ORDER, export

sys.path.insert(0, str(ROOT / "perfbench"))
from corpus import bulk_library, eval_expressions  # noqa: E402  (it imports no hott)

EVAL_SEED = BULK_SEED = 7
NAT_FILES = ("prelude.hott", "nat.hott")


def load(name: str, src: Path):
    """The ``hott`` package under ``src``, imported as ``name``, with the
    modules a workload uses."""
    init = src / "hott" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "loader", "parser", "reduce", "terms"):
        setattr(package, module, importlib.import_module(f"{name}.{module}"))
    return package


class Tree:
    """One ``hott`` package, with its inputs and what its runs took."""

    def __init__(self, package):
        self.hott = package
        loader, parser = package.loader, package.parser
        sig, opts = package.terms.EMPTY_SIGNATURE, loader.ProcessOptions(out=lambda line: None)
        for name in NAT_FILES:
            module = parser.parse((STDLIB / name).read_text(encoding="utf-8"), name)
            decls = tuple(i for i in module.items if isinstance(i, (parser.DefItem, parser.PostulateItem)))
            sig = loader.process_module(sig, parser.SurfaceModule(decls, name), opts)
        self.nat_sig = sig
        # workload -> (verdicts, item times per round)
        self.times = {workload: ([], []) for workload in ("stdlib", "eval", "bulk")}
        self.outputs: dict[str, list] = {}

    @contextlib.contextmanager
    def timed(self, workload: str):
        """Time each top-level ``loader.execute`` call, count its steps, and
        record the round under ``workload``."""
        loader, budget_cls = self.hott.loader, self.hott.loader.ReductionBudget
        execute, budgets, items, depth = loader.execute, [], [], [0]

        class Counted(budget_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                budgets.append(self)

        def timed_execute(sig, record, opts):
            if depth[0]:  # a ``#fail`` item's own attempt belongs to that item
                return execute(sig, record, opts)
            depth[0] += 1
            budgets.clear()
            t0 = time.perf_counter()
            try:
                return execute(sig, record, opts)
            finally:
                items.append(((time.perf_counter() - t0) * 1000.0, sum(b.steps_used for b in budgets)))
                depth[0] -= 1

        loader.execute, loader.ReductionBudget = timed_execute, Counted
        t0 = time.perf_counter()
        try:
            yield
        finally:
            verdict = time.perf_counter() - t0
            loader.execute, loader.ReductionBudget = execute, budget_cls
        verdicts, rounds = self.times[workload]
        verdicts.append(verdict)
        rounds.append([ms for ms, _ in items])
        self.outputs.setdefault(workload + " steps", [steps for _, steps in items])

    def run_stdlib(self) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), self.timed("stdlib"):
            code = self.hott.cli.main(["check", *(str(STDLIB / name) for name in STDLIB_ORDER)])
        self.outputs.setdefault("stdlib stdout", [code, out.getvalue()])

    def run_bulk(self, paths: list[str]) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), self.timed("bulk"):
            code = self.hott.cli.main(["check", "--trace", *paths])
        self.outputs.setdefault("bulk stdout", [code, out.getvalue()])

    def run_eval(self, texts: list[str]) -> None:
        loader, parser = self.hott.loader, self.hott.parser
        lines: list[str] = []
        opts = loader.ProcessOptions(print_normal_forms=True, out=lines.append)
        with self.timed("eval"):
            for text in texts:
                try:
                    item = parser.PragmaEval((1, 1), parser.parse_expression(text))
                    loader.process_module(self.nat_sig, parser.SurfaceModule((item,), "<expr>"), opts)
                except Exception as e:  # compared between the trees like any output
                    lines.append(f"{type(e).__name__}: {e}")
        self.outputs.setdefault("eval stdout", lines)


def summary(tree: Tree, workload: str) -> tuple[float, float, float]:
    """Median verdict, and item p50 and p90 over items of their median times."""
    verdicts, rounds = tree.times[workload]
    deciles = statistics.quantiles([statistics.median(ms) for ms in zip(*rounds)], n=10)
    return statistics.median(verdicts), deciles[4], deciles[8]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    texts = [item.text for item in eval_expressions(EVAL_SEED)]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old_src = export(args.rev, Path(tmp))
        except subprocess.CalledProcessError as e:
            print(f"cannot export {args.rev}: {e.stderr.decode().strip()}", file=sys.stderr)
            return 2
        trees = {"old": Tree(load("hott_old", old_src)), "new": Tree(load("hott_new", ROOT / "src"))}
        paths = []
        for name, text in bulk_library(BULK_SEED).texts():
            paths.append(str(Path(tmp) / name))
            Path(paths[-1]).write_text(text, encoding="utf-8")
        for r in range(args.rounds):
            for tree in (trees.values() if r % 2 == 0 else reversed(trees.values())):
                tree.run_stdlib()
                tree.run_eval(texts)
                tree.run_bulk(paths)
    old, new = trees["old"], trees["new"]
    for key in old.outputs:
        if old.outputs[key] != new.outputs[key]:
            print(f"{key} differs between {args.rev} and the working tree")
            return 1
    print(f"{args.rounds} rounds, outputs and steps identical; old = {args.rev}, new = working tree")
    for workload in old.times:
        rows = zip(("verdict_s", "item_ms.p50", "item_ms.p90"), summary(old, workload), summary(new, workload))
        for name, a, b in rows:
            print(f"  {workload:6} {name:11}  old {a:9.4f}  new {b:9.4f}  new/old {b / a:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
