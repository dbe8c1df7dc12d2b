#!/usr/bin/env python3
"""A/B timing: the kernel of a git revision against the working tree's,
side by side in one interpreter.

    python scripts/ab.py REV [--rounds N]

exports ``src/`` at ``REV`` as ``differential.py`` does and loads both
``hott`` packages at once, as ``hott_old`` and ``hott_new``.  Each round
times each tree's start and runs three workloads on it, the trees in
alternating order:

- ``setup``: ``import hott.cli`` in a fresh interpreter, timed inside it.
  Both trees are byte-compiled first (``compileall``): an import that finds
  stale bytecode compiles its source again, and writes none when
  ``PYTHONDONTWRITEBYTECODE`` is set, so it would time the compiler.
- ``stdlib``: ``hott check`` on the ten stdlib files through ``cli.main``.
- ``eval``: ``perfbench/corpus.py``'s seed-7 expressions, each run as
  ``hott eval --print-normal-forms`` runs it, as an ``#eval`` item through
  ``process_module``, over the declarations of ``prelude`` and ``nat``.
- ``bulk``: ``hott check --trace`` through ``cli.main`` on
  ``perfbench/corpus.py``'s seed-7 library of 5,000 small items, written
  into a temporary directory; its trace goes nowhere.

Each round also runs each workload once more per tree, alone in a fresh
interpreter, which reports its own peak memory: ``VmHWM`` of
``/proc/self/status``.  That is the program's memory alone; ``perfbench``'s
``peak_rss_mb`` reads ``ru_maxrss``, which also counts what its parent
``run.py`` holds, and that grows with the number of passes it stores.
Once per tree, a fresh interpreter runs each workload with every rule of
``reduce.IOTA`` wrapped where its table holds it, and counts the ι
contractions the tree performed: call by need performs fewer than the
steps it charges for them, call by name as many.

Items are timed at ``loader.execute``, as ``perfbench/drive.py``'s
``ItemTimer`` times them.  It exits 1 unless both trees print the same
output and take the same reduction steps on every item.  Then it prints
the median import time over rounds and, per workload, the median verdict
time over rounds, item p50 and p90, the deciles over items of each
item's median time, the median peak memory and the ι contractions
performed (``iota_done``, the same in every round), each with its new/old
ratio and ``wins k/N``: in how many of the N rounds the new tree's figure
for that round was lower.  On a shared host a median ratio within about
30% of 1 can be noise; a win count near N/2 says it is.  The workloads of both
trees share one process, so drift in the host's speed hits both alike; the
absolute times are not ``perfbench``'s, which starts a fresh interpreter
per pass.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib
import importlib.util
import io
import re
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


def import_s(src: Path) -> float:
    """Seconds a fresh interpreter takes to ``import hott.cli`` from ``src``."""
    code = (f"import sys, time; sys.path.insert(0, {str(src)!r}); t0 = time.perf_counter()\n"
            "import hott.cli\n"
            "print(time.perf_counter() - t0)")
    return float(subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout)


def alone(src: Path, workload: str, paths: list[str], figure: str) -> float:
    """``figure`` (see ``run_alone``) of a fresh interpreter that runs
    ``workload`` once on the tree under ``src``."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import ab\n"
            f"print(ab.run_alone({str(src)!r}, {workload!r}, {paths!r}, {figure!r}))")
    return float(subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout)


def run_alone(src: str, workload: str, paths: list[str], figure: str = "peak_mb") -> float:
    """Run ``workload`` once on the tree under ``src``, in this interpreter, and
    return ``figure``: ``peak_mb``, its peak resident memory in MB (``VmHWM``,
    this process's own), or ``iota_done``, the ι contractions it performed."""
    tree = Tree(load("hott", Path(src)), Path(src))
    done = count_iota(tree.hott.reduce.IOTA) if figure == "iota_done" else [0]
    if workload == "stdlib":
        tree.run_stdlib()
    elif workload == "eval":
        tree.run_eval([item.text for item in eval_expressions(EVAL_SEED)])
    else:
        tree.run_bulk(paths)
    if figure == "iota_done":
        return done[0]
    return int(re.search(r"VmHWM:\s+(\d+) kB", Path("/proc/self/status").read_text())[1]) / 1024


def count_iota(iota: dict) -> list[int]:
    """Wrap every rule of ``iota`` (a tree's ``reduce.IOTA``) where its table
    holds it, ``IndW``'s tree rule in its own table, and return the one-item
    list in which the wrappers count each contraction performed."""
    done = [0]

    def counted(rule):
        def contract(*args):
            done[0] += 1
            return rule(*args)
        return contract

    tables = [table for _, table in iota.values()]
    for table in tables:
        for constructor, rule in list(table.items()):
            if type(rule) is tuple:
                tables.append(rule[1])
            else:
                table[constructor] = counted(rule)
    return done


class Tree:
    """One ``hott`` package, with its source, its inputs and what its runs took."""

    def __init__(self, package, src: Path):
        self.hott, self.src = package, src
        loader, parser = package.loader, package.parser
        sig, opts = package.terms.EMPTY_SIGNATURE, loader.ProcessOptions(out=lambda line: None)
        for name in NAT_FILES:
            module = parser.parse((STDLIB / name).read_text(encoding="utf-8"), name)
            decls = tuple(i for i in module.items if isinstance(i, (parser.DefItem, parser.PostulateItem)))
            sig = loader.process_module(sig, parser.SurfaceModule(decls, name), opts)
        self.nat_sig = sig
        # workload -> (verdicts, item times per round)
        self.times = {workload: ([], []) for workload in ("stdlib", "eval", "bulk")}
        self.imports: list[float] = []
        self.peaks: dict[str, list[float]] = {workload: [] for workload in self.times}
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


def per_round(tree: Tree, workload: str) -> list[tuple[float, float, float]]:
    """Each round's verdict, and item p50 and p90 over that round's items."""
    verdicts, rounds = tree.times[workload]
    deciles = [statistics.quantiles(ms, n=10) for ms in rounds]
    return [(verdict, d[4], d[8]) for verdict, d in zip(verdicts, deciles)]


def row(workload: str, name: str, a: float, b: float, old_rounds, new_rounds) -> str:
    """One figure of both trees: the medians, their ratio, and the rounds the new tree won."""
    wins = sum(new < old for old, new in zip(old_rounds, new_rounds))
    ratio = b / a if a else 1.0 if b == a else float("inf")  # a count can be 0 in both trees
    return (f"  {workload:6} {name:11}  old {a:9.4f}  new {b:9.4f}  new/old {ratio:.3f}"
            f"  wins {wins}/{len(old_rounds)}")


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
        srcs = {"old": old_src, "new": ROOT / "src"}
        for src in srcs.values():
            compileall.compile_dir(src, quiet=1)
        trees = {side: Tree(load(f"hott_{side}", src), src) for side, src in srcs.items()}
        paths = []
        for name, text in bulk_library(BULK_SEED).texts():
            paths.append(str(Path(tmp) / name))
            Path(paths[-1]).write_text(text, encoding="utf-8")
        for r in range(args.rounds):
            for tree in (trees.values() if r % 2 == 0 else reversed(trees.values())):
                tree.imports.append(import_s(tree.src))
                tree.run_stdlib()
                tree.run_eval(texts)
                tree.run_bulk(paths)
                for workload, peaks in tree.peaks.items():
                    peaks.append(alone(tree.src, workload, paths, "peak_mb"))
        iota = {side: {workload: alone(src, workload, paths, "iota_done") for workload in trees[side].times}
                for side, src in srcs.items()}
    old, new = trees["old"], trees["new"]
    for key in old.outputs:
        if old.outputs[key] != new.outputs[key]:
            print(f"{key} differs between {args.rev} and the working tree")
            return 1
    print(f"{args.rounds} rounds, outputs and steps identical; old = {args.rev}, new = working tree")
    print(row("setup", "import_s", statistics.median(old.imports), statistics.median(new.imports),
              old.imports, new.imports))
    for workload in old.times:
        rows = zip(("verdict_s", "item_ms.p50", "item_ms.p90"), summary(old, workload), summary(new, workload),
                   zip(*per_round(old, workload)), zip(*per_round(new, workload)))
        for name, a, b, old_rounds, new_rounds in rows:
            print(row(workload, name, a, b, old_rounds, new_rounds))
        old_peaks, new_peaks = old.peaks[workload], new.peaks[workload]
        print(row(workload, "peak_mb", statistics.median(old_peaks), statistics.median(new_peaks), old_peaks, new_peaks))
        a, b = iota["old"][workload], iota["new"][workload]
        print(row(workload, "iota_done", a, b, [a] * args.rounds, [b] * args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
