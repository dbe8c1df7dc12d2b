"""Benchmark of the hott kernel, end to end and layer by layer.

    python3 perfbench/run.py --workload stdlib|eval|bulk --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; hott is imported from ``src/``.
Workloads (inputs come from the seed alone):

* ``stdlib``: ``hott check`` on the ten stdlib files in README order.
  The seed does not change it.
* ``eval``: 100 distinct closed Nat expressions over the ``nat.hott``
  functions, each parsed, resolved, inferred, normalized and rendered
  against a ``prelude`` + ``nat`` signature, on a thread with the CLI's
  stack.
* ``bulk``: ``hott check --trace`` on a generated library of 5,000 small
  items in 8 files, about a tenth of them ``#fail`` items.

Each pass runs in a fresh interpreter (``drive.py``), as one ``hott``
invocation does, and passes repeat for ``--seconds``.  Every item's
verdict, exit code and printed value is checked against a reference
computed without hott (``judge.py``).  With ``--trace 0`` the last stdout
line reports the end-to-end metrics; with ``--trace 1`` it reports
per-layer figures from boundary-traced passes, which alternate with
untraced ones to measure the tracing overhead.  Details go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 5
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 150
# Counts a traced pass must repeat exactly.
DETERMINISTIC = ("parser.tokens", "reduce.steps", "terms.subst_calls", "terms.sig_extends")
# The stdlib item whose step count the ROADMAP baseline records.
PINNED_ITEM = ("stdlib/nat.hott", "#eval exp 2 10", 53_230)

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# Which per-layer figures should move which end-to-end metrics, written
# down before any optimisation is measured.
PREDICTIONS = (
    ("reduce.*_ms, reduce.steps, terms.subst_*, terms.shift_*", "verdict_s, item_ms.p90",
     "large on eval, about 70% of stdlib, nearly nil on bulk"),
    ("terms.sig_*, parser.*", "verdict_s, item_ms.p90", "bulk; not eval"),
    ("check.self_ms, check.decl_ms", "verdict_s, item_ms.p50", "stdlib and bulk"),
    ("pretty.ms", "item_ms.p50", "eval"),
    ("cli.self_ms, parser.lex_ms, parser.parse_ms", "setup_s",
     "stdlib and bulk, which parse every file before the first item; eval does not go through cli"),
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _second_slowest(values) -> float:
    """How a run sums up a time it took once per pass.  On a shared host
    the speed swings by up to a half, in phases from seconds to minutes
    long.  The contended speed holds steady; the quiet phases do not.  So
    the median pass follows how much of the run happened to fall in quiet
    phases, while the second-slowest pass tracks the contended speed, and
    no single stray pass sets it."""
    ordered = sorted(values)
    return ordered[-2] if len(ordered) > 1 else ordered[0]


class Workload:
    """Inputs for one workload, the request a pass is given, and the
    verdicts on what a pass printed."""

    def __init__(self, name: str, seed: int):
        import corpus

        self.name = name
        self.report: dict[str, object] = {}
        if name == "stdlib":
            self.items = corpus.stdlib_items(ROOT)
            self.request = {"argv": ["check", *(f"stdlib/{f}.hott" for f in corpus.STDLIB_FILES)]}
        elif name == "eval":
            self.items = corpus.eval_expressions(seed)
            self.request = {"texts": [item.text for item in self.items]}
        else:
            self.library = corpus.bulk_library(seed)
            directory = OUT / f"bulk-{seed}"
            directory.mkdir(parents=True, exist_ok=True)
            size = 0
            for file_name, text in self.library.texts():
                (directory / file_name).write_text(text, encoding="utf-8")
                size += len(text.encode("utf-8"))
            self.items = self.library.items
            self.request = {"argv": ["check", "--trace",
                                     *(str(directory / f) for f, _ in self.library.files)]}
            self.report = {"items_by_kind": self.library.counts(), "corpus_bytes": size,
                           "files": len(self.library.files)}
        self.request["workload"] = name
        self.seed = seed

    def judge(self, result: dict) -> tuple[int, list[str]]:
        import judge

        if self.name == "stdlib":
            return judge.stdlib(self.items, result)
        if self.name == "eval":
            return judge.evaluation(self.items, result)
        return judge.bulk(self.library, result)

    def pinned_index(self) -> int | None:
        if self.name != "stdlib":
            return None
        path, text, _ = PINNED_ITEM
        return next(i for i, item in enumerate(self.items) if (item.path, item.text) == (path, text))

    def run_pass(self, traced: bool) -> dict:
        """One pass in a fresh interpreter.  ``setup_s`` runs from the
        spawn until the child's first item begins."""
        OUT.mkdir(exist_ok=True)
        request_path = OUT / f"request-{self.name}-seed{self.seed}-trace{int(traced)}.json"
        spans = OUT / f"spans-{self.name}-seed{self.seed}.tsv" if traced else None
        request_path.write_text(json.dumps({**self.request, "trace": traced,
                                            "spans": spans and str(spans)}), encoding="utf-8")
        # one hash seed, so that every pass does the same work
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawn_at = monotonic()
        child = subprocess.run([sys.executable, str(HERE / "drive.py"), str(request_path)], cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
        try:
            result = json.loads(child.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if child.returncode != 0 or result is None:
            tail = child.stderr.strip().splitlines()[-1:] or ["no result"]
            return {"broken": f"pass exited {child.returncode}: {tail[0]}"}
        if result["first_item_at"] is None:
            result["broken"] = "no item ran"
        else:
            result["setup_s"] = result["first_item_at"] - spawn_at
        return result


def _passes(workload: Workload, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
    """Untraced passes, or alternating untraced and traced ones, until
    ``seconds`` have gone by and the minimum counts are met."""
    plain: list[dict] = []
    traced_runs: list[dict] = []
    start = time.perf_counter()
    while True:
        if traced and len(plain) > len(traced_runs):
            traced_runs.append(workload.run_pass(True))
        else:
            plain.append(workload.run_pass(False))
        enough = len(traced_runs) >= MIN_TRACED_PASSES if traced else len(plain) >= MIN_PASSES
        if enough and time.perf_counter() - start >= seconds:
            return plain, traced_runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("stdlib", "eval", "bulk"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hott" / "cli.py").is_file() or not (ROOT / "stdlib").is_dir():
        print(f"error: {ROOT} holds no hott checkout (src/hott and stdlib/)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(HERE))

    workload = Workload(args.workload, args.seed)  # input generation is not set-up
    # bytecode caches as an installed hott has them, written before any pass is timed
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_file(HERE / "boundary.py", quiet=1)
    plain, traced = _passes(workload, args.seconds, bool(args.trace))

    problems: list[str] = []
    failed = 0
    for result in plain + traced:
        if "broken" in result:
            problems.append(result["broken"])
            failed += len(workload.items)
            continue
        bad, found = workload.judge(result)
        failed += bad
        problems += found
    attempted = len(workload.items) * len(plain + traced)
    good = [r for r in plain if "broken" not in r]
    good_traced = [r for r in traced if "broken" not in r]
    if not good or (args.trace and not good_traced):
        for problem in ["no pass completed", *problems[:20]]:
            print(f"error: {problem}", file=sys.stderr)
        return 1

    verdict_s = _second_slowest([r["verdict_s"] for r in good])
    # each item's own time over the passes first, then percentiles over items
    deciles = statistics.quantiles([_second_slowest(times) for times in zip(*(r["item_ms"] for r in good))], n=10)
    detail: dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "inputs": {"items": len(workload.items), **workload.report},
        "passes": [{k: r[k] for k in ("setup_s", "verdict_s", "peak_rss_mb")} for r in good],
        "item_ms": [r["item_ms"] for r in good],
        "failed_ratio": failed / attempted,
        "predictions": [dict(zip(("layer", "moves", "where"), p)) for p in PREDICTIONS],
    }

    if not args.trace:
        metrics = {
            "setup_s": _second_slowest([r["setup_s"] for r in good]),
            "verdict_s": verdict_s,
            "item_ms.p50": deciles[4],
            "item_ms.p90": deciles[8],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
        units = END_TO_END
    else:
        figures = [r["layers"] for r in good_traced]
        for name in DETERMINISTIC:
            if len({f[name] for f in figures}) > 1:
                problems.append(f"self-check: {name} differs between traced passes: {[f[name] for f in figures]}")
        pinned = workload.pinned_index()
        if pinned is not None:
            steps = [r["item_steps"][pinned] for r in good_traced]
            detail["pinned_item_steps"] = steps
            if any(s != PINNED_ITEM[2] for s in steps):
                problems.append(f"self-check: {PINNED_ITEM[1]} took {steps} steps, not {PINNED_ITEM[2]}")
        metrics = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
        metrics["trace.overhead_s"] = _second_slowest([r["verdict_s"] for r in good_traced]) - verdict_s
        units = {name: "ms" if name.endswith(("_ms", ".ms")) else "count" for name in figures[0]}
        units["trace.overhead_s"] = "s"
        detail["traced_passes"] = [r["verdict_s"] for r in good_traced]

    correct = failed == 0 and not problems
    detail.update(correct=correct, attempted=attempted, failed=failed, problems=problems[:20], metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(workload.items)} items, "
          f"{len(plain)} untraced and {len(traced)} traced passes, each in a fresh interpreter, "
          f"python {detail['python']}, {detail['cpus']} cpus")
    for key, value in workload.report.items():
        print(f"  input {key}: {value}")
    print(f"  samples: {len(good)} setup_s and verdict_s, {len(workload.items)} items of {len(good)} item_ms each; "
          f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for layer, moves, where in PREDICTIONS:
        print(f"  prediction: {layer} moves {moves} ({where})")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
