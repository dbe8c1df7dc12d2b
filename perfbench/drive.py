"""One pass of a workload in a fresh interpreter, as one ``hott`` run
would make it.  ``run.py`` starts one of these per pass:

    python3 perfbench/drive.py REQUEST.json

The request names the workload and its inputs.  The pass drives hott
through its public functions only, and prints one JSON line: the raw
outputs, which ``judge.py`` checks in the parent, the per-item times, and
the moment the first item began, by the system-wide monotonic clock, so
that the parent can time set-up from the moment it spawned this process.
With ``"trace": true`` the boundary tracer of ``boundary.py`` is installed
for the pass and its layer figures are added.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hott import cli, loader  # noqa: E402  (the import is part of set-up)
from hott.check import infer  # noqa: E402
from hott.loader import ProcessOptions, process_module, render_value  # noqa: E402
from hott.parser import DefItem, PostulateItem, SurfaceModule, parse, parse_expression, resolve_expr  # noqa: E402
from hott.reduce import ReductionBudget, normalize  # noqa: E402
from hott.terms import EMPTY_CONTEXT, EMPTY_SIGNATURE, Signature  # noqa: E402

# What the CLI gives its worker thread.
STACK_BYTES = 512 * 1024 * 1024
RECURSION_LIMIT = 200_000


def monotonic() -> float:
    """The clock both processes read: the same on either side of a spawn."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ItemTimer:
    """Stands in for ``loader.execute`` during a pass: one timer pair
    around each top-level resolved record.  Records that a ``#fail`` item
    runs inside its own attempt belong to that item."""

    def __init__(self, probe: Optional[Callable[[], int]] = None):
        self.ms: list[float] = []
        self.first_at: Optional[float] = None
        self.probe = probe
        self.probed: list[int] = []
        self._depth = 0
        self._execute = loader.execute

    def __enter__(self) -> "ItemTimer":
        loader.execute = self._timed
        return self

    def __exit__(self, *exc) -> None:
        loader.execute = self._execute

    def _timed(self, sig, record, opts):
        if self._depth:
            return self._execute(sig, record, opts)
        if self.first_at is None:
            self.first_at = monotonic()
        before = self.probe() if self.probe else 0
        self._depth += 1
        t0 = time.perf_counter()
        try:
            return self._execute(sig, record, opts)
        finally:
            t1 = time.perf_counter()
            self._depth -= 1
            self.ms.append((t1 - t0) * 1000.0)
            if self.probe:
                self.probed.append(self.probe() - before)


def check_pass(argv: list[str], tracer=None) -> dict:
    """``hott check`` through ``cli.main``, with its stdout and stderr
    captured; ``verdict_s`` is the whole call."""
    main = tracer.bench("cli.main", cli.main) if tracer else cli.main
    out, err = io.StringIO(), io.StringIO()
    with ItemTimer(tracer.steps if tracer else None) as timer, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # judged in the parent; a crash fails the pass
            code = None
            traceback.print_exc(file=err)
        verdict_s = time.perf_counter() - t0
    return {"verdict_s": verdict_s, "first_item_at": timer.first_at, "item_ms": timer.ms,
            "item_steps": timer.probed, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def nat_signature() -> Signature:
    """The declarations of ``prelude`` and ``nat``, checked; their pragmas
    are left out."""
    sig = EMPTY_SIGNATURE
    for name in ("prelude", "nat"):
        path = f"stdlib/{name}.hott"
        module = parse(Path(path).read_text(encoding="utf-8"), path)
        decls = tuple(item for item in module.items if isinstance(item, (DefItem, PostulateItem)))
        sig = process_module(sig, SurfaceModule(decls, path))
    return sig


def in_cli_thread(work: Callable[[], None]) -> None:
    """Run ``work`` on a thread with the CLI's stack size and recursion
    limit, as ``hott eval`` would."""
    failure: list[BaseException] = []

    def body() -> None:
        sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            work()
        except BaseException as e:  # re-raised in the calling thread
            failure.append(e)

    threading.stack_size(STACK_BYTES)
    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    if failure:
        raise failure[0]


def eval_pass(sig: Signature, texts: list[str], tracer=None) -> dict:
    """Each expression as ``hott eval --print-normal-forms`` treats it:
    parse, resolve, infer, normalize, render."""
    calls = {"parse_expression": parse_expression, "resolve_expr": resolve_expr, "infer": infer,
             "normalize": normalize, "render_value": render_value}
    if tracer:
        calls = {name: tracer.bench(name, fn) for name, fn in calls.items()}
    probe = tracer.steps if tracer else None
    opts = ProcessOptions(print_normal_forms=True)
    ms: list[float] = []
    probed: list[int] = []
    outputs: list[object] = []
    stamps: list[float] = []

    def work() -> None:
        stamps.append(monotonic())
        start = time.perf_counter()
        for text in texts:
            before = probe() if probe else 0
            t0 = time.perf_counter()
            try:
                term = calls["resolve_expr"](calls["parse_expression"](text), [], sig)
                budget = ReductionBudget()
                ty = calls["infer"](sig, EMPTY_CONTEXT, term, budget)
                value = calls["normalize"](sig, term, budget)
                lines = calls["render_value"](sig, value, ty, opts)
            except Exception as e:  # judged in the parent as a failed item
                lines = f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            ms.append((t1 - t0) * 1000.0)
            outputs.append(lines)
            if probe:
                probed.append(probe() - before)
        stamps.append(time.perf_counter() - start)

    in_cli_thread(work)
    return {"verdict_s": stamps[1], "first_item_at": stamps[0], "item_ms": ms,
            "item_steps": probed, "outputs": outputs}


def main(request_path: str) -> None:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    if request["workload"] == "eval":
        sig = nat_signature()
    tracer = None
    if request["trace"]:
        from boundary import Tracer

        tracer = Tracer()
        tracer.install()
    if request["workload"] == "eval":
        result = eval_pass(sig, request["texts"], tracer)
    else:
        result = check_pass(request["argv"], tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if request.get("spans"):
            tracer.write(Path(request["spans"]))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
