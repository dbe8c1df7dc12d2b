"""Layer-boundary tracing for the benchmark's traced run.

``Tracer.install`` replaces, from outside, the names each hott module
imported from the layer below, plus two methods of ``Signature`` and the
step counter of ``ReductionBudget``.  Every wrapper returns and raises
exactly what it wraps, so each span sits on a layer boundary:

    cli     -> parser   tokenize, Parser(...).parse_module
    cli     -> loader   process_module
    loader  -> parser   resolve (one span per record it yields)
    loader  -> check    check_declaration, check, infer, infer_universe
    loader  -> reduce   normalize, conv, whnf
    loader  -> pretty   pretty
    check   -> reduce   whnf, conv
    check   -> terms    shift, subst
    reduce  -> terms    shift, subst
    anyone  -> terms    Signature.extend, Signature.lookup

The benchmark wraps its own calls into hott (``bench.*`` spans) the same
way.  Spans live in memory as parallel arrays and are written out by
``write``; per-name call counts, total time and self time (a span minus
its direct children) accumulate as spans close.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

from hott.parser import RFail
from hott.reduce import ReductionBudget
from hott.terms import Signature

# ``hott.check`` and ``hott.reduce`` are also names the package exports
# for functions, so the modules are taken from the import system.
cli, loader, check, reduce = (importlib.import_module(f"hott.{name}")
                              for name in ("cli", "loader", "check", "reduce"))

# module attribute -> span name
_BOUNDARIES = (
    (cli, "tokenize", "cli.tokenize"),
    (cli, "process_module", "cli.process_module"),
    (loader, "check_declaration", "loader.check_declaration"),
    (loader, "check", "loader.check"),
    (loader, "infer", "loader.infer"),
    (loader, "infer_universe", "loader.infer_universe"),
    (loader, "normalize", "loader.normalize"),
    (loader, "conv", "loader.conv"),
    (loader, "whnf", "loader.whnf"),
    (loader, "pretty", "loader.pretty"),
    (check, "whnf", "check.whnf"),
    (check, "conv", "check.conv"),
    (check, "shift", "check.shift"),
    (check, "subst", "check.subst"),
    (reduce, "shift", "reduce.shift"),
    (reduce, "subst", "reduce.subst"),
    (Signature, "extend", "Signature.extend"),
    (Signature, "lookup", "Signature.lookup"),
)

# Which spans make up each layer's figures.
_CHECK_DECL = ("loader.check_declaration",)
_CHECK_PRAGMA = ("loader.check", "loader.infer", "loader.infer_universe", "bench.infer")
_SPAN_GROUPS = {
    "cli.self_ms": ("self", ("bench.cli.main",)),
    "parser.lex_ms": ("total", ("cli.tokenize",)),
    "parser.parse_ms": ("total", ("cli.parse_module", "bench.parse_expression")),
    "parser.resolve_ms": ("total", ("loader.resolve", "bench.resolve_expr")),
    "loader.self_ms": ("self", ("cli.process_module", "bench.render_value")),
    "check.decl_ms": ("total", _CHECK_DECL),
    "check.pragma_ms": ("total", _CHECK_PRAGMA),
    "check.self_ms": ("self", _CHECK_DECL + _CHECK_PRAGMA),
    "check.rejections": ("raised", _CHECK_DECL + _CHECK_PRAGMA),
    "reduce.whnf_ms": ("total", ("check.whnf", "loader.whnf")),
    "reduce.whnf_calls": ("calls", ("check.whnf", "loader.whnf")),
    "reduce.conv_ms": ("total", ("check.conv", "loader.conv")),
    "reduce.conv_calls": ("calls", ("check.conv", "loader.conv")),
    "reduce.normalize_ms": ("total", ("loader.normalize", "bench.normalize")),
    "reduce.normalize_calls": ("calls", ("loader.normalize", "bench.normalize")),
    "terms.subst_ms": ("total", ("check.subst", "reduce.subst")),
    "terms.subst_calls": ("calls", ("check.subst", "reduce.subst")),
    "terms.shift_ms": ("total", ("check.shift", "reduce.shift")),
    "terms.shift_calls": ("calls", ("check.shift", "reduce.shift")),
    "terms.sig_extend_ms": ("total", ("Signature.extend",)),
    "terms.sig_extends": ("calls", ("Signature.extend",)),
    "terms.sig_lookup_ms": ("total", ("Signature.lookup",)),
    "terms.sig_lookups": ("calls", ("Signature.lookup",)),
    "pretty.ms": ("total", ("loader.pretty",)),
    "pretty.calls": ("calls", ("loader.pretty",)),
}
# Counts taken at boundaries rather than from spans.
_COUNTERS = ("parser.tokens", "parser.items", "loader.records", "loader.fail_items", "reduce.steps")


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in the order spans open
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # per span name
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.raised: list[int] = []
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self._stack: list[list] = []  # [span index, time in direct children]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.raised.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call."""
        sid = self._id(name)
        clock, origin, stack = time.perf_counter, self.origin, self._stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        calls, total, self_time, raised = self.calls, self.total, self.self_time, self.raised

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(sid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                starts[index] = t0 - origin
                ends[index] = t1 - origin
                calls[sid] += 1
                total[sid] += elapsed
                self_time[sid] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, counter: str, measure: Callable = len) -> Callable:
        def add(result) -> None:
            self.counts[counter] += measure(result)
        return add

    def _wrap_resolve(self, resolve: Callable) -> Callable:
        """``resolve`` is a generator that does its work as records are
        drawn, so the span covers each draw."""
        draw = self.wrap("loader.resolve", next)
        counts = self.counts

        def traced(*args, **kwargs):
            records = resolve(*args, **kwargs)
            while True:
                try:
                    record = draw(records)
                except StopIteration:
                    return
                counts["loader.records"] += 1
                if isinstance(record, RFail):
                    counts["loader.fail_items"] += 1
                yield record

        return traced

    def _wrap_parser(self, parser_class: type) -> Callable:
        parse_items = self._count("parser.items", lambda module: len(module.items))

        def traced(tokens):
            parser = parser_class(tokens)
            parser.parse_module = self.wrap("cli.parse_module", parser.parse_module, parse_items)
            return parser

        return traced

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in _BOUNDARIES:
            on_result = self._count("parser.tokens") if name == "cli.tokenize" else None
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr], on_result))
        self._patch(cli, "Parser", self._wrap_parser(cli.Parser))
        self._patch(loader, "resolve", self._wrap_resolve(loader.resolve))
        tick, counts = ReductionBudget.tick, self.counts

        def counted_tick(budget: ReductionBudget, *args, **kwargs):
            counts["reduce.steps"] += 1
            return tick(budget, *args, **kwargs)

        self._patch(ReductionBudget, "tick", counted_tick)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def steps(self) -> int:
        return self.counts["reduce.steps"]

    def bench(self, name: str, fn: Callable) -> Callable:
        """A span around one of the benchmark's own calls into hott."""
        on_result = self._count("parser.items", lambda _: 1) if name == "parse_expression" else None
        return self.wrap(f"bench.{name}", fn, on_result)

    def layer_metrics(self) -> dict[str, float]:
        figures: dict[str, float] = {}
        for metric, (kind, names) in _SPAN_GROUPS.items():
            ids = [self._ids[n] for n in names if n in self._ids]
            if kind == "calls":
                figures[metric] = sum(self.calls[i] for i in ids)
            elif kind == "raised":
                figures[metric] = sum(self.raised[i] for i in ids)
            else:
                seconds = self.self_time if kind == "self" else self.total
                figures[metric] = 1000.0 * sum(seconds[i] for i in ids)
        figures.update(self.counts)
        return figures

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: index, parent, name, start and
        end in microseconds from the tracer's creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write("index\tparent\tname\tstart_us\tend_us\n")
            for i, (sid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                f.write(f"{i}\t{parent}\t{self.names[sid]}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\n")
        path.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.span_start),
            "names": {
                name: {"calls": self.calls[i], "total_ms": 1000 * self.total[i],
                       "self_ms": 1000 * self.self_time[i], "raised": self.raised[i]}
                for i, name in enumerate(self.names)
            },
            "counts": self.counts,
        }, indent=1) + "\n", encoding="utf-8")
