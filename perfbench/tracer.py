"""Spans and counts around hsforge's public functions, from outside the program.

Installing a Tracer rebinds each traced function in every hsforge module
that holds it (the defining module, the modules that imported it, and the
package namespace), and replaces PermGroup.enumerate and
HSColoredGraph.loops on their classes; Word construction is counted through
Word.__post_init__.  Uninstalling puts every original back.  Nothing in
src/ changes.

A span records its name, start, end and parent span.  Spans stay in memory
until the run ends; the benchmark opens one root span per operation, so all
spans of an operation share that root.  A function's self time is the time
inside its spans minus the time inside their direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import hsforge

# (module, function) pairs that get a span; their self time and call count
# are measured.  "perm.enumerate" is PermGroup.enumerate and "hsgraph.loops"
# is HSColoredGraph.loops.
SPANNED = (
    ("schreier", "transversal"),
    ("schreier", "canonicalize"),
    ("schreier", "word_step"),
    ("schreier", "order_at"),
    ("schreier", "visited_set"),
    ("perm", "enumerate"),
    ("perm", "cycle_type_census"),
    ("perm", "has_k_cycle_at"),
    ("partition", "product"),
    ("partition", "validate"),
    ("partition", "intersection_conditions"),
    ("partition", "normal_core"),
    ("partition", "big_n"),
    ("hsgraph", "build_hs_graph"),
    ("hsgraph", "loops"),
    ("hsgraph", "fiber_loop_count"),
    ("zcover", "validate_z"),
    ("zcover", "erdos_checks"),
    ("zcover", "parse_zpartition"),
    ("theorems", "analyze"),
    ("theorems", "check_full_cycle"),
    ("theorems", "check_cycle_bounds"),
    ("theorems", "check_intersections"),
    ("theorems", "default_word_sample"),
    ("theorems", "loop_consistency"),
    ("files", "load_partition"),
    ("cli", "main"),
)

# Functions that are only counted: a span would move their time out of the
# self time of the callers the table in README.md names.
COUNTED = (("partition", "order_rel"),)

# The per-layer metrics the traced run reports, per round, on every workload,
# grouped as in README.md's table.  A ".self_s" metric is the self time of
# the span of that name; every other one is a count.
PER_LAYER = (
    "words.Word.created",
    "schreier.transversal.calls",
    "schreier.transversal.self_s",
    "schreier.canonicalize.self_s",
    "schreier.word_step.calls",
    "schreier.word_step.self_s",
    "schreier.order_at.self_s",
    "schreier.visited_set.self_s",
    "perm.enumerate.calls",
    "perm.enumerate.fresh",
    "perm.enumerate.elements",
    "perm.enumerate.self_s",
    "perm.enumerate.cap_hits",
    "perm.cycle_type_census.self_s",
    "perm.has_k_cycle_at.self_s",
    "partition.product.calls",
    "partition.product.distinct",
    "partition.product.states",
    "partition.product.self_s",
    "partition.product.cap_hits",
    "partition.validate.self_s",
    "partition.intersection_conditions.calls",
    "partition.intersection_conditions.self_s",
    "partition.normal_core.self_s",
    "partition.big_n.calls",
    "partition.big_n.cache_hits",
    "partition.big_n.self_s",
    "partition.order_rel.calls",
    "hsgraph.build_hs_graph.calls",
    "hsgraph.build_hs_graph.self_s",
    "hsgraph.loops.calls",
    "hsgraph.loops.self_s",
    "hsgraph.fiber_loop_count.self_s",
    "zcover.validate_z.calls",
    "zcover.validate_z.scanned",
    "zcover.validate_z.self_s",
    "zcover.erdos_checks.self_s",
    "zcover.parse_zpartition.self_s",
    "theorems.analyze.self_s",
    "theorems.check_full_cycle.calls",
    "theorems.check_full_cycle.self_s",
    "theorems.check_cycle_bounds.calls",
    "theorems.check_cycle_bounds.self_s",
    "theorems.check_intersections.self_s",
    "theorems.default_word_sample.self_s",
    "theorems.loop_consistency.calls",
    "theorems.loop_consistency.self_s",
    "files.load_partition.self_s",
    "cli.main.self_s",
)
SELF_TIME = ".self_s"

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self.counts: Counter[str] = Counter()
        self._products: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(span)
        self.span_start.append(perf_counter())
        return span

    def finish(self, span: int) -> None:
        self.span_end[span] = perf_counter()
        self._open.pop()

    def begin_op(self) -> int:
        """Open the root span of one benchmark operation."""
        self._products = set()
        return self.begin(self._name_id(ROOT_SPAN))

    def self_times(self) -> dict[str, float]:
        """Self time per span name, in seconds, over every span so far."""
        child = [0.0] * len(self.span_name)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[span] - self.span_start[span]
        totals: dict[str, float] = defaultdict(float)
        for span, name_id in enumerate(self.span_name):
            duration = self.span_end[span] - self.span_start[span]
            totals[self.names[name_id]] += duration - child[span]
        return totals

    def per_round(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Every PER_LAYER metric with its unit: the total over `rounds`
        traced rounds divided by their number."""
        self_times = self.self_times()
        out = {}
        for name in PER_LAYER:
            if name.endswith(SELF_TIME):
                out[name] = (self_times.get(name[: -len(SELF_TIME)], 0.0) / rounds, "s")
            else:
                total = self.counts.get(name, 0)
                out[name] = (total // rounds if total % rounds == 0 else total / rounds,
                             "count")
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            for span, name_id in enumerate(self.span_name):
                out.write(json.dumps([
                    self.names[name_id], self.span_parent[span],
                    self.span_start[span], self.span_end[span]]) + "\n")

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, func, before=None, after=None):
        tracer = self
        name_id = self._name_id(name)
        calls = name + ".calls"
        cap_hits = name + ".cap_hits"
        CapExceeded = hsforge.perm.CapExceeded

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            token = before(*args) if before is not None else None
            span = tracer.begin(name_id)
            try:
                result = func(*args, **kwargs)
            except CapExceeded:
                tracer.counts[cap_hits] += 1
                raise
            finally:
                tracer.finish(span)
            if after is not None:
                after(token, result)
            return result

        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return func(*args, **kwargs)

        return wrapper

    def _enumerate_fresh(self, group, *rest) -> bool:
        fresh = group._elements is None
        self.counts["perm.enumerate.fresh"] += fresh
        return fresh

    def _enumerate_elements(self, fresh: bool, result) -> None:
        if fresh:
            self.counts["perm.enumerate.elements"] += len(result)

    def _product_key(self, tables, base, *rest) -> None:
        key = (tuple(tables), tuple(base))
        if key not in self._products:
            self._products.add(key)
            self.counts["partition.product.distinct"] += 1

    def _product_states(self, _, result) -> None:
        self.counts["partition.product.states"] += result.state_count

    def _big_n_cached(self, p, *rest) -> None:
        if p._n is not None:
            self.counts["partition.big_n.cache_hits"] += 1

    def _validate_z_period(self, z, *rest) -> None:
        self.counts["zcover.validate_z.scanned"] += z.period

    def install(self) -> None:
        hooks = {
            "perm.enumerate": (self._enumerate_fresh, self._enumerate_elements),
            "partition.product": (self._product_key, self._product_states),
            "partition.big_n": (self._big_n_cached, None),
            "zcover.validate_z": (self._validate_z_period, None),
        }
        methods = {"perm.enumerate": (hsforge.perm.PermGroup, "enumerate"),
                   "hsgraph.loops": (hsforge.hsgraph.HSColoredGraph, "loops")}
        for module, function in SPANNED:
            name = f"{module}.{function}"
            if name in methods:
                owner, attr = methods[name]
                self._replace(owner, attr, self._spanned(
                    name, getattr(owner, attr), *hooks.get(name, ())))
            else:
                original = getattr(getattr(hsforge, module), function)
                self._rebind(original, self._spanned(
                    name, original, *hooks.get(name, ())))
        for module, function in COUNTED:
            original = getattr(getattr(hsforge, module), function)
            self._rebind(original, self._counted(f"{module}.{function}", original))
        word = hsforge.words.Word
        post_init = word.__post_init__
        counts = self.counts

        def counted_post_init(w) -> None:
            counts["words.Word.created"] += 1
            post_init(w)

        self._replace(word, "__post_init__", counted_post_init)

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "hsforge" and not module_name.startswith("hsforge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
