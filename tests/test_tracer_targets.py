"""The names that perfbench/tracer.py rebinds from outside the program exist.

The benchmark's tracer spans or counts hsforge functions by (module, name),
replaces PermGroup.enumerate and HSColoredGraph.loops on their classes, and
reads PermGroup._elements and CosetPartition._n.  A rename or a move out of
src/ would not fail the program's own tests, but it would break every traced
benchmark run, so this suite installs the tracer and runs it once.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import hsforge
import hsforge.cli
from helpers import sym_ladder_partition
from hsforge.words import parse_word

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# what the tracer replaces on a class rather than in a module
METHODS = {
    "perm.enumerate": (hsforge.perm.PermGroup, "enumerate"),
    "hsgraph.loops": (hsforge.hsgraph.HSColoredGraph, "loops"),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_rebinds_exists():
    tracer = _load_tracer()
    targets = tracer.SPANNED + tracer.COUNTED
    for module, function in targets:
        owner, attr = METHODS.get(
            f"{module}.{function}", (getattr(hsforge, module), function))
        assert callable(getattr(owner, attr, None)), f"{module}.{function}"
    # no program path calls these, but the tracer spans or counts them
    assert {("partition", "product"), ("partition", "order_rel"),
            ("partition", "normal_core")} <= set(targets)
    assert isinstance(vars(hsforge.perm.PermGroup)["_elements"], property)


def test_the_tracer_installs_runs_and_uninstalls():
    tracer = _load_tracer()
    originals = {(module, function): getattr(getattr(hsforge, module), function)
                 for module, function in tracer.SPANNED + tracer.COUNTED
                 if f"{module}.{function}" not in METHODS}
    methods = {name: vars(owner)[attr] for name, (owner, attr) in METHODS.items()}
    p = sym_ladder_partition(5)
    assert p._n is None and p.quotient._elements is None
    traced = tracer.Tracer()
    traced.install()
    try:
        assert hsforge.theorems.analyze is not originals["theorems", "analyze"]
        hsforge.theorems.analyze(p)
        for _ in range(2):  # the second call finds N's table kept on p
            hsforge.hsgraph.build_hs_graph(p, parse_word(p.rank, "ab")).loops()
    finally:
        traced.uninstall()
    for (module, function), original in originals.items():
        assert getattr(getattr(hsforge, module), function) is original
    for name, (owner, attr) in METHODS.items():
        assert vars(owner)[attr] is methods[name]
    counts = traced.counts
    assert counts["theorems.analyze.calls"] == 1
    assert counts["partition.big_n.calls"] == 2
    assert counts["partition.big_n.cache_hits"] == 1
    assert counts["perm.enumerate.calls"] >= 2  # each reads group._elements
    assert counts["hsgraph.loops.calls"] == 2
