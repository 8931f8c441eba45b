"""Colored loop graphs over the common refinement subgroup."""

from __future__ import annotations

import random
from math import lcm
from pathlib import Path

import pytest

from conftest import P
from helpers import (
    coloring_by_words,
    coset_partition,
    loop_z_partition,
    table_permutation,
)
from hsforge.files import load_partition
from hsforge.hsgraph import build_hs_graph, fiber_loop_count
from hsforge.partition import (
    CosetPartition,
    CosetSpec,
    big_n,
    validate,
)
from hsforge.sampling import random_lifted_partition, random_word
from hsforge.schreier import table_from_generators
from hsforge.words import identity
from hsforge.zcover import erdos_checks, format_zpartition, validate_z

THREES = Path(__file__).resolve().parents[1] / "data" / "ex_three_threes.partition"


def test_graph_of_mixed_partition(p44):
    graph = build_hs_graph(p44, P("ab"))
    assert graph.m == 8
    assert graph.o_n == 4
    assert graph.orders == (2, 4, 4)
    assert [len(graph.fiber(i)) for i in range(3)] == [4, 2, 2]
    assert sorted(graph.color) == [0, 0, 0, 0, 1, 1, 2, 2]
    loops = graph.loops()
    assert len(loops) == 2
    assert [loop.length for loop in loops] == [4, 4]
    assert [loop.colors for loop in loops] == [(0, 2, 0, 1), (1, 0, 2, 0)]
    assert [loop.vertices[0] for loop in loops] == [min(l.vertices) for l in loops]


def test_loop_residue_classes(p44):
    graph = build_hs_graph(p44, P("ab"))
    loops = graph.loops()
    texts = [format_zpartition(loop_z_partition(graph, loop)) for loop in loops]
    assert texts == ["2:0,4:1,4:3", "4:0,2:1,4:2"]
    for loop in loops:
        z = loop_z_partition(graph, loop)
        assert sorted(z.moduli) == [2, 4, 4]
        assert validate_z(z).valid
        assert erdos_checks(z).all_hold


def test_graph_of_normal_partition(p77):
    graph = build_hs_graph(p77, P("ab"))
    assert graph.m == 4
    assert graph.o_n == 2
    assert graph.orders == (2, 2, 2)
    loops = graph.loops()
    assert [loop.length for loop in loops] == [2, 2]
    assert fiber_loop_count(graph, 0) == 2
    assert fiber_loop_count(graph, 1) == 1
    assert fiber_loop_count(graph, 2) == 1


def test_fiber_loop_count_rejects_a_block_out_of_range(p44):
    # -1 used to count 0 loops on ex_three_threes, and size raised a bare
    # IndexError
    threes = load_partition(str(THREES))
    for p in (p44, threes):
        graph = build_hs_graph(p, P("ab"))
        for i in (-1, -p.size, p.size, p.size + 5):
            with pytest.raises(ValueError, match="block i out of range"):
                fiber_loop_count(graph, i)


def test_fiber_and_loop_counts(p44):
    graph = build_hs_graph(p44, P("ab"))
    for i in range(3):
        assert fiber_loop_count(graph, i) == 2
    # every fiber is the preimage of one block, total size m
    assert sum(len(graph.fiber(i)) for i in range(3)) == graph.m


def test_loop_count_times_length_is_m(p44, p77, p333):
    for p, text in ((p44, "ab"), (p44, "a"), (p77, "ab"), (p333, "ab"), (p333, "b")):
        graph = build_hs_graph(p, P(text))
        loops = graph.loops()
        assert len(loops) * graph.o_n == graph.m
        assert all(loop.length == graph.o_n for loop in loops)
        # the common loop length is the w-order of the whole configuration,
        # the lcm of the per-block permutation orders
        full_orders = [table_permutation(s.table, P(text)).order() for s in p.specs]
        assert graph.o_n == lcm(*full_orders)


def test_loop_length_can_exceed_marked_orders(p44):
    # "aba" acts as (0 3) on the index-4 table: both marked vertices sit on
    # fixed points, yet the refinement still needs two steps to return
    graph = build_hs_graph(p44, P("aba"))
    assert graph.orders == (1, 1, 1)
    assert graph.o_n == 2
    loops = graph.loops()
    assert [loop.length for loop in loops] == [2, 2, 2, 2]
    # every loop stays inside a single block and contributes o_n/o_i = 2
    assert sorted(loop.colors for loop in loops) == [
        (0, 0), (0, 0), (1, 1), (2, 2)]


def test_identity_word_gives_isolated_vertices(p44):
    graph = build_hs_graph(p44, identity(2))
    assert graph.o_n == 1
    loops = graph.loops()
    assert len(loops) == graph.m == 8
    assert all(loop.length == 1 for loop in loops)
    for loop in loops:
        z = loop_z_partition(graph, loop)
        assert format_zpartition(z) == "1:0"
        assert validate_z(z).valid


def test_full_participation_iff_order_equals_index(p44, p77):
    # block i lies on every loop exactly when its relative order is its index
    for p, text in ((p44, "ab"), (p44, "ba"), (p77, "ab"), (p77, "a")):
        graph = build_hs_graph(p, P(text))
        loops = graph.loops()
        for i in range(p.size):
            on_all = all(i in loop.colors for loop in loops)
            assert on_all == (graph.orders[i] == p.specs[i].index)


def test_equal_loop_counts_iff_equal_ratio(p44, p77):
    for p, text in ((p44, "ab"), (p77, "ab"), (p77, "b")):
        graph = build_hs_graph(p, P(text))
        for i in range(p.size):
            for j in range(p.size):
                same_count = fiber_loop_count(graph, i) == fiber_loop_count(graph, j)
                ratio_i = graph.orders[i] / p.specs[i].index
                ratio_j = graph.orders[j] / p.specs[j].index
                assert same_count == (ratio_i == ratio_j)


def test_contributions_sum_to_loop_length(p44, p77, p333):
    for p, text in ((p44, "ab"), (p77, "ab"), (p333, "ab"), (p333, "ba")):
        graph = build_hs_graph(p, P(text))
        for loop in graph.loops():
            total = sum(graph.o_n // graph.orders[i] for i in set(loop.colors))
            assert total == loop.length
            for i in set(loop.colors):
                assert loop.colors.count(i) == graph.o_n // graph.orders[i]


def test_rejects_partitions_that_do_not_cover(h1_table, k_table):
    broken = coset_partition(2, [
        CosetSpec(h1_table, P("1")),
        CosetSpec(k_table, P("a")),
    ])
    with pytest.raises(ValueError):
        build_hs_graph(broken, P("ab"))


def test_fuzzed_lifted_partitions(p44):
    rng = random.Random(31)
    for _ in range(10):
        p = random_lifted_partition(rng, 2, max_degree=5, max_order=48)
        assert validate(p).valid
        w = random_word(rng, 2, 5)
        graph = build_hs_graph(p, w)
        loops = graph.loops()
        assert len(loops) * graph.o_n == graph.m
        for loop in loops:
            z = loop_z_partition(graph, loop)
            assert validate_z(z).valid
            assert erdos_checks(z).all_hold


def test_colors_match_word_tracing_reference():
    # colors read off N's product states equal the blocks found by tracing
    # each coset's transversal word; after dropping or repeating a block, the
    # first coset outside exactly one block is named by the same word
    rng = random.Random(405)
    partitions = [random_lifted_partition(rng, rng.choice((2, 2, 3)), max_order=64)
                  for _ in range(60)]
    bundled = sorted((Path(__file__).resolve().parents[1] / "data").glob("*.partition"))
    assert len(bundled) == 5
    partitions += [load_partition(str(path)) for path in bundled]
    invalid = 0
    for p in partitions:
        graph = build_hs_graph(p, random_word(rng, p.rank, 3))
        assert graph.color == coloring_by_words(p, graph.table)
        for specs in (p.specs[1:], p.specs + p.specs[:1]):
            if not specs:
                continue
            bad = CosetPartition(p.rank, specs)
            with pytest.raises(ValueError) as expected:
                coloring_by_words(bad, big_n(bad))
            with pytest.raises(ValueError) as got:
                build_hs_graph(bad, identity(p.rank))
            assert str(got.value) == str(expected.value)
            invalid += 1
    assert invalid > 100
