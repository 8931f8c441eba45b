"""Acceptance gate: every shipped guarantee, one test and one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
(the printed banner is suppressed by default capture, the verdicts are not
affected).  Criteria 1-6 pin exact values of the worked examples; 7-10 are
randomized suites with fixed seeds and zero tolerated violations.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import P, gens, G_GENERATORS
from helpers import (
    cycle_through,
    eval_word,
    loop_z_partition,
    max_cycle_length,
    spanning_generators,
)
from hsforge.files import load_partition
from hsforge.hsgraph import build_hs_graph, fiber_loop_count
from hsforge.partition import (
    act,
    big_n,
    multiplicity,
    normal_core,
    rho,
    validate,
)
from hsforge.perm import CapExceeded, transition_group
from hsforge.sampling import (
    random_lifted_partition,
    random_split_chain,
    random_table,
    random_word,
)
from hsforge.schreier import (
    coset_of,
    cycles,
    order_at,
    table_from_generators,
    transversal,
    visited_set,
    word_step,
)
from hsforge.theorems import analyze, check_full_cycle, check_intersections
from hsforge.zcover import erdos_checks, validate_z
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "data"


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {label}: PASS")


def _all_four(z) -> bool:
    report = erdos_checks(z)
    return (report.not_pairwise_coprime and report.o_max_repeats
            and report.every_modulus_divides_another
            and report.non_divisors_repeat)


def test_criterion_01_fold_index_three(g_table):
    with criterion(1, "folding a five-relator subgroup"):
        assert g_table == table_from_generators(2, gens(2, G_GENERATORS))
        assert g_table.degree == 3
        reps = transversal(g_table)
        assert reps[0].is_identity
        assert [str(r) for r in reps] == ["1", "a", "ab"]
        assert len(transition_group(g_table).enumerate()) == 6


def test_criterion_02_orbit_orders(g_table):
    with criterion(2, "per-vertex word orders"):
        t = g_table
        assert order_at(t, P("abA"), 0) == 2
        assert order_at(t, P("b"), 0) == 1
        assert order_at(t, P("b"), 1) == 2
        assert order_at(t, P("b"), 2) == 2
        for i in range(3):
            assert order_at(t, P("ab"), i) == 3
        assert visited_set(t, P("abA"), 0) == {0, 2}
        assert visited_set(t, P("abA"), 1) == {1}
        assert visited_set(t, P("b"), 0) == {0}
        assert visited_set(t, P("b"), 1) == {1, 2}
        for i in range(3):
            assert visited_set(t, P("ab"), i) == {0, 1, 2}


def test_criterion_03_normal_core_index(k_table):
    with criterion(3, "normal core of the index-4 block"):
        assert k_table.degree == 4
        assert normal_core(k_table).degree == 8


def test_criterion_04_mixed_partition_loop_graph(p44):
    with criterion(4, "mixed partition and its colored loop graph"):
        assert validate(p44).valid
        assert big_n(p44).degree == 8
        graph = build_hs_graph(p44, P("ab"))
        assert graph.m == 8
        assert graph.o_n == 4
        assert graph.orders == (2, 4, 4)
        assert tuple(len(graph.fiber(i)) for i in range(3)) == (4, 2, 2)
        loops = graph.loops()
        assert len(loops) == 2
        assert all(loop.length == 4 for loop in loops)
        for loop in loops:
            z = loop_z_partition(graph, loop)
            assert sorted(z.moduli) == [2, 4, 4]
            assert validate_z(z).valid
            assert _all_four(z)


def test_criterion_05_full_cycle_checker(p44, p77):
    with criterion(5, "full-cycle condition fires and verifies"):
        report = check_full_cycle(p44)
        assert report.status == "applies"
        assert report.verified is True
        assert report.details["max_index"] == 4
        assert report.details["smallest_prime"] == 2
        witness = P(report.details["witness"])
        block = report.details["witness_block"]
        spec = p44.specs[block]
        image = eval_word(transition_group(spec.table), witness)
        assert cycle_through(image, spec.marked) == 4
        assert sorted(p44.indices).count(4) >= 2
        assert sorted(p44.indices) == [2, 4, 4]

        silent = check_full_cycle(p77)
        assert silent.status == "does_not_apply"
        group = transition_group(p77.specs[1].table)
        assert len(group.enumerate()) == 4
        length, _ = max_cycle_length(group)
        assert length == 2


def test_criterion_06_intersection_checker(p77):
    with criterion(6, "intersection condition fires and verifies"):
        report = check_intersections(p77)
        assert report.status == "applies"
        assert report.verified is True
        assert report.details["fired"] == [[1, 2]]
        entry = next(e for e in report.details["pairs"] if e["pair"] == [1, 2])
        assert entry["strict_refinement"] is True
        assert entry["condition_holds"] is True
        assert entry["subgroups_equal"] is True
        assert p77.specs[1].table == p77.specs[2].table


def test_criterion_07_metric_suite(p44, p77, p22, p333):
    with criterion(7, "metric axioms, translation invariance, discreteness"):
        rng = random.Random(700)
        assert rho(p44, p44) == 0
        assert rho(p44, p77) == Fraction(1, 2)
        for base in (p44, p77):
            for _ in range(50):
                w = random_word(rng, 2, 8)
                assert rho(base, act(base, w)) == 0

        pool = [p44, p77, p22, p333]
        for _ in range(16):
            pool.append(random_lifted_partition(rng, 2, max_degree=4,
                                                max_order=24))
        for _ in range(1000):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert rho(a, c) <= rho(a, b) + rho(b, c)
            assert rho(a, b) == rho(b, a)

        def tables_sig(p):
            return tuple(sorted((s.table.degree, s.table.delta)
                                for s in p.specs))

        for a in pool:
            for b in pool:
                distance = rho(a, b)
                assert (distance == 0) == (tables_sig(a) == tables_sig(b))
                if distance != 0:
                    assert distance >= Fraction(1, 2 ** (a.size + 1))


def test_criterion_08_property_suite():
    started = time.monotonic()
    with criterion(8, "orbit and loop invariants on random instances"):
        rng = random.Random(800)

        # 200 random folded subgroups of index <= 30, 20 random words each.
        for _ in range(200):
            rank = rng.choice((2, 2, 3))
            t = random_table(rng, rank, 30)
            d = t.degree
            generators = spanning_generators(t)
            assert table_from_generators(rank, generators) == t
            assert all(coset_of(t, g) == 0 for g in generators)
            try:
                group_order = len(transition_group(t).enumerate(20000))
            except CapExceeded:
                group_order = None
            for _ in range(20):
                w = random_word(rng, rank, 8)
                step = word_step(t, w)
                orders = []
                distinct: dict[frozenset[int], int] = {}
                for i in range(d):
                    o = order_at(t, w, i)
                    v = visited_set(t, w, i)
                    assert len(v) == o
                    orders.append(o)
                    distinct[v] = o
                    if group_order is not None:
                        assert group_order % o == 0
                union: set[int] = set()
                for v, o in distinct.items():
                    assert not union & v
                    union |= v
                assert union == set(range(d))
                assert sum(distinct.values()) == d
                pos = list(range(d))
                for k in range(1, 3 * d + 1):
                    pos = [step[x] for x in pos]
                    for i in range(d):
                        if pos[i] == i:
                            assert k % orders[i] == 0

        # 50 random partitions lifted from finite quotients of order <= 64,
        # 20 random words each.
        for _ in range(50):
            rank = rng.choice((2, 2, 3))
            p = random_lifted_partition(rng, rank, max_degree=6, max_order=64)
            assert validate(p).valid
            nt = big_n(p)
            m = nt.degree
            assert all(m % d == 0 for d in p.indices)
            assert sum(m // d for d in p.indices) == m
            for _ in range(20):
                w = random_word(rng, rank, 6)
                graph = build_hs_graph(p, w)
                assert graph.table == nt
                o_n = graph.o_n
                loops = graph.loops()
                assert len(loops) * o_n == m
                assert all(loop.length == o_n for loop in loops)
                for loop in loops:
                    total = 0
                    for c in set(loop.colors):
                        share = loop.colors.count(c)
                        assert share == o_n // graph.orders[c]
                        positions = [j for j, col in enumerate(loop.colors)
                                     if col == c]
                        # cyclic successor gaps; a lone occurrence is o_n away
                        # from itself, not 0
                        gaps = {(positions[(j + 1) % share] - positions[j] - 1)
                                % o_n + 1 for j in range(share)}
                        assert gaps == {graph.orders[c]}
                        total += share
                    assert total == o_n
                    z = loop_z_partition(graph, loop)
                    assert validate_z(z).valid
                    assert _all_four(z)
                for i in range(p.size):
                    d_i = p.indices[i]
                    count = fiber_loop_count(graph, i)
                    assert count == (m // d_i) // (o_n // graph.orders[i])
                    assert (graph.orders[i] == d_i) == (count == len(loops))
                for i in range(p.size):
                    for j in range(i + 1, p.size):
                        same = (fiber_loop_count(graph, i)
                                == fiber_loop_count(graph, j))
                        assert same == (
                            Fraction(graph.orders[i], p.indices[i])
                            == Fraction(graph.orders[j], p.indices[j]))
                # words act with a single order on the table of the normal
                # subgroup underlying the loop graph: equal cycle lengths,
                # dividing the degree, with degree/order many cycles.
                w_cycles = cycles(word_step(nt, w))
                lengths = {len(c) for c in w_cycles}
                assert len(lengths) == 1
                o = lengths.pop()
                assert m % o == 0
                assert len(w_cycles) == m // o
                for i in (0, m // 2, m - 1):
                    assert order_at(nt, w, i) == o
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"


def test_criterion_09_residue_class_suite():
    with criterion(9, "random refinement chains over the integers"):
        rng = random.Random(900)
        for _ in range(500):
            z = random_split_chain(rng, max_period=10**4)
            assert z.period <= 10**4
            assert validate_z(z).valid
            assert _all_four(z)


def test_criterion_10_soundness(p44, p77, p22, p333, whole_group):
    with criterion(10, "checkers never fire without a repeated index"):
        rng = random.Random(1000)
        pool = [p44, p77, p22, p333, whole_group]
        for path in DATA.glob("*.partition"):
            pool.append(load_partition(str(path)))
        for _ in range(20):
            pool.append(random_lifted_partition(rng, 2, max_degree=5,
                                                max_order=32))
        for p in pool:
            analysis = analyze(p)
            assert analysis.exit_code != 2
            assert analysis.soundness_problems == []
            assert analysis.valid
            has_repeat = bool(multiplicity(p))
            for report in analysis.reports:
                if report.status == "applies":
                    assert has_repeat
