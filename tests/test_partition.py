"""Coset partitions: validation, products, cores, the metric, group actions."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings

import hsforge.partition
import hsforge.perm
from conftest import P, nonempty_words, words
from helpers import (
    EmptyWord,
    alternating,
    automaton_table,
    big_n_by_cores,
    core_product_by_cayley,
    coset_action_table_by_cosets,
    coset_partition,
    covering_counts,
    first_bad_state_by_bfs,
    group_partition,
    intersection_by_products,
    normal_core_by_cayley,
    orbit_size_under,
    closure_by_bfs,
    contains,
    partition_signature,
    pgl25,
    product_by_columns,
    reduced_words_up_to,
    fuzz_partitions,
    residue_partition,
    rho_recomputed,
    s2_wr_s3,
    separating_subgroup,
    sym_ladder_partition,
    two_table_sym_partition,
)
from hsforge.files import load_partition
from hsforge.hsgraph import build_hs_graph
from hsforge.partition import (
    CosetPartition,
    CosetSpec,
    NotAPartition,
    StateCapExceeded,
    act,
    big_n,
    intersection_conditions,
    lift_partition,
    multiplicity,
    normal_core,
    order_rel,
    product,
    quotient_by_n,
    refinement_index,
    relative_orders,
    rho,
    validate,
    _coset_action_table,
)
from hsforge.perm import PermGroup, Permutation, transition_group
from hsforge.sampling import (
    random_lifted_partition,
    random_quotient,
    random_quotient_partition,
    random_table,
    random_word,
)
from hsforge.schreier import (
    CapExceeded, CosetTable, coset_of, cycles, table_from_generators, transversal,
    word_step)
from hsforge.theorems import analyze
from hsforge.words import Word, identity, letter_from_column, multiply, parse_word

BUNDLED = sorted((Path(__file__).resolve().parents[1] / "data").glob("*.partition"))
BUNDLED_THREES = Path(__file__).resolve().parents[1] / "data" / "ex_three_threes.partition"


def lifted_draws(seed: int, count: int):
    """(rank, quotient, blocks) triples from the sampling generator."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rank = rng.choice((2, 2, 3))
        quotient = random_quotient(rng, rank, 6, 64)
        out.append((rank, quotient, random_quotient_partition(rng, quotient, 3)))
    return out


def test_spec_marked_and_contains(k_table):
    spec = CosetSpec(k_table, P("a"))
    assert spec.index == 4
    assert spec.marked == 1
    assert contains(spec, P("a"))
    assert contains(spec, P("ba"))       # b is in the subgroup
    assert not contains(spec, P("abba"))  # that word is in the subgroup itself
    assert not contains(spec, P("b"))
    assert not contains(spec, identity(2))
    with pytest.raises(ValueError):
        from hsforge.words import parse_word
        CosetSpec(k_table, parse_word(3, "c"))
    with pytest.raises(ValueError, match="need at least one block"):
        CosetPartition(2, [])
    with pytest.raises(ValueError, match="block rank 2 != partition rank 3"):
        CosetPartition(3, [spec])


def test_marked_vertex_is_traced_once_per_block(monkeypatch, k_table):
    calls = []
    coset_of = hsforge.partition.coset_of
    monkeypatch.setattr(hsforge.partition, "coset_of",
                        lambda *args: calls.append(args) or coset_of(*args))
    p = sym_ladder_partition(6)
    analyze(p)
    assert len(calls) <= p.size
    # the marked vertex is neither compared nor printed: blocks stay equal
    # and hash alike exactly when their tables and reps do
    spec = CosetSpec(k_table, P("a"))
    assert spec == CosetSpec(k_table, P("a"))
    assert hash(spec) == hash(CosetSpec(k_table, P("a")))
    assert spec != CosetSpec(k_table, P("ba"))
    assert "marked" not in repr(spec)


def test_partition_sorts_blocks_ascending(h1_table, k_table):
    p = coset_partition(2, [
        CosetSpec(k_table, P("ab")),
        CosetSpec(h1_table, P("1")),
        CosetSpec(k_table, P("a")),
    ])
    assert p.indices == (2, 4, 4)
    assert p.size == 3
    # equal-table blocks keep their given relative order
    assert [str(s.rep) for s in p.specs] == ["1", "ab", "a"]
    descending = p.tables_descending()
    assert [t.degree for t in descending] == [4, 4, 2]


def test_validate_example_partitions(p44, p77):
    for p in (p44, p77):
        report = validate(p)
        assert report.valid
        assert report.state_count == 4
        assert report.gap_witness is None
        assert report.overlap_witness is None


def test_validate_finds_gap(h1_table, k_table):
    p = coset_partition(2, [
        CosetSpec(h1_table, P("1")),
        CosetSpec(k_table, P("a")),
    ])
    report = validate(p)
    assert not report.valid
    assert str(report.gap_witness) == "ab"
    # the witness really is uncovered
    assert covering_counts(p.specs, [report.gap_witness]) == [0]


def test_validate_finds_overlap(h1_table):
    p = coset_partition(2, [
        CosetSpec(h1_table, P("1")),
        CosetSpec(h1_table, P("1")),
    ])
    report = validate(p)
    assert not report.valid
    w, i, j = report.overlap_witness
    assert w.is_identity and (i, j) == (0, 1)


def test_validate_agrees_with_word_coverage_oracle(p44, p77, p333):
    all_words = reduced_words_up_to(2, 6)
    for p in (p44, p77, p333):
        assert validate(p).valid
        assert set(covering_counts(p.specs, all_words)) == {1}


def test_validation_keeps_p_as_the_table_of_the_blocks_intersection():
    # P is the orbit of the basepoints, so it is the blocks' product from
    # vertex 0 of each table, and F acts on it with kernel N: the lcm of the
    # lengths of w's cycles on P is the order of w modulo N
    rng = random.Random(28)
    pool = [load_partition(str(path)) for path in BUNDLED] + list(fuzz_partitions(60))
    for p in pool:
        table = validate(p).table
        assert table == automaton_table(product([s.table for s in p.specs], [0] * p.size))
        one_letter = [Word(p.rank, (letter_from_column(c),)) for c in range(2 * p.rank)]
        for w in [*one_letter, *(random_word(rng, p.rank, 8) for _ in range(3))]:
            assert lcm(*map(len, cycles(word_step(table, w)))) == build_hs_graph(p, w).o_n


def test_single_block_partition_is_the_whole_group():
    table = table_from_generators(2, [P("a"), P("b")])
    p = coset_partition(2, [CosetSpec(table, P("1"))])
    assert validate(p).valid
    assert multiplicity(p) == set()


def test_multiplicity(p44, p77, p22, p333):
    assert multiplicity(p44) == {4}
    assert multiplicity(p77) == {4}
    assert multiplicity(p22) == {2}
    assert multiplicity(p333) == {3}


def test_product_state_counts(h1_table, k_table, g_table):
    assert product([h1_table, k_table], [0, 0]).state_count == 4
    assert product([g_table, g_table], [0, 0]).state_count == 3
    assert product([g_table], [1]).state_count == 3
    auto = product([h1_table, k_table], [0, 0])
    assert automaton_table(auto).degree == 4
    with pytest.raises(StateCapExceeded):
        product([h1_table, k_table], [0, 0], cap=3)


def test_product_rejects_base_vertices_out_of_range():
    # a negative vertex must not wrap around to the table's last vertex
    table = load_partition(str(BUNDLED_THREES)).specs[0].table
    assert table.degree == 3
    for v in (-1, -3, 3, 4):
        with pytest.raises(ValueError, match="out of range"):
            product([table], [v])
        with pytest.raises(ValueError, match="out of range"):
            product([table, table], [0, v])
    assert product([table], [2]).state_count == 3
    # and the tables and base must fit each other
    with pytest.raises(ValueError, match="need at least one table"):
        product([], [])
    with pytest.raises(ValueError, match="tables must share one rank"):
        product([table, CosetTable(1, ((0, 0),))], [0, 0])
    with pytest.raises(ValueError, match="one base vertex per table required"):
        product([table, table], [0])


def test_product_matches_the_per_column_reference():
    # each distinct table gets its own vertex labels inside product; states,
    # index, parent pointers, columns and rows must come out as the plain
    # per-column product's, and both must raise below the state count
    cases = []
    bundled = [load_partition(str(path)) for path in BUNDLED]
    lifted = [lift_partition(*draw) for draw in lifted_draws(306, 60)]
    whole = CosetPartition(2, [CosetSpec(CosetTable(2, ((0, 0, 0, 0),)), identity(2))])
    for p in bundled + lifted + [whole]:
        tables = [spec.table for spec in p.specs]
        cases.append((tables, [0] * p.size))
        if len(p.groups) > 1:
            cases.append((tables, [spec.marked for spec in p.specs]))
    for p in lifted + [whole]:
        cores = [group.cayley_table() for group in p.groups.values()]
        cases.append((cores, [0] * len(cores)))
        assert big_n(p) == automaton_table(product_by_columns(cores, [0] * len(cores)))
    table = bundled[0].specs[-1].table
    cases += [([table], [v]) for v in range(table.degree)]
    cases.append(([whole.specs[0].table] * 2, [0, 0]))
    mixed = [tables for tables, _ in cases if len(set(tables)) > 1]
    assert len(mixed) >= 40
    for tables, base in cases:
        auto = product(tables, base)
        assert auto == product_by_columns(tables, base)
        size = auto.state_count
        assert product(tables, base, size) == auto
        for build in (product, product_by_columns):
            with pytest.raises(StateCapExceeded):
                build(tables, base, size - 1)
    # a degree-1 group: its closure is the identity alone, a 1-tuple state
    group = transition_group(whole.specs[0].table)
    assert [e.images for e in group.enumerate()] == [(0,)]
    assert closure_by_bfs(whole.specs[0].table) == [((0,), ())]
    assert group.cayley_table() == whole.specs[0].table


def test_relative_orders_reject_a_word_of_another_rank(p44):
    # the rank-3 word "ab" used to give relative order 1 on every block
    for i in range(p44.size):
        with pytest.raises(ValueError, match="word rank 3 != table rank 2"):
            order_rel(p44, i, parse_word(3, "ab"))
    with pytest.raises(ValueError, match="word rank 3 != table rank 2"):
        relative_orders(p44, parse_word(3, "ab"))


def test_relative_orders_reject_a_block_out_of_range(p44):
    # -1 used to answer for the last block, and size raised a bare IndexError
    threes = load_partition(str(BUNDLED_THREES))
    for p in (p44, threes):
        for i in (-1, -p.size, p.size, p.size + 5):
            with pytest.raises(ValueError, match="block i out of range"):
                order_rel(p, i, P("ab"))


def test_relative_orders(p44, p77):
    assert [order_rel(p44, i, P("ab")) for i in range(3)] == [2, 4, 4]
    assert relative_orders(p44, P("ab")) == [2, 4, 4]
    assert [order_rel(p77, i, P("ab")) for i in range(3)] == [2, 2, 2]
    assert relative_orders(p77, P("ab")) == [2, 2, 2]
    assert relative_orders(p44, identity(2)) == [1, 1, 1]


def test_relative_orders_compose_each_table_once():
    rng = random.Random(22)
    pool = [load_partition(str(path)) for path in BUNDLED]
    pool += [*fuzz_partitions(20), *map(two_table_sym_partition, range(5, 8))]
    for p in pool:
        one_letter = [Word(p.rank, (letter_from_column(c),)) for c in range(2 * p.rank)]
        for w in [identity(p.rank), *one_letter,
                  *(random_word(rng, p.rank, 12) for _ in range(4))]:
            assert relative_orders(p, w) == [order_rel(p, i, w) for i in range(p.size)]


def test_normal_core(k_table, g_table, m_table, h1_table):
    core_k = normal_core(k_table)
    assert core_k.degree == 8
    assert normal_core(g_table).degree == 6
    assert normal_core(m_table) == m_table
    assert normal_core(h1_table) == h1_table
    assert normal_core(core_k) == core_k
    # the core sits inside the subgroup: every scheduled coset of the core
    # lands in K when traced through K's table
    for rep in transversal(core_k):
        if coset_of(core_k, rep) == 0:
            assert coset_of(k_table, rep) == 0


def test_big_n(p44, p77, p333):
    assert big_n(p44).degree == 8
    assert big_n(p77).degree == 4
    assert big_n(p333).degree == 6


def test_sum_of_fiber_sizes(p44, p77, p333):
    for p in (p44, p77, p333):
        m = big_n(p).degree
        assert sum(m // d for d in p.indices) == m


def test_act_moves_representatives(p44):
    q = act(p44, P("ab"))
    assert [s.marked for s in q.specs] == [1, 0, 3]
    assert [s.table for s in q.specs] == [s.table for s in p44.specs]
    assert validate(q).valid
    assert partition_signature(act(p44, identity(2))) == partition_signature(p44)


@given(words(max_len=5), words(max_len=5))
def test_act_is_a_right_action(p44, u, v):
    left = act(act(p44, u), v)
    right = act(p44, multiply(u, v))
    assert partition_signature(left) == partition_signature(right)


def test_orbit_size(p44, p77):
    assert orbit_size_under(p44, P("ab")) == 4
    assert orbit_size_under(p77, P("b")) == 2
    assert orbit_size_under(p44, identity(2)) == 1
    # first return of every marked vertex to its original position
    for p, w in ((p44, P("ab")), (p77, P("b")), (p44, P("a"))):
        start = tuple(s.marked for s in p.specs)
        current = p
        steps = 0
        while True:
            current = act(current, w)
            steps += 1
            if tuple(s.marked for s in current.specs) == start:
                break
        assert steps == orbit_size_under(p, w)


def test_rho_values(p44, p77, p22, p333):
    assert rho(p44, p44) == 0
    assert rho(p44, p77) == Fraction(1, 2)
    assert rho(p77, p44) == Fraction(1, 2)
    assert rho(p44, act(p44, P("ab"))) == 0
    assert rho(p22, p333) == Fraction(1, 2)
    for p, q in ((p44, p77), (p44, p333), (p22, p44)):
        assert rho(p, q) == rho_recomputed(p, q)


def test_rho_prefix_mismatch(k_table):
    one = coset_partition(2, [CosetSpec(k_table, P("1"))])
    two = coset_partition(2, [CosetSpec(k_table, P("1")),
                              CosetSpec(k_table, P("a"))])
    assert rho(one, two) == Fraction(1, 4)
    assert rho(one, one) == 0


def test_rho_ignores_representatives(p44):
    shifted = act(p44, P("a"))
    assert partition_signature(shifted) != partition_signature(p44)
    assert rho(p44, shifted) == 0


def test_discreteness_bound(p44, p77, p22, p333):
    pool = [p44, p77, p22, p333]
    for p in pool:
        bound = Fraction(1, 2 ** (p.size + 1))
        for q in pool:
            d = rho(p, q)
            if d != 0:
                assert d >= bound


def test_separating_subgroup():
    for text in ("a", "ab", "abA", "bbA", "aBaB"):
        w = P(text)
        table = separating_subgroup(2, w)
        assert table.degree == len(w) + 1
        assert coset_of(table, w) != 0
    with pytest.raises(EmptyWord):
        separating_subgroup(2, identity(2))
    with pytest.raises(ValueError):
        separating_subgroup(3, P("ab"))


@given(nonempty_words(max_len=8))
def test_separating_subgroup_never_contains_its_word(w):
    assert coset_of(separating_subgroup(2, w), w) != 0


def test_intersection_conditions(p44, p77, p333):
    for p in (p44, p77):
        report = intersection_conditions(p, 1, 2)
        assert report.index_all == 4
        assert report.index_without == 2
        assert report.strict_refinement
        assert report.condition_holds
        assert report.subgroups_equal is True
        quiet = intersection_conditions(p, 0, 1)
        assert quiet.index_all == 4 and quiet.index_without == 4
        assert not quiet.condition_holds
        assert quiet.subgroups_equal is None
    fired = intersection_conditions(p333, 0, 1)
    assert fired.index_all == 6 and fired.index_without == 3
    assert fired.condition_holds and fired.subgroups_equal is True


def test_intersection_conditions_argument_checks(p44, p22):
    with pytest.raises(ValueError):
        intersection_conditions(p44, 1, 1)
    with pytest.raises(ValueError):
        intersection_conditions(p44, 2, 1)
    with pytest.raises(ValueError):
        intersection_conditions(p22, 0, 1)


def test_pair_indices_match_per_pair_products():
    # every pair's report, read off the one cached all-blocks orbit, equals
    # the report built from its own product automata.  A fresh copy and a
    # copy whose F/N is kept answer alike at cap = the all-blocks index;
    # below it the pair's products raise, and so do those copies, except on
    # a one-table partition whose group's census scan stopped early: its
    # indices are read off that scan, which holds fewer states than the
    # index.  That is so for S_5, S_6, A_6 and A_7, not for A_5, PGL(2,5) or
    # S_2 wr S_3, which the scan does not recognize
    pool = [load_partition(str(path)) for path in BUNDLED]
    lifted = (lift_partition(*draw) for draw in lifted_draws(305, 200))
    pool += [p for p in lifted if p.size >= 3][:60]
    pool += [sym_ladder_partition(d) for d in (5, 6)]
    pool += [group_partition(group) for group in (
        alternating(5), alternating(6), alternating(7), pgl25(), s2_wr_s3())]
    assert len(pool) == 72 and min(p.size for p in pool) >= 3
    stopped_early = 0
    for p in pool:
        for j in range(p.size):
            for k in range(j + 1, p.size):
                assert intersection_conditions(p, j, k) == intersection_by_products(p, j, k)
        index = intersection_conditions(p, 0, 1).index_all
        with_quotient = []
        for _ in range(2):
            copy = CosetPartition(p.rank, p.specs)
            refinement_index(copy)
            with_quotient.append(copy)
        at_cap, below_cap = with_quotient
        for copy in (CosetPartition(p.rank, p.specs), at_cap):
            assert (intersection_conditions(copy, 0, 2, index)
                    == intersection_by_products(p, 0, 2, index))
        with pytest.raises(StateCapExceeded):
            intersection_by_products(p, 1, 2, index - 1)
        scanned = p._marked.value.state_count
        stopped_early += scanned < index
        for copy in (CosetPartition(p.rank, p.specs), below_cap):
            if scanned < index:
                assert len(p.groups) == 1
                assert (intersection_conditions(copy, 1, 2, index - 1)
                        == intersection_by_products(p, 1, 2))
            else:
                with pytest.raises(StateCapExceeded):
                    intersection_conditions(copy, 1, 2, index - 1)
    assert stopped_early == 4


def test_pair_indices_survive_a_resumed_scan():
    # S_6's census scan stops early; enumerating F/N resumes it, and the
    # pair indices read off the complete closure are still the products'
    p = sym_ladder_partition(6)
    assert p.quotient.order() == 720 and not p.quotient._elements.orbit.complete
    p.quotient.enumerate()
    assert p.quotient._elements.orbit.complete
    for j in range(p.size):
        for k in range(j + 1, p.size):
            assert intersection_conditions(p, j, k) == intersection_by_products(p, j, k)


def klein_quotient() -> PermGroup:
    return PermGroup(4, (Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))))


def test_lift_partition_reconstructs_normal_example(p77, h1_table, m_table):
    quotient = klein_quotient()
    one = Permutation.identity(4)
    a_bar, b_bar = quotient.gens
    blocks = [
        (frozenset({one, b_bar}), one),
        (frozenset({one}), a_bar),
        (frozenset({one}), a_bar * b_bar),
    ]
    lifted = lift_partition(2, quotient, blocks)
    assert validate(lifted).valid
    assert [s.table for s in lifted.specs] == [h1_table, m_table, m_table]
    assert [str(s.rep) for s in lifted.specs] == ["1", "a", "ab"]
    assert rho(lifted, p77) == 0
    assert partition_signature(lifted) == partition_signature(p77)


def test_lift_partition_regular_quotient(h1_table):
    # F_2 -> Z_2 (a nontrivial, b trivial): two cosets of the trivial subgroup
    quotient = PermGroup(2, (Permutation((1, 0)), Permutation((0, 1))))
    one = Permutation.identity(2)
    blocks = [(frozenset({one}), one), (frozenset({one}), quotient.gens[0])]
    lifted = lift_partition(2, quotient, blocks)
    assert lifted.indices == (2, 2)
    assert [s.table for s in lifted.specs] == [h1_table, h1_table]
    assert validate(lifted).valid


def test_lift_partition_builds_coset_tables_under_its_own_cap(monkeypatch):
    # a default cap of 10 on PermGroup.order stands in for a quotient
    # larger than 10**6: S_4 is enumerated under cap 100, and its coset
    # tables must be searched under that cap too
    monkeypatch.setattr(PermGroup.order, "__defaults__", (10,))
    quotient = PermGroup(4, (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))))
    every = frozenset(quotient.enumerate(100))
    assert len(every) == 24
    lifted = lift_partition(2, quotient, [(every, Permutation.identity(4))], cap=100)
    assert lifted.indices == (1,)
    assert validate(lifted).valid


def test_lift_partition_builds_one_table_per_subgroup(monkeypatch):
    # the blocks of one subgroup share one table object, built once, and
    # the tables are the right-coset actions built element by element
    built = []

    def counted(rank, quotient, sub, cap, original=_coset_action_table):
        built.append(sub)
        return original(rank, quotient, sub, cap)
    monkeypatch.setattr(hsforge.partition, "_coset_action_table", counted)
    shared = 0
    for rank, quotient, blocks in lifted_draws(307, 60):
        built.clear()
        p = lift_partition(rank, quotient, blocks)
        subgroups = {frozenset(sub) for sub, _ in blocks}
        assert len(built) == len(set(built)) and set(built) == subgroups
        assert len({id(spec.table) for spec in p.specs}) == len(p.groups) == len(subgroups)
        assert set(p.groups) == {coset_action_table_by_cosets(rank, quotient, sub)
                                 for sub in subgroups}
        shared += len(subgroups) < p.size
    assert shared > 10


def test_lift_partition_symmetric_group(g_table):
    # S_3 partitioned into the three right cosets of a point stabilizer
    quotient = transition_group(g_table)
    elements = quotient.enumerate()
    one = Permutation.identity(3)
    swap = Permutation((1, 0, 2))
    sub = frozenset({one, swap})
    reps = [one, Permutation((0, 2, 1)), Permutation((2, 1, 0))]
    cover = set()
    for r in reps:
        cover |= {x * r for x in sub}
    assert cover == set(elements)
    lifted = lift_partition(2, quotient, [(sub, r) for r in reps])
    assert lifted.indices == (3, 3, 3)
    assert validate(lifted).valid
    assert multiplicity(lifted) == {3}


def test_lift_partition_rejects_non_partitions():
    quotient = klein_quotient()
    one = Permutation.identity(4)
    a_bar, b_bar = quotient.gens
    with pytest.raises(NotAPartition):  # overlap: wrong subgroup image
        lift_partition(2, quotient, [
            (frozenset({one, a_bar}), one),
            (frozenset({one}), a_bar),
            (frozenset({one}), a_bar * b_bar),
        ])
    with pytest.raises(NotAPartition):  # not closed
        lift_partition(2, quotient, [
            (frozenset({one, a_bar, b_bar}), one),
            (frozenset({one}), a_bar * b_bar),
        ])
    with pytest.raises(NotAPartition):  # missing identity
        lift_partition(2, quotient, [(frozenset({a_bar}), one)])
    with pytest.raises(NotAPartition):  # does not cover
        lift_partition(2, quotient, [(frozenset({one, b_bar}), one)])


@settings(max_examples=15)
@given(words(max_len=4))
def test_lifted_partitions_stay_valid_under_translation(w):
    rng = random.Random(5)
    p = random_lifted_partition(rng, 2, max_degree=5, max_order=48)
    assert validate(p).valid
    q = act(p, w)
    assert validate(q).valid
    assert sorted(q.indices) == sorted(p.indices)


def test_lift_preserves_index_multiset():
    rng = random.Random(23)
    for _ in range(10):
        quotient = PermGroup(4, (
            Permutation(tuple(rng.sample(range(4), 4))),
            Permutation(tuple(rng.sample(range(4), 4))),
        ))
        try:
            quotient.enumerate(64)
        except Exception:
            continue
        from hsforge.sampling import random_quotient_partition
        blocks = random_quotient_partition(rng, quotient)
        order = len(quotient.enumerate())
        expected = sorted(order // len(sub) for sub, _ in blocks)
        lifted = lift_partition(2, quotient, blocks)
        assert sorted(lifted.indices) == expected
        assert validate(lifted).valid


def test_validation_cap(p44):
    with pytest.raises(StateCapExceeded):
        fresh = coset_partition(2, list(p44.specs))
        validate(fresh, cap=2)


def test_a_failed_product_is_not_run_again(monkeypatch):
    # two distinct tables, m = 12 and P with 12 states: m and N share one
    # closure of F/N, and a closure or product that failed under a cap
    # raises at once for the same or a smaller cap, while a larger cap runs
    # it again.  F/N's search runs in perm, validation's in partition; F/N
    # is built on first use, after the patch, so its closure is counted
    p = residue_partition([(6, 0), (6, 2), (6, 4), (4, 1), (4, 3)])
    assert len(p.groups) == 2
    caps = []

    def counted(start, images, cap, original=hsforge.partition.orbit):
        caps.append(cap)
        return original(start, images, cap)

    def closed(group, cap, original=hsforge.perm._close):
        if group is p.quotient:
            caps.append(cap)
        return original(group, cap)

    monkeypatch.setattr(hsforge.partition, "orbit", counted)
    monkeypatch.setattr(hsforge.perm, "_close", closed)
    for call in (refinement_index, big_n, refinement_index):
        with pytest.raises(StateCapExceeded, match=r"\(11\)"):
            call(p, state_cap=11)
    assert caps == [11]
    assert refinement_index(p) == 12 and big_n(p).degree == 12
    assert refinement_index(p, state_cap=12) == 12
    assert caps == [11, 10**6]
    for _ in range(2):
        with pytest.raises(StateCapExceeded, match=r"\(1\)"):
            validate(p, 1)
    assert caps == [11, 10**6, 1]
    assert validate(p).state_count == 12 and validate(p, 12).valid
    assert caps == [11, 10**6, 1, 10**6]


def fn_inputs() -> list[CosetPartition]:
    """The bundled examples, 60 lifted fuzz partitions, a residue partition
    whose m exceeds every group order, and the d = 5 ladder."""
    rng = random.Random(307)
    lifted = [random_lifted_partition(rng, rng.choice((2, 2, 3)), max_order=64)
              for _ in range(60)]
    residue = residue_partition([(6, 0), (6, 2), (6, 4), (4, 1), (4, 3)])
    return ([load_partition(str(path)) for path in BUNDLED] + lifted
            + [residue, sym_ladder_partition(5)])


def test_fn_closure_matches_the_product_of_cores():
    # N's table, numbering included, and m are those of the product of the
    # cores; one table shares its transition group's closure
    inputs = fn_inputs()
    assert sum(len(p.groups) > 1 for p in inputs) >= 15
    for p in inputs:
        reference = core_product_by_cayley(p)
        assert big_n(p) == automaton_table(reference)
        assert refinement_index(p) == reference.state_count
        if len(p.groups) == 1:
            (group,) = p.groups.values()
            assert quotient_by_n(p) is group.enumerate().orbit
    residue = inputs[-2]
    assert refinement_index(residue) == 12
    assert all(group.order() < 12 for group in residue.groups.values())
    assert refinement_index(inputs[-1]) == 120


def _outcome(call, p, **caps):
    """call's answer on a fresh copy of p, or its error's type and message."""
    try:
        return call(CosetPartition(p.rank, p.specs), **caps)
    except CapExceeded as err:
        return type(err), str(err)


def test_two_table_sym_partition_has_m_d_factorial():
    # F/N of the two-table S_d partition is the side-by-side group, none of
    # its block groups, and the one cap rule holds at any number of tables:
    # m is F/N's order when its search fits the state cap, which the plain
    # orbit's d! states exceed under d! - 1 while the ladder's census scan
    # holds fewer, and N's table needs all d! cosets under the state cap.
    # No block group of the two tables is searched for m or N
    for d in range(5, 8):
        m = factorial(d)
        p = two_table_sym_partition(d)
        ladder = sym_ladder_partition(d)
        assert validate(p).valid
        assert p.size == 2 * d - 2 and len(p.groups) == 2
        assert all(group is not p.quotient for group in p.groups.values())
        assert refinement_index(p) == refinement_index(ladder) == m
        if d <= 6:
            assert big_n(p).degree == big_n(ladder).degree == m
        assert all(group._elements is None for group in p.groups.values())
        too_many = (StateCapExceeded, f"product automaton larger than cap ({m - 1})")
        assert _outcome(refinement_index, p, state_cap=m - 1) == too_many
        assert _outcome(refinement_index, ladder, state_cap=m - 1) == m
        for q in (p, ladder):
            assert _outcome(big_n, q, state_cap=m - 1) == too_many


def test_fn_caps_match_the_product_of_cores():
    # fresh copies under state_cap m and m - 1 answer as the product of the
    # cores does, at any number of tables, but m on the S_d ladder: its one
    # group's census scan holds fewer than m states, so m answers under
    # both caps, while N's table needs all m cosets.  No block group of
    # several tables is searched for m or N
    m_of = lambda q, state_cap: core_product_by_cayley(q, state_cap).state_count
    n_of = lambda q, state_cap: big_n(q, state_cap).degree
    recognized = 0
    for p in fn_inputs():
        m = m_of(p, 10**6)
        answers = [tuple(_outcome(call, p, state_cap=cap)
                         for call in (m_of, refinement_index, n_of))
                   for cap in (m, m - 1)]
        too_many = (StateCapExceeded, f"product automaton larger than cap ({m - 1})")
        assert answers[0] == (m, m, m)
        assert big_n(p).degree == m
        if len(p.groups) > 1:
            assert all(group._elements is None for group in p.groups.values())
        if p._quotient.value.state_count < m:
            recognized += 1
            assert answers[1] == (too_many, m, too_many)
        else:
            assert answers[1] == (too_many,) * 3
    assert recognized == 1


def test_normal_core_matches_cayley_table(g_table, k_table, h1_table, m_table):
    rng = random.Random(301)
    tables = [g_table, k_table, h1_table, m_table]
    tables += [random_table(rng, rng.choice((1, 2, 3)), 6) for _ in range(300)]
    for table in tables:
        assert normal_core(table) == normal_core_by_cayley(table)


def test_coset_action_tables_and_n_match_references():
    # lifted partitions: the orbit of K equals the table built coset by coset,
    # and N over the distinct tables equals the product over every block
    for rank, quotient, blocks in lifted_draws(302, 60):
        for sub, _ in blocks:
            assert (_coset_action_table(rank, quotient, sub)
                    == coset_action_table_by_cosets(rank, quotient, sub))
        p = lift_partition(rank, quotient, blocks)
        assert big_n(p) == big_n_by_cores(p)
    assert len(BUNDLED) == 5
    for path in BUNDLED:
        p = load_partition(str(path))
        assert big_n(p) == big_n_by_cores(p)


def test_validation_witnesses_match_bfs_oracle():
    # drop a block (a gap), add a moved copy of one (usually an overlap), or
    # add two copies of one (a state in three blocks)
    rng = random.Random(303)
    kinds = set()
    for rank, quotient, blocks in lifted_draws(304, 60):
        specs = list(lift_partition(rank, quotient, blocks).specs)
        spec = rng.choice(specs)
        change = rng.choice(("drop", "move", "twice"))
        if change == "drop" and len(specs) > 1:
            specs.remove(spec)
        elif change == "twice":
            specs += [spec, spec]
        else:
            specs.append(CosetSpec(
                spec.table, multiply(spec.rep, random_word(rng, rank, 3))))
        p = CosetPartition(rank, specs)
        report = validate(p)
        expected = first_bad_state_by_bfs(p)
        if expected is None:
            assert report.valid
            continue
        letters, hits = expected
        assert not report.valid
        if not hits:
            kinds.add("gap")
            assert report.gap_witness.letters == letters
            assert report.overlap_witness is None
        else:
            kinds.add("overlap" if len(hits) == 2 else "triple")
            assert report.gap_witness is None
            w, i, j = report.overlap_witness
            assert (w.letters, [i, j]) == (letters, hits[:2])
    assert kinds == {"gap", "overlap", "triple"}
