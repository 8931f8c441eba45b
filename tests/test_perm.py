"""Vertex permutations, transition groups, cycle search, witness words."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import given

import hsforge.perm
from conftest import P, words
from helpers import (
    alternating,
    closure_by_bfs,
    cycle_through,
    cycle_type_census_by_elements,
    eval_word,
    fuzz_partitions,
    has_k_cycle_at_by_elements,
    m11,
    max_cycle_length,
    perm_by_tracing,
    pgl25,
    s2_wr_s3,
    symmetric,
    table_permutation,
)
from hsforge.partition import StateCapExceeded, normal_core, product
from hsforge.perm import (
    CapExceeded,
    PermGroup,
    Permutation,
    cycle_type_census,
    has_k_cycle_at,
    transition_group,
)
from hsforge.sampling import random_table
from hsforge.schreier import order_at
from hsforge.words import identity, inverse, multiply


def test_permutation_basics():
    p = Permutation((1, 0, 2))
    q = Permutation((0, 2, 1))
    assert p(0) == 1 and p(2) == 2
    assert (p * q).images == (2, 0, 1)  # p then q
    assert (q * p).images == (1, 2, 0)
    assert p.inverse() == p
    assert Permutation((1, 2, 0)).inverse().images == (2, 0, 1)
    assert Permutation.identity(3).is_identity
    assert p.order() == 2
    assert Permutation((1, 2, 0)).order() == 3
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_a_group_needs_a_point():
    # a degree-0 group used to be built and then fail inside schreier.gather
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        PermGroup(0, (Permutation(()),))
    with pytest.raises(ValueError, match="need at least one generator"):
        PermGroup(2, ())
    with pytest.raises(ValueError, match="degree mismatch: 3 != 2"):
        PermGroup(2, (Permutation((1, 0)), Permutation((0, 1, 2))))
    assert PermGroup(1, (Permutation((0,)),)).order() == 1


def test_cycles_and_cycle_through():
    p = Permutation((1, 0, 3, 4, 2))
    assert p.cycles() == [(0, 1), (2, 3, 4)]
    assert cycle_through(p, 0) == 2
    assert cycle_through(p, 3) == 3
    assert Permutation.identity(2).cycles() == [(0,), (1,)]


def test_transition_group_generators(g_table, m_table):
    tg = transition_group(g_table)
    assert [g.images for g in tg.gens] == [(1, 0, 2), (0, 2, 1)]  # (0 1), (1 2)
    tm = transition_group(m_table)
    assert [g.images for g in tm.gens] == [(1, 0, 3, 2), (2, 3, 0, 1)]


def test_enumeration_orders(g_table, k_table, h1_table, m_table):
    assert transition_group(g_table).order() == 6
    assert transition_group(k_table).order() == 8
    assert transition_group(h1_table).order() == 2
    assert transition_group(m_table).order() == 4


def test_enumerated_witnesses_evaluate_back(g_table, k_table, m_table):
    for table in (g_table, k_table, m_table):
        group = transition_group(table)
        for element, witness in group.enumerate().items():
            assert eval_word(group, witness) == element
        assert group.enumerate()[Permutation.identity(table.degree)].is_identity


def test_enumeration_cap(g_table):
    group = transition_group(g_table)
    with pytest.raises(CapExceeded):
        PermGroup(group.degree, group.gens).enumerate(5)
    assert len(PermGroup(group.degree, group.gens).enumerate(6)) == 6
    trivial = PermGroup(1, (Permutation((0,)), Permutation((0,))))
    assert len(trivial.enumerate(1)) == 1


def test_enumeration_matches_bfs_oracle(g_table, k_table, h1_table, m_table):
    # same elements in the same order, the same discovery words, and the cap
    # hit exactly when one more element would be needed, also by a group
    # whose closure is already cached; the normal core and the product of d
    # copies of the table run the same orbit, so they take the same cap,
    # each raising its own exception type
    rng = random.Random(114)
    tables = [g_table, k_table, h1_table, m_table]
    tables += [random_table(rng, rng.choice((2, 3)), 6) for _ in range(30)]
    for table in tables:
        expected = closure_by_bfs(table)
        size = len(expected)
        group = transition_group(table)
        closure = group.enumerate(size)
        assert [e.images for e in closure] == [images for images, _ in expected]
        for element, (_, letters) in zip(closure, expected):
            witness = closure[element]
            assert witness.letters == letters
            assert tuple(perm_by_tracing(table, witness)) == element.images
        d = table.degree
        auto = product([table] * d, range(d), size)
        assert auto.states == [images for images, _ in expected]
        assert [auto.word(i).letters for i in range(size)] == [
            letters for _, letters in expected]
        assert normal_core(table, size).degree == size
        if size > 1:
            with pytest.raises(CapExceeded) as enumerated:
                transition_group(table).enumerate(size - 1)
            with pytest.raises(CapExceeded) as core:
                normal_core(table, size - 1)
            with pytest.raises(CapExceeded) as cached:
                group.enumerate(size - 1)
            assert group.enumerate(size) is closure
            for err in (enumerated.value, core.value, cached.value):
                assert type(err) is CapExceeded
                assert str(err) == f"transition group larger than cap ({size - 1})"
            with pytest.raises(StateCapExceeded):
                product([table] * d, range(d), size - 1)


def test_eval_word_is_a_homomorphism(g_table):
    group = transition_group(g_table)
    sample = [P(t) for t in ("a", "b", "ab", "ba", "abA", "Aba", "bbA")]
    for u, v in itertools.product(sample, repeat=2):
        assert eval_word(group, multiply(u, v)) == eval_word(group, u) * eval_word(group, v)
        assert eval_word(group, inverse(u)) == eval_word(group, u).inverse()
    assert eval_word(group, identity(2)).is_identity


def test_max_cycle_length(g_table, m_table, k_table):
    k, witness = max_cycle_length(transition_group(g_table))
    assert (k, str(witness)) == (3, "ab")
    k, witness = max_cycle_length(transition_group(m_table))
    assert (k, str(witness)) == (2, "a")
    k, witness = max_cycle_length(transition_group(k_table))
    assert (k, str(witness)) == (4, "ab")


def test_has_k_cycle_at(k_table, g_table, m_table):
    group = transition_group(k_table)
    assert str(has_k_cycle_at(group, 4, 0)) == "ab"
    assert str(has_k_cycle_at(transition_group(g_table), 2, 0)) == "a"
    assert has_k_cycle_at(transition_group(m_table), 3, 0) is None
    assert has_k_cycle_at(group, 1, 2) is not None  # identity fixes 2
    with pytest.raises(ValueError):
        has_k_cycle_at(group, 5, 0)
    with pytest.raises(ValueError):
        has_k_cycle_at(group, 2, 9)


def test_k_cycles_transfer_between_points(g_table, k_table, m_table, h1_table):
    # a cycle length realized at one point is realized at every point
    for table in (g_table, k_table, m_table, h1_table):
        group = transition_group(table)
        realized = {
            (cycle_through(element, point), point)
            for element in group.enumerate()
            for point in range(table.degree)
        }
        lengths = {k for k, _ in realized}
        for k in lengths:
            for point in range(table.degree):
                assert has_k_cycle_at(group, k, point) is not None


def test_cycle_witness_has_matching_order(g_table, k_table, m_table):
    # witness for a d-cycle through the basepoint has order d there, and a
    # missing d-cycle means no closure element has order d at the basepoint
    for table in (g_table, k_table, m_table):
        group = transition_group(table)
        d = table.degree
        witness = has_k_cycle_at(group, d, 0)
        orders = {cycle_through(e, 0) for e in group.enumerate()}
        if witness is not None:
            assert order_at(table, witness, 0) == d
            assert d in orders
        else:
            assert d not in orders


@given(words(max_len=6))
def test_order_divides_group_order(k_table, g_table, w):
    for table in (k_table, g_table):
        group_order = transition_group(table).order()
        for i in range(table.degree):
            assert group_order % order_at(table, w, i) == 0


@given(words(max_len=6))
def test_table_permutation_matches_eval(k_table, w):
    group = transition_group(k_table)
    assert table_permutation(k_table, w) == eval_word(group, w)


def test_cycle_type_census(k_table, g_table):
    census = cycle_type_census(transition_group(k_table))
    as_text = [("+".join(map(str, shape)), count, str(wit))
               for shape, count, wit in census]
    assert as_text == [
        ("1+1+1+1", 1, "1"),
        ("1+1+2", 2, "b"),
        ("2+2", 3, "a"),
        ("4", 2, "ab"),
    ]
    assert sum(count for _, count, _ in census) == 8
    group = transition_group(g_table)
    for shape, _, wit in cycle_type_census(group):
        element = eval_word(group, wit)
        assert tuple(sorted(len(c) for c in element.cycles())) == shape


def test_orbit_walks_match_the_element_scans(g_table, k_table, h1_table, m_table):
    # the census and the k-cycle search read off the orbit's image tuples
    # give the scans over Permutation elements, witness words included, for
    # every point and every k
    rng = random.Random(808)
    tables = [g_table, k_table, h1_table, m_table]
    tables += [random_table(rng, rng.choice((2, 2, 3)), 6) for _ in range(60)]
    for table in tables:
        group = transition_group(table)
        assert cycle_type_census(group) == cycle_type_census_by_elements(group)
        for point in range(table.degree):
            for k in range(1, table.degree + 1):
                assert (has_k_cycle_at(group, k, point)
                        == has_k_cycle_at_by_elements(group, k, point))


def test_census_of_symmetric_and_alternating_groups():
    # orders d! and d!/2 take the class sizes; counts and witnesses are the
    # scan over every element
    for d in range(1, 9):
        full, half = symmetric(d), alternating(d)
        assert full.order() == factorial(d)
        assert half.order() == max(factorial(d) // 2, 1)
        for group in (full, half):
            census = cycle_type_census(group)
            assert census == cycle_type_census_by_elements(group)
            assert sum(count for _, count, _ in census) == group.order()


def test_census_of_other_fuzz_stream_groups():
    # the fuzz stream's groups of any other order are counted element by
    # element
    others = 0
    for p in fuzz_partitions(80):
        for group in p.groups.values():
            order, d = group.order(), group.degree
            if order in (factorial(d), factorial(d) // 2):
                continue
            others += 1
            assert cycle_type_census(group) == cycle_type_census_by_elements(group)
    assert others >= 30


def test_census_of_s6_decomposes_fewer_elements_than_the_group(monkeypatch):
    # S_6 has 720 elements; its counts are class sizes, so cycles are only
    # taken until every one of its 11 cycle types has a witness
    decomposed = []

    def counted(images, original=hsforge.perm.cycles):
        decomposed.append(images)
        return original(images)

    group = symmetric(6)
    group.enumerate()
    monkeypatch.setattr(hsforge.perm, "cycles", counted)
    census = cycle_type_census(group)
    assert len(census) == 11 and sum(count for _, count, _ in census) == 720
    assert len(decomposed) < group.order()


def _scan_agrees_with_full_enumeration(group: PermGroup) -> bool:
    """Assert that the census scan of group answers as a fresh copy of it
    enumerated in full: order, counts and witness words, every k-cycle
    witness, and the enumeration itself once resumed.  Returns whether the
    scan recognized the group and stopped before its last element."""
    fresh = PermGroup(group.degree, group.gens)
    elements = fresh.enumerate()
    assert cycle_type_census(group) == cycle_type_census_by_elements(fresh)
    assert group.order() == fresh.order() == len(elements)
    recognized = not group._elements.orbit.complete
    for point in range(group.degree):
        for k in range(1, group.degree + 1):
            assert (has_k_cycle_at(group, k, point)
                    == has_k_cycle_at_by_elements(fresh, k, point))
    reached, expected = group.enumerate().orbit, elements.orbit
    assert (reached.states, reached.parent, reached.column, reached.rows) == (
        expected.states, expected.parent, expected.column, expected.rows)
    return recognized


def test_symmetric_and_alternating_groups_are_recognized_soundly():
    # Jordan's theorem needs a prime p <= d - 3, so S_d is recognized from
    # d = 5 and A_d from d = 6 (A_5's only candidates, a transposition times
    # a 3-cycle or alone, are odd); every smaller group is enumerated
    for d in range(1, 10):
        assert _scan_agrees_with_full_enumeration(symmetric(d)) == (d >= 5)
    for d in range(1, 9):
        assert _scan_agrees_with_full_enumeration(alternating(d)) == (d >= 6)


def test_fuzz_stream_and_random_table_groups_are_recognized_soundly():
    # the fuzz stream's groups have order at most 64, so none is recognized
    # (the only S_d or A_d of degree 5 or more among them could be A_5);
    # random tables of index up to 7 mostly are S_d or A_d
    for p in fuzz_partitions(80):
        for group in p.groups.values():
            assert not _scan_agrees_with_full_enumeration(group)
    rng = random.Random(15)
    recognized = sum(_scan_agrees_with_full_enumeration(
        transition_group(random_table(rng, 2, 7))) for _ in range(40))
    assert recognized >= 5


def test_groups_jordan_cannot_recognize_run_the_plain_orbit(monkeypatch):
    # Jordan's test needs a primitive group and a prime p <= d - 3, so a
    # group of degree < 5 or an imprimitive one is searched with no census:
    # order and enumerate decompose no element, and the census, when asked
    # for, takes each kept state's cycle type once, in one pass
    groups = [symmetric(1), symmetric(4), alternating(4), s2_wr_s3()]
    groups += [group for p in fuzz_partitions(20) for group in p.groups.values()
               if group.degree < 5 or not group.primitive]
    assert any(group.degree >= 5 for group in groups[4:])
    decomposed = []

    def counted(images, original=hsforge.perm.cycles):
        decomposed.append(images)
        return original(images)
    monkeypatch.setattr(hsforge.perm, "cycles", counted)
    for group in groups:
        assert group.order() == len(group.enumerate())
    assert decomposed == []
    for group in groups:
        census = cycle_type_census(group)
        assert decomposed == list(group.enumerate().orbit.states)
        decomposed.clear()
        assert census == cycle_type_census_by_elements(
            PermGroup(group.degree, group.gens))
        decomposed.clear()


def test_groups_that_only_resemble_s_d_are_enumerated():
    # PGL(2,5) is primitive of order 120, but its prime cycles are 5-cycles
    # and 5 > 6 - 3; S_2 wr S_3 holds the transposition (0 1) but keeps the
    # blocks {0,1}, {2,3}, {4,5}; M_11 is primitive and has no element with
    # one cycle of a prime length p <= 8 and no other length divisible by p
    pgl, group_m11, wreath = pgl25(), m11(), s2_wr_s3()
    for group, order, primitive in ((pgl, 120, True), (wreath, 48, False),
                                    (group_m11, 7920, True)):
        assert group.primitive == primitive
        assert not _scan_agrees_with_full_enumeration(group)
        assert group.order() == order
    assert any(shape == (1, 1, 1, 1, 2) for shape, _, _ in cycle_type_census(wreath))
    assert any(shape == (1, 5) for shape, _, _ in cycle_type_census(pgl))


def _set_partitions(points: list[int]):
    """Every partition of the points into blocks, as lists of sets."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for blocks in _set_partitions(rest):
        yield [{first}, *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], blocks[i] | {first}, *blocks[i + 1:]]


def primitive_by_partitions(group: PermGroup) -> bool:
    """Primitivity by brute force: no proper nonempty subset of the points
    is invariant, and no partition of them but the two trivial ones is."""
    d, gens = group.degree, [g.images for g in group.gens]
    for size in range(1, d):
        for subset in itertools.combinations(range(d), size):
            if all({g[v] for v in subset} == set(subset) for g in gens):
                return False
    for blocks in _set_partitions(list(range(d))):
        if 1 < len(blocks) < d and all(
                {frozenset(g[v] for v in block) for block in blocks}
                == set(map(frozenset, blocks)) for g in gens):
            return False
    return True


def test_primitivity_matches_a_search_of_invariant_partitions():
    # the fuzz stream's groups of degree <= 7, and random groups whose
    # generators each move a random subset of the points, so that many of
    # them are intransitive
    groups = [group for p in fuzz_partitions(60) for group in p.groups.values()
              if group.degree <= 7]
    rng = random.Random(296)
    for _ in range(150):
        d = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(d), rng.randint(0, d))
            images = list(range(d))
            for v, image in zip(moved, rng.sample(moved, len(moved))):
                images[v] = image
            gens.append(Permutation(tuple(images)))
        groups.append(PermGroup(d, tuple(gens)))
    kinds = Counter()
    for group in groups:
        expected = primitive_by_partitions(group)
        assert group.primitive == expected, [g.images for g in group.gens]
        transitive = len({element(0) for element in group.enumerate()}) == group.degree
        kinds[expected, transitive] += 1
    assert min(kinds[kind] for kind in ((True, True), (False, True), (False, False))) > 0
    assert kinds[False, False] >= 50


def test_a_recognized_order_answers_every_cap_its_scan_fits(monkeypatch):
    # the census scan of S_7 recognizes it and stops after 502 of its 5040
    # elements: a cap below 502 raises, and every cap from 502 up answers
    # the order and the census from that one scan; enumerate needs all 5040
    # elements, so it raises below 5040, even once the orbit was resumed
    group = symmetric(7)
    with pytest.raises(CapExceeded, match="transition group larger than cap"):
        group.order(501)
    assert group.order(502) == 5040 and group._elements.state_count == 502
    census = cycle_type_census(group, 502)
    assert sum(count for _, count, _ in census) == 5040
    with monkeypatch.context() as patch:
        patch.setattr(hsforge.perm, "orbit", None)  # no second scan
        for cap in (502, 5039, 5040, 5039):
            assert group.order(cap) == 5040
            assert cycle_type_census(group, cap) is census
            assert has_k_cycle_at(group, 7, 0, cap) is not None
            if cap < 5040:
                with pytest.raises(CapExceeded, match=f"larger than cap \\({cap}\\)"):
                    group.enumerate(cap)
            else:
                assert len(group.enumerate(cap)) == 5040
    # A_7 has no 6-cycle: its census scan of 108 states holds none, so the
    # k-cycle search needs all 2520 elements
    group = alternating(7)
    assert has_k_cycle_at(group, 3, 0, 108) is not None
    for cap in (108, 2519, 2520, 2519):
        if cap < 2520:
            with pytest.raises(CapExceeded, match=f"larger than cap \\({cap}\\)"):
                has_k_cycle_at(group, 6, 0, cap)
        else:
            assert has_k_cycle_at(group, 6, 0, cap) is None


def test_a_census_without_part_k_answers_without_a_search(monkeypatch):
    # once a census is computed, a k that no cycle type has as a part is
    # answered off it: None when the order fits the cap, else the cap error,
    # as the search past the kept states would answer.  A_7 has no 6-cycle,
    # and its census scan keeps 108 of its 2520 elements.  Every k of groups
    # with a census is checked against the element scans above and in
    # _scan_agrees_with_full_enumeration
    group = alternating(7)
    census = cycle_type_census(group)
    assert all(6 not in shape for shape, _, _ in census)
    with monkeypatch.context() as patch:
        patch.setattr(hsforge.perm, "resume", None)  # no search past the scan
        patch.setattr(hsforge.perm, "cycle_at", None)  # no kept state walked
        assert has_k_cycle_at(group, 6, 0) is None
        assert has_k_cycle_at(group, 6, 3, 2520) is None
        with pytest.raises(CapExceeded, match="transition group larger than cap \\(2519\\)"):
            has_k_cycle_at(group, 6, 0, 2519)
    assert group._elements.orbit.state_count == 108  # never resumed


def _group_outcome(call, group: PermGroup, cap: int):
    try:
        return call(group, cap)
    except CapExceeded as err:
        return type(err), str(err)


def test_warm_groups_take_every_cap_like_fresh_copies():
    # a group already enumerated under cap 10**6 answers order, enumerate,
    # the census, k-cycle searches and membership as a fresh copy does at
    # caps 1, scan - 1, scan, order - 1 and order, scan being the states its
    # census scan held (the order itself for the groups not recognized).
    # Membership is asked of every transposition, some elements and some
    # random permutations: the warm group looks each up in its full
    # enumeration, a fresh S_7 or A_7 below its order reads its parity
    rng = random.Random(459)
    for group in (symmetric(7), alternating(7), pgl25(), m11()):
        d = group.degree
        group.enumerate(10**6)
        queries = []
        for i, j in itertools.combinations(range(d), 2):
            images = list(range(d))
            images[i], images[j] = j, i
            queries.append(tuple(images))
        queries += group._elements.orbit.states[::97]
        queries += [tuple(rng.sample(range(d), d)) for _ in range(40)]
        calls = {
            "order": lambda g, cap: g.order(cap),
            "enumerate": lambda g, cap: g.enumerate(cap).orbit.states,
            "census": lambda g, cap: cycle_type_census(g, cap),
            "holds": lambda g, cap: [g._closed(cap).holds(q) for q in queries],
        }
        calls.update((f"{k}-cycle", lambda g, cap, k=k: has_k_cycle_at(g, k, 0, cap))
                     for k in (2, 3, d - 1, d))
        scan, order = group._elements.state_count, group.order()
        for cap in (1, scan - 1, scan, order - 1, order):
            for name, call in calls.items():
                fresh = PermGroup(d, group.gens)
                assert (_group_outcome(call, group, cap)
                        == _group_outcome(call, fresh, cap)), (d, name, cap)
