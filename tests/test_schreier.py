"""Folding, coset tables, traces, orders, visited sets, w-step graphs."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given

from conftest import (
    G_GENERATORS,
    H1_GENERATORS,
    K_GENERATORS,
    P,
    gens,
    words,
)
from helpers import (
    order_by_iteration,
    orders_lcm,
    perm_by_tracing,
    refold,
    trace_letters,
    transversal_by_words,
)
from hsforge.partition import normal_core
from hsforge.sampling import random_table, random_word
from hsforge.schreier import (
    CapExceeded,
    Capped,
    CosetTable,
    InfiniteIndex,
    canonical_rows,
    canonicalize,
    coset_of,
    cycles,
    fold_from_generators,
    orbit,
    order_at,
    rows_step,
    table_from_generators,
    trace,
    transversal,
    try_complete,
    visited_set,
    word_step,
)
from hsforge.words import (
    Letter, Word, identity, letter_from_column, multiply, parse_word, power)

G_DELTA = ((1, 1, 0, 0), (0, 0, 2, 2), (2, 2, 1, 1))
K_DELTA = ((1, 1, 0, 0), (0, 0, 2, 2), (3, 3, 1, 1), (2, 2, 3, 3))
H1_DELTA = ((1, 1, 0, 0), (0, 0, 1, 1))

WORD_SAMPLE = ["a", "b", "ab", "ba", "abA", "aba", "bab", "aabb", "abab"]


def test_fold_index_three_subgroup(g_table):
    assert g_table.degree == 3
    assert g_table.delta == G_DELTA
    assert [str(t) for t in transversal(g_table)] == ["1", "a", "ab"]


def test_fold_variant_generating_set_same_subgroup(g_table):
    other = table_from_generators(2, gens(2, ["b", "aa", "abba", "ababa"]))
    assert other == g_table


def test_fold_index_four_subgroup(k_table):
    assert k_table.degree == 4
    assert k_table.delta == K_DELTA
    assert [str(t) for t in transversal(k_table)] == ["1", "a", "ab", "aba"]


def test_fold_index_two_subgroup(h1_table):
    assert h1_table.degree == 2
    assert h1_table.delta == H1_DELTA


def test_generators_live_in_their_subgroup(g_table, k_table, h1_table):
    for table, texts in (
        (g_table, G_GENERATORS),
        (k_table, K_GENERATORS),
        (h1_table, H1_GENERATORS),
    ):
        for text in texts:
            assert coset_of(table, P(text)) == 0


def test_fold_invariant_under_generator_permutation():
    shuffled = {
        table_from_generators(2, gens(2, list(order))).delta
        for order in itertools.permutations(G_GENERATORS)
    }
    assert shuffled == {G_DELTA}


def test_infinite_index_detected():
    graph = fold_from_generators(2, gens(2, ["b"]))
    assert not graph.is_complete
    with pytest.raises(InfiniteIndex):
        try_complete(graph)
    with pytest.raises(InfiniteIndex):
        table_from_generators(2, gens(2, ["abA", "aba"]))


def test_whole_group_folds_to_one_vertex():
    table = table_from_generators(2, gens(2, ["a", "b"]))
    assert table.degree == 1
    assert table.delta == ((0, 0, 0, 0),)


def test_refold_is_idempotent():
    graph = fold_from_generators(2, gens(2, K_GENERATORS))
    again = refold(graph)
    assert again.rows == graph.rows


def test_table_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        CosetTable(2, ((0, 0, 0),))  # row too short
    with pytest.raises(ValueError):
        CosetTable(2, ((1, 1, 0, 0), (1, 1, 1, 1)))  # a-column not a bijection
    with pytest.raises(ValueError):
        CosetTable(1, ((1, 1), (1, 0)))  # inverse-inconsistent pair


def test_tables_need_a_generator_and_a_vertex():
    # such tables used to be built and then fail inside schreier.gather
    for rank, delta in ((2, ()), (0, ((),)), (0, ()), (-1, ((),))):
        with pytest.raises(ValueError, match="need rank >= 1 and a vertex"):
            CosetTable(rank, delta)


def test_walkers_reject_a_word_of_another_rank(g_table):
    # "c" has no column in a rank-2 table; "ab" of rank 3 used to be walked
    # as if it were a rank-2 word
    for text in ("c", "ab"):
        w = parse_word(3, text)
        for walk in (lambda: trace(g_table, 0, w), lambda: coset_of(g_table, w),
                     lambda: word_step(g_table, w), lambda: order_at(g_table, w, 1),
                     lambda: visited_set(g_table, w, 2)):
            with pytest.raises(ValueError, match="word rank 3 != table rank 2"):
                walk()


def test_walkers_resolve_each_letter_once_per_call(monkeypatch):
    rng = random.Random(11)
    steps = []
    for _ in range(3):
        images = list(range(40))
        rng.shuffle(images)
        steps += [images, sorted(range(40), key=images.__getitem__)]
    table = CosetTable(3, canonical_rows(
        [tuple(step[v] for step in steps) for v in range(40)], 0))
    assert table.degree == 40
    w = parse_word(3, "aBcAbCabCA")
    assert len(w) == 10
    reads = []
    column = Letter.column
    monkeypatch.setattr(Letter, "column", property(
        lambda letter: reads.append(1) or column.fget(letter)))

    resolved = 0

    def counted(call):
        nonlocal resolved
        reads.clear()
        result = call()
        assert len(reads) <= len(w)
        resolved += len(reads)
        return result

    step = counted(lambda: word_step(table, w))
    for vertex in range(table.degree):
        order = counted(lambda: order_at(table, w, vertex))
        seen = counted(lambda: visited_set(table, w, vertex))
        assert counted(lambda: trace(table, vertex, w)) == step[vertex]
        assert order == order_by_iteration(table, w, vertex)
        cycle, v = {vertex}, trace_letters(table, vertex, w)
        while v != vertex:
            cycle.add(v)
            v = trace_letters(table, v, w)
        assert seen == cycle
        assert step[vertex] == trace_letters(table, vertex, w)
    # the word keeps its columns, so each letter is resolved once in all
    assert 0 < resolved <= len(w)


def exact_table(rng: random.Random, rank: int, d: int) -> CosetTable:
    """A random table of exactly d vertices: the first generator a d-cycle,
    the others random permutations."""
    order = list(range(d))
    rng.shuffle(order)
    cycle = [0] * d
    for i, v in enumerate(order):
        cycle[v] = order[(i + 1) % d]
    steps = []
    for g in range(rank):
        images = cycle if g == 0 else rng.sample(range(d), d)
        steps += [images, sorted(range(d), key=images.__getitem__)]
    return CosetTable(rank, canonical_rows(
        [tuple(step[v] for step in steps) for v in range(d)], 0))


def walk_cases():
    """Random tables of ranks 1 to 3, the first three of degree 1, whose
    step is (0,), then three larger tables, of degree 255, 256 and 257;
    each with the identity, every one-letter word and four random words."""
    rng = random.Random(20)
    for n in range(63):
        rank = 1 + n % 3
        if n < 60:
            table = random_table(rng, rank, 1 if n < 3 else 12)
        else:
            table = exact_table(rng, rank, (255, 256, 257)[n - 60])
        one_letter = [Word(rank, (letter_from_column(c),)) for c in range(2 * rank)]
        yield table, [identity(rank), *one_letter,
                      *(random_word(rng, rank, 12) for _ in range(4))]


def cycles_by_tracing(table: CosetTable, w: Word) -> dict[int, frozenset[int]]:
    """The cycle of w's step through each vertex, traced letter by letter."""
    return {v: frozenset(c) for c in cycles(perm_by_tracing(table, w)) for v in c}


def test_walks_agree_with_letter_by_letter_tracing():
    # a table keeps the step of the last word composed on it, so at every
    # vertex w is asked between ~w, the identity, w on the last table of its
    # rank and an equal word built apart, and each answer must be its own
    degrees, last = set(), {}
    for table, ws in walk_cases():
        degrees.add(table.degree)
        other = last.get(table.rank, table)
        last[table.rank] = table
        for w in ws:
            step = word_step(table, w)
            assert step == tuple(perm_by_tracing(table, w))
            assert rows_step(table.delta, w) == step
            assert coset_of(table, w) == trace_letters(table, 0, w)
            walks = [(t, u, cycles_by_tracing(t, u)) for t, u in (
                (table, w), (table, ~w), (table, identity(table.rank)), (other, w),
                (table, Word(w.rank, w.letters)))]
            for vertex in range(table.degree):
                assert trace(table, vertex, w) == step[vertex]
                for t, u, cycles in walks:
                    v = vertex % t.degree
                    assert visited_set(t, u, v) == cycles[v]
                    assert order_at(t, u, v) == len(cycles[v])
                for u in (w, ~w):
                    assert order_at(table, u, vertex) == order_by_iteration(
                        table, u, vertex)
    assert 1 in degrees and {255, 256, 257} <= degrees and len(degrees) > 5


@pytest.mark.parametrize("degree", [6, 257])
def test_walks_check_the_vertex_and_rank_before_any_lookup(degree):
    # a step tuple answers index -1 for the last vertex, and so does the
    # step the table keeps from w's last walk: cold, then warm
    table = exact_table(random.Random(degree), 2, degree)
    w = parse_word(2, "abA")
    for warm in (False, True):
        if warm:
            assert order_at(table, w, 0) == order_by_iteration(table, w, 0)
            assert table._last_step[0] == w.columns  # at every degree
        for walk in (order_at, visited_set, lambda t, u, v: trace(t, v, u)):
            for vertex in (-1, degree):
                with pytest.raises(ValueError, match=f"vertex {vertex} out of range"):
                    walk(table, w, vertex)
            with pytest.raises(ValueError, match="word rank 3 != table rank 2"):
                walk(table, parse_word(3, "ab"), 0)
        with pytest.raises(ValueError, match="word rank 3 != table rank 2"):
            word_step(table, parse_word(3, "ab"))


def test_read_columns_leave_equality_hash_and_repr_alone():
    def table():
        return CosetTable(2, K_DELTA)

    def abab():
        return parse_word(2, "abAB")

    assert table().columns == tuple(zip(*K_DELTA))
    w = abab()
    assert "columns" not in vars(w)  # a word resolves them on the first walk
    assert w.columns == (0, 2, 1, 3) and "columns" in vars(w)
    for make in (table, abab):
        read, fresh = make(), make()
        assert read.columns
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) and "columns" not in repr(read)
        assert {read: 1}[fresh] == 1
    # a table's hash is that of (rank, delta), and it equals no other kind
    assert hash(table()) == hash((2, K_DELTA))
    assert table() != K_DELTA and table() != CosetTable(1, ((0, 0),))
    # the step kept from the last walk is no part of the value, and copies
    # walk like the table
    warm, ba = table(), parse_word(2, "ba")
    assert visited_set(warm, abab(), 0) == cycles_by_tracing(warm, abab())[0]
    assert warm == table() and hash(warm) == hash(table())
    assert repr(warm) == repr(table()) and "step" not in repr(warm)
    for twin in (copy.copy(warm), pickle.loads(pickle.dumps(warm))):
        assert twin == warm and hash(twin) == hash(warm)
        for u in (abab(), ba, abab()):
            cycles = cycles_by_tracing(twin, u)
            for v in range(twin.degree):
                assert visited_set(twin, u, v) == cycles[v]
                assert order_at(twin, u, v) == order_by_iteration(twin, u, v)


def test_trace_follows_letters(g_table):
    assert trace(g_table, 0, P("a")) == 1
    assert trace(g_table, 0, P("ab")) == 2
    assert trace(g_table, 2, P("A")) == 2
    assert trace(g_table, 1, identity(2)) == 1
    for text in WORD_SAMPLE:
        for v in range(g_table.degree):
            assert trace(g_table, v, P(text)) == trace_letters(g_table, v, P(text))


def _bfs_distances(table):
    dist = {0: 0}
    queue = [0]
    while queue:
        v = queue.pop(0)
        for image in table.delta[v]:
            if image not in dist:
                dist[image] = dist[v] + 1
                queue.append(image)
    return dist


def test_transversal_words_reach_their_own_coset(g_table, k_table):
    for table in (g_table, k_table):
        reps = transversal(table)
        assert len(reps) == table.degree
        assert reps[0].is_identity
        dist = _bfs_distances(table)
        for i, rep in enumerate(reps):
            assert coset_of(table, rep) == i
            assert len(rep) == dist[i]


def test_word_step_is_a_homomorphism(g_table, k_table):
    for table in (g_table, k_table):
        for u_text, v_text in itertools.product(WORD_SAMPLE, repeat=2):
            u, v = P(u_text), P(v_text)
            uv = multiply(u, v)
            stepped = word_step(table, u)
            composed = tuple(word_step(table, v)[x] for x in stepped)
            assert composed == word_step(table, uv)
        assert word_step(table, identity(2)) == tuple(range(table.degree))


def test_orders_at_vertices(g_table):
    assert order_at(g_table, P("abA"), 0) == 2
    assert order_at(g_table, P("b"), 0) == 1
    assert order_at(g_table, P("b"), 1) == 2
    assert order_at(g_table, P("b"), 2) == 2
    for i in range(3):
        assert order_at(g_table, P("ab"), i) == 3


def test_visited_sets(g_table):
    assert visited_set(g_table, P("abA"), 0) == {0, 2}
    assert visited_set(g_table, P("abA"), 1) == {1}
    assert visited_set(g_table, P("b"), 0) == {0}
    assert visited_set(g_table, P("b"), 1) == {1, 2}
    assert visited_set(g_table, P("ab"), 0) == {0, 1, 2}


@given(words(max_len=6))
def test_visited_set_size_is_the_order(w):
    # |V_{w,i}| = o(w, i) on the index-4 table
    table = CosetTable(2, K_DELTA)
    for i in range(table.degree):
        assert len(visited_set(table, w, i)) == order_at(table, w, i)
        assert order_at(table, w, i) == order_by_iteration(table, w, i)


@given(words(max_len=6))
def test_visited_sets_tile_the_vertices(w):
    # distinct V_{w,i} are pairwise disjoint and cover; orders sum to degree
    table = CosetTable(2, K_DELTA)
    distinct = {}
    for i in range(table.degree):
        distinct.setdefault(visited_set(table, w, i), i)
    sets = list(distinct)
    for a, b in itertools.combinations(sets, 2):
        assert not (a & b)
    assert set().union(*sets) == set(range(table.degree))
    assert sum(order_at(table, w, i) for i in distinct.values()) == table.degree


@given(words(max_len=5))
def test_order_divides_every_return_exponent(w):
    table = CosetTable(2, G_DELTA)
    for k in range(1, 3 * table.degree + 1):
        wk = power(w, k)
        for i in range(table.degree):
            if trace(table, i, wk) == i:
                assert k % order_at(table, w, i) == 0


def test_w_graph_cycles_structure(k_table):
    step = word_step(k_table, P("ab"))
    w_cycles = cycles(step)
    # one 4-cycle covering all vertices, starting at the minimal vertex
    assert [len(c) for c in w_cycles] == [4]
    assert [c[0] for c in w_cycles] == [min(c) for c in w_cycles]
    flat = [v for c in w_cycles for v in c]
    assert sorted(flat) == list(range(k_table.degree))
    for cycle in w_cycles:
        for pos, v in enumerate(cycle):
            assert step[v] == cycle[(pos + 1) % len(cycle)]
            assert step[v] == trace_letters(k_table, v, P("ab"))
    assert orders_lcm(k_table, P("ab")) == 4


def test_normal_table_has_equal_orders_everywhere(k_table, m_table, g_table):
    # On a normal subgroup's table: all o(w, i) agree, divide the degree,
    # and the w-step splits into degree/o cycles.
    cores = [normal_core(k_table), normal_core(g_table), m_table]
    assert cores[0].degree == 8
    assert cores[1].degree == 6
    assert normal_core(m_table) == m_table
    for table in cores:
        for text in WORD_SAMPLE:
            w = P(text)
            orders = {order_at(table, w, i) for i in range(table.degree)}
            assert len(orders) == 1
            o = orders.pop()
            assert table.degree % o == 0
            assert len(cycles(word_step(table, w))) == table.degree // o


def test_canonicalize_is_idempotent_and_rebases(k_table):
    assert canonicalize(k_table) == k_table
    rebased = canonicalize(k_table, 1)
    assert rebased.degree == k_table.degree
    assert canonicalize(rebased) == rebased
    # vertex 1 is the coset of "a": rebasing yields the conjugate subgroup,
    # which contains a^-1 * k * a for every generator k
    for text in K_GENERATORS:
        conj = multiply(multiply(~P("a"), P(text)), P("a"))
        assert coset_of(rebased, conj) == 0
    with pytest.raises(ValueError, match="not connected from the basepoint"):
        canonicalize(CosetTable(1, ((0, 0), (1, 1))))


def test_key_orders_tables(g_table, k_table, h1_table):
    assert h1_table.key() < g_table.key() or h1_table.degree < g_table.degree
    assert g_table != k_table
    assert canonicalize(g_table).key() == g_table.key()


@given(words(max_len=6))
def test_word_step_matches_letter_tracing(w):
    table = CosetTable(2, K_DELTA)
    assert list(word_step(table, w)) == perm_by_tracing(table, w)


def test_transversal_matches_word_building_bfs(g_table, k_table, h1_table, m_table):
    rng = random.Random(300)
    tables = [g_table, k_table, h1_table, m_table]
    tables += [random_table(rng, rng.choice((1, 2, 3)), 12) for _ in range(300)]
    for table in tables:
        assert transversal(table) == transversal_by_words(table)
    # a table not numbered by BFS still gets one word per vertex, in vertex order
    shuffled = CosetTable(1, ((2, 1), (0, 2), (1, 0)))
    assert [str(w) for w in transversal(shuffled)] == ["1", "A", "a"]
    assert transversal(shuffled) == transversal_by_words(shuffled)


def test_order_and_visited_set_reject_vertices_out_of_range(g_table):
    for vertex in (-1, g_table.degree):
        with pytest.raises(ValueError):
            order_at(g_table, P("ab"), vertex)
        with pytest.raises(ValueError):
            visited_set(g_table, P("ab"), vertex)


def test_orbit_records_discovery_words_partial_edges_and_cap():
    # a path 0 - 1 - 2 under the letter a; b has no edges at all
    rows = ((1, None, None, None), (2, 0, None, None), (None, 1, None, None))
    reached = orbit(0, rows.__getitem__, 3)
    assert reached.states == [0, 1, 2]
    assert reached.rows == [(1, None, None, None), (2, 0, None, None),
                            (None, 1, None, None)]
    assert [str(reached.word(i)) for i in range(3)] == ["1", "a", "aa"]
    assert canonical_rows(rows, 2) == (
        (None, 1, None, None), (0, 2, None, None), (1, None, None, None))
    with pytest.raises(CapExceeded):
        orbit(0, rows.__getitem__, 2)
    # the start state counts too: a cap below one is always exceeded
    assert orbit(0, lambda v: (None,), 1).states == [0]
    with pytest.raises(CapExceeded):
        orbit(0, lambda v: (None,), 0)


def test_capped_answers_caps_from_its_result_and_its_failures():
    # a search that counts its calls and reaches its 10 states under a cap of
    # 10 or more; every raise, with or without a search, comes from the
    # error factory
    calls = []
    refused = []

    def search(tag, cap):
        calls.append((tag, cap))
        return orbit(0, lambda v: ((v + 1) % 10,), cap)

    class Refused(CapExceeded):
        pass

    def error(cap):
        refused.append(cap)
        return Refused(cap, "refused")

    capped = Capped(search, error)
    assert capped.value is None
    # a failure at cap c raises at once for every cap <= c ...
    for cap in (6, 6, 3, 1):
        with pytest.raises(Refused):
            capped(cap, "x")
    assert calls == [("x", 6)]
    # ... and a cap > c searches again
    with pytest.raises(Refused):
        capped(8, "x")
    with pytest.raises(Refused):
        capped(7, "x")
    assert calls == [("x", 6), ("x", 8)]
    result = capped(12, "x")
    assert result.states == list(range(10)) and calls[-1] == ("x", 12)
    # the result answers caps at or above its size without a search, and
    # raises below it, as a fresh search would
    for cap in (10, 11, 12, 10**6):
        assert capped(cap, "x") is result
    for cap in (9, 1):
        with pytest.raises(Refused) as raised:
            capped(cap, "x")
        assert str(raised.value) == f"refused ({cap})"
    assert len(calls) == 3
    assert refused == [6, 6, 3, 1, 8, 7, 9, 1]
    # the states the result's search held size it, whatever the cap it ran
    # under; an error other than a cap hit is not remembered
    sized = Capped(lambda cap: orbit(0, lambda v: ((v + 1) % 9,), cap), error)
    assert sized(10).states == list(range(9))
    assert sized(9).states == list(range(9))
    with pytest.raises(Refused):
        sized(8)
    broken = Capped(lambda cap: 1 // 0, error)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            broken(5)
    assert broken.exceeded == 0 and refused[-1] == 8
