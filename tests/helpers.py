"""Independent brute-force oracles used to pin down library behavior.

Most of this recomputes results from first principles (letter-by-letter
tracing, exhaustive scans, repeated-pass reduction) so the tests do not
reuse the code paths they are checking.  At the end are the named groups
the tests draw on, library helpers that only the tests use, and the
earlier constructions of normal cores, N, F/N as the product of the
distinct tables' cores, coset-action tables, transversals, product automata
stepped column by column, the cycle-type census and the k-cycle scan over ``Permutation``
elements, kept as references that the orbit-based library code must agree
with, the coloring of N's cosets by tracing words through every block, the
intersection indices of a pair from their own product automata, and the
loop checks walked on N's table.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm
from operator import getitem

from hsforge.hsgraph import build_hs_graph
from hsforge.partition import (
    CosetPartition,
    CosetSpec,
    PairIntersectionReport,
    StateCapExceeded,
    order_rel,
    product,
)
from hsforge.perm import PermGroup, Permutation, transition_group
from hsforge.sampling import random_lifted_partition
from hsforge.schreier import (
    CapExceeded,
    CosetTable,
    Orbit,
    StallingsGraph,
    _Folder,
    canonicalize,
    coset_of,
    cycle_at,
    cycles,
    orbit,
    transversal,
    word_step,
)
from hsforge.words import (
    Letter,
    Word,
    identity,
    letter_from_column,
    multiply,
    word,
)
from hsforge.zcover import (
    InvalidPartition,
    StructReport,
    ZCheck,
    ZPartition,
    colored_loop_partition,
    erdos_checks,
    smallest_prime_factor,
)


def naive_reduce(letters: list[Letter]) -> list[Letter]:
    """Free reduction by repeated full scans instead of a single stack pass."""
    current = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(current) - 1):
            if current[i] == current[i + 1].inverse():
                del current[i:i + 2]
                changed = True
                break
    return current


def reduced_words_up_to(rank: int, max_len: int) -> list[Word]:
    """Every freely reduced word of length <= max_len, including the identity."""
    columns = range(2 * rank)
    out = [word(rank, [])]
    layer: list[tuple[Letter, ...]] = [()]
    for _ in range(max_len):
        grown = []
        for letters in layer:
            for c in columns:
                nxt = Letter(c // 2 + 1, 1 if c % 2 == 0 else -1)
                if letters and letters[-1] == nxt.inverse():
                    continue
                grown.append(letters + (nxt,))
        out.extend(word(rank, ls) for ls in grown)
        layer = grown
    return out


def trace_letters(table: CosetTable, start: int, w: Word) -> int:
    """Trace a word through the table one letter at a time, using raw rows."""
    v = start
    for letter in w.letters:
        v = table.delta[v][letter.column]
    return v


def perm_by_tracing(table: CosetTable, w: Word) -> list[int]:
    return [trace_letters(table, v, w) for v in range(table.degree)]


def closure_by_bfs(
    table: CosetTable,
) -> list[tuple[tuple[int, ...], tuple[Letter, ...]]]:
    """Transition-group elements with discovery words, by a plain BFS.

    Elements are image tuples read straight off the table's columns; the
    identity comes first, then each element's images under the letters in
    column order, each new one recorded with its parent's word plus the
    letter.
    """
    columns = [tuple(row[c] for row in table.delta)
               for c in range(2 * table.rank)]
    start = tuple(range(table.degree))
    out = [(start, ())]
    seen = {start}
    head = 0
    while head < len(out):
        images, letters = out[head]
        head += 1
        for c, step in enumerate(columns):
            image = tuple(step[v] for v in images)
            if image not in seen:
                seen.add(image)
                letter = Letter(c // 2 + 1, 1 if c % 2 == 0 else -1)
                out.append((image, letters + (letter,)))
    return out


def first_bad_state_by_bfs(p) -> tuple[tuple[Letter, ...], list[int]] | None:
    """The first product state, in BFS order from the basepoint tuple, that
    lies in no block or in several: its discovery letters and the blocks it
    lies in.  None when every reachable state lies in exactly one block."""
    tables = [spec.table for spec in p.specs]
    marked = [trace_letters(spec.table, 0, spec.rep) for spec in p.specs]
    start = tuple(0 for _ in tables)
    queue = [(start, ())]
    seen = {start}
    for state, letters in queue:
        hits = [i for i, (v, m) in enumerate(zip(state, marked)) if v == m]
        if len(hits) != 1:
            return letters, hits
        for c in range(2 * p.rank):
            target = tuple(t.delta[v][c] for t, v in zip(tables, state))
            if target not in seen:
                seen.add(target)
                letter = Letter(c // 2 + 1, 1 if c % 2 == 0 else -1)
                queue.append((target, letters + (letter,)))
    return None


def order_by_iteration(table: CosetTable, w: Word, vertex: int) -> int:
    """Smallest k >= 1 with vertex·w^k = vertex, by stepping one w at a time."""
    v = trace_letters(table, vertex, w)
    k = 1
    while v != vertex:
        v = trace_letters(table, v, w)
        k += 1
    return k


def covering_counts(specs, words) -> list[int]:
    """For each word, in how many blocks it lies (membership by tracing)."""
    counts = []
    for w in words:
        hits = 0
        for spec in specs:
            rep_end = trace_letters(spec.table, 0, spec.rep)
            if trace_letters(spec.table, 0, w) == rep_end:
                hits += 1
        counts.append(hits)
    return counts


def validate_z_by_scan(z: ZPartition) -> ZCheck:
    """Exhaustive check over one period."""
    period = z.period
    counts = [0] * period
    for cls in z.classes:
        for n in range(cls.residue, period, cls.modulus):
            counts[n] += 1
    for n, count in enumerate(counts):
        if count != 1:
            return ZCheck(False, n)
    return ZCheck(True, None)


def erdos_checks_by_pairs(z: ZPartition) -> StructReport:
    """The four structural facts from their definitions, comparing every
    pair of classes, on a partition checked by a scan of one period."""
    check = validate_z_by_scan(z)
    if not check.valid:
        raise InvalidPartition(
            f"not a partition of Z: integer {check.witness} not covered once",
            check.witness)
    moduli = sorted(z.moduli)
    if len(moduli) == 1:
        return StructReport(moduli[0], None, 1, True, True, True, True)
    o_max = moduli[-1]
    p = smallest_prime_factor(o_max)
    o_max_count = moduli.count(o_max)
    not_pairwise_coprime = any(
        gcd(a, b) > 1
        for i, a in enumerate(moduli)
        for b in moduli[i + 1:]
    )
    every_divides = all(
        any(j != i and other % o == 0 for j, other in enumerate(moduli))
        for i, o in enumerate(moduli)
    )
    non_divisors_repeat = all(
        moduli.count(o) >= 2
        for o in set(moduli)
        if not any(other % o == 0 and other != o for other in moduli)
    )
    return StructReport(
        o_max, p, o_max_count,
        not_pairwise_coprime, o_max_count >= p, every_divides, non_divisors_repeat)


def z_cover_scan(z: ZPartition, limit: int) -> int | None:
    """First integer in [0, limit) not covered exactly once, else None."""
    for n in range(limit):
        hits = sum(1 for c in z.classes if n % c.modulus == c.residue)
        if hits != 1:
            return n
    return None


def rho_recomputed(p, q) -> Fraction:
    """The distance from the sorted table sequences, written independently."""
    left = [(t.degree, t.key()) for t in p.tables_descending()]
    right = [(t.degree, t.key()) for t in q.tables_descending()]
    place = 1
    for a, b in zip(left, right):
        if a != b:
            return Fraction(1, 2**place)
        place += 1
    if len(left) != len(right):
        return Fraction(1, 2**place)
    return Fraction(0)


def sym_ladder_partition(d: int) -> CosetPartition:
    """The d cosets of a point stabilizer of S_d, which acts through
    a = (0 1) and b = (0 1 ... d-1)."""
    a = [1, 0] + list(range(2, d))
    b = [(v + 1) % d for v in range(d)]
    rows = tuple((a[v], a.index(v), b[v], b.index(v)) for v in range(d))
    table = canonicalize(CosetTable(2, rows), 0)
    return CosetPartition(2, [CosetSpec(table, rep) for rep in transversal(table)])


def two_table_sym_partition(d: int) -> CosetPartition:
    """S_d through the same a and b on two tables: H = Stab(0), the table of
    ``sym_ladder_partition(d)``, and K = Stab((0, 1)), the ordered-pair
    table of degree d(d - 1).  The blocks are H's d - 1 cosets other than H
    and the d - 1 cosets of K inside H: K's transversal words whose coset
    in H's table is 0.  The action on ordered pairs is faithful, so m = d!."""
    (h_table,) = sym_ladder_partition(d).groups
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    number = {pair: v for v, pair in enumerate(pairs)}
    rows = tuple(tuple(number[column[i], column[j]] for column in h_table.columns)
                 for i, j in pairs)
    k_table = canonicalize(CosetTable(2, rows), number[0, 1])
    specs = [CosetSpec(h_table, rep) for rep in transversal(h_table)[1:]]
    specs += [CosetSpec(k_table, rep) for rep in transversal(k_table)
              if coset_of(h_table, rep) == 0]
    return CosetPartition(2, specs)


def group_partition(group: PermGroup) -> CosetPartition:
    """The cosets of a point stabilizer of a transitive group: one block per
    vertex of the table its generators and their inverses give."""
    rows = tuple(tuple(column[v] for column in group.columns)
                 for v in range(group.degree))
    table = canonicalize(CosetTable(group.rank, rows), 0)
    return CosetPartition(group.rank, [CosetSpec(table, rep) for rep in transversal(table)])


def residue_partition(classes: list[tuple[int, int]]) -> CosetPartition:
    """The blocks {w : the exponent sum of a in w is r mod n} for the given
    (n, r) pairs, in rank 2 with b acting trivially; a partition of F_2
    exactly when the classes rZ + n partition Z."""
    specs = []
    for n, r in classes:
        rows = tuple(((v + 1) % n, (v - 1) % n, v, v) for v in range(n))
        specs.append(CosetSpec(CosetTable(2, rows), word(2, [Letter(1, 1)] * r)))
    return CosetPartition(2, specs)


def fuzz_partitions(count: int):
    """The partitions fuzz_soundness.py draws for --seed 0, in its order."""
    rng = random.Random(0)
    for _ in range(count):
        rank = rng.choice((2, 2, 3))
        yield random_lifted_partition(rng, rank, max_order=64)


def partition_signature(p) -> tuple:
    """Blocks as (table delta, marked vertex) pairs, order-independent."""
    return tuple(sorted((s.table.delta, s.marked) for s in p.specs))


# -- groups the tests draw on ----------------------------------------------


def symmetric(d: int) -> PermGroup:
    """S_d as the transition group of the d-point ladder (S_1 on its own)."""
    if d == 1:
        return PermGroup(1, (Permutation((0,)),))
    (group,) = sym_ladder_partition(d).groups.values()
    return group


def alternating(d: int) -> PermGroup:
    """A_d from (0 1 2) and the cycle through 0..d-1 for odd d, 1..d-1 for
    even d (the identity for d <= 2)."""
    if d <= 2:
        return PermGroup(d, (Permutation.identity(d),))
    moved = list(range(1 - d % 2, d))
    long = list(range(d))
    for v, image in zip(moved, moved[1:] + moved[:1]):
        long[v] = image
    three = [1, 2, 0] + list(range(3, d))
    return PermGroup(d, (Permutation(tuple(three)), Permutation(tuple(long))))


def pgl25() -> PermGroup:
    """PGL(2,5) on the projective line over GF(5), infinity as point 5."""
    return PermGroup(6, (Permutation((1, 2, 3, 4, 0, 5)),
                         Permutation((0, 2, 4, 1, 3, 5)),
                         Permutation((5, 4, 2, 3, 1, 0))))


def m11() -> PermGroup:
    """The Mathieu group M_11 on 11 points."""
    return PermGroup(11, (Permutation(tuple(range(1, 11)) + (0,)),
                          Permutation((0, 1, 6, 9, 5, 3, 10, 2, 8, 4, 7))))


def s2_wr_s3() -> PermGroup:
    """S_2 wr S_3 on 6 points, with blocks {0,1}, {2,3}, {4,5}."""
    return PermGroup(6, (Permutation((1, 0, 2, 3, 4, 5)),
                         Permutation((2, 3, 4, 5, 0, 1)),
                         Permutation((2, 3, 0, 1, 4, 5))))


# -- library code only the tests use ----------------------------------------


def coset_partition(rank: int, specs: Iterable[CosetSpec]) -> CosetPartition:
    """A partition of any iterable of blocks."""
    return CosetPartition(rank, list(specs))


def signed_letters(rank: int) -> tuple[Letter, ...]:
    """All 2*rank letters in column order."""
    return tuple(letter_from_column(c) for c in range(2 * rank))


def cyclic_reduce(u: Word) -> tuple[Word, Word]:
    """Split u = c * core * c^-1 with the core cyclically reduced.

    Returns (c, core).  For a cyclically reduced word c is the identity.
    """
    letters = list(u.letters)
    conj: list[Letter] = []
    while len(letters) >= 2 and letters[0] == letters[-1].inverse():
        conj.append(letters.pop(0))
        letters.pop()
    return Word(u.rank, tuple(conj)), Word(u.rank, tuple(letters))


def cycle_through(element: Permutation, point: int) -> int:
    """Length of the element's cycle containing point."""
    return len(cycle_at(element.images, point))


def contains(spec: CosetSpec, w: Word) -> bool:
    """Whether w lies in the block H*alpha."""
    return coset_of(spec.table, w) == spec.marked


def orbit_size_under(p: CosetPartition, w: Word) -> int:
    """Size of the orbit of p under repeated action of w."""
    return lcm(*(order_rel(p, i, w) for i in range(p.size)))


def spanning_generators(table: CosetTable) -> list[Word]:
    """Nontrivial Schreier generators t_v x (t_vx)^-1 over the BFS tree."""
    reps = transversal(table)
    out = []
    for v in range(table.degree):
        for j in range(table.rank):
            letter = letter_from_column(2 * j)
            target = table.delta[v][2 * j]
            gen = multiply(
                multiply(reps[v], Word(table.rank, (letter,))), ~reps[target])
            # tree edges reduce to the identity and are skipped
            if not gen.is_identity:
                out.append(gen)
    return out


class EmptyWord(ValueError):
    """Raised where a nonempty word is required."""


def separating_subgroup(rank: int, w: Word) -> CosetTable:
    """A finite-index subgroup whose coset automaton separates w from 1.

    The path spelling w is completed to a permutation table: for each
    generator, vertices missing the outgoing edge are matched in ascending
    order with vertices missing the incoming edge, taking the basepoint
    last.  The resulting index is exactly len(w) + 1 and w lies outside
    the subgroup.
    """
    if w.is_identity:
        raise EmptyWord("cannot separate the identity from itself")
    if w.rank != rank:
        raise ValueError(f"word rank {w.rank} != {rank}")
    length = len(w)
    rows: list[dict[int, int]] = [dict() for _ in range(length + 1)]
    for position, letter in enumerate(w.letters):
        rows[position][letter.column] = position + 1
        rows[position + 1][letter.inverse().column] = position
    for column in range(0, 2 * rank, 2):
        sources = [v for v in range(length + 1) if column not in rows[v]]
        targets = [v for v in range(length + 1) if column + 1 not in rows[v]]
        targets = [v for v in targets if v != 0] + [v for v in targets if v == 0]
        for source, target in zip(sources, targets):
            rows[source][column] = target
            rows[target][column + 1] = source
    table = CosetTable(rank, tuple(
        tuple(rows[v][c] for c in range(2 * rank)) for v in range(length + 1)))
    return canonicalize(table, 0)


def refold(graph: StallingsGraph) -> StallingsGraph:
    """Re-run folding on the edges of an already folded graph (idempotence)."""
    folder = _Folder(graph.rank)
    for _ in range(len(graph.rows)):
        folder.new_vertex()
    for v, row in enumerate(graph.rows):
        for column in range(0, 2 * graph.rank, 2):
            if row[column] is not None:
                folder.add_edge(v, letter_from_column(column), row[column])
    return folder.graph(folder.find(0))


def orders_lcm(table: CosetTable, w: Word) -> int:
    """lcm of order_at over all vertices = order of the induced permutation."""
    return lcm(*(len(c) for c in cycles(word_step(table, w))))


def table_permutation(table: CosetTable, w: Word) -> Permutation:
    return Permutation(word_step(table, w))


def eval_word(group: PermGroup, w: Word) -> Permutation:
    """The element of w: the letters' image tuples composed left to right."""
    if w.rank != group.rank:
        raise ValueError(f"word rank {w.rank} != group rank {group.rank}")
    images = tuple(range(group.degree))
    for letter in w.letters:
        images = tuple(map(group.columns[letter.column].__getitem__, images))
    return Permutation(images)


def loop_z_partition(graph, loop) -> ZPartition:
    """Residue classes read off a loop of N's colored table: color i covers
    positions first-occurrence + multiples of its relative order."""
    moduli = {i: graph.orders[i] for i in set(loop.colors)}
    return colored_loop_partition(loop.length, loop.colors, moduli)


# -- reference constructions the orbit-based code must agree with ----------


def max_cycle_length(group: PermGroup, cap: int = 10**6) -> tuple[int, Word]:
    """Longest cycle over all elements of the closure, with a witness word:
    the element enumerated first among those realizing it.  The trivial
    group yields (1, identity).  The reference for the census-derived k of
    ``check_cycle_bounds``."""
    elements = group.enumerate(cap)
    best = 1
    best_element = Permutation.identity(group.degree)
    for element in elements:
        longest = max(len(c) for c in element.cycles())
        if longest > best:
            best = longest
            best_element = element
    return best, elements[best_element]


def cycle_type_census_by_elements(
    group: PermGroup, cap: int = 10**6
) -> tuple[tuple[tuple[int, ...], int, Word], ...]:
    """The census over the enumerated ``Permutation`` elements, each cycle
    type's witness looked up for the first element of that type."""
    elements = group.enumerate(cap)
    counts: dict[tuple[int, ...], int] = {}
    first: dict[tuple[int, ...], Permutation] = {}
    for element in elements:
        shape = tuple(sorted(len(c) for c in element.cycles()))
        counts[shape] = counts.get(shape, 0) + 1
        first.setdefault(shape, element)
    return tuple((shape, counts[shape], elements[first[shape]])
                 for shape in sorted(counts))


def has_k_cycle_at_by_elements(
    group: PermGroup, k: int, point: int, cap: int = 10**6
) -> Word | None:
    """The witness of the first enumerated ``Permutation`` element with a
    k-cycle through point, if any."""
    elements = group.enumerate(cap)
    for element in elements:
        if cycle_through(element, point) == k:
            return elements[element]
    return None


def normal_core_by_cayley(table: CosetTable, cap: int = 10**6) -> CosetTable:
    """Cayley table of the enumerated transition group, then canonicalized."""
    group = transition_group(table)
    order = list(group.enumerate(cap))
    number = {element: i for i, element in enumerate(order)}
    steps = []
    for g in group.gens:
        steps += [g, g.inverse()]
    rows = tuple(tuple(number[element * step] for step in steps)
                 for element in order)
    return canonicalize(CosetTable(table.rank, rows), 0)


def product_by_columns(tables, base, cap: int = 10**6) -> Orbit:
    """The product automaton in each table's own vertex labels: every column
    steps the state coordinate by coordinate, one table column per block."""
    columns = [[tuple(row[c] for row in t.delta) for t in tables]
               for c in range(2 * tables[0].rank)]
    steps = lambda state: [tuple(map(getitem, images, state)) for images in columns]
    try:
        reached = orbit(tuple(base), steps, cap)
    except CapExceeded:
        raise StateCapExceeded(cap) from None
    return reached


def automaton_table(auto: Orbit) -> CosetTable:
    """A product automaton's states as the vertices of a checked table."""
    # a row has one entry per column, two columns per generator
    return CosetTable(len(auto.rows[0]) // 2, tuple(auto.rows))


def core_product_by_cayley(p, state_cap: int = 10**6) -> Orbit:
    """F/N as the product of the distinct tables' cores (the Cayley tables of
    fresh transition groups) from the identity tuple: its states are the
    cosets of N, each a tuple of group-element positions, and its table is
    N's.  The product runs under state_cap."""
    cores = [transition_group(table).cayley_table() for table in p.groups]
    return product(cores, [0] * len(cores), state_cap)


def big_n_by_cores(p, cap: int = 10**6) -> CosetTable:
    """Product of every block's core (duplicates included), canonicalized."""
    cores = [normal_core_by_cayley(spec.table, cap) for spec in p.specs]
    return canonicalize(automaton_table(product(cores, [0] * len(cores), cap)), 0)


def coset_action_table_by_cosets(
    rank: int, quotient: PermGroup, sub: frozenset[Permutation]
) -> CosetTable:
    """Right cosets K*x built element by element, numbered in enumeration
    order, then canonicalized from the coset of the identity."""
    cosets: dict[Permutation, frozenset[Permutation]] = {}
    number: dict[frozenset[Permutation], int] = {}
    for element in quotient.enumerate():
        coset = frozenset(x * element for x in sub)
        cosets[element] = coset
        number.setdefault(coset, len(number))
    base = number[cosets[Permutation.identity(quotient.degree)]]
    steps = []
    for g in quotient.gens:
        steps += [g, g.inverse()]
    reps = {number[coset]: min(coset, key=lambda x: x.images) for coset in number}
    rows = tuple(tuple(number[cosets[reps[v] * step]] for step in steps)
                 for v in range(len(number)))
    return canonicalize(CosetTable(rank, rows), base)


def transversal_by_words(table: CosetTable) -> list[Word]:
    """BFS from vertex 0 that builds and reduces a word per vertex."""
    reps: list[Word | None] = [None] * table.degree
    reps[0] = identity(table.rank)
    queue = [0]
    for v in queue:
        for column in range(2 * table.rank):
            target = table.delta[v][column]
            if reps[target] is None:
                reps[target] = word(
                    table.rank, reps[v].letters + (letter_from_column(column),))
                queue.append(target)
    return [rep for rep in reps if rep is not None]


def coloring_by_words(p, n_table: CosetTable) -> tuple[int, ...]:
    """Each coset of N colored by the block containing its transversal word,
    membership found by tracing the word through every block's table; an
    invalid partition fails with the library's message."""
    color = []
    for rep in transversal(n_table):
        hits = [i for i, spec in enumerate(p.specs) if contains(spec, rep)]
        if len(hits) != 1:
            raise ValueError(
                f"coset of {rep} lies in {len(hits)} blocks; partition invalid")
        color.append(hits[0])
    return tuple(color)


def intersection_by_products(p, j: int, k: int, cap: int = 10**6) -> PairIntersectionReport:
    """The pair report with both indices read off their own product
    automata at the marked tuples, all blocks and all blocks but j and k."""
    tables = [spec.table for spec in p.specs]
    marked = [spec.marked for spec in p.specs]
    index_all = product(tables, marked, cap).state_count
    rest = [i for i in range(p.size) if i not in (j, k)]
    index_without = product(
        [tables[i] for i in rest], [marked[i] for i in rest], cap).state_count
    strict = index_all > index_without
    obstruction = index_without % lcm(tables[j].degree, tables[k].degree) != 0
    holds = strict or obstruction
    equal = (tables[j] == tables[k]) if holds else None
    return PairIntersectionReport(
        (j, k), index_all, index_without, strict, obstruction, holds, equal)


def loop_consistency_by_n(p, w: Word, state_cap: int = 10**6) -> dict:
    """The loop check of w read off every loop of N's colored table, each
    loop's residue classes checked on their own."""
    graph = build_hs_graph(p, w, state_cap)
    loops = graph.loops()
    problems = []
    for number, loop in enumerate(loops):
        contribution = sum(
            graph.o_n // graph.orders[i] for i in set(loop.colors))
        if contribution != graph.o_n:
            problems.append(
                f"loop {number}: contributions sum to {contribution}, "
                f"expected {graph.o_n}")
            continue
        z = loop_z_partition(graph, loop)
        try:
            struct = erdos_checks(z)
        except InvalidPartition:
            problems.append(f"loop {number}: classes {z} do not partition Z")
            continue
        if not struct.all_hold:
            problems.append(f"loop {number}: classes {z} fail a structural check")
    return {
        "word": str(w),
        "m": graph.m,
        "order_mod_n": graph.o_n,
        "relative_orders": list(graph.orders),
        "loop_count": len(loops),
        "loop_lengths": sorted({loop.length for loop in loops}),
        "problems": problems,
    }
