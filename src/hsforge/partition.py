"""Coset partitions of a free group and the machinery to certify them.

A block is a coset H*alpha given by the subgroup's transition table and a
representative word; its marked vertex is the coset containing alpha.  A
partition lays its distinct tables side by side once; a block's basepoint
is its table's offset there, and its mark that offset plus its marked
vertex.  A family of blocks partitions the group exactly when, in the
product automaton P, the orbit of the basepoints under the side-by-side
columns, every state sits at the mark of exactly one block.  P's states
are the cosets of the blocks' intersection, so a valid partition keeps P
as that subgroup's checked coset table.  The common refinement subgroup N
is the kernel of the side-by-side action, so F/N is the group of those
columns, ``p.quotient``, and its closure gives m, N's table and each
coset's block.  The module also computes normal cores, the right action of
words on partitions, a prefix metric, and partitions lifted from finite
quotient groups.  A partition keeps its validation report, the all-blocks
orbit size and move counts of ``intersection_conditions``, and F/N's
closure, each under the cap rule of ``schreier.Capped``: the cap bounds
the states each one's search held.  m and N's table come from F/N's
search alone, at any number of tables, and N's table needs all m cosets
under the cap.  With one table F/N is the table's transition group,
so m is its order, which the census scan learns for S_d and A_d without
enumerating them; with several F/N is intransitive and runs the plain
orbit.  A valid partition of one table marks every vertex once, so its
all-blocks orbit is that closure too, and a pair index asks only whether
the group holds the transposition of the pair's marks: S_d holds every
one, any other group those its closure reached.  Otherwise the all-blocks
orbit is the product automaton at the marks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial, lcm
from operator import add, ne, sub
from typing import Iterable, Sequence

from .perm import PermGroup, Permutation, transition_group
from .schreier import (
    DEFAULT_CAP,
    CapExceeded,
    Capped,
    CosetTable,
    Orbit,
    coset_of,
    cycle_at,
    gather,
    orbit,
    order_at,
    word_step,
)
from .words import Word, multiply

__all__ = [
    "StateCapExceeded",
    "NotAPartition",
    "CosetSpec",
    "CosetPartition",
    "product",
    "ValidationReport",
    "validate",
    "multiplicity",
    "order_rel",
    "relative_orders",
    "normal_core",
    "side_by_side",
    "quotient_by_n",
    "big_n",
    "refinement_index",
    "act",
    "PairIntersectionReport",
    "intersection_conditions",
    "rho",
    "lift_partition",
]


class StateCapExceeded(CapExceeded):
    def __init__(self, cap: int):
        super().__init__(cap, "product automaton larger than cap")


class NotAPartition(ValueError):
    """The given subsets do not partition the finite group."""


@dataclass(frozen=True)
class CosetSpec:
    """One block H*alpha: the subgroup's table plus a representative word.
    ``marked``, the coset containing alpha, is traced once when it is built."""

    table: CosetTable
    rep: Word
    marked: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rep.rank != self.table.rank:
            raise ValueError(
                f"rep rank {self.rep.rank} != table rank {self.table.rank}")
        object.__setattr__(self, "marked", coset_of(self.table, self.rep))

    @property
    def index(self) -> int:
        return self.table.degree


class CosetPartition:
    """Blocks sorted ascending by (index, table); reps keep the given order
    among blocks with equal table.  ``groups`` maps each distinct table, in
    first-seen order, to its transition group; ``columns`` lays the tables
    side by side, with the blocks' basepoints ``base`` and marks ``marks``."""

    def __init__(self, rank: int, specs: Sequence[CosetSpec]):
        if not specs:
            raise ValueError("need at least one block")
        for spec in specs:
            if spec.table.rank != rank:
                raise ValueError(
                    f"block rank {spec.table.rank} != partition rank {rank}")
        self.rank = rank
        self.specs = tuple(
            sorted(specs, key=lambda s: (s.table.degree, s.table.key())))
        self.groups = {t: transition_group(t)
                       for t in dict.fromkeys(spec.table for spec in self.specs)}
        self.base, self.columns = side_by_side([spec.table for spec in self.specs])
        self.marks = tuple(o + spec.marked for o, spec in zip(self.base, self.specs))
        self._checked = Capped(_check, StateCapExceeded)
        self._marked = Capped(_marked_moves, StateCapExceeded)
        self._quotient = Capped(PermGroup._closed, StateCapExceeded)
        self._n: CosetTable | None = None

    @property
    def size(self) -> int:
        return len(self.specs)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(spec.index for spec in self.specs)

    def tables_descending(self) -> list[CosetTable]:
        return sorted(
            (spec.table for spec in self.specs),
            key=lambda t: (-t.degree, t.key()))

    @cached_property
    def quotient(self) -> PermGroup:
        """F/N: the one table's group itself, else the side-by-side columns'."""
        if len(self.groups) == 1:
            return next(iter(self.groups.values()))
        return PermGroup(len(self.columns[0]), tuple(map(Permutation, self.columns[::2])))


def product(
    tables: Sequence[CosetTable],
    base: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> Orbit:
    """Reachable part of the synchronous product of several tables: the
    orbit of the base tuple, each table stepping its own coordinate: the
    reference that a partition's orbits on its own layout are tested against."""
    if not tables:
        raise ValueError("need at least one table")
    rank = tables[0].rank
    for t in tables:
        if t.rank != rank:
            raise ValueError("tables must share one rank")
    if len(base) != len(tables):
        raise ValueError("one base vertex per table required")
    if not all(0 <= v < t.degree for v, t in zip(base, tables)):
        raise ValueError(f"base {tuple(base)} out of range")
    shift, columns = side_by_side(tables)
    try:
        reached = orbit(tuple(map(add, base, shift)), gather(columns, len(tables)), cap)
    except CapExceeded:
        raise StateCapExceeded(cap) from None
    if any(shift):
        states = [tuple(map(sub, state, shift)) for state in reached.states]
        reached = replace(reached, states=states,
                          index=dict(zip(states, range(len(states)))))
    return reached


def side_by_side(tables: Sequence[CosetTable]) -> tuple[tuple[int, ...], list[tuple]]:
    """The distinct tables laid side by side, each from its own offset in
    first-seen order: every table's offset and the union's columns."""
    offsets: dict[CosetTable, int] = {}
    shift = tuple(offsets.setdefault(t, sum(u.degree for u in offsets)) for t in tables)
    columns = [tuple(v + offset for t, offset in offsets.items() for v in t.columns[c])
               for c in range(2 * tables[0].rank)]
    return shift, columns


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    state_count: int
    gap_witness: Word | None = None
    overlap_witness: tuple[Word, int, int] | None = None
    # of a valid partition: P as the table of the blocks' intersection, and
    # the block of each of its vertices
    table: CosetTable | None = field(default=None, compare=False, repr=False)
    colors: tuple[int, ...] | None = field(default=None, compare=False, repr=False)


def validate(p: CosetPartition, cap: int = DEFAULT_CAP) -> ValidationReport:
    """Every element of the group must lie in exactly one block.

    Witness words are the BFS discovery words of the first bad product state:
    a gap witness lies in no block, an overlap witness in two (reported with
    the two block positions).  The partition keeps the report.
    """
    return p._checked(cap, p)


def _check(p: CosetPartition, cap: int) -> ValidationReport:
    auto = orbit(p.base, gather(p.columns, p.size), cap)
    colors = []
    for position, state in enumerate(auto.states):
        hits = [i for i, (v, m) in enumerate(zip(state, p.marks)) if v == m]
        if not hits:
            return ValidationReport(
                False, auto.state_count, gap_witness=auto.word(position))
        if len(hits) > 1:
            return ValidationReport(
                False, auto.state_count,
                overlap_witness=(auto.word(position), hits[0], hits[1]))
        colors.append(hits[0])
    return ValidationReport(True, auto.state_count,
                            table=CosetTable(p.rank, tuple(auto.rows)),
                            colors=tuple(colors))


def multiplicity(p: CosetPartition) -> set[int]:
    """Index values shared by at least two blocks."""
    counts: dict[int, int] = {}
    for spec in p.specs:
        counts[spec.index] = counts.get(spec.index, 0) + 1
    return {d for d, c in counts.items() if c >= 2}


def order_rel(p: CosetPartition, i: int, w: Word) -> int:
    """Minimal k >= 1 with H_i alpha_i w^k = H_i alpha_i (block i, 0-based)."""
    if not 0 <= i < p.size:
        raise ValueError("block i out of range")
    spec = p.specs[i]
    return order_at(spec.table, w, spec.marked)


def relative_orders(p: CosetPartition, w: Word) -> list[int]:
    """``order_rel`` of every block, in block order: w's step is composed
    once per distinct table, and each block reads its cycle at its mark."""
    steps = {t: word_step(t, w) for t in p.groups}
    return [len(cycle_at(steps[spec.table], spec.marked)) for spec in p.specs]


def normal_core(table: CosetTable, cap: int = DEFAULT_CAP) -> CosetTable:
    """Table of the largest normal subgroup inside the table's subgroup: the
    Cayley table of the transition group, so the core's index equals the
    group order.  BFS numbering from the identity makes it canonical."""
    return transition_group(table).cayley_table(cap)


def quotient_by_n(p: CosetPartition, state_cap: int = DEFAULT_CAP) -> Orbit:
    """F/N's closure, ``p.quotient`` from the identity: its states are the
    cosets of N, its rows N's table.  F/N's search and its m elements must
    fit under state_cap; with one table this resumes the census scan."""
    if refinement_index(p, state_cap) > state_cap:
        raise StateCapExceeded(state_cap)
    return p.quotient.enumerate(state_cap).orbit


def big_n(p: CosetPartition, state_cap: int = DEFAULT_CAP) -> CosetTable:
    """Table of N = intersection of the normal cores of all blocks: the
    rows of ``quotient_by_n``, kept on the partition after the first success."""
    reached = quotient_by_n(p, state_cap)
    if p._n is None:
        p._n = CosetTable(p.rank, tuple(reached.rows))
    return p._n


def refinement_index(p: CosetPartition, state_cap: int = DEFAULT_CAP) -> int:
    """m = [F : N], the order of ``p.quotient``, which F/N's search finds
    under state_cap: a recognized S_d or A_d is not enumerated."""
    return p._quotient(state_cap, p.quotient).order


def act(p: CosetPartition, w: Word) -> CosetPartition:
    """Right action: every representative is multiplied by w."""
    return CosetPartition(
        p.rank,
        [CosetSpec(spec.table, multiply(spec.rep, w)) for spec in p.specs])


@dataclass(frozen=True)
class PairIntersectionReport:
    pair: tuple[int, int]
    index_all: int
    index_without: int
    strict_refinement: bool      # intersecting the pair drops the index further
    lcm_obstruction: bool        # lcm(d_j, d_k) does not divide index_without
    condition_holds: bool
    subgroups_equal: bool | None  # tables compared when the condition fires


def intersection_conditions(
    p: CosetPartition, j: int, k: int, cap: int = DEFAULT_CAP
) -> PairIntersectionReport:
    """Compare the intersection of all conjugated blocks against the one
    omitting blocks j and k.

    The conjugate of block i is the stabilizer of its marked vertex, so the
    indices are orbit sizes of the marked tuple.  If omitting the pair
    strictly lowers the index, or lcm(d_j, d_k) fails to divide the partial
    index, the two subgroups must coincide; that is verified on the spot.

    Projecting onto the other blocks maps one transitive orbit onto the
    other, so every fibre has the size of the marked tuple's: the tuple and
    the states that move only coordinate j, only k, or both.
    """
    if p.size < 3:
        raise ValueError("needs at least three blocks")
    if not (0 <= j < k < p.size):
        raise ValueError(f"bad pair ({j}, {k})")
    table_j, table_k = p.specs[j].table, p.specs[k].table
    marked = p._marked(cap, p)
    index_all, moved = marked.index_all, marked.moved
    fibre = sum(moved.get(key, 0) for key in ((), (j,), (k,), (j, k)))
    index_without = index_all // fibre
    strict = index_all > index_without
    pair_lcm = lcm(table_j.degree, table_k.degree)
    obstruction = index_without % pair_lcm != 0
    holds = strict or obstruction
    equal = (table_j == table_k) if holds else None
    return PairIntersectionReport(
        (j, k), index_all, index_without, strict, obstruction, holds, equal)


@dataclass(frozen=True)
class _MarkedOrbit:
    """The all-blocks orbit of the marked tuple: its size, the number of its
    states that move at most two coordinates, keyed by those coordinates
    (the tuple itself under ()), and the states its search held."""

    index_all: int
    moved: dict[tuple[int, ...], int]
    state_count: int


def _marked_moves(p: CosetPartition, cap: int) -> _MarkedOrbit:
    """The all-blocks orbit of the marked tuple under the cap.

    A valid partition of one table marks each of its d vertices once, so
    the marked tuple's stabilizer is trivial: the orbit has as many states
    as the group has elements, none of them moves exactly one coordinate,
    and the one state that moves exactly j and k, if any, is the image
    under the transposition of their marked vertices.  Its search is the
    group's closure: S_d holds every transposition, and any other group
    holds those its closure reached, since a census scan stops early only
    on S_d or on A_d, which holds none.  Otherwise the orbit is the product
    automaton at the marks, where each state is reached once.
    """
    degree = p.specs[0].index
    if len(p.groups) == 1 and sorted(p.marks) == list(range(degree)):
        closure = p.quotient._closed(cap)
        symmetric = closure.order == factorial(degree)
        moved = {(): 1}
        for j, k in combinations(range(p.size), 2):
            if not symmetric:
                swap = list(range(degree))
                swap[p.marks[j]], swap[p.marks[k]] = p.marks[k], p.marks[j]
                if tuple(swap) not in closure.orbit.index:
                    continue
            moved[j, k] = 1
        return _MarkedOrbit(closure.order, moved, closure.state_count)
    reached = orbit(p.marks, gather(p.columns, p.size), cap)
    moved = {}
    for state in reached.states:
        if sum(map(ne, state, p.marks)) <= 2:
            changed = tuple(i for i, v in enumerate(state) if v != p.marks[i])
            moved[changed] = moved.get(changed, 0) + 1
    return _MarkedOrbit(reached.state_count, moved, reached.state_count)


def rho(p: CosetPartition, q: CosetPartition) -> Fraction:
    """Prefix metric on the descending table sequences (reps are ignored).

    The sequences are compared position by position; a first mismatch at
    position k (1-based) gives 2**-k, identical sequences give 0.  Two
    distinct partitions where one has s blocks are at distance >= 2**-(s+1).
    """
    if p.rank != q.rank:
        raise ValueError("partitions must share one rank")
    left = p.tables_descending()
    right = q.tables_descending()
    for position, (a, b) in enumerate(zip(left, right), start=1):
        if a != b:
            return Fraction(1, 2**position)
    if len(left) != len(right):
        return Fraction(1, 2 ** (min(len(left), len(right)) + 1))
    return Fraction(0)


def lift_partition(
    rank: int,
    quotient: PermGroup,
    sub_partition: Sequence[tuple[Iterable[Permutation], Permutation]],
    cap: int = DEFAULT_CAP,
) -> CosetPartition:
    """Pull a coset partition of a finite quotient back to the free group.

    ``quotient`` must have one generator per free-group generator; each pair
    (K, g) is a subgroup of the quotient with a coset representative.  The
    pulled-back block is the preimage subgroup's table (the action on right
    cosets of K) with the witness word of g as representative; the blocks
    of one subgroup share one table object, built and checked once.
    """
    if quotient.rank != rank:
        raise ValueError(f"quotient has {quotient.rank} generators, expected {rank}")
    elements = quotient.enumerate(cap)
    every = frozenset(elements)
    one = Permutation.identity(quotient.degree)
    covered: set[Permutation] = set()
    total = 0
    tables: dict[frozenset[Permutation], CosetTable] = {}
    specs = []
    for members, g in sub_partition:
        sub = frozenset(members)
        if sub not in tables:
            if one not in sub:
                raise NotAPartition("subgroup must contain the identity")
            if not sub <= every:
                raise NotAPartition("subgroup leaves the quotient")
            for x in sub:
                for y in sub:
                    if x * y not in sub:
                        raise NotAPartition("subset not closed under multiplication")
            tables[sub] = _coset_action_table(rank, quotient, sub, cap)
        if g not in every:
            raise NotAPartition("representative leaves the quotient")
        coset = frozenset(x * g for x in sub)
        covered |= coset
        total += len(coset)
        specs.append(CosetSpec(tables[sub], elements[g]))
    if covered != every or total != len(every):
        raise NotAPartition("cosets do not partition the quotient")
    return CosetPartition(rank, specs)


def _coset_action_table(
    rank: int, quotient: PermGroup, sub: frozenset[Permutation],
    cap: int = DEFAULT_CAP,
) -> CosetTable:
    """The orbit of the coset K = sub under right multiplication by the
    generators and their inverses, numbered by BFS from K."""
    step = gather(quotient.columns, quotient.degree)
    start = frozenset(x.images for x in sub)
    images = lambda coset: map(frozenset, zip(*map(step, coset)))
    return CosetTable(rank, tuple(orbit(start, images, quotient.order(cap)).rows))
