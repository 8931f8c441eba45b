"""Coset automata of subgroups of free groups, and the one orbit routine.

``orbit(start, images, cap)`` is the breadth-first search behind every
search in hsforge: coset tables and their renumbering, transition groups,
normal cores, product automata and coset actions are all orbits of one start
state, ``images(state)`` giving its targets in column order (a < a^-1 < b <
b^-1 < ...); ``gather`` steps a tuple of points with one ``itemgetter``.  It
records each state's BFS parent and column, so a shortest word reaching a
state is built from these pointers only when a caller asks for it.  A stop
predicate ends a search early, and ``resume`` continues it in the same order.
A cap bounds the states a search holds: ``orbit`` and ``resume`` raise past
it, and ``Capped`` caches such a search and holds the one rule for answering
a cap from the cache, successes and failures alike.  ``DEFAULT_CAP`` is the
one default of every cap.

Folding a subgroup's generator words gives its transition graph; when that is
complete the subgroup has finite index d and the graph is a complete table on
d vertices, numbered by BFS from the basepoint in column order, so two tables
are equal as values exactly when they describe the same subgroup.  A table
keeps its letter columns' image tuples and a word its letters' columns, so
``trace`` and ``coset_of`` step ``v = column[v]`` once per letter, and
``_compose`` builds w's whole step with one ``itemgetter`` per letter, as
``gather`` steps a state.  Every w-step comes from it: ``word_step``,
``order_at`` and ``visited_set`` on a table, ``rows_step`` on rows.  A
table keeps the step of the last word composed on it, keyed by the word's
columns, so a caller that asks w at every vertex composes it once; tables
and words are immutable, so the kept step is never stale.  ``cycle_at``
walks the cycle of a step through one point, for every caller.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

from .words import Letter, Word, letter_from_column

__all__ = [
    "DEFAULT_CAP",
    "CapExceeded",
    "Capped",
    "Orbit",
    "orbit",
    "resume",
    "gather",
    "cycles",
    "canonical_rows",
    "InfiniteIndex",
    "StallingsGraph",
    "CosetTable",
    "fold_from_generators",
    "try_complete",
    "trace",
    "coset_of",
    "transversal",
    "order_at",
    "visited_set",
    "word_step",
    "rows_step",
    "cycle_at",
]

DEFAULT_CAP = 10**6


class CapExceeded(Exception):
    def __init__(self, cap: int, message: str = "enumeration exceeded cap"):
        super().__init__(f"{message} ({cap})")
        self.cap = cap


class Capped:
    """A cached search under a cap: the one cap rule of every cached search.

    A cap bounds the states a search holds.  ``capped(cap, *args)`` runs
    ``search(*args, cap)`` until one succeeds and keeps its result, which
    answers a later cap as a fresh search would: ``error(cap)`` is raised
    when the result's ``state_count``, the states its search held, exceeds
    the cap.  Every cap at or below the largest one a search exceeded raises
    at once, and a larger cap searches again.
    """

    __slots__ = ("search", "error", "value", "exceeded")

    def __init__(self, search, error: Callable[[int], CapExceeded]):
        self.search, self.error = search, error
        self.value, self.exceeded = None, 0

    def __call__(self, cap: int, *args):
        if self.value is None and cap > self.exceeded:
            try:
                self.value = self.search(*args, cap)
            except CapExceeded:
                self.exceeded = cap
                raise self.error(cap) from None
        if self.value is None or self.value.state_count > cap:
            raise self.error(cap)
        return self.value


@dataclass(frozen=True)
class Orbit:
    """States reached from ``states[0]``, in breadth-first discovery order.

    ``index`` maps a state to its position.  ``parent[i]`` and ``column[i]``
    are the position of the state that first reached state i and the column
    it took (-1 for the start); ``rows[i][c]`` is the position of state i's
    image under column c, or None where that action has no edge.  A search
    that stopped early has rows for a prefix of the states only.
    """

    states: list
    index: dict
    parent: list[int]
    column: list[int]
    rows: list[tuple[int | None, ...]]

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def complete(self) -> bool:
        return len(self.rows) == len(self.states)

    def word(self, position: int) -> Word:
        """The discovery word of a state: a shortest word reaching it."""
        letters = []
        while position:
            letters.append(letter_from_column(self.column[position]))
            position = self.parent[position]
        # a row has one entry per column, two columns per generator
        return Word(len(self.rows[0]) // 2, tuple(reversed(letters)))


def orbit(
    start: Hashable, images: Callable[[Hashable], Iterable], cap: int,
    stop: Callable[[Hashable], bool] | None = None,
) -> Orbit:
    """Breadth-first orbit of start, taking each state's images in column order.

    ``images(state)`` yields the state's image under every column, or None
    for no edge.  Raises CapExceeded when more than cap states are reached.
    ``stop(state)``, if given, is called on every state after the start as
    it is discovered; once it returns true the search ends with the row
    being built, so the later states have no row yet (see ``resume``).
    """
    if cap < 1:
        raise CapExceeded(cap)
    return resume(Orbit([start], {start: 0}, [-1], [-1], []), images, cap, stop)


def resume(
    reached: Orbit, images: Callable[[Hashable], Iterable], cap: int,
    stop: Callable[[Hashable], bool] | None = None,
) -> Orbit:
    """Continue reached's search in place from its first state without a
    row, as ``orbit`` would have gone on; returns reached."""
    states, index, parent, column, rows = (
        reached.states, reached.index, reached.parent, reached.column, reached.rows)
    stopped = False
    for head, state in enumerate(islice(states, len(rows), None), len(rows)):
        row = []
        for c, target in enumerate(images(state)):
            if target is None:
                row.append(None)
                continue
            position = index.get(target)
            if position is None:
                if len(states) >= cap:
                    raise CapExceeded(cap)
                position = index[target] = len(states)
                states.append(target)
                parent.append(head)
                column.append(c)
                if stop is not None and stop(target):
                    stopped = True
            row.append(position)
        rows.append(tuple(row))
        if stopped:
            break
    return reached


def gather(columns: Sequence[Sequence[int]], width: int) -> Callable:
    """``images`` of width-tuples of points: the column entries at the points.
    A one-key ``itemgetter`` returns a bare item, so width 1 boxes them."""
    if width == 1:
        columns = [tuple((v,) for v in column) for column in columns]
    return lambda state: map(itemgetter(*state), columns)


def cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycle decomposition of a permutation given by its images; each cycle
    starts at its minimal point, cycles listed in order of that point."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        v = images[start]
        while v != start:
            seen[v] = True
            cycle.append(v)
            v = images[v]
        out.append(tuple(cycle))
    return out


def canonical_rows(
    rows: Sequence[Sequence[int | None]], basepoint: int
) -> tuple[tuple[int | None, ...], ...]:
    """Renumber by BFS from the basepoint in column order; drop unreachable.

    ``None`` marks a missing transition and stays in place.
    """
    return tuple(orbit(basepoint, rows.__getitem__, len(rows)).rows)


class InfiniteIndex(Exception):
    """The folded graph is incomplete: the subgroup has infinite index."""


@dataclass(frozen=True)
class StallingsGraph:
    """Folded, possibly incomplete transition graph with basepoint 0.

    ``rows[v]`` has one entry per column; ``None`` marks a missing transition.
    """

    rank: int
    rows: tuple[tuple[int | None, ...], ...]

    @property
    def is_complete(self) -> bool:
        return all(target is not None for row in self.rows for target in row)


@dataclass(frozen=True)
class CosetTable:
    """Complete deterministic inverse-consistent table, canonically numbered.

    A table is a dict key wherever its blocks are grouped, so it hashes
    ``(rank, delta)`` once, when it is built, and two tables compare their
    ``delta`` only when they are distinct objects with equal hashes."""

    rank: int
    delta: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    # the letter columns of the last word composed here, and its step
    _last_step: tuple[tuple[int, ...] | None, tuple[int, ...] | None] = field(
        init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rank < 1 or not self.delta:
            raise ValueError(f"need rank >= 1 and a vertex, got rank {self.rank}"
                             f" and {len(self.delta)} vertices")
        width, d = 2 * self.rank, len(self.delta)
        for row in self.delta:
            if len(row) != width:
                raise ValueError(f"row has {len(row)} entries, expected {width}")
            for target in row:
                if not 0 <= target < d:
                    raise ValueError(f"vertex {target} out of range")
        columns = tuple(zip(*self.delta))
        for v in range(d):
            for c in range(width):  # column c ^ 1 is column c's inverse
                if columns[c ^ 1][columns[c][v]] != v:
                    raise ValueError(f"inverse inconsistency at vertex {v}, column {c}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "_last_step", (None, None))
        object.__setattr__(self, "_hash", hash((self.rank, self.delta)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self._hash == other._hash and self.rank == other.rank
                                 and self.delta == other.delta)

    @property
    def degree(self) -> int:
        return len(self.delta)

    def key(self) -> tuple[int, ...]:
        """Flat form used for ordering tables of equal degree."""
        return tuple(t for row in self.delta for t in row)


class _Folder:
    """Union-find folding of a partial transition graph."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.parent: list[int] = []
        self.size: list[int] = []
        self.out: list[dict[int, int]] = []
        self.pending: list[tuple[int, int]] = []

    def new_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.size.append(1)
        self.out.append({})
        return v

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def _set_edge(self, u: int, column: int, v: int) -> None:
        u, v = self.find(u), self.find(v)
        existing = self.out[u].get(column)
        if existing is None:
            self.out[u][column] = v
        elif self.find(existing) != v:
            self.pending.append((existing, v))

    def add_edge(self, u: int, letter: Letter, v: int) -> None:
        self._set_edge(u, letter.column, v)
        self._set_edge(v, letter.inverse().column, u)
        self._drain()

    def _drain(self) -> None:
        while self.pending:
            a, b = self.pending.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if self.size[a] < self.size[b]:
                a, b = b, a
            self.parent[b] = a
            self.size[a] += self.size[b]
            edges = self.out[b]
            self.out[b] = {}
            for column, target in edges.items():
                self._set_edge(a, column, target)

    def graph(self, basepoint: int) -> StallingsGraph:
        columns = range(2 * self.rank)
        rows = [
            tuple(None if (t := out.get(c)) is None else self.find(t) for c in columns)
            for out in self.out
        ]
        return StallingsGraph(self.rank, canonical_rows(rows, self.find(basepoint)))


def fold_from_generators(rank: int, generators: list[Word]) -> StallingsGraph:
    """Fold the wedge of generator loops into the subgroup's transition graph."""
    folder = _Folder(rank)
    base = folder.new_vertex()
    for gen in generators:
        if gen.rank != rank:
            raise ValueError(f"generator rank {gen.rank} != {rank}")
        if gen.is_identity:
            continue
        prev = base
        for letter in gen.letters[:-1]:
            nxt = folder.new_vertex()
            folder.add_edge(prev, letter, nxt)
            prev = nxt
        folder.add_edge(prev, gen.letters[-1], base)
    return folder.graph(base)


def try_complete(graph: StallingsGraph) -> CosetTable:
    """Interpret a folded graph as a complete table, or fail with InfiniteIndex."""
    if not graph.is_complete:
        missing = next(
            (v, c)
            for v, row in enumerate(graph.rows)
            for c, t in enumerate(row)
            if t is None
        )
        raise InfiniteIndex(
            f"no transition at vertex {missing[0]}, column {missing[1]}: "
            "subgroup has infinite index")
    return CosetTable(graph.rank, tuple(
        tuple(t for t in row if t is not None) for row in graph.rows))


def table_from_generators(rank: int, generators: list[Word]) -> CosetTable:
    return try_complete(fold_from_generators(rank, generators))


def canonicalize(table: CosetTable, basepoint: int = 0) -> CosetTable:
    """Renumber by BFS from the basepoint; fails if not connected."""
    rows = canonical_rows(table.delta, basepoint)
    if len(rows) != table.degree:
        raise ValueError("table is not connected from the basepoint")
    return CosetTable(table.rank, rows)


def _walker(table: CosetTable, w: Word, start: int = 0) -> list[tuple[int, ...]]:
    """The table's columns of w's letters, once w's rank and start are checked."""
    if w.rank != table.rank:
        raise ValueError(f"word rank {w.rank} != table rank {table.rank}")
    if not 0 <= start < table.degree:
        raise ValueError(f"vertex {start} out of range")
    return [table.columns[c] for c in w.columns]


def _compose(columns: Sequence[Sequence[int]], w: Word, degree: int) -> tuple[int, ...]:
    """w's step on degree vertices from the letter columns, one C-level
    ``itemgetter`` per letter: new[v] = column[step[v]], as ``gather`` steps
    a state.  A one-key ``itemgetter`` returns a bare item, so degree 1 is
    (0,), the only permutation of one vertex."""
    if degree == 1:
        return (0,)
    step = tuple(range(degree))
    for c in w.columns:
        step = itemgetter(*step)(columns[c])
    return step


def _composed(table: CosetTable, w: Word, start: int = 0) -> tuple[int, ...]:
    """w's step on the table's vertices, once w's rank and start are checked
    (as ``_walker`` checks them, inline: a caller may ask at every vertex):
    the step kept from the last word composed on the table when it has w's
    columns, else ``_compose``'s, kept in its place."""
    d = len(table.delta)
    if w.rank != table.rank:
        raise ValueError(f"word rank {w.rank} != table rank {table.rank}")
    if not 0 <= start < d:
        raise ValueError(f"vertex {start} out of range")
    key, step = table._last_step
    if key != w.columns:
        key, step = w.columns, _compose(table.columns, w, d)
        object.__setattr__(table, "_last_step", (key, step))
    return step


def trace(table: CosetTable, start: int, w: Word) -> int:
    v = start
    for column in _walker(table, w, start):
        v = column[v]
    return v


def coset_of(table: CosetTable, w: Word) -> int:
    return trace(table, 0, w)


def transversal(table: CosetTable) -> list[Word]:
    """Minimal coset representative words, one per vertex, via BFS from 0.

    Canonical numbering makes ``transversal(t)[i]`` the BFS discovery word
    of vertex i; each word has minimal length among words reaching i.
    """
    reached = orbit(0, table.delta.__getitem__, table.degree)
    reps = {v: reached.word(i) for i, v in enumerate(reached.states)}
    return [reps[v] for v in sorted(reps)]


def word_step(table: CosetTable, w: Word) -> tuple[int, ...]:
    """The permutation of vertices induced by one application of w: the
    step kept on the table, or composed and kept there."""
    return _composed(table, w)


def rows_step(rows: Sequence[Sequence[int]], w: Word) -> tuple[int, ...]:
    """``word_step`` on complete rows of w's rank that need no check, such
    as the rows of an orbit under a complete table's columns; nothing is
    kept."""
    return _compose(tuple(zip(*rows)), w, len(rows))


def cycle_at(step: Sequence[int], vertex: int) -> list[int]:
    """The cycle of a permutation, given by its images, through the vertex,
    starting there."""
    cycle, v = [vertex], step[vertex]
    while v != vertex:
        cycle.append(v)
        v = step[v]
    return cycle


def order_at(table: CosetTable, w: Word, vertex: int) -> int:
    """Minimal k >= 1 with trace(vertex, w^k) == vertex."""
    return len(cycle_at(_composed(table, w, vertex), vertex))


def visited_set(table: CosetTable, w: Word, vertex: int) -> frozenset[int]:
    """Orbit {vertex * w^k} of the vertex under the w-step.

    Its size equals order_at(table, w, vertex), and the orbits of any two
    vertices are equal or disjoint, partitioning the vertex set.  Only the
    cycle through the vertex is traced.
    """
    return frozenset(cycle_at(_composed(table, w, vertex), vertex))
