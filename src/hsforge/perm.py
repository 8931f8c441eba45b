"""Permutations of table vertices and the groups they generate.

Inside hsforge a permutation is its image tuple; ``Permutation`` wraps one
for the public API and validates it once, when it is built.  Permutations
act on the right: evaluating a word letter by letter composes the letter
permutations left to right, so eval(g, u*v) = eval(g, u) followed by
eval(g, v).  A group keeps one image tuple per letter column and is
enumerated as the orbit of the identity's image tuple under them, in column
order (``schreier.orbit``).  The closure holds only that orbit: an element
becomes a ``Permutation`` when a caller iterates the public mapping, and a
shortest witness word is rebuilt from the orbit's parent pointers when it is
looked up, so the same element always gets the same word.  The orbit's rows
are the group's Cayley table, which is the normal core of any table whose
transition group it is.

A primitive group of degree at least 5 is searched by its census scan: the
orbit with the cycle-type census as its stop predicate.  The census
recognizes S_d and A_d by Jordan's theorem as their elements go by, which
gives the order and the counts (the class sizes) without enumerating them;
the scan then stops at the first witness of the last cycle type.  Jordan's
test can fire on no other group, so any other group runs the plain orbit,
and its census is counted element by element over the kept states, in BFS
order, only when it is asked for; a primitive group that the scan does not
recognize is enumerated in full and counted on the way.  A cap bounds the
states a search holds: the order and the census are answered whenever the
search fits under the cap, whatever their size, while a caller that needs
elements past the scan's own needs the whole orbit, so the order must fit
too.  A scan that stopped early is then resumed, in the same order.  The
closure is cached under the cap rule of ``schreier.Capped`` and keeps its
census, computed once.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from math import factorial, isqrt, lcm, prod

from .schreier import (
    DEFAULT_CAP,
    CapExceeded,
    Capped,
    CosetTable,
    Orbit,
    cycle_at,
    cycles,
    gather,
    orbit,
    resume,
)
from .words import Word

__all__ = [
    "CapExceeded",
    "Permutation",
    "PermGroup",
    "transition_group",
    "cycle_type_census",
    "has_k_cycle_at",
]

_GROUP_TOO_LARGE = partial(CapExceeded, message="transition group larger than cap")


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"{self.images} is not a permutation")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other (right-action composition)."""
        return Permutation(tuple(other.images[v] for v in self.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        return cycles(self.images)

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))


def _inverse(images: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(images)), key=images.__getitem__))


class _Closure(Mapping[Permutation, Word]):
    """Enumerated group elements in BFS order, mapped to their witness words.

    Only the orbit of image tuples is held: iterating wraps each element in
    a ``Permutation`` as it is reached, and a lookup rebuilds the witness
    word from the orbit's parent pointers.  ``order`` is the group's order,
    counted or recognized, and ``state_count`` the states its search held,
    which a cap bounds; the orbit holds fewer than ``order`` elements only
    while a scan that stopped early on S_d or A_d is not resumed
    (``PermGroup.enumerate`` resumes it), and ``holds`` answers for every
    element, kept or not.  ``scan`` is the census scan's census, None for a
    group that ran the plain orbit.
    """

    def __init__(self, reached: Orbit, scan: _Census | None):
        self.orbit = reached
        self.state_count = reached.state_count
        self.order = reached.state_count if reached.complete else scan.order
        self.scan = scan
        self.census: tuple[tuple[tuple[int, ...], int, Word], ...] | None = None

    def __getitem__(self, element: Permutation) -> Word:
        if not isinstance(element, Permutation):
            raise KeyError(element)
        return self.orbit.word(self.orbit.index[element.images])

    def __contains__(self, element: object) -> bool:
        return (isinstance(element, Permutation)
                and element.images in self.orbit.index)

    def holds(self, images: tuple[int, ...]) -> bool:
        """Whether the group holds the permutation with these images, kept
        or not: looked up in the orbit once it is complete, else read off
        its parity, as a scan stops early only on S_d or A_d."""
        if self.orbit.complete:
            return images in self.orbit.index
        return self.order == factorial(len(images)) or not _odd(images)

    def __iter__(self) -> Iterator[Permutation]:
        return map(Permutation, self.orbit.states)

    def __len__(self) -> int:
        return self.orbit.state_count


class PermGroup:
    """Group generated by one permutation per free-group generator.

    ``columns`` holds the image tuples of the generators and their inverses
    in letter-column order (a, a^-1, b, b^-1, ...)."""

    def __init__(self, degree: int, gens: tuple[Permutation, ...]):
        if not gens:
            raise ValueError("need at least one generator")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"degree mismatch: {g.degree} != {degree}")
        self.degree = degree
        self.gens = tuple(gens)
        self.rank = len(gens)
        self.columns = tuple(images for g in gens
                             for images in (g.images, _inverse(g.images)))
        self._closure = Capped(_close, _GROUP_TOO_LARGE)

    # the cached closure, None until a search succeeds
    _elements = property(lambda self: self._closure.value)

    def _closed(self, cap: int) -> _Closure:
        """The group's closure (see ``_close``), cached under the cap rule
        of ``schreier.Capped``: the cap bounds the states its search held."""
        return self._closure(cap, self)

    def enumerate(self, cap: int = DEFAULT_CAP) -> Mapping[Permutation, Word]:
        """Closure with shortest witness words; cached after first success.

        The read-only mapping iterates in BFS order from the identity, the
        letters tried in column order.  Each witness is rebuilt from the BFS
        parent pointers when its element is looked up: it is the discovery
        path, a shortest word, and the same on every lookup.  The whole
        orbit must fit under the cap, so a group whose order exceeds it
        raises, even when an earlier, larger cap already resumed its scan; a
        census scan that stopped early is resumed.
        """
        closure = self._closed(cap)
        if closure.order > cap:
            raise _GROUP_TOO_LARGE(cap)
        if not closure.orbit.complete:
            resume(closure.orbit, gather(self.columns, self.degree), cap)
        return closure

    def cayley_table(self, cap: int = DEFAULT_CAP) -> CosetTable:
        """The group acting on itself by right multiplication, in enumeration
        order: the normal core of any table whose transition group this is."""
        return CosetTable(self.rank, tuple(self.enumerate(cap).orbit.rows))

    def order(self, cap: int = DEFAULT_CAP) -> int:
        """The order the group's search finds, counted or recognized,
        whatever its size; the cap bounds the states the search holds."""
        return self._closed(cap).order

    @cached_property
    def primitive(self) -> bool:
        return _is_primitive(self.degree, self.columns[::2])


def _close(group: PermGroup, cap: int) -> _Closure:
    """The group's orbit from the identity.  Where Jordan's test can fire,
    on a primitive group of degree >= 5, it is the census scan, with the
    census as its stop predicate, so it ends early on S_d and A_d."""
    census = _Census(group) if group.degree >= 5 and group.primitive else None
    reached = orbit(tuple(range(group.degree)), gather(group.columns, group.degree),
                    cap, census)
    return _Closure(reached, census)


class _Census:
    """Cycle types of a group's elements, fed one at a time in BFS order
    from the identity: the first position of each type and, until the
    group is recognized as S_d or A_d, the number of each.

    Recognition is Jordan's theorem (Wielandt, Finite Permutation Groups,
    Thm 13.9): a primitive group of degree d that holds a p-cycle, p a prime
    <= d - 3, contains A_d.  A power of an element with exactly one cycle of
    length p and no other cycle length divisible by p is such a p-cycle.
    The group is then S_d when some generator is odd, else A_d; its order
    is kept as ``order``, and its counts are the class sizes.  As a stop
    predicate, a call returns true once the group is recognized and each
    of its cycle types has a witness.  An element of a cycle type that the
    recognized group lacks, or a complete scan that misses one of its
    types, fails the self-check with an AssertionError."""

    def __init__(self, group: PermGroup):
        # the group's closure keeps this census; a weak reference back
        # leaves no cycle for the garbage collector to find
        self.group = weakref.proxy(group)
        self.order: int | None = None
        self.seen = 0
        self.first: dict[tuple[int, ...], int] = {}
        self.counts: dict[tuple[int, ...], int] = {}
        self.sizes: dict[tuple[int, ...], int] | None = None
        self(tuple(range(group.degree)))

    def __call__(self, images: tuple[int, ...]) -> bool:
        shape = tuple(sorted(map(len, cycles(images))))
        if shape not in self.first:
            self.first[shape] = self.seen
            if self.sizes is None and _jordan(shape, self.group.degree):
                self._recognize()
            if self.sizes is not None and not self.first.keys() <= self.sizes.keys():
                raise AssertionError(
                    f"a group of degree {self.group.degree} recognized as one of "
                    f"order {sum(self.sizes.values())} has an element of another "
                    "cycle type")
        self.seen += 1
        if self.sizes is None:
            self.counts[shape] = self.counts.get(shape, 0) + 1
            return False
        return len(self.first) == len(self.sizes)

    def _recognize(self) -> None:
        group, d = self.group, self.group.degree
        if group.primitive:
            odd = any(_odd(g.images) for g in group.gens)
            self.order = factorial(d) if odd else factorial(d) // 2
            self.sizes = _class_sizes(d, self.order)

    def census(self, reached: Orbit) -> tuple[tuple[tuple[int, ...], int, Word], ...]:
        counts = self.counts if self.sizes is None else self.sizes
        if len(self.first) < len(counts):
            raise AssertionError(
                f"a group of degree {self.group.degree} recognized as one of "
                f"order {sum(counts.values())} lacks some of its cycle types")
        return tuple((shape, counts[shape], reached.word(self.first[shape]))
                     for shape in sorted(counts))


def _odd(images: tuple[int, ...]) -> bool:
    return (len(images) - len(cycles(images))) % 2 == 1


def _jordan(shape: tuple[int, ...], degree: int) -> bool:
    """Whether a power of an element of this cycle type is a p-cycle for a
    prime p <= degree - 3."""
    return any(
        shape.count(p) == 1 and all(length % p for length in shape if length != p)
        for p in set(shape)
        if 2 <= p <= degree - 3 and all(p % q for q in range(2, isqrt(p) + 1)))


def _is_primitive(degree: int, gens: tuple[tuple[int, ...], ...]) -> bool:
    """Whether the gens generate a transitive group, the orbit of 0 holding
    every point, with no block system but the trivial ones.  Atkinson's
    test: for every point b, the finest invariant partition that joins 0
    and b, closed under the gens by union-find, is one block, so it takes
    degree - 1 joins."""
    if orbit(0, lambda v: [g[v] for g in gens], degree).state_count < degree:
        return False
    for b in range(1, degree):
        parent = list(range(degree))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v
        parent[b] = 0
        joins = [(0, b)]
        for x, y in joins:
            for g in gens:
                u, v = find(g[x]), find(g[y])
                if u != v:
                    parent[v] = u
                    joins.append((u, v))
        if len(joins) < degree - 1:
            return False
    return True


def transition_group(table: CosetTable) -> PermGroup:
    """Permutations of table vertices induced by the generators."""
    return PermGroup(table.degree, tuple(map(Permutation, table.columns[::2])))


def cycle_type_census(
    group: PermGroup, cap: int = DEFAULT_CAP
) -> tuple[tuple[tuple[int, ...], int, Word], ...]:
    """Multiset of cycle types over the closure, one witness word per type.

    A cycle type is the ascending tuple of cycle lengths (fixed points
    included).  Returns (type, count, witness) triples sorted by type, the
    witness being the shortest word whose element was enumerated first.
    The census is read off the group's census scan (see ``_Census``): the
    counts of a recognized S_d or A_d are their class sizes, and its scan
    stopped once every type had its witness.  A group that ran the plain
    orbit feeds its states to a census in one pass, in BFS order.  The
    census is kept on the closure, so it is computed once.
    """
    closure = group._closed(cap)
    if closure.census is None:
        scan = closure.scan
        if scan is None:
            scan = _Census(group)
            for images in islice(closure.orbit.states, 1, None):
                scan(images)
        closure.census = scan.census(closure.orbit)
    return closure.census


def _class_sizes(degree: int, order: int) -> dict[tuple[int, ...], int]:
    """Elements per cycle type of S_d (order d!) or A_d (order d!/2).  In
    S_d the type with m_k cycles of length k has d!/prod(k^m_k m_k!)
    elements; A_d has as many of each even type and none of the others."""
    full = factorial(degree)
    return {shape: full // prod(k**m * factorial(m) for k, m in Counter(shape).items())
            for shape in _partitions(degree)
            if order == full or (degree - len(shape)) % 2 == 0}


def _partitions(n: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts >= least, as ascending tuples."""
    if n == 0:
        yield ()
    for part in range(least, n // 2 + 1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)
    if n >= least:
        yield (n,)


def has_k_cycle_at(
    group: PermGroup, k: int, point: int, cap: int = DEFAULT_CAP
) -> Word | None:
    """Witness word whose permutation has a k-cycle through point, if any:
    the first in BFS order.  The states the group's search kept are
    searched first; only when they hold no such permutation is the whole
    orbit needed, under the cap rule of ``PermGroup.enumerate``.  A census
    already computed that has no cycle type with a part k gives that
    answer without the search: None, or the cap error when the order
    exceeds the cap."""
    if not 1 <= k <= group.degree:
        raise ValueError(f"cycle length {k} out of range for degree {group.degree}")
    if not 0 <= point < group.degree:
        raise ValueError(f"point {point} out of range")
    closure = group._closed(cap)
    if closure.census is not None and all(k not in shape for shape, _, _ in closure.census):
        if closure.order > cap:
            raise _GROUP_TOO_LARGE(cap)
        return None
    states = closure.orbit.states  # a resumed scan appends to this list
    for position in range(closure.order):
        if position == closure.state_count:
            group.enumerate(cap)
        if len(cycle_at(states[position], point)) == k:
            return closure.orbit.word(position)
    return None
