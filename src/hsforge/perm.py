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
transition group it is.  The closure is cached under the cap rule of
``schreier.Capped`` and keeps its cycle-type census, which is computed once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import partial
from math import factorial, lcm, prod

from .schreier import CapExceeded, Capped, CosetTable, Orbit, cycles, gather, orbit
from .words import Word

__all__ = [
    "CapExceeded",
    "Permutation",
    "PermGroup",
    "transition_group",
    "cycle_type_census",
    "has_k_cycle_at",
]

DEFAULT_GROUP_CAP = 10**6
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


def _cycle_through(images: tuple[int, ...], point: int) -> int:
    length = 1
    v = images[point]
    while v != point:
        v = images[v]
        length += 1
    return length


class _Closure(Mapping[Permutation, Word]):
    """Enumerated group elements in BFS order, mapped to their witness words.

    Only the orbit of image tuples is held: iterating wraps each element in
    a ``Permutation`` as it is reached, and a lookup rebuilds the witness
    word from the orbit's parent pointers."""

    def __init__(self, reached: Orbit):
        self.orbit = reached
        self.census: tuple[tuple[tuple[int, ...], int, Word], ...] | None = None

    def __getitem__(self, element: Permutation) -> Word:
        if not isinstance(element, Permutation):
            raise KeyError(element)
        return self.orbit.word(self.orbit.index[element.images])

    def __contains__(self, element: object) -> bool:
        return (isinstance(element, Permutation)
                and element.images in self.orbit.index)

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

    # the cached closure, None until an enumeration succeeds
    _elements = property(lambda self: self._closure.value)

    def enumerate(self, cap: int = DEFAULT_GROUP_CAP) -> Mapping[Permutation, Word]:
        """Closure with shortest witness words; cached after first success.

        The read-only mapping iterates in BFS order from the identity, the
        letters tried in column order.  Each witness is rebuilt from the BFS
        parent pointers when its element is looked up: it is the discovery
        path, a shortest word, and the same on every lookup.  Caps are
        answered by the rule of ``schreier.Capped``.
        """
        return self._closure(cap, self)

    def cayley_table(self, cap: int = DEFAULT_GROUP_CAP) -> CosetTable:
        """The group acting on itself by right multiplication, in enumeration
        order: the normal core of any table whose transition group this is."""
        return CosetTable(self.rank, tuple(self.enumerate(cap).orbit.rows))

    def order(self, cap: int = DEFAULT_GROUP_CAP) -> int:
        return len(self.enumerate(cap))


def _close(group: PermGroup, cap: int) -> _Closure:
    images = gather(group.columns, group.degree)
    return _Closure(orbit(tuple(range(group.degree)), images, cap))


def transition_group(table: CosetTable) -> PermGroup:
    """Permutations of table vertices induced by the generators."""
    gens = []
    for j in range(table.rank):
        gens.append(Permutation(tuple(row[2 * j] for row in table.delta)))
    return PermGroup(table.degree, tuple(gens))


def cycle_type_census(
    group: PermGroup, cap: int = DEFAULT_GROUP_CAP
) -> tuple[tuple[tuple[int, ...], int, Word], ...]:
    """Multiset of cycle types over the closure, one witness word per type.

    A cycle type is the ascending tuple of cycle lengths (fixed points
    included).  Returns (type, count, witness) triples sorted by type, the
    witness being the shortest word whose element was enumerated first.
    The counts of S_d and A_d are their class sizes, so their elements are
    scanned only until every type has its witness.  The census is kept on
    the closure, so it is computed once.
    """
    elements = group.enumerate(cap)
    if elements.census is None:
        counts = _class_sizes(group.degree, len(elements))
        counting = counts is None
        if counting:
            counts = {}
        first: dict[tuple[int, ...], int] = {}
        for position, images in enumerate(elements.orbit.states):
            shape = tuple(sorted(map(len, cycles(images))))
            first.setdefault(shape, position)
            if counting:
                counts[shape] = counts.get(shape, 0) + 1
            elif len(first) == len(counts):
                break
        elements.census = tuple(
            (shape, counts[shape], elements.orbit.word(first[shape]))
            for shape in sorted(counts))
    return elements.census


def _class_sizes(degree: int, order: int) -> dict[tuple[int, ...], int] | None:
    """Elements per cycle type of a group of this degree and order when it
    is S_d (order d!) or A_d (order d!/2, d >= 2), else None.  In S_d the
    type with m_k cycles of length k has d!/prod(k^m_k m_k!) elements; A_d
    has as many of each even type and none of the others."""
    full = 1
    for k in range(2, degree + 1):
        full *= k
        if full > 2 * order:
            return None
    if order != full and not (degree >= 2 and 2 * order == full):
        return None
    sizes = {}
    for shape in _partitions(degree):
        if order == full or (degree - len(shape)) % 2 == 0:
            sizes[shape] = full // prod(
                k**m * factorial(m) for k, m in Counter(shape).items())
    return sizes


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
    group: PermGroup, k: int, point: int, cap: int = DEFAULT_GROUP_CAP
) -> Word | None:
    """Witness word whose permutation has a k-cycle through point, if any."""
    if not 1 <= k <= group.degree:
        raise ValueError(f"cycle length {k} out of range for degree {group.degree}")
    if not 0 <= point < group.degree:
        raise ValueError(f"point {point} out of range")
    reached = group.enumerate(cap).orbit
    for position, images in enumerate(reached.states):
        if _cycle_through(images, point) == k:
            return reached.word(position)
    return None
