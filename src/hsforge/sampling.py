"""Random instances for fuzzing: words, tables, quotient partitions, covers.

Everything takes an explicit random.Random so runs are reproducible.  Random
tables are built as the transitive component of random vertex permutations.
"""

from __future__ import annotations

import random

from .partition import CosetPartition, lift_partition
from .perm import CapExceeded, PermGroup, Permutation
from .schreier import CosetTable, canonical_rows
from .words import Word, letter_from_column, word
from .zcover import ZPartition, split_class, zpartition

__all__ = [
    "random_word",
    "random_table",
    "random_quotient",
    "random_quotient_partition",
    "random_lifted_partition",
    "random_split_chain",
]


def random_word(rng: random.Random, rank: int, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    letters = [letter_from_column(rng.randrange(2 * rank)) for _ in range(length)]
    return word(rank, letters)


def random_table(rng: random.Random, rank: int, max_index: int) -> CosetTable:
    """Transitive component of the basepoint under random permutations."""
    d = rng.randint(1, max_index)
    steps = []
    for _ in range(rank):
        images = list(range(d))
        rng.shuffle(images)
        g = Permutation(tuple(images))
        steps += [g.images, g.inverse().images]
    rows = [tuple(step[v] for step in steps) for v in range(d)]
    return CosetTable(rank, canonical_rows(rows, 0))


def random_quotient(
    rng: random.Random, rank: int, max_degree: int, max_order: int
) -> PermGroup:
    while True:
        degree = rng.randint(1, max_degree)
        gens = []
        for _ in range(rank):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(tuple(images)))
        group = PermGroup(degree, tuple(gens))
        try:
            group.enumerate(max_order)
        except CapExceeded:
            continue
        return group


def random_quotient_partition(
    rng: random.Random, quotient: PermGroup, max_refinements: int = 3
) -> list[tuple[frozenset[Permutation], Permutation]]:
    """Partition the quotient into subgroup cosets by repeated refinement."""
    elements = list(quotient.enumerate())
    one = Permutation.identity(quotient.degree)
    blocks: list[tuple[frozenset[Permutation], Permutation]] = [
        (frozenset(elements), one)]
    for _ in range(rng.randint(1, max_refinements)):
        splittable = [i for i, (k, _) in enumerate(blocks) if len(k) > 1]
        if not splittable:
            break
        which = rng.choice(splittable)
        sub, rep = blocks.pop(which)
        members = sorted(sub, key=lambda x: x.images)
        smaller = frozenset([one])
        for _ in range(4):
            seed = [rng.choice(members) for _ in range(rng.randint(1, 2))]
            candidate = frozenset(
                PermGroup(quotient.degree, tuple(seed)).enumerate())
            if candidate < sub:
                smaller = candidate
                break
        covered: set[Permutation] = set()
        for element in members:
            if element in covered:
                continue
            coset = frozenset(x * element for x in smaller)
            covered |= coset
            blocks.append((smaller, element * rep))
    return blocks


def random_lifted_partition(
    rng: random.Random,
    rank: int,
    max_degree: int = 6,
    max_order: int = 64,
    max_refinements: int = 3,
) -> CosetPartition:
    quotient = random_quotient(rng, rank, max_degree, max_order)
    blocks = random_quotient_partition(rng, quotient, max_refinements)
    return lift_partition(rank, quotient, blocks)


def random_split_chain(
    rng: random.Random, max_period: int = 10**4, max_steps: int = 8
) -> ZPartition:
    """Refine {Z} by repeatedly splitting a random class by a random prime."""
    z = zpartition([(1, 0)])
    steps = rng.randint(1, max_steps)
    for _ in range(steps):
        which = rng.randrange(len(z.classes))
        q = rng.choice((2, 2, 2, 3, 3, 5, 7))
        if z.classes[which].modulus * q > max_period:
            continue
        candidate = split_class(z, which, q)
        if candidate.period <= max_period:
            z = candidate
    return z
