"""Partitions of the integers into arithmetic residue classes.

A system of classes o_1*Z + r_1, ..., o_t*Z + r_t partitions Z exactly when
every integer in one full period L = lcm(o_i) is covered exactly once.  For
genuine partitions (more than one class, so all moduli exceed 1) four
structural facts hold: the moduli are not pairwise coprime, the largest
modulus repeats at least p times where p is its smallest prime factor, every
modulus divides another one, and every modulus that properly divides no other
appears at least twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

__all__ = [
    "InvalidPartition",
    "SpacingViolation",
    "CountViolation",
    "ZClass",
    "ZPartition",
    "ZCheck",
    "StructReport",
    "validate_z",
    "erdos_checks",
    "split_class",
    "colored_loop_partition",
    "parse_zpartition",
    "format_zpartition",
]

WITNESS_WINDOW = 1 << 16  # integers counted at a time in a witness search


class InvalidPartition(ValueError):
    """The classes do not form a partition of Z, or moduli are malformed;
    ``witness`` is the smallest integer not covered once, if that is why."""

    def __init__(self, message: str, witness: int | None = None):
        super().__init__(message)
        self.witness = witness


class SpacingViolation(ValueError):
    """A color's positions on a loop are not a single arithmetic progression."""


class CountViolation(ValueError):
    """A color's occurrence count on a loop contradicts its modulus."""


@dataclass(frozen=True, order=True)
class ZClass:
    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise InvalidPartition(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise InvalidPartition(
                f"residue {self.residue} not in [0, {self.modulus})")

    def __str__(self) -> str:
        return f"{self.modulus}:{self.residue}"


@dataclass(frozen=True)
class ZPartition:
    classes: tuple[ZClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise InvalidPartition("need at least one class")

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(c.modulus for c in self.classes)

    @property
    def period(self) -> int:
        return lcm(*self.moduli)

    def __str__(self) -> str:
        return format_zpartition(self)


def zpartition(pairs: list[tuple[int, int]]) -> ZPartition:
    """Build from (modulus, residue) pairs, normalizing residues mod modulus."""
    return ZPartition(tuple(ZClass(o, r % o) for o, r in pairs))


@dataclass(frozen=True)
class ZCheck:
    valid: bool
    witness: int | None  # smallest integer covered != exactly once


def validate_z(z: ZPartition) -> ZCheck:
    """Exact test: the classes partition Z when their densities sum to 1 and
    no two meet (oZ + r and o'Z + r' meet when gcd(o, o') divides r - r').

    Otherwise the witness is the first meeting point of two classes, unless
    a gap lies below it.  t classes that cover [0, 2**t) cover Z
    (Crittenden and Vanden Eynden, 1970), so gaps are sought below that
    bound only, counting covers in windows upward from 0.
    """
    period, classes = z.period, z.classes
    if sum(period // c.modulus for c in classes) == period and all(
            (a.residue - b.residue) % gcd(a.modulus, b.modulus)
            for a, b in combinations(classes, 2)):
        return ZCheck(True, None)
    overlap = min((_first_common(a, b, period)
                   for a, b in combinations(classes, 2)), default=period)
    end = min(overlap, 2 ** len(classes))
    for start in range(0, end, WITNESS_WINDOW):
        counts = [0] * min(WITNESS_WINDOW, end - start)
        for c in classes:
            for n in range((c.residue - start) % c.modulus, len(counts), c.modulus):
                counts[n] += 1
        for n, hits in enumerate(counts):
            if hits != 1:
                return ZCheck(False, start + n)
    return ZCheck(False, overlap)


def _first_common(a: ZClass, b: ZClass, default: int) -> int:
    """The smallest n >= 0 in both classes, by the Chinese remainder
    theorem, or default when they are disjoint."""
    g = gcd(a.modulus, b.modulus)
    if (b.residue - a.residue) % g:
        return default
    m = b.modulus // g
    k = (b.residue - a.residue) // g * pow(a.modulus // g, -1, m) % m
    return a.residue + a.modulus * k


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError(f"no prime factor for {n}")
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


@dataclass(frozen=True)
class StructReport:
    o_max: int
    smallest_prime: int | None
    o_max_count: int
    not_pairwise_coprime: bool
    o_max_repeats: bool
    every_modulus_divides_another: bool
    non_divisors_repeat: bool

    @property
    def all_hold(self) -> bool:
        return (self.not_pairwise_coprime and self.o_max_repeats
                and self.every_modulus_divides_another and self.non_divisors_repeat)


def erdos_checks(z: ZPartition) -> StructReport:
    """Evaluate the four structural facts on a verified partition.

    The one-class partition {Z} satisfies everything trivially.  Inputs that
    do not partition Z, or mix modulus 1 with other classes, are rejected.
    """
    check = validate_z(z)
    if not check.valid:
        raise InvalidPartition(
            f"not a partition of Z: integer {check.witness} not covered once",
            check.witness)
    moduli = sorted(z.moduli)
    if len(moduli) == 1:
        return StructReport(moduli[0], None, 1, True, True, True, True)
    if 1 in moduli:
        raise InvalidPartition("modulus 1 only allowed in the one-class partition")

    o_max = moduli[-1]
    p = smallest_prime_factor(o_max)
    o_max_count = moduli.count(o_max)

    not_pairwise_coprime = any(
        gcd(a, b) > 1
        for i, a in enumerate(moduli)
        for b in moduli[i + 1:]
    )
    o_max_repeats = o_max_count >= p
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
        not_pairwise_coprime, o_max_repeats, every_divides, non_divisors_repeat)


def split_class(z: ZPartition, which: int, q: int) -> ZPartition:
    """Replace class oZ + r by the q classes qoZ + (r + j*o), j = 0..q-1.

    Splitting preserves the partition property for any integer q >= 2.
    """
    if q < 2:
        raise ValueError(f"split factor must be >= 2, got {q}")
    if not 0 <= which < len(z.classes):
        raise ValueError(f"class index {which} out of range")
    old = z.classes[which]
    new = tuple(
        ZClass(q * old.modulus, old.residue + j * old.modulus) for j in range(q))
    return ZPartition(z.classes[:which] + new + z.classes[which + 1:])


def colored_loop_partition(
    length: int, colors: tuple[int, ...], moduli: dict[int, int]
) -> ZPartition:
    """Read a partition of Z off a colored loop.

    Position j on the loop belongs to the class modulus*Z + first-occurrence
    of its color; each color must appear length/modulus times (CountViolation
    otherwise) at a uniform gap equal to its modulus (SpacingViolation).
    Classes are returned in order of first occurrence.
    """
    if len(colors) != length:
        raise ValueError(f"{len(colors)} colors for loop of length {length}")
    positions: dict[int, list[int]] = {}
    for j, color in enumerate(colors):
        positions.setdefault(color, []).append(j)
    classes = []
    for color in sorted(positions, key=lambda c: positions[c][0]):
        if color not in moduli:
            raise ValueError(f"no modulus for color {color}")
        o = moduli[color]
        where = positions[color]
        if length % o != 0 or len(where) * o != length:
            raise CountViolation(
                f"color {color} appears {len(where)} times on a loop of "
                f"length {length}, expected {length}/{o}")
        for a, b in zip(where, where[1:]):
            if b - a != o:
                raise SpacingViolation(
                    f"color {color} at positions {where}, expected gap {o}")
        classes.append(ZClass(o, where[0] % o))
    return ZPartition(tuple(classes))


def parse_zpartition(text: str) -> ZPartition:
    """Parse "o:r,o:r,..." with nonnegative integers."""
    parts = [p.strip() for p in text.split(",")]
    classes = []
    for part in parts:
        if ":" not in part:
            raise InvalidPartition(f"expected 'modulus:residue', got {part!r}")
        left, right = part.split(":", 1)
        try:
            o, r = int(left), int(right)
        except ValueError as err:
            raise InvalidPartition(f"bad class {part!r}: {err}") from None
        classes.append(ZClass(o, r))
    return ZPartition(tuple(classes))


def format_zpartition(z: ZPartition) -> str:
    return ",".join(str(c) for c in z.classes)
