"""Partitions of the integers into arithmetic residue classes.

A system of classes o_1*Z + r_1, ..., o_t*Z + r_t partitions Z exactly when
every integer in one full period L = lcm(o_i) is covered exactly once.  Two
classes meet exactly when their residues agree modulo the gcd of their
moduli, so validity is decided per pair of distinct moduli, not per pair of
classes, and without a scan of the period; so is the witness of an invalid
system, the least integer not covered once, by a binary search on the
number of covers below n.  For genuine partitions (more than one class, so
all moduli exceed 1) four structural facts hold: the moduli are not
pairwise coprime, the largest modulus repeats at least p times where p is
its smallest prime factor, every modulus divides another one, and every
modulus that properly divides no other appears at least twice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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

    Classes are grouped by modulus: two of one modulus meet when their
    residues are equal, and for moduli o < o' with gcd g the two sets of
    residues mod g must be disjoint.  Only the classes of two moduli whose
    sets meet are compared in pairs, to find where they first meet.  The
    witness of an invalid system is the first meeting point of two classes,
    unless a gap lies below it.  t classes that cover [0, 2**t) cover Z
    (Crittenden and Vanden Eynden, 1970), so gaps are sought below that
    bound only.  Below the first meeting point no integer is covered twice,
    so [0, n) holds a gap exactly when fewer than n covers fall in it; that
    test is monotone in n, and a binary search on it finds the first gap
    with O(t) arithmetic per step.
    """
    classes = z.classes
    groups: dict[int, set[int]] = {}
    meets = []  # points where two classes meet
    for c in classes:
        residues = groups.setdefault(c.modulus, set())
        if c.residue in residues:
            meets.append(c.residue)
        residues.add(c.residue)
    period = lcm(*groups)
    items = sorted(groups.items())
    for i, (o, rs) in enumerate(items):
        for o2, rs2 in items[i + 1:]:
            g = gcd(o, o2)
            low = rs if g == o else set(map(g.__rmod__, rs))
            if not low.isdisjoint(map(g.__rmod__, rs2)):
                meets.extend(_first_common(o, r, o2, r2) for r in rs for r2 in rs2
                             if (r2 - r) % g == 0)
    if not meets and sum(period // o * len(rs) for o, rs in items) == period:
        return ZCheck(True, None)
    overlap = min(meets, default=period)
    end = min(overlap, 2 ** len(classes))
    low, high = 0, end  # [0, low) is covered, [0, n) not for high < n <= end
    while low < high:
        n = (low + high + 1) // 2
        covers = sum((n - 1 - c.residue) // c.modulus + 1
                     for c in classes if c.residue < n)
        if covers == n:
            low = n
        else:
            high = n - 1
    return ZCheck(False, overlap if low == end else low)


def _first_common(o: int, r: int, o2: int, r2: int) -> int:
    """The smallest n >= 0 in both oZ + r and o2Z + r2, which meet, by the
    Chinese remainder theorem."""
    g = gcd(o, o2)
    m = o2 // g
    return r + o * ((r2 - r) // g * pow(o // g, -1, m) % m)


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
    do not partition Z are rejected, which includes every input that mixes
    modulus 1 with other classes: Z meets each of them.  The facts are read
    off the count of each distinct modulus.
    """
    check = validate_z(z)
    if not check.valid:
        raise InvalidPartition(
            f"not a partition of Z: integer {check.witness} not covered once",
            check.witness)
    counts = Counter(z.moduli)
    moduli = sorted(counts)
    if len(z.classes) == 1:
        return StructReport(moduli[0], None, 1, True, True, True, True)

    o_max = moduli[-1]
    p = smallest_prime_factor(o_max)
    o_max_count = counts[o_max]
    not_pairwise_coprime = len(moduli) < len(z.classes) or any(
        gcd(a, b) > 1 for i, a in enumerate(moduli) for b in moduli[i + 1:])
    # a modulus divides another class's modulus when it repeats or a larger
    # modulus is a multiple of it, so the last two facts say the same thing
    divides_another = all(
        counts[o] >= 2 or any(b % o == 0 for b in moduli[i + 1:])
        for i, o in enumerate(moduli))
    return StructReport(
        o_max, p, o_max_count,
        not_pairwise_coprime, o_max_count >= p, divides_another, divides_another)


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
