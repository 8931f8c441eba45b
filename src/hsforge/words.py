"""Freely reduced words over the symmetric alphabet of a finite-rank free group.

A word is a tuple of letters, each letter a generator index with a sign.
Words are kept freely reduced at all times: no letter is ever adjacent to
its own inverse.  The text form writes generator j as the j-th lowercase
latin letter and its inverse as the corresponding uppercase letter; the
empty word prints as "1".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, NamedTuple

# The text form only has 26 letter pairs; core types accept any rank.
MAX_PARSE_RANK = 26


class WordError(ValueError):
    """Raised for malformed letters, words, or unparsable text."""


class Letter(NamedTuple):
    generator: int  # 1-based generator index
    sign: int       # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.generator, -self.sign)

    @property
    def column(self) -> int:
        # Transition-table column: a < a^-1 < b < b^-1 < ...
        return 2 * (self.generator - 1) + (0 if self.sign > 0 else 1)

    def char(self) -> str:
        if self.generator > MAX_PARSE_RANK:
            raise WordError(f"generator {self.generator} has no single-letter form")
        base = ord("a") + self.generator - 1
        return chr(base) if self.sign > 0 else chr(base).upper()


@cache  # one shared Letter per column: words rebuilt from parent pointers
def letter_from_column(column: int) -> Letter:
    return Letter(column // 2 + 1, 1 if column % 2 == 0 else -1)


def _check_letter(letter: Letter, rank: int) -> None:
    if letter.sign not in (1, -1):
        raise WordError(f"letter sign must be +1 or -1, got {letter.sign}")
    if not 1 <= letter.generator <= rank:
        raise WordError(
            f"generator {letter.generator} out of range for rank {rank}")


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for letter in letters:
        if stack and stack[-1] == letter.inverse():
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    rank: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise WordError(f"rank must be >= 1, got {self.rank}")
        for letter in self.letters:
            _check_letter(letter, self.rank)
        for left, right in zip(self.letters, self.letters[1:]):
            if left == right.inverse():
                raise WordError(f"word {self.letters} is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    @cached_property  # the letters' table columns, resolved on the first walk
    def columns(self) -> tuple[int, ...]:
        return tuple(letter.column for letter in self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(letter.char() for letter in self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return inverse(self)

    def __pow__(self, k: int) -> "Word":
        return power(self, k)


def word(rank: int, letters: Iterable[Letter]) -> Word:
    """Build a word from arbitrary letters, reducing as needed."""
    return Word(rank, _reduce(letters))


def identity(rank: int) -> Word:
    return Word(rank, ())


def parse_word(rank: int, text: str) -> Word:
    """Parse the text form: lowercase = generator, uppercase = inverse, "1" = identity."""
    if rank > MAX_PARSE_RANK:
        raise WordError(f"text form supports rank <= {MAX_PARSE_RANK}, got {rank}")
    text = text.strip()
    if text in ("", "1"):
        return identity(rank)
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            letter = Letter(ord(ch) - ord("a") + 1, 1)
        elif "A" <= ch <= "Z":
            letter = Letter(ord(ch) - ord("A") + 1, -1)
        else:
            raise WordError(f"character {ch!r} is not a letter or its inverse")
        if letter.generator > rank:
            raise WordError(f"letter {ch!r} exceeds rank {rank}")
        letters.append(letter)
    return word(rank, letters)


def multiply(u: Word, v: Word) -> Word:
    if u.rank != v.rank:
        raise WordError(f"rank mismatch: {u.rank} vs {v.rank}")
    return word(u.rank, u.letters + v.letters)


def inverse(u: Word) -> Word:
    return Word(u.rank, tuple(letter.inverse() for letter in reversed(u.letters)))


def power(u: Word, k: int) -> Word:
    if k < 0:
        raise WordError(f"exponent must be >= 0, got {k}")
    return word(u.rank, u.letters * k)  # one reduction, not k
