"""Free-word arithmetic: reduction, parsing, inversion, cyclic reduction."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from conftest import P, letters as letter_strategy, words
from helpers import cyclic_reduce, naive_reduce, reduced_words_up_to, signed_letters
from hsforge.sampling import random_word
from hsforge.words import (
    Letter,
    MAX_PARSE_RANK,
    Word,
    WordError,
    identity,
    inverse,
    letter_from_column,
    multiply,
    parse_word,
    power,
    word,
)


def test_letter_column_order_interleaves_inverses():
    # a < a^-1 < b < b^-1
    assert Letter(1, 1).column == 0
    assert Letter(1, -1).column == 1
    assert Letter(2, 1).column == 2
    assert Letter(2, -1).column == 3
    for c in range(8):
        assert letter_from_column(c).column == c


def test_letter_char_and_inverse():
    assert Letter(1, 1).char() == "a"
    assert Letter(1, -1).char() == "A"
    assert Letter(26, 1).char() == "z"
    assert Letter(2, 1).inverse() == Letter(2, -1)
    with pytest.raises(WordError):
        Letter(27, 1).char()


def test_parse_word_basics():
    w = parse_word(2, "abA")
    assert len(w) == 3
    assert str(w) == "abA"
    assert parse_word(2, "1") == identity(2)
    assert parse_word(2, "") == identity(2)
    assert str(identity(2)) == "1"


def test_parse_word_reduces():
    assert str(parse_word(2, "abBA")) == "1"
    assert str(parse_word(2, "aAb")) == "b"


def test_parse_word_errors():
    with pytest.raises(WordError):
        parse_word(2, "c")
    with pytest.raises(WordError):
        parse_word(2, "a b")
    with pytest.raises(WordError):
        parse_word(2, "a2")
    with pytest.raises(WordError):
        parse_word(MAX_PARSE_RANK + 1, "a")


def test_word_constructor_rejects_unreduced():
    with pytest.raises(WordError):
        Word(2, (Letter(1, 1), Letter(1, -1)))
    with pytest.raises(WordError):
        Word(0, ())
    with pytest.raises(WordError):
        Word(1, (Letter(2, 1),))


def test_word_helper_reduces():
    assert word(2, [Letter(1, 1), Letter(1, -1)]) == identity(2)


def test_inverse_reverse_and_flip():
    assert str(inverse(P("abA"))) == "aBA"
    assert str(~P("ab")) == "BA"


def test_cyclic_reduce_examples():
    conj, core = cyclic_reduce(P("abA"))
    assert (str(conj), str(core)) == ("a", "b")
    conj, core = cyclic_reduce(P("aabAA"))
    assert (str(conj), str(core)) == ("aa", "b")
    conj, core = cyclic_reduce(P("ab"))
    assert (str(conj), str(core)) == ("1", "ab")
    conj, core = cyclic_reduce(identity(2))
    assert conj.is_identity and core.is_identity


def test_power_and_errors():
    assert str(power(P("ab"), 3)) == "ababab"
    assert power(P("ab"), 0) == identity(2)
    assert str(P("ab") ** 2) == "abab"
    with pytest.raises(WordError):
        power(P("ab"), -1)
    with pytest.raises(WordError):
        multiply(P("a"), parse_word(3, "a"))


def test_power_is_the_repeated_product():
    # u^k reduced once equals k left multiplications, also where u's ends
    # cancel across each seam (aBA^2 = aBBA, aBAb^3 = aBAbaBAbaBAb)
    rng = random.Random(14)
    samples = [P("aBA"), P("aBAb"), P("abA", 3), P("1")]
    samples += [random_word(rng, rng.choice((1, 2, 3)), 9) for _ in range(60)]
    for u in samples:
        product = identity(u.rank)
        for k in range(7):
            assert power(u, k) == product
            product = multiply(product, u)
    assert str(power(P("aBA"), 2)) == "aBBA"


def test_signed_letters_covers_alphabet():
    ls = signed_letters(2)
    assert len(ls) == 4
    assert sorted(l.column for l in ls) == [0, 1, 2, 3]


@given(words(), words(), words())
def test_multiply_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(words())
def test_multiply_by_inverse_is_identity(u):
    assert multiply(u, inverse(u)).is_identity
    assert multiply(inverse(u), u).is_identity


@given(words(), words())
def test_multiply_length_bound_and_parity(u, v):
    product = multiply(u, v)
    total = len(u) + len(v)
    assert len(product) <= total
    assert (total - len(product)) % 2 == 0


@given(st.lists(letter_strategy(2), max_size=12))
def test_reduction_matches_repeated_scan_oracle(ls):
    assert word(2, ls).letters == tuple(naive_reduce(ls))


@given(st.lists(letter_strategy(2), max_size=12))
def test_print_then_parse_is_free_reduction(ls):
    text = "".join(l.char() for l in ls)
    assert parse_word(2, text) == word(2, ls)


def test_parse_print_round_trip_on_all_short_reduced_words():
    for w in reduced_words_up_to(2, 4):
        assert parse_word(2, str(w)) == w


@given(words())
def test_cyclic_reduce_reassembles(u):
    conj, core = cyclic_reduce(u)
    assert multiply(multiply(conj, core), inverse(conj)) == u
    if core.letters:
        assert core.letters[0] != core.letters[-1].inverse()
