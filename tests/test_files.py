"""The line-oriented partition file format."""

from __future__ import annotations

from pathlib import Path

import pytest

from helpers import partition_signature
from hsforge.files import FileFormatError, load_partition, parse_partition_file
from hsforge.partition import normal_core

DATA = Path(__file__).resolve().parent.parent / "data"


def test_bundled_mixed_partition(p44):
    p = load_partition(str(DATA / "ex_two_four_four.partition"))
    assert partition_signature(p) == partition_signature(p44)


def test_bundled_normal_partition(p77):
    p = load_partition(str(DATA / "ex_two_normal_four.partition"))
    assert partition_signature(p) == partition_signature(p77)


def test_bundled_three_threes_partition(p333):
    p = load_partition(str(DATA / "ex_three_threes.partition"))
    assert partition_signature(p) == partition_signature(p333)


def test_bundled_four_fours_partition(k_table):
    p = load_partition(str(DATA / "ex_four_fours.partition"))
    assert [s.table for s in p.specs] == [k_table] * 4
    assert [str(s.rep) for s in p.specs] == ["1", "a", "ab", "aba"]


def test_bundled_eight_normals_partition(k_table):
    p = load_partition(str(DATA / "ex_eight_normals.partition"))
    core = normal_core(k_table)
    assert p.size == 8
    assert all(s.table == core for s in p.specs)


def test_bundled_corpus_has_five_examples():
    assert len(list(DATA.glob("*.partition"))) == 5


def test_parse_with_comments_and_blank_lines(h1_table):
    text = """
    # a two-block partition
    rank 2

    sub H = b, aa, abA   # fold from generators
    coset H rep 1
    coset H rep a
    """
    p = parse_partition_file(text)
    assert p.indices == (2, 2)
    assert p.specs[0].table == h1_table


def test_parse_table_directive_accepts_both_arrows(m_table):
    base = ("rank 2\n"
            "table M = 4; 0:a{0}1, 1:a{0}0, 0:b{0}2, 2:b{0}0, "
            "1:b{0}3, 3:b{0}1, 2:a{0}3, 3:a{0}2\n"
            "coset M rep 1\ncoset M rep a\ncoset M rep b\ncoset M rep ab\n")
    for arrow in ("->", "→"):
        p = parse_partition_file(base.format(arrow))
        assert p.specs[0].table == m_table
        assert p.indices == (4, 4, 4, 4)


def test_parse_table_is_canonicalized():
    # same table with the vertex labels permuted parses to the same object
    text = ("rank 2\n"
            "table M = 4; 0:a->2, 2:a->0, 0:b->1, 1:b->0, "
            "2:b->3, 3:b->2, 1:a->3, 3:a->1\n"
            "coset M rep 1\ncoset M rep a\ncoset M rep b\ncoset M rep ab\n")
    p = parse_partition_file(text)
    swapped = ("rank 2\n"
               "table M = 4; 0:a->1, 1:a->0, 0:b->2, 2:b->0, "
               "1:b->3, 3:b->1, 2:a->3, 3:a->2\n"
               "coset M rep 1\ncoset M rep a\ncoset M rep b\ncoset M rep ab\n")
    q = parse_partition_file(swapped)
    assert p.specs[0].table == q.specs[0].table


def expect_error(text: str, fragment: str, line: int | None = None):
    with pytest.raises(FileFormatError) as err:
        parse_partition_file(text)
    assert fragment in str(err.value)
    if line is not None:
        assert err.value.line_number == line


def test_parse_errors_carry_line_numbers():
    expect_error("sub H = b\n", "rank must come first", 1)
    expect_error("rank 2\nrank 2\n", "rank given twice", 2)
    expect_error("rank x\n", "bad rank", 1)
    expect_error("rank 0\n", "rank must be >= 1", 1)
    expect_error("rank 2\nfrob H = b\n", "unknown directive", 2)
    expect_error("rank 2\nsub H b\n", "expected: NAME =", 2)
    expect_error("rank 2\nsub H = q\n", "exceeds rank", 2)
    expect_error("rank 2\nsub H = b9\n", "not a letter", 2)
    expect_error("rank 2\nsub H = b\ncoset H rep 1\n", "infinite index", 2)
    expect_error("rank 2\ncoset H rep 1\n", "unknown subgroup", 2)
    expect_error("rank 2\nsub H = a, b\ncoset H rep 1\ntable H = 1; 0:a->0, 0:b->0\n",
                 "defined twice", 4)
    expect_error("rank 2\nsub H = a, b\ncoset H 1\n", "expected: coset", 3)
    expect_error("rank 2\nsub H = a, b\ncoset H rep c\n", "exceeds rank", 3)
    expect_error("rank 2\n", "missing rank" if False else "no coset lines")
    expect_error("", "missing rank")


def test_parse_table_errors():
    expect_error("rank 2\ntable M = 2 0:a->1\n", "expected: table", 2)
    expect_error("rank 2\ntable M = x; 0:a->1\n", "bad table size", 2)
    expect_error("rank 2\ntable M = 2; 0:a=>1\n", "expected v:x->v'", 2)
    expect_error("rank 2\ntable M = 2; 0:a->5\n", "out of range", 2)
    expect_error("rank 2\ntable M = 2; 0:ab->1\n", "single letter", 2)
    expect_error(
        "rank 2\ntable M = 2; 0:a->1, 0:a->0\n", "conflicting transitions", 2)
    expect_error("rank 2\ntable M = 2; 0:a->1, 1:a->0\n", "incomplete", 2)
    # complete in a-edges but b-column maps both vertices to 0
    expect_error(
        "rank 2\ntable M = 2; 0:a->1, 1:a->0, 0:b->0, 1:b->0\n",
        "conflicting", 2)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_partition(str(tmp_path / "nope.partition"))


def test_table_and_sub_agree(m_table):
    # the normal example's explicit table equals the fold of its generators
    # (rank 5 subgroup: two squares plus the three remaining spanning-tree
    # complements of its graph)
    text = ("rank 2\n"
            "sub M = aa, bb, baBA, abaB, abbA\n"
            "coset M rep 1\ncoset M rep a\ncoset M rep b\ncoset M rep ab\n")
    p = parse_partition_file(text)
    assert p.specs[0].table == m_table
