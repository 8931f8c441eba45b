"""Text format for coset partitions.

A partition file contains, in order:

    rank 2
    sub H = b, aa, aba            # subgroup from generator words
    table M = 4; 0:a->1, 1:a->0, 0:b->2, 2:b->0, 1:b->3, 3:b->1, 2:a->3, 3:a->2
    coset H rep 1
    coset M rep a

``sub`` folds generator words; ``table`` gives an explicit complete table of
the stated size via positive-letter transitions (inverse edges are implied;
"->" and an arrow character are both accepted).  Each ``coset`` line adds a
block: a named subgroup with a representative word.  A name is defined by
one ``sub`` or ``table`` line only.  Blank lines and lines
starting with '#' are ignored; '#' also starts a trailing comment.
"""

from __future__ import annotations

from .partition import CosetPartition, CosetSpec
from .schreier import CosetTable, InfiniteIndex, canonicalize, table_from_generators
from .words import WordError, parse_word

__all__ = ["FileFormatError", "parse_partition_file", "load_partition"]


class FileFormatError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_partition_file(text: str) -> CosetPartition:
    rank: int | None = None
    tables: dict[str, CosetTable] = {}
    specs: list[CosetSpec] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "rank":
            if rank is not None:
                raise FileFormatError(line_number, "rank given twice")
            try:
                rank = int(rest.strip())
            except ValueError:
                raise FileFormatError(line_number, f"bad rank {rest.strip()!r}") from None
            if rank < 1:
                raise FileFormatError(line_number, f"rank must be >= 1, got {rank}")
            continue
        if rank is None:
            raise FileFormatError(line_number, "rank must come first")
        if head in ("sub", "table"):
            name, body = _parse_named(line_number, rest)
            if name in tables:
                raise FileFormatError(line_number, f"subgroup {name!r} defined twice")
        if head == "sub":
            words = []
            for text_gen in body.split(","):
                try:
                    words.append(parse_word(rank, text_gen.strip()))
                except WordError as err:
                    raise FileFormatError(line_number, str(err)) from None
            try:
                tables[name] = table_from_generators(rank, words)
            except InfiniteIndex as err:
                raise FileFormatError(line_number, f"subgroup {name}: {err}") from None
        elif head == "table":
            tables[name] = _parse_table(line_number, rank, body)
        elif head == "coset":
            parts = rest.split()
            if len(parts) != 3 or parts[1] != "rep":
                raise FileFormatError(line_number, "expected: coset NAME rep WORD")
            name, _, rep_text = parts
            if name not in tables:
                raise FileFormatError(line_number, f"unknown subgroup {name!r}")
            try:
                rep = parse_word(rank, rep_text)
            except WordError as err:
                raise FileFormatError(line_number, str(err)) from None
            specs.append(CosetSpec(tables[name], rep))
        else:
            raise FileFormatError(line_number, f"unknown directive {head!r}")
    if rank is None:
        raise FileFormatError(0, "missing rank line")
    if not specs:
        raise FileFormatError(0, "no coset lines")
    return CosetPartition(rank, specs)


def _parse_named(line_number: int, rest: str) -> tuple[str, str]:
    name, eq, body = rest.partition("=")
    name = name.strip()
    if not eq or not name:
        raise FileFormatError(line_number, "expected: NAME = ...")
    return name, body.strip()


def _parse_table(line_number: int, rank: int, body: str) -> CosetTable:
    size_text, semi, entries = body.partition(";")
    if not semi:
        raise FileFormatError(line_number, "expected: table NAME = SIZE; transitions")
    try:
        size = int(size_text.strip())
    except ValueError:
        raise FileFormatError(
            line_number, f"bad table size {size_text.strip()!r}") from None
    if size < 1:
        raise FileFormatError(line_number, f"table size must be >= 1, got {size}")
    # edges fill in as they are read, so a stated size or rank allocates
    # nothing before the entries are there to fill it
    edges: dict[tuple[int, int], int] = {}

    def put(v: int, column: int, target: int) -> None:
        if not (0 <= v < size and 0 <= target < size):
            raise FileFormatError(line_number, f"vertex out of range in {v}:{target}")
        if edges.setdefault((v, column), target) != target:
            raise FileFormatError(line_number, f"conflicting transitions at vertex {v}")

    for chunk in entries.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        source_text, colon, rest = chunk.partition(":")
        arrow = "->" if "->" in rest else "→"
        letter_text, found, target_text = rest.partition(arrow)
        if not colon or not found:
            raise FileFormatError(line_number, f"expected v:x->v', got {chunk!r}")
        try:
            source = int(source_text.strip())
            target = int(target_text.strip())
        except ValueError:
            raise FileFormatError(line_number, f"bad vertex in {chunk!r}") from None
        try:
            w = parse_word(rank, letter_text.strip())
        except WordError as err:
            raise FileFormatError(line_number, str(err)) from None
        if len(w) != 1:
            raise FileFormatError(line_number, f"expected a single letter in {chunk!r}")
        letter = w.letters[0]
        put(source, letter.column, target)
        put(target, letter.inverse().column, source)
    for v in range(size):
        for column in range(2 * rank):
            if (v, column) not in edges:
                raise FileFormatError(
                    line_number,
                    f"table incomplete: vertex {v} misses column {column}")
    try:
        raw = CosetTable(rank, tuple(
            tuple(edges[v, column] for column in range(2 * rank))
            for v in range(size)))
        return canonicalize(raw, 0)
    except ValueError as err:
        raise FileFormatError(line_number, str(err)) from None


def load_partition(path: str) -> CosetPartition:
    with open(path, encoding="utf-8") as handle:
        return parse_partition_file(handle.read())
