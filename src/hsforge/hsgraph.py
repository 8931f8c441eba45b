"""The colored functional graph of the common refinement subgroup.

For a validated partition with refinement subgroup N (intersection of the
blocks' normal cores) and a word w, the vertices are the m cosets of N, each
colored by the unique block containing it, with one outgoing edge per vertex
for the step Ng -> Ngw.  The edges decompose into loops whose common length
is the order of w modulo N; inside a loop each participating color i occupies
an arithmetic progression with gap equal to the block's relative order of w,
so every loop induces a partition of the integers into residue classes.
A coset of N is an element g of F/N, ``p.quotient``, acting on the
distinct tables laid side by side (``partition.quotient_by_n``), and it lies
in block i when g maps block i's basepoint, its table's offset in the
partition's layout, to block i's mark.  F/N's search and its m cosets
are held to the one cap.  The w-step is ``word_step``'s image
tuple on N's table, and its cycles are the loops.
This graph is what ``hsforge graph --target hs`` draws; ``analyze`` reads
the same loops off the block tables' product automaton instead
(``theorems.loop_consistency``), since a coset's color depends only on its
block-table coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .partition import CosetPartition, big_n, marked_cycle_lengths, quotient_by_n
from .schreier import DEFAULT_CAP, CosetTable, cycles, word_step
from .words import Word

__all__ = ["HSLoop", "HSColoredGraph", "build_hs_graph", "fiber_loop_count"]


@dataclass(frozen=True)
class HSLoop:
    """One cycle of the w-step, starting from its minimal vertex."""

    vertices: tuple[int, ...]
    colors: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class HSColoredGraph:
    partition: CosetPartition
    w: Word
    table: CosetTable                # table of N, m vertices
    color: tuple[int, ...]           # block position per vertex
    step: tuple[int, ...]            # vertex -> vertex * w
    orders: tuple[int, ...]          # relative order of w per block

    @property
    def m(self) -> int:
        return self.table.degree

    @property
    def o_n(self) -> int:
        """The order of w modulo N, every loop's length."""
        return self._loops[0].length

    def fiber(self, i: int) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.color) if c == i)

    def loops(self) -> list[HSLoop]:
        """Cycles ordered by minimal vertex; each starts at its minimal vertex."""
        return list(self._loops)

    @cached_property
    def _loops(self) -> tuple[HSLoop, ...]:
        return tuple(HSLoop(cycle, tuple(self.color[v] for v in cycle))
                     for cycle in cycles(self.step))


def build_hs_graph(
    p: CosetPartition, w: Word, state_cap: int = DEFAULT_CAP
) -> HSColoredGraph:
    """Color the refinement subgroup's table and record the w-step.

    The loops must have one length, the order of w modulo N, and it is
    cross-checked against the lcm of the cycle lengths of w's step on each
    distinct block table.
    """
    table = big_n(p, state_cap)
    reached = quotient_by_n(p, state_cap)
    color = []
    for v, g in enumerate(reached.states):
        hits = [i for i, (o, mark) in enumerate(zip(p.base, p.marks)) if g[o] == mark]
        if len(hits) != 1:
            raise ValueError(f"coset of {reached.word(v)} lies in "
                             f"{len(hits)} blocks; partition invalid")
        color.append(hits[0])
    steps = {t: word_step(t, w) for t in p.groups}
    graph = HSColoredGraph(p, w, table, tuple(color), word_step(table, w),
                           tuple(marked_cycle_lengths(p, steps)))
    lengths = {loop.length for loop in graph._loops}
    if len(lengths) != 1:
        raise AssertionError(f"normal table has uneven loop lengths {lengths}")
    per_block = lcm(*(len(c) for s in steps.values() for c in cycles(s)))
    if per_block != graph.o_n:
        raise AssertionError(
            f"order of w modulo N is {graph.o_n} but blockwise lcm is {per_block}")
    return graph


def fiber_loop_count(graph: HSColoredGraph, i: int) -> int:
    """Number of loops meeting fiber i; equals |fiber| / contribution."""
    if not 0 <= i < graph.partition.size:
        raise ValueError("block i out of range")
    count = sum(1 for loop in graph._loops if i in loop.colors)
    fiber_size = len(graph.fiber(i))
    per_loop = graph.o_n // graph.orders[i]
    if count * per_loop != fiber_size:
        raise AssertionError(
            f"fiber {i}: {count} loops x {per_loop} != {fiber_size}")
    return count
