"""Deterministic DOT renderings of tables and colored loop graphs.

Vertices are labeled with their minimal representative words, edges carry
positive letters only (inverse edges are implied), and the basepoint is drawn
as a double circle.  All output is sorted, so equal inputs give equal bytes.
"""

from __future__ import annotations

from .hsgraph import HSColoredGraph
from .schreier import CosetTable, transversal
from .words import letter_from_column

__all__ = ["table_dot", "hs_dot"]

_PALETTE = (
    "lightblue", "lightsalmon", "palegreen", "gold", "plum", "khaki",
    "lightcyan", "mistyrose", "lavender", "wheat",
)


def table_dot(table: CosetTable, name: str = "table") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    reps = transversal(table)
    for v in range(table.degree):
        shape = "doublecircle" if v == 0 else "circle"
        lines.append(f'  v{v} [label="{reps[v]}", shape={shape}];')
    edges = sorted((v, letter_from_column(column).char(), row[column])
                   for v, row in enumerate(table.delta)
                   for column in range(0, 2 * table.rank, 2))
    for v, char, target in edges:
        lines.append(f'  v{v} -> v{target} [label="{char}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hs_dot(graph: HSColoredGraph, name: str = "loops") -> str:
    """Two layers: the refinement cosets grouped into one cluster per block
    (the fibers), above one node per block with its own single-step action."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  compound=true;"]
    reps = transversal(graph.table)
    for i, spec in enumerate(graph.partition.specs):
        fill = _PALETTE[i % len(_PALETTE)]
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="block {i}: index {spec.index}";')
        lines.append("    style=filled;")
        lines.append(f"    fillcolor={fill};")
        for v in graph.fiber(i):
            shape = "doublecircle" if v == 0 else "circle"
            lines.append(f'    v{v} [label="{reps[v]}", shape={shape}];')
        lines.append("  }")
    for v, target in enumerate(graph.step):
        lines.append(f'  v{v} -> v{target} [label="{graph.w}"];')
    for i, spec in enumerate(graph.partition.specs):
        fill = _PALETTE[i % len(_PALETTE)]
        lines.append(
            f'  b{i} [label="block {i}: index {spec.index}, returns after '
            f'({graph.w})^{graph.orders[i]}", shape=box, '
            f"style=filled, fillcolor={fill}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
