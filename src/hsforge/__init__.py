"""Coset partitions of free groups: automata, transition groups, loop graphs,
and residue-class covers of the integers, with checkers for the sufficient
conditions that force a repeated index."""

from .words import (
    Letter,
    Word,
    WordError,
    identity,
    inverse,
    multiply,
    parse_word,
    power,
    word,
)
from .schreier import (
    CosetTable,
    InfiniteIndex,
    StallingsGraph,
    canonicalize,
    coset_of,
    fold_from_generators,
    order_at,
    table_from_generators,
    trace,
    transversal,
    try_complete,
    visited_set,
    word_step,
)
from .perm import (
    CapExceeded,
    PermGroup,
    Permutation,
    cycle_type_census,
    has_k_cycle_at,
    transition_group,
)
from .partition import (
    CosetPartition,
    CosetSpec,
    NotAPartition,
    StateCapExceeded,
    act,
    big_n,
    intersection_conditions,
    lift_partition,
    multiplicity,
    normal_core,
    o_max_and_sharp,
    order_rel,
    product,
    quotient_by_n,
    refinement_index,
    rho,
    validate,
)
from .hsgraph import HSColoredGraph, HSLoop, build_hs_graph, fiber_loop_count
from .zcover import (
    CountViolation,
    InvalidPartition,
    SpacingViolation,
    ZClass,
    ZPartition,
    colored_loop_partition,
    erdos_checks,
    format_zpartition,
    parse_zpartition,
    split_class,
    validate_z,
    zpartition,
)
from .theorems import (
    Analysis,
    TheoremReport,
    analyze,
    check_cycle_bounds,
    check_full_cycle,
    check_intersections,
    check_neighborhood,
    loop_consistency,
)
from .files import FileFormatError, load_partition, parse_partition_file

__version__ = "0.1.0"
