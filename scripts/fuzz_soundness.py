#!/usr/bin/env python3
"""Fuzz the condition checkers: they must never fire on a false premise.

Generates random partitions lifted from finite quotients, runs the full
analysis on each, and fails loudly if any checker fires on a partition
without a repeated index, or if any fired checker flunks its own
verification (the exit-code-2 path), or if a block's cycle-type counts do
not sum to its group order.  ``analyze`` never builds N, so each
partition also gets the colored loop graph of one random word, with every
fiber's loops counted, and the word's order modulo N is checked against the
one ``loop_consistency`` reads off the product automaton.  m = [F : N] and
N's table are checked against an F/N built without the partition's own,
``p.quotient``: the product of the distinct tables' Cayley tables, each
the enumeration of a fresh transition group, started from the zero tuple.
m is also checked against the block groups, enumerated apart from F/N:
each is a quotient of F/N, which embeds in their product, so every
distinct table's group order divides m and m divides the product of
those orders.  The
census scan, which learns the order of S_d and A_d without enumerating
them, is checked on every uncapped block group and on the transition group
of one random table per partition (mostly S_d or A_d): its order, counts
and witness words against a fresh copy enumerated in full, and, once the
census is kept, the k-cycle search at every k, which answers None off the
census where no cycle type has a part k.  Every pair index the
intersection checker reports is checked in the finite quotient Q that the
partition is lifted from, with no table or automaton: block (K, g) marks
the coset Kg, whose stabilizer is g^-1 K g, so an index is |Q| over the
order of the intersection of these conjugates.  Every pair index of that
random table's one-table partition, a block per vertex, which is read off
its group whenever it has three vertices or more, is checked against the
sizes of its own product automata.  At every vertex of that table,
``word_step``, ``order_at`` and ``visited_set`` of one random word, which
share one composed step, must match ``trace``, which walks the word letter
by letter: the image, and the cycle through the vertex.  The table keeps
the step of the last word composed on it, so the word's inverse, which has
the same cycles, is walked between the word's walks at every vertex.
The same checks run on N's table with the word of its loop graph: N's
table is the only one the program steps that can have more than 256
vertices.
Fresh copies of each partition are analyzed again under one cap of 40,
m - 1 and m: every number they report (m, group orders, census counts,
pair indices) and every checker status must be the uncapped one, or else
capped or unknown.  The analysis' JSON report, as
``hsforge analyze --json`` writes it, must equal ``json.dumps(indent=2,
sort_keys=True)`` byte for byte.  Each draw also takes one split chain of
residue classes and a copy with a residue moved, a class duplicated or a
class dropped: ``validate_z`` must agree with a scan of one period on both,
and the four structural facts must hold on the chain.  Any mismatch fails
the same way.  The words, the extra tables, the words walked on them and
the residue classes come from their own generators, so the partitions
drawn do not depend on them.
Prints a status census at the end.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from itertools import combinations
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hsforge.cli import dumps  # noqa: E402
from hsforge.hsgraph import build_hs_graph, fiber_loop_count  # noqa: E402
from hsforge.partition import (  # noqa: E402
    CosetPartition,
    CosetSpec,
    big_n,
    intersection_conditions,
    lift_partition,
    multiplicity,
    product,
    refinement_index,
)
from hsforge.perm import (  # noqa: E402
    CapExceeded,
    PermGroup,
    cycle_type_census,
    has_k_cycle_at,
    transition_group,
)
from hsforge.sampling import (  # noqa: E402
    random_quotient,
    random_quotient_partition,
    random_split_chain,
    random_table,
    random_word,
)
from hsforge.schreier import (  # noqa: E402
    cycle_at,
    order_at,
    trace,
    transversal,
    visited_set,
    word_step,
)
from hsforge.theorems import analyze, loop_consistency  # noqa: E402
from hsforge.zcover import (  # noqa: E402
    ZCheck,
    ZClass,
    ZPartition,
    erdos_checks,
    validate_z,
)


def check_n_path(p, w) -> str | None:
    """What goes wrong on N's table for the word w, if anything: the loop
    graph's own checks, each fiber's loop count, m and N's table against
    the product of the distinct tables' Cayley tables, ``check_orbits`` of w
    on N's table, m against the block group orders, and the two loop
    paths' orders of w modulo N against each other."""
    try:
        graph = build_hs_graph(p, w)
        for i in range(p.size):
            fiber_loop_count(graph, i)
    except (AssertionError, ValueError) as err:  # failed checks on a valid partition
        return str(err)
    m = refinement_index(p)
    cores = [transition_group(table).cayley_table() for table in p.groups]
    reference = product(cores, [0] * len(cores))
    if (m, big_n(p).delta) != (reference.state_count, tuple(reference.rows)):
        return (f"m = {m} and N's table differ from the product of the "
                f"Cayley tables, of {reference.state_count} states")
    problem = check_orbits(big_n(p), w)
    if problem:
        return f"on N's table: {problem}"
    orders = [group.order() for group in p.groups.values()]
    if any(m % order for order in orders) or prod(orders) % m:
        return f"m = {m} does not lie between the block group orders {orders}"
    o_n = loop_consistency(p, w)["order_mod_n"]
    if o_n != graph.o_n:
        return (f"order of {w} modulo N is {graph.o_n} on N's table "
                f"but {o_n} on the product automaton")
    return None


def evaluate(group, w) -> tuple[int, ...]:
    """The images of w's element of the group, composed letter by letter."""
    images = tuple(range(group.degree))
    for c in w.columns:
        column = group.columns[c]
        images = tuple(column[v] for v in images)
    return images


def check_group(group) -> str | None:
    """What goes wrong with a group's census scan, if anything: its order,
    counts and witness words against a fresh copy enumerated in full, each
    element's cycle type taken apart on its own.  Then, with the census
    kept, the k-cycle search through point 0 at every k: the group is
    transitive, so it finds a witness exactly when some cycle type has a
    part k, and the search answers None off the census when none has."""
    try:
        census = cycle_type_census(group)
    except AssertionError as err:  # the scan's own self-check failed
        return str(err)
    elements = PermGroup(group.degree, group.gens).enumerate()
    counts: Counter[tuple[int, ...]] = Counter()
    first = {}
    for element in elements:
        shape = tuple(sorted(len(cycle) for cycle in element.cycles()))
        counts[shape] += 1
        first.setdefault(shape, element)
    expected = tuple((shape, counts[shape], elements[first[shape]])
                     for shape in sorted(counts))
    if group.order() != len(elements) or census != expected:
        return (f"a group of degree {group.degree} and order {len(elements)} "
                f"was scanned as order {group.order()}")
    for k in range(1, group.degree + 1):
        found = has_k_cycle_at(group, k, 0)
        if (found is None) != all(k not in shape for shape in counts):
            return (f"a group of degree {group.degree} finds {found} for a "
                    f"{k}-cycle through 0, against its census")
        if found is not None and len(cycle_at(evaluate(group, found), 0)) != k:
            return f"{found} has no {k}-cycle through 0"
    return None


def check_pair_indices(p, pairs) -> str | None:
    """What goes wrong with a pair index, if anything: each (pair,
    index_all, index_without) against the orbit size of the marked tuple,
    with and without the pair, in its own product automaton."""
    tables = [spec.table for spec in p.specs]
    marked = [spec.marked for spec in p.specs]
    whole = product(tables, marked).state_count if pairs else None
    for pair, index_all, index_without in pairs:
        rest = [i for i in range(p.size) if i not in pair]
        indices = (whole, product([tables[i] for i in rest],
                                  [marked[i] for i in rest]).state_count)
        if indices != (index_all, index_without):
            return (f"pair {pair} has indices {indices}, reported "
                    f"{index_all} and {index_without}")
    return None


def check_lifted_pairs(p, quotient, blocks, pairs) -> str | None:
    """What goes wrong with a pair index of p, lifted from the quotient Q
    with the blocks (K, g), if anything: each (pair, index_all,
    index_without) against |Q| over the order of the intersection of the
    conjugates g^-1 K g, the stabilizers of the marked cosets Kg, over all
    blocks and over all but the pair.  A block's position in p is found
    from its representative, which evaluates to its g; prefix and suffix
    intersections give every pair in O(s^2) set intersections."""
    at = {g.images: i for i, (_, g) in enumerate(blocks)}
    found = [at.get(evaluate(quotient, spec.rep)) for spec in p.specs]
    if None in found or sorted(found) != list(range(len(blocks))):
        return f"the blocks' representatives evaluate to blocks {found}"
    conjugates = []
    for i in found:
        sub, g = blocks[i]
        inverse = g.inverse()
        conjugates.append(frozenset((inverse * x * g).images for x in sub))
    every = frozenset(x.images for x in quotient.enumerate())
    before, after = [every], [every]
    for j in range(p.size):
        before.append(before[-1] & conjugates[j])
        after.append(after[-1] & conjugates[p.size - 1 - j])
    after.reverse()  # after[j] intersects the conjugates from j on
    wanted = {tuple(pair): indices for pair, *indices in pairs}
    whole = len(every) // len(before[p.size])
    for j in range(p.size):
        between = every
        for k in range(j + 1, p.size):
            if (j, k) in wanted:
                rest = before[j] & between & after[k + 1]
                indices = [whole, len(every) // len(rest)]
                if indices != wanted[j, k]:
                    return (f"pair {[j, k]} has indices {indices} in the quotient, "
                            f"reported {wanted[j, k]}")
            between = between & conjugates[k]
    return None


def check_orbits(table, w) -> str | None:
    """What goes wrong with ``word_step``, ``order_at`` or ``visited_set`` of
    w at a vertex of the table, if anything: each against the letter walk
    of ``trace``, the image and the cycle through the vertex.  The table
    keeps the step of the last word composed on it, so ``~w``, whose cycles
    are w's, is asked between w's two queries at every vertex."""
    step, inverse = word_step(table, w), ~w
    for v in range(table.degree):
        cycle, u = [v], trace(table, v, w)
        if step[v] != u:
            return f"{w} steps vertex {v} to {step[v]}, but traces it to {u}"
        while u != v:
            cycle.append(u)
            u = trace(table, u, w)
        order = order_at(table, w, v)
        inverse_walks = order_at(table, inverse, v), visited_set(table, inverse, v)
        seen = visited_set(table, w, v)
        for word, walks in ((w, (order, seen)), (inverse, inverse_walks)):
            if walks != (len(cycle), frozenset(cycle)):
                return (f"{word} at vertex {v} has order {walks[0]} and visits "
                        f"{sorted(walks[1])}, but its cycle is {tuple(cycle)}")
    return None


def reported_pairs(analysis) -> list[tuple]:
    """The intersection checker's uncapped pairs and their indices."""
    report = next(r for r in analysis.reports if r.name == "intersection")
    return [(pair["pair"], pair["index_all"], pair["index_without"])
            for pair in report.details.get("pairs", ()) if not pair.get("capped")]


def table_pairs(table) -> tuple[CosetPartition, list[tuple]]:
    """The pairs of the table's one-table partition, a block per vertex,
    and the indices ``intersection_conditions`` reads off its group."""
    q = CosetPartition(table.rank, [CosetSpec(table, rep) for rep in transversal(table)])
    reports = (intersection_conditions(q, j, k)
               for j, k in combinations(range(q.size), 2))
    return q, [(r.pair, r.index_all, r.index_without) for r in reports]


def reported(analysis) -> dict:
    """What an analysis reports, keyed by what it is: m, each block's group
    order and cycle-type counts, each checker's status and each pair's
    indices, None where a cap was hit."""
    out = {"m": analysis.m}
    for block in analysis.blocks:
        out[f"block {block['block']} order"] = block.get("group_order")
        for entry in block.get("cycle_types", ()):
            out[f"block {block['block']} type {entry['type']}"] = entry["count"]
    for report in analysis.reports:
        out[report.name] = report.status
        for pair in report.details.get("pairs", ()):
            out[f"pair {pair['pair']} indices"] = (
                None if pair.get("capped") else (pair["index_all"], pair["index_without"]))
    return out


def check_capped(p, analysis) -> str | None:
    """What a fresh copy of p, analyzed under a cap of 40, m - 1 or m,
    reports that differs from the uncapped analysis, if anything: each
    answer may only be the uncapped one, capped or unknown."""
    expected = reported(analysis)
    for cap in (40, analysis.m - 1, analysis.m):
        try:
            capped = analyze(CosetPartition(p.rank, p.specs), state_cap=cap)
        except CapExceeded:  # validation's product automaton exceeded the cap
            continue
        for key, value in reported(capped).items():
            if value not in (expected.get(key), None, "unknown"):
                return f"under cap {cap}, {key} is {value}, not {expected.get(key)}"
    return None


def scan_z(z: ZPartition) -> ZCheck:
    """Validity and witness from the cover count of every integer in one
    period."""
    counts = [0] * z.period
    for c in z.classes:
        for n in range(c.residue, len(counts), c.modulus):
            counts[n] += 1
    witness = next((n for n, hits in enumerate(counts) if hits != 1), None)
    return ZCheck(witness is None, witness)


def check_residue_classes(rng: random.Random) -> str | None:
    """What goes wrong with a split chain of residue classes and a broken
    copy, if anything: each one's validity and witness against a scan of
    one period, and the structural facts on the chain."""
    chain = random_split_chain(rng)
    classes = list(chain.classes)
    which = rng.randrange(len(classes))
    o, r = classes[which].modulus, classes[which].residue
    broken = rng.choice((
        classes[:which] + [ZClass(o, (r + 1) % o)] + classes[which + 1:],
        classes + [classes[which]],
        classes[:which] + classes[which + 1:],
    ))
    for z in (chain, ZPartition(tuple(broken))):
        if validate_z(z) != scan_z(z):
            return f"{z}: validate_z gives {validate_z(z)}, a scan {scan_z(z)}"
    if not erdos_checks(chain).all_hold:
        return f"{chain}: a structural fact fails"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(
        description="soundness fuzzing harness for the condition checkers")
    parser.add_argument("--count", type=int, default=200,
                        help="number of random partitions (default 200)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-order", type=int, default=64,
                        help="largest quotient order to lift from")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    words = random.Random(f"words {args.seed}")
    tables = random.Random(f"tables {args.seed}")
    walked = random.Random(f"walked words {args.seed}")
    residues = random.Random(f"residue classes {args.seed}")
    statuses: Counter[str] = Counter()
    failures = 0
    for n in range(args.count):
        rank = rng.choice((2, 2, 3))
        # sampling.random_lifted_partition's calls, keeping Q and its blocks
        quotient = random_quotient(rng, rank, 6, args.max_order)
        blocks = random_quotient_partition(rng, quotient, 3)
        p = lift_partition(rank, quotient, blocks)
        analysis = analyze(p)
        has_repeat = bool(multiplicity(p))
        for report in analysis.reports:
            statuses[f"{report.name}: {report.status}"] += 1
            if report.status == "applies" and not has_repeat:
                print(f"[{n}] {report.name} fired without a repeated index: "
                      f"indices {list(p.indices)}")
                failures += 1
        for block in analysis.blocks:
            total = sum(entry["count"] for entry in block.get("cycle_types", ()))
            if not block.get("capped") and total != block["group_order"]:
                print(f"[{n}] block {block['block']}: cycle types count "
                      f"{total} elements of {block['group_order']}")
                failures += 1
        if analysis.exit_code == 2:
            print(f"[{n}] self-verification failed: "
                  f"{analysis.soundness_problems}")
            failures += 1
        uncapped = {p.specs[block["block"]].table for block in analysis.blocks
                    if not block.get("capped")}
        groups = [group for table, group in p.groups.items() if table in uncapped]
        table = random_table(tables, 2, 7)
        groups.append(transition_group(table))
        problem = (next(filter(None, map(check_group, groups)), None)
                   or check_lifted_pairs(p, quotient, blocks, reported_pairs(analysis)))
        if problem:
            print(f"[{n}] read off without a search: {problem}")
            failures += 1
        problem = check_orbits(table, random_word(walked, table.rank, 12))
        if problem:
            print(f"[{n}] orbits of a word on a random table: {problem}")
            failures += 1
        if table.degree >= 3:
            problem = check_pair_indices(*table_pairs(table))
            if problem:
                print(f"[{n}] one-table partition of a random table: {problem}")
                failures += 1
        payload = analysis.to_json()
        if dumps(payload) != json.dumps(payload, indent=2, sort_keys=True):
            print(f"[{n}] the JSON writer differs from json.dumps")
            failures += 1
        problem = check_capped(p, analysis)
        if problem:
            print(f"[{n}] capped analysis: {problem}")
            failures += 1
        problem = check_n_path(p, random_word(words, rank, 6))
        if problem:
            print(f"[{n}] N path failed: {problem}")
            failures += 1
        problem = check_residue_classes(residues)
        if problem:
            print(f"[{n}] residue classes: {problem}")
            failures += 1
    for key in sorted(statuses):
        print(f"{key:40s} {statuses[key]}")
    if failures:
        print(f"FAIL: {failures} soundness failures in {args.count} partitions")
        return 1
    print(f"ok: {args.count} partitions, no soundness failures")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
