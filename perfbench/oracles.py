"""Answers worked out apart from hsforge, and the checks built on them.

Nothing here calls into hsforge.  Tables are read as plain nested tuples of
vertex numbers, words as their text form, and groups are closed by a plain
breadth-first search over image tuples, so a fault in the program cannot
hide in the check that judges it.  Every check raises CheckFailed with the
reason when an answer is wrong.
"""

from __future__ import annotations

from math import factorial, lcm


class CheckFailed(Exception):
    """An operation's output disagrees with the independent answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- words, tables and permutations -------------------------------------------

def columns(text: str) -> list[int]:
    """Table columns of a word in text form: a=0, A=1, b=2, B=3, ..."""
    if text in ("", "1"):
        return []
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(2 * (ord(ch) - ord("a")))
        elif "A" <= ch <= "Z":
            out.append(2 * (ord(ch) - ord("A")) + 1)
        else:
            raise CheckFailed(f"word {text!r} has the character {ch!r}")
    return out


def trace(delta, start: int, word_columns: list[int]) -> int:
    v = start
    for c in word_columns:
        v = delta[v][c]
    return v


def step(delta, word_columns: list[int]) -> tuple[int, ...]:
    """The permutation one application of the word induces on the vertices."""
    return tuple(trace(delta, v, word_columns) for v in range(len(delta)))


def orbit(perm, start: int) -> list[int]:
    out = [start]
    v = perm[start]
    while v != start:
        out.append(v)
        v = perm[v]
    return out


def cycle_lengths(perm) -> list[int]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if not seen[start]:
            cycle = orbit(perm, start)
            for v in cycle:
                seen[v] = True
            out.append(len(cycle))
    return out


def perm_order(perm) -> int:
    return lcm(*cycle_lengths(perm))


def closure_order(gens) -> int:
    """Order of the permutation group generated by image tuples."""
    start = tuple(range(len(gens[0])))
    seen = {start}
    queue = [start]
    for current in queue:
        for g in gens:
            image = tuple(g[v] for v in current)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return len(seen)


def combined_order(deltas) -> int:
    """Order of the action of F_n on the disjoint union of the tables' vertices.

    Its kernel is the intersection of the blocks' normal cores, so this is
    the index m of the common refinement subgroup N.
    """
    gens = []
    for c in range(0, len(deltas[0][0]), 2):
        images: list[int] = []
        for delta in deltas:
            offset = len(images)
            images.extend(offset + row[c] for row in delta)
        gens.append(tuple(images))
    return closure_order(gens)


def class_sizes(d: int) -> dict[str, int]:
    """Cycle type of S_d -> number of elements, d!/prod(k^m_k m_k!)."""
    out = {}

    def shapes(rest: int, largest: int):
        if rest == 0:
            yield []
            return
        for k in range(min(rest, largest), 0, -1):
            for tail in shapes(rest - k, k):
                yield [k] + tail

    for shape in shapes(d, d):
        size = factorial(d)
        for k in set(shape):
            mult = shape.count(k)
            size //= k ** mult * factorial(mult)
        out["+".join(map(str, sorted(shape)))] = size
    return out


def has_repeat(values) -> bool:
    values = list(values)
    return len(set(values)) < len(values)


# -- sym-ladder ----------------------------------------------------------------

def check_ladder(d: int, points, exit_code: int, payload: dict) -> None:
    """`hsforge analyze --json` on the d cosets of a point stabilizer of S_d.

    ``points`` is the table the file was written from: row v holds the images
    of vertex v under a, A, b, B.
    """
    order = factorial(d)
    expect(exit_code == 0, f"d={d}: exit code {exit_code}")
    expect(payload["m"] == order, f"d={d}: m = {payload['m']}, expected {order}")
    expected_census = class_sizes(d)
    blocks = payload["blocks"]
    expect(len(blocks) == d, f"d={d}: {len(blocks)} blocks")
    for block in blocks:
        expect(block.get("group_order") == order,
               f"d={d} block {block['block']}: group order "
               f"{block.get('group_order')}")
        census = {entry["type"]: entry["count"] for entry in block["cycle_types"]}
        expect(census == expected_census,
               f"d={d} block {block['block']}: census {census}")
        for entry in block["cycle_types"]:
            perm = step(points, columns(entry["witness"]))
            shape = "+".join(map(str, sorted(cycle_lengths(perm))))
            expect(shape == entry["type"],
                   f"d={d}: witness {entry['witness']} has type {shape}, "
                   f"stated {entry['type']}")
    theorems = payload["per_theorem"]
    for name in ("full_cycle", "intersection"):
        report = theorems[name]
        expect(report["status"] == "applies" and report["verified"] is True,
               f"d={d}: {name} is {report['status']}, verified "
               f"{report['verified']}")
    pairs = theorems["intersection"]["details"]["pairs"]
    expect(len(pairs) == d * (d - 1) // 2, f"d={d}: {len(pairs)} pairs")
    for pair in pairs:
        expect(pair.get("index_all") == order
               and pair.get("index_without") == order // 2,
               f"d={d}: pair {pair['pair']} has indices "
               f"{pair.get('index_all')}, {pair.get('index_without')}")
    bounds = theorems["cycle_bounds"]
    expect(bounds["status"] == "does_not_apply" and bounds["details"]["k"] == d,
           f"d={d}: cycle_bounds {bounds['status']} with k = "
           f"{bounds['details'].get('k')}")
    expect(payload["loop_checks"], f"d={d}: no loop checks")
    for check in payload["loop_checks"]:
        o_n = perm_order(step(points, columns(check["word"])))
        expect(not check["problems"],
               f"d={d} word {check['word']}: {check['problems']}")
        expect(check["order_mod_n"] == o_n
               and check["loop_count"] * o_n == order,
               f"d={d} word {check['word']}: {check['loop_count']} loops of "
               f"length {check['order_mod_n']}, the word has order {o_n}")


# -- lifted-batch --------------------------------------------------------------

def check_lifted(quotient_order: int, indices, analysis) -> None:
    """Library `analyze` on a partition lifted from a quotient of that order."""
    expect(analysis.exit_code == 0, f"exit code {analysis.exit_code}")
    m = analysis.m
    expect(isinstance(m, int) and m >= 1 and quotient_order % m == 0,
           f"m = {m} does not divide the quotient order {quotient_order}")
    expect(all(m % d == 0 for d in indices), f"indices {indices} vs m = {m}")
    expect(sum(m // d for d in indices) == m,
           f"sum of m/d over indices {indices} is not m = {m}")
    for report in analysis.reports:
        if report.status == "applies":
            expect(report.verified is True,
                   f"{report.name} applies but verified is {report.verified}")
            expect(has_repeat(indices),
                   f"{report.name} applies to indices {indices} with no repeat")


# -- word-orbits ---------------------------------------------------------------

def check_orbits(delta, word_text: str, orders, visited) -> None:
    """Per-vertex `order_at` and `visited_set` for one word on one table."""
    perm = step(delta, columns(word_text))
    d = len(delta)
    expect(len(orders) == d and len(visited) == d, "one answer per vertex")
    for v in range(d):
        cycle = frozenset(orbit(perm, v))
        expect(orders[v] == len(cycle),
               f"vertex {v}: order {orders[v]}, expected {len(cycle)}")
        expect(visited[v] == cycle,
               f"vertex {v}: orbit {sorted(visited[v])}, expected {sorted(cycle)}")
    covered: set[int] = set()
    for cycle in set(visited):
        expect(not covered & cycle, "two orbits overlap")
        covered |= cycle
    expect(covered == set(range(d)), "the orbits miss a vertex")


def check_loops(deltas, marked, m: int, word_text: str, loops, fiber_counts) -> None:
    """`build_hs_graph`, `loops()` and `fiber_loop_count` for one word.

    ``deltas`` and ``marked`` give each block's table and marked vertex, ``m``
    is the combined_order of the tables.
    """
    word_columns = columns(word_text)
    perms = [step(delta, word_columns) for delta in deltas]
    o_n = lcm(*(perm_order(perm) for perm in perms))
    lengths = sorted({len(loop.vertices) for loop in loops})
    expect(lengths == [o_n], f"loop lengths {lengths}, expected {o_n}")
    expect(len(loops) * o_n == m, f"{len(loops)} loops of length {o_n}, m = {m}")
    expect(len(fiber_counts) == len(deltas), "one fiber count per block")
    for i, delta in enumerate(deltas):
        o_i = len(orbit(perms[i], marked[i]))
        expected = (m // len(delta)) // (o_n // o_i)
        expect(fiber_counts[i] == expected,
               f"block {i}: {fiber_counts[i]} loops meet the fiber, "
               f"expected {expected}")


# -- zcheck-periods ------------------------------------------------------------

def cover_counts(classes, upto: int) -> list[int]:
    """How many classes cover each integer 0..upto."""
    counts = [0] * (upto + 1)
    for modulus, residue in classes:
        for n in range(residue, upto + 1, modulus):
            counts[n] += 1
    return counts


def check_zcheck(classes, valid: bool, exit_code: int, payload: dict) -> None:
    """`hsforge zcheck --json`.  ``valid`` says whether the classes were built
    as a partition of Z (repeated splits) or had one residue moved."""
    if valid:
        expect(exit_code == 0 and payload["valid"] is True
               and payload["witness"] is None,
               f"a partition of Z came back exit {exit_code}, {payload}")
        checks = payload["checks"]
        expect(all(checks.values()), f"a structural check failed: {checks}")
        largest = max(modulus for modulus, _ in classes)
        expect(payload["o_max"] == largest,
               f"o_max {payload['o_max']}, expected {largest}")
        return
    witness = payload["witness"]
    expect(exit_code == 1 and payload["valid"] is False
           and isinstance(witness, int) and witness >= 0,
           f"a moved residue came back exit {exit_code}, {payload}")
    counts = cover_counts(classes, witness)
    expect(counts[witness] != 1,
           f"witness {witness} is covered exactly once")
    first_bad = next((n for n, count in enumerate(counts) if count != 1), None)
    expect(first_bad == witness,
           f"witness {witness}, but {first_bad} is the smallest integer not "
           "covered exactly once")
