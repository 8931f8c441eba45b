"""The workloads: the three of BENCHMARK.json, and lifted-batch, run by hand.

A workload is built once per set-up from its seed (inputs generated, files
written) and then hands out rounds.  A round is the full list of the
workload's operations, each with fresh partition objects that no earlier
round touched, so the caches on CosetPartition and PermGroup fill only as
they would for a caller that builds its objects and then queries them.
Every operation is a pair: the call that is timed, and the check of its
output against oracles.py, which runs after the clock stops.

hsforge functions are looked up on their modules at call time, never bound
at import, so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple

import hsforge.cli
import hsforge.sampling
import oracles


class Op(NamedTuple):
    call: Callable[[], object]
    check: Callable[[object], None]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`hsforge ARGV` in this process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hsforge.cli.main(argv)
    return code, out.getvalue()


def fresh_copy(p):
    """The same blocks in a new CosetPartition, with empty caches."""
    spec = hsforge.partition.CosetSpec
    return hsforge.partition.CosetPartition(
        p.rank, [spec(s.table, s.rep) for s in p.specs])


# The lifted partitions are the first draws the fuzz generator makes for
# `scripts/fuzz_soundness.py --seed 0`.  Their analysis cost spans three
# orders of magnitude and a handful of draws carry most of it, so a batch
# drawn afresh per seed would change the benchmark's cost with the seed;
# the seed moves the blocks instead (see LiftedBatch).
FUZZ_SEED = 0


def lifted_draws(count: int) -> list[tuple[object, object]]:
    """The first `count` (quotient, partition) draws of the fuzz generator.

    The same calls, in the same order, as sampling.random_lifted_partition
    with the settings of scripts/fuzz_soundness.py (rank 2, 2 or 3; degree
    <= 6; quotient order <= 64; up to 3 refinements), keeping the quotient
    for the checks.
    """
    rng = random.Random(FUZZ_SEED)
    sampling = hsforge.sampling
    out = []
    for _ in range(count):
        rank = rng.choice((2, 2, 3))
        quotient = sampling.random_quotient(rng, rank, 6, 64)
        blocks = sampling.random_quotient_partition(rng, quotient, 3)
        out.append((quotient, hsforge.partition.lift_partition(rank, quotient, blocks)))
    return out


def reduced_word(rng: random.Random, rank: int, length: int) -> str:
    """A freely reduced word of exactly `length` letters, in text form."""
    letters = []
    while len(letters) < length:
        g = rng.randrange(rank)
        ch = chr(ord("a") + g)
        if rng.random() < 0.5:
            ch = ch.upper()
        if letters and letters[-1] == ch.swapcase():
            continue
        letters.append(ch)
    return "".join(letters)


def random_transitive_rows(rng: random.Random, rank: int, d: int):
    """Rows (a, A, b, B, ...) of random permutations of d points that act
    transitively, so the table has index exactly d."""
    while True:
        gens = []
        for _ in range(rank):
            images = list(range(d))
            rng.shuffle(images)
            gens.append(images)
        rows = []
        for v in range(d):
            row = []
            for images in gens:
                row.append(images[v])
                row.append(images.index(v))
            rows.append(tuple(row))
        reached = {0}
        queue = [0]
        for v in queue:
            for t in rows[v]:
                if t not in reached:
                    reached.add(t)
                    queue.append(t)
        if len(reached) == d:
            return tuple(rows)


class SymLadder:
    """`hsforge analyze FILE --json` on the d cosets of a point stabilizer of
    S_d, for d = 5 once and d = 6 twice per round.  The seed relabels the
    points of the standard pair a = (0 1), b = (0 1 ... d-1), afresh for
    each entry; the subgroups are conjugate, so every seed does the same
    work on different tables.

    d = 7 takes about 10 s, so a 40 s run would hold three or four samples
    of it, and a shared machine's speed can drift by more than the bounds
    within that time; DEGREES keeps to sizes that give a run many samples
    spread over its whole length.  ladder.py times any single degree."""

    DEGREES = (5, 6, 6)

    def __init__(self, seed: int, workdir: Path, degrees=DEGREES):
        rng = random.Random(seed)
        self.cases = []
        for i, d in enumerate(degrees):
            relabel = list(range(d))
            rng.shuffle(relabel)
            a = [1, 0] + list(range(2, d))
            b = [(v + 1) % d for v in range(d)]
            images = {}
            for name, perm in (("a", a), ("b", b)):
                moved = [0] * d
                for v in range(d):
                    moved[relabel[v]] = relabel[perm[v]]
                images[name] = moved
            points = tuple(
                (images["a"][v], images["a"].index(v),
                 images["b"][v], images["b"].index(v))
                for v in range(d))
            path = workdir / f"ladder_{i}_d{d}.partition"
            path.write_text(self.file_text(d, points), encoding="utf-8")
            self.cases.append((d, points, str(path)))

    @staticmethod
    def file_text(d: int, points) -> str:
        reps = {0: ""}
        queue = [0]
        for v in queue:
            for c, ch in enumerate("aAbB"):
                t = points[v][c]
                if t not in reps:
                    reps[t] = reps[v] + ch
                    queue.append(t)
        entries = ", ".join(
            f"{v}:{ch}->{points[v][c]}" for v in range(d) for c, ch in ((0, "a"), (2, "b")))
        lines = [
            f"# The {d} cosets of a point stabilizer of S_{d}.",
            "rank 2",
            f"table S = {d}; {entries}",
        ]
        lines += [f"coset S rep {reps[v] or '1'}" for v in range(d)]
        return "\n".join(lines) + "\n"

    def round(self) -> list[Op]:
        ops = []
        for d, points, path in self.cases:
            def call(path=path):
                return run_cli(["analyze", path, "--json"])

            def check(result, d=d, points=points):
                code, out = result
                oracles.check_ladder(d, points, code, json.loads(out))

            ops.append(Op(call, check))
        return ops


class LiftedBatch:
    """Library `analyze` on DRAWS partitions lifted from finite quotients of
    order <= 64, from the fuzz generator.  The seed picks, per partition, a
    reduced word w of MOVE_LENGTH letters and replaces every representative
    alpha_i by alpha_i w (the right action): the tables, and so the cost,
    stay the same, while the representatives, marked vertices and witness
    words change with the seed."""

    DRAWS = 91
    MOVE_LENGTH = 5

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        partition, multiply = hsforge.partition, hsforge.words.multiply
        self.batch = []
        for quotient, p in lifted_draws(self.DRAWS):
            w = hsforge.words.parse_word(
                p.rank, reduced_word(rng, p.rank, self.MOVE_LENGTH))
            moved = partition.CosetPartition(p.rank, [
                partition.CosetSpec(s.table, multiply(s.rep, w)) for s in p.specs])
            self.batch.append((quotient, moved))
        self._orders: dict[int, int] = {}

    def quotient_order(self, i: int) -> int:
        if i not in self._orders:
            gens = [g.images for g in self.batch[i][0].gens]
            self._orders[i] = oracles.closure_order(gens)
        return self._orders[i]

    def round(self) -> list[Op]:
        ops = []
        for i, (_, p) in enumerate(self.batch):
            fresh = fresh_copy(p)

            def call(fresh=fresh):
                return hsforge.theorems.analyze(fresh)

            def check(analysis, i=i, indices=p.indices):
                oracles.check_lifted(self.quotient_order(i), indices, analysis)

            ops.append(Op(call, check))
        return ops


class WordOrbits:
    """Queries made many times on objects built once.

    TABLES random transitive tables, one of each index 6..40 (ranks 2, 2, 3
    in turn), one reduced word of WORD_LENGTH letters each: `order_at` and
    `visited_set` at every vertex.  The first PARTITIONS lifted partitions
    of the fuzz generator (as in LiftedBatch), WORDS seeded words of
    LOOP_WORD_LENGTH letters each: `build_hs_graph`, `loops()`, and `fiber_loop_count` for
    every block.  Each round works on fresh partition copies; the words of
    one partition share its copy, as one caller's queries would."""

    TABLES = 35
    WORD_LENGTH = 10
    PARTITIONS = 12
    WORDS = 3
    LOOP_WORD_LENGTH = 6

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        CosetTable = hsforge.schreier.CosetTable
        parse = hsforge.words.parse_word
        self.tables = []
        for j in range(self.TABLES):
            rank = (2, 2, 3)[j % 3]
            d = 6 + j
            rows = random_transitive_rows(rng, rank, d)
            text = reduced_word(rng, rank, self.WORD_LENGTH)
            self.tables.append((CosetTable(rank, rows), text, parse(rank, text)))
        self.partitions = []
        for _, p in lifted_draws(self.PARTITIONS):
            texts = [reduced_word(rng, p.rank, self.LOOP_WORD_LENGTH)
                     for _ in range(self.WORDS)]
            self.partitions.append((p, [(t, parse(p.rank, t)) for t in texts]))
        self._m: dict[int, int] = {}

    def combined_order(self, i: int) -> int:
        if i not in self._m:
            p = self.partitions[i][0]
            self._m[i] = oracles.combined_order([s.table.delta for s in p.specs])
        return self._m[i]

    def round(self) -> list[Op]:
        ops = []
        for table, text, w in self.tables:
            def call(table=table, w=w):
                schreier = hsforge.schreier
                d = table.degree
                return ([schreier.order_at(table, w, v) for v in range(d)],
                        [schreier.visited_set(table, w, v) for v in range(d)])

            def check(result, delta=table.delta, text=text):
                oracles.check_orbits(delta, text, *result)

            ops.append(Op(call, check))
        for i, (p, words) in enumerate(self.partitions):
            fresh = fresh_copy(p)
            deltas = [s.table.delta for s in p.specs]
            marked = [oracles.trace(s.table.delta, 0, oracles.columns(str(s.rep)))
                      for s in p.specs]
            for text, w in words:
                def call(fresh=fresh, w=w):
                    hsgraph = hsforge.hsgraph
                    graph = hsgraph.build_hs_graph(fresh, w)
                    loops = graph.loops()
                    counts = [hsgraph.fiber_loop_count(graph, b)
                              for b in range(fresh.size)]
                    return loops, counts

                def check(result, i=i, deltas=deltas, marked=marked, text=text):
                    oracles.check_loops(
                        deltas, marked, self.combined_order(i), text, *result)

                ops.append(Op(call, check))
        return ops


PRIMES = (2, 3, 5, 7)


def smooth_below(target: int) -> int:
    """The largest n <= target whose prime factors are all in PRIMES."""
    best = 1
    stack = [(1, 0)]
    while stack:
        n, first = stack.pop()
        best = max(best, n)
        for i in range(first, len(PRIMES)):
            if n * PRIMES[i] <= target:
                stack.append((n * PRIMES[i], i))
    return best


def split_partition(rng: random.Random, period: int, max_classes: int):
    """A partition of Z into residue classes with exactly this period.

    Starting from {Z}, each step splits a class o:r into the q classes
    qo:(r + jo).  The prime factors of the period are taken in a seeded
    order; for each factor q a class whose modulus has the largest power of
    q is split, which multiplies the period by q.  In between, random splits
    that keep the period add classes, up to max_classes.
    """
    factors = [q for q in PRIMES for _ in range(valuation(period, q))]
    rng.shuffle(factors)
    classes = [(1, 0)]
    reached = 1
    for q in factors:
        top = max(valuation(o, q) for o, _ in classes)
        which = rng.choice([i for i, (o, _) in enumerate(classes)
                            if valuation(o, q) == top])
        classes = split(classes, which, q)
        reached *= q
        if len(classes) < max_classes - 6 and rng.random() < 0.5:
            q = rng.choice(PRIMES)
            keep = [i for i, (o, _) in enumerate(classes) if reached % (o * q) == 0]
            if keep:
                classes = split(classes, rng.choice(keep), q)
    return classes


def valuation(n: int, q: int) -> int:
    k = 0
    while n % q == 0:
        n //= q
        k += 1
    return k


def split(classes, which: int, q: int):
    o, r = classes[which]
    return classes[:which] + [(q * o, r + j * o) for j in range(q)] + classes[which + 1:]


class ZcheckPeriods:
    """`hsforge zcheck CLASSES --json` on partitions of Z built by repeated
    prime splits.  Partition j of COUNT has as its period the largest
    7-smooth number <= 10^(3 + 3(j+1)/COUNT), so the periods run from about
    10^3 to 10^6 and are the same for every seed; the seed picks the splits.
    Every fourth has one residue moved to another value mod its modulus,
    which makes it invalid (exit 1)."""

    COUNT = 51
    MAX_CLASSES = 64

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cases = []
        for j in range(self.COUNT):
            period = smooth_below(round(10 ** (3 + 3 * (j + 1) / self.COUNT)))
            classes = split_partition(rng, period, self.MAX_CLASSES)
            valid = j % 4 != 3
            if not valid:
                which = rng.choice([i for i, (o, _) in enumerate(classes) if o > 1])
                o, r = classes[which]
                classes[which] = (o, (r + rng.randrange(1, o)) % o)
            rng.shuffle(classes)
            text = ",".join(f"{o}:{r}" for o, r in classes)
            self.cases.append((classes, valid, text))

    def round(self) -> list[Op]:
        ops = []
        for classes, valid, text in self.cases:
            def call(text=text):
                return run_cli(["zcheck", text, "--json"])

            def check(result, classes=classes, valid=valid):
                code, out = result
                oracles.check_zcheck(classes, valid, code, json.loads(out))

            ops.append(Op(call, check))
        return ops


WORKLOADS = {
    "sym-ladder": SymLadder,
    "lifted-batch": LiftedBatch,
    "word-orbits": WordOrbits,
    "zcheck-periods": ZcheckPeriods,
}
