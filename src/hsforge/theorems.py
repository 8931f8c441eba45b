"""Sufficient conditions for a repeated index in a coset partition.

Each checker inspects a validated partition and reports one of four statuses:
"applies" (the condition fires, so some index must repeat), "does_not_apply",
"not_applicable" (the partition is too small for the condition to be stated),
or "unknown" (an enumeration cap was hit).  Whenever a checker reports
"applies" it also verifies the predicted repetition on the spot; a fired
condition without the repetition is a soundness bug, never a valid outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any

from .partition import (
    CosetPartition,
    intersection_conditions,
    multiplicity,
    o_max_and_sharp,
    refinement_index,
    relative_orders,
    rho,
    validate,
)
from .perm import CapExceeded, cycle_type_census, has_k_cycle_at
from .schreier import DEFAULT_CAP, cycles, rows_step
from .words import Word, parse_word
from .zcover import (
    InvalidPartition,
    colored_loop_partition,
    erdos_checks,
    smallest_prime_factor,
)

__all__ = [
    "TheoremReport",
    "check_full_cycle",
    "check_cycle_bounds",
    "check_intersections",
    "check_neighborhood",
    "loop_consistency",
    "Analysis",
    "analyze",
    "default_word_sample",
]

APPLIES = "applies"
SILENT = "does_not_apply"
NOT_APPLICABLE = "not_applicable"
UNKNOWN = "unknown"


@dataclass
class TheoremReport:
    name: str
    status: str
    predicted: str = ""
    verified: bool | None = None
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def applies(self) -> bool:
        return self.status == APPLIES

    @property
    def sound(self) -> bool:
        """A fired condition must come with a verified prediction."""
        return not (self.applies and self.verified is not True)

    def to_json(self) -> dict[str, Any]:
        return dict(vars(self))  # shallow: asdict would deep-copy details


def _report(
    name: str, predicted: str, verified: bool | None, capped: bool,
    details: dict[str, Any],
) -> TheoremReport:
    """The one status rule: a report applies exactly when it carries a
    verification result; otherwise it is unknown if a cap was hit."""
    status = APPLIES if verified is not None else UNKNOWN if capped else SILENT
    return TheoremReport(name, status, predicted, verified, details)


def _require_valid(p: CosetPartition) -> None:
    # any cached report shows validity; only a fresh validation needs a cap
    if not (p._checked.value or validate(p)).valid:
        raise ValueError("partition is not valid; run validation first")


def check_full_cycle(
    p: CosetPartition, cap: int = DEFAULT_CAP
) -> TheoremReport:
    """A full cycle on a block of maximal index forces that index to repeat.

    If some block of maximal index d_s admits a d_s-cycle in its transition
    group, then d_s occurs at least p times among the indices, p being the
    smallest prime factor of d_s.  All blocks of maximal index share that
    index, hence have equal rank as subgroups (rank d_s*(n-1)+1).
    """
    _require_valid(p)
    d_max = p.indices[-1]
    if d_max < 2:
        return TheoremReport(
            "full_cycle", NOT_APPLICABLE,
            details={"reason": "all blocks have index 1"})
    candidates = [i for i in range(p.size) if p.specs[i].index == d_max]
    per_candidate = []
    hit_cap = False
    witness: Word | None = None
    witness_block: int | None = None
    for i in candidates:
        group = p.groups[p.specs[i].table]
        try:
            found = has_k_cycle_at(group, d_max, p.specs[i].marked, cap)
        except CapExceeded:
            hit_cap = True
            per_candidate.append({"block": i, "cycle": None, "capped": True})
            continue
        per_candidate.append(
            {"block": i, "cycle": str(found) if found else None, "capped": False})
        if found is not None and witness is None:
            witness, witness_block = found, i
    prime = smallest_prime_factor(d_max)
    predicted = f"index {d_max} occurs at least {prime} times"
    details = {
        "max_index": d_max,
        "smallest_prime": prime,
        "max_index_blocks": candidates,
        "subgroup_rank": d_max * (p.rank - 1) + 1,
        "candidates": per_candidate,
    }
    verified = None
    if witness is not None:
        details["witness"] = str(witness)
        details["witness_block"] = witness_block
        details["relative_orders"] = relative_orders(p, witness)
        verified = len(candidates) >= prime
    return _report("full_cycle", predicted, verified, hit_cap, details)


def _cycle_bound_conditions(
    s: int, indices: tuple[int, ...], k: int, prime: int, sharp: int
) -> list[dict[str, Any]]:
    """All threshold conditions, labeled; indices is ascending, 0-based."""
    fired = []
    for r in range(2, s):
        threshold = indices[s - r - 1]
        if k <= threshold:
            continue
        base = {"r": r, "threshold": threshold}
        if r == 2:
            fired.append({**base, "label": "exceeds_second_largest"})
        elif r == 3:
            if prime >= 3:
                fired.append({**base, "label": "exceeds_third_largest_odd_prime"})
            elif sharp >= 4:
                fired.append({**base, "label": "exceeds_third_largest_sharp_ge4"})
            elif sharp == 2:
                fired.append({**base, "label": "exceeds_third_largest_sharp_eq2"})
        else:
            if prime >= r:
                fired.append({**base, "label": f"exceeds_r{r}_prime_ge_r"})
            if sharp >= r + 1:
                fired.append({**base, "label": f"exceeds_r{r}_sharp_gt_r"})
            if sharp == prime:
                fired.append({**base, "label": f"exceeds_r{r}_sharp_eq_prime"})
    return fired


def check_cycle_bounds(
    p: CosetPartition, cap: int = DEFAULT_CAP
) -> TheoremReport:
    """Long cycles compared against the index ladder force repetitions.

    Let k be the longest cycle over all transition groups, p its smallest
    prime factor, and for a witness word u with maximal relative order k let
    # count the blocks realizing k.  The partition has a repeated index if,
    for some 2 <= r <= s-1, k exceeds the r-th largest distinct position
    d_{s-r} and the (r, p, #) side conditions hold.
    """
    _require_valid(p)
    if p.size < 3:
        return TheoremReport(
            "cycle_bounds", NOT_APPLICABLE,
            details={"reason": "needs at least three blocks"})
    try:
        # a cycle type is ascending, so its last part is its longest cycle
        longest = {table: max(shape[-1] for shape, _, _ in
                              cycle_type_census(group, cap))
                   for table, group in p.groups.items()}
    except CapExceeded:
        return TheoremReport(
            "cycle_bounds", UNKNOWN,
            details={"reason": "transition group enumeration capped"})
    k = max(longest.values())
    details: dict[str, Any] = {"k": k, "indices": list(p.indices)}
    prime = smallest_prime_factor(k)
    details["smallest_prime"] = prime
    candidates = []
    fired_any = []
    for i, spec in enumerate(p.specs):
        if longest[spec.table] != k:
            continue
        u = has_k_cycle_at(p.groups[spec.table], k, spec.marked, cap)
        if u is None:
            raise AssertionError(
                f"block {i}: a {k}-cycle exists but none passes the marked "
                "vertex of a transitive group")
        o_max, sharp = o_max_and_sharp(p, u)
        if o_max != k:
            raise AssertionError(
                f"witness {u} has maximal relative order {o_max}, expected {k}")
        if sharp < 2:
            raise AssertionError(
                f"witness {u} realizes its maximal order on a single block")
        fired = _cycle_bound_conditions(p.size, p.indices, k, prime, sharp)
        candidates.append({
            "block": i,
            "witness": str(u),
            "o_max": o_max,
            "sharp": sharp,
            "conditions": fired,
        })
        fired_any.extend(fired)
    details["candidates"] = candidates
    verified = None
    if fired_any:
        details["repeated_indices"] = sorted(multiplicity(p))
        verified = bool(details["repeated_indices"])
    return _report("cycle_bounds", "some index occurs at least twice",
                   verified, False, details)


def check_intersections(
    p: CosetPartition, cap: int = DEFAULT_CAP
) -> TheoremReport:
    """Refinement jumps at a pair of blocks force the pair to coincide.

    For each pair (j, k): if intersecting H_j and H_k into the intersection
    of the other blocks strictly increases the index, or lcm(d_j, d_k) fails
    to divide the index of the partial intersection, then H_j = H_k.
    """
    _require_valid(p)
    if p.size < 3:
        return TheoremReport(
            "intersection", NOT_APPLICABLE,
            details={"reason": "needs at least three blocks"})
    pairs = []
    hit_cap = False
    fired = []
    all_equal = True
    for j in range(p.size):
        for k in range(j + 1, p.size):
            try:
                report = intersection_conditions(p, j, k, cap)
            except CapExceeded:
                hit_cap = True
                pairs.append({"pair": [j, k], "capped": True})
                continue
            pairs.append({**vars(report), "pair": [j, k]})
            if report.condition_holds:
                fired.append([j, k])
                all_equal = all_equal and bool(report.subgroups_equal)
    return _report("intersection", "the two subgroups of any fired pair coincide",
                   all_equal if fired else None, hit_cap,
                   {"pairs": pairs, "fired": fired})


# the two r = 3 conditions that transfer only their conclusion, a repeated index
_CONCLUSION_ONLY = frozenset({
    "exceeds_third_largest_sharp_ge4",
    "exceeds_third_largest_sharp_eq2",
})


def check_neighborhood(
    p0: CosetPartition,
    p: CosetPartition,
    cap: int = DEFAULT_CAP,
) -> TheoremReport:
    """Conditions transfer from p0 to every partition close enough to it.

    A full-cycle condition on p0 holds on any p with rho < 1/2.  A fired
    threshold condition with parameter r transfers within rho < 2^-(r+1);
    the two (r=3, even prime) variants only transfer their conclusion, a
    repeated index.  Every assertion in range is executed on p, never assumed.
    """
    _require_valid(p0)
    _require_valid(p)
    distance = rho(p0, p)
    assertions = []
    statuses = []

    base_full = check_full_cycle(p0, cap)
    statuses.append(base_full.status)
    if base_full.applies and distance < Fraction(1, 2):
        side = check_full_cycle(p, cap)
        statuses.append(side.status)
        assertions.append({
            "source": "full_cycle",
            "radius": "1/2",
            "claim": "full_cycle applies",
            "holds": side.applies if side.status != UNKNOWN else None,
        })

    base_bounds = check_cycle_bounds(p0, cap)
    statuses.append(base_bounds.status)
    if base_bounds.applies:
        r_of = {
            condition["label"]: condition["r"]
            for candidate in base_bounds.details["candidates"]
            for condition in candidate["conditions"]
        }
        side = None
        for label in sorted(r_of):
            exponent = r_of[label] + 1
            same_condition = label not in _CONCLUSION_ONLY
            radius = Fraction(1, 2**exponent)
            if distance >= radius:
                continue
            if side is None:
                side = check_cycle_bounds(p, cap)
                statuses.append(side.status)
            if side.status == UNKNOWN:
                holds = None
            elif same_condition:
                side_labels = {
                    condition["label"]
                    for candidate in side.details.get("candidates", [])
                    for condition in candidate["conditions"]
                }
                holds = label in side_labels
            else:
                holds = bool(multiplicity(p))
            assertions.append({
                "source": label,
                "radius": f"1/{2**exponent}",
                "claim": (f"condition {label} applies" if same_condition
                          else "some index repeats"),
                "holds": holds,
            })

    outcomes = [a["holds"] for a in assertions]
    capped = None in outcomes or (not outcomes and UNKNOWN in statuses)
    return _report("neighborhood",
                   "all in-range assertions hold on the nearby partition",
                   all(outcomes) if outcomes and not capped else None, capped,
                   {"rho": str(distance), "assertions": assertions})


def loop_consistency(
    p: CosetPartition, w: Word, state_cap: int = DEFAULT_CAP
) -> dict[str, Any]:
    """Check every loop that w traces among the cosets of N.

    A coset's block depends only on its coordinates in the block tables,
    which range over the validated product automaton P.  P's states are the
    cosets of the blocks' intersection, whose core is N, so F acts on them
    with kernel N and o_N is the lcm of the lengths of P's w-cycles.  Each
    of the m/o_N loops of length o_N repeats, from some start, the blocks
    along one w-cycle of P and reads the same residue classes off it.  Per
    cycle: each participating block i appears length/o_i times at gaps of
    o_i, and the classes partition the integers and pass all four
    structural checks, checked once per distinct system.  A problem names
    its loop by a word reaching its start.
    """
    m = refinement_index(p, state_cap)
    report = validate(p, state_cap)
    if not report.valid:
        raise ValueError("partition is not valid; run validation first")
    orders = relative_orders(p, w)
    loops = cycles(rows_step(report.automaton.rows, w))
    o_n = lcm(*map(len, loops))
    verdicts: dict[Any, str] = {}
    problems = []
    for cycle in loops:
        blocks = tuple(report.colors[v] for v in cycle)
        try:
            z = colored_loop_partition(
                len(cycle), blocks, {i: orders[i] for i in blocks})
        except ValueError as err:  # a count or spacing check failed
            problem = str(err)
        else:
            if z not in verdicts:
                try:
                    holds = erdos_checks(z).all_hold
                    verdicts[z] = "" if holds else "fail a structural check"
                except InvalidPartition:
                    verdicts[z] = "do not partition Z"
            problem = verdicts[z] and f"classes {z} {verdicts[z]}"
        if problem:
            problems.append(f"loop at {report.automaton.word(cycle[0])}: {problem}")
    return {
        "word": str(w),
        "m": m,
        "order_mod_n": o_n,
        "relative_orders": orders,
        "loop_count": m // o_n,
        "loop_lengths": [o_n],
        "problems": problems,
    }


def default_word_sample(p: CosetPartition, reports: list[TheoremReport]) -> list[Word]:
    """Generators, two-generator products, then the reports' witnesses."""
    alphabet = [chr(ord("a") + j) for j in range(min(p.rank, 26))]
    texts = list(alphabet)
    texts.extend(x + y for x in alphabet for y in alphabet)
    for report in reports:
        texts.append(report.details.get("witness"))
        for candidate in report.details.get("candidates", []):
            texts.append(candidate.get("witness"))
            texts.append(candidate.get("cycle"))
    words = []
    seen = set()
    for text in texts:
        if not text:
            continue
        w = parse_word(p.rank, text)
        if w.is_identity or w.letters in seen:
            continue
        seen.add(w.letters)
        words.append(w)
    return words


def _block_summaries(
    p: CosetPartition, cap: int
) -> tuple[list[dict[str, Any]], bool]:
    """Per-block index, representative, and cycle-type census; the blocks of
    one table share its summary, built once."""
    summaries: dict[Any, dict[str, Any]] = {}
    for table, group in p.groups.items():
        try:
            summaries[table] = {
                "group_order": group.order(cap),
                "cycle_types": [
                    {"type": "+".join(map(str, shape)), "count": count,
                     "witness": str(wit)}
                    for shape, count, wit in cycle_type_census(group, cap)]}
        except CapExceeded:
            summaries[table] = {"capped": True}
    blocks = [{"block": i, "index": spec.index, "rep": str(spec.rep),
               "marked": spec.marked, **summaries[spec.table]}
              for i, spec in enumerate(p.specs)]
    return blocks, any("capped" in summary for summary in summaries.values())


@dataclass
class Analysis:
    valid: bool
    indices: list[int]
    repeated: list[int]
    m: int | None
    blocks: list[dict[str, Any]]
    reports: list[TheoremReport]
    loop_checks: list[dict[str, Any]]
    unknown: bool
    soundness_problems: list[str]

    @property
    def exit_code(self) -> int:
        if not self.valid:
            return 1
        if self.soundness_problems:
            return 2
        if self.unknown:
            return 3
        return 0

    def to_json(self) -> dict[str, Any]:
        return {
            "valid": self.valid,
            "indices": self.indices,
            "multiplicity": self.repeated,
            "m": self.m,
            "blocks": self.blocks,
            "per_theorem": {r.name: r.to_json() for r in self.reports},
            "loop_checks": self.loop_checks,
            "unknown": self.unknown,
            "soundness_problems": self.soundness_problems,
        }


def analyze(
    p: CosetPartition,
    words: list[Word] | None = None,
    state_cap: int = DEFAULT_CAP,
) -> Analysis:
    """Validate, run every condition checker, and stress the loop structure.
    One cap bounds every search, since none needs more states than m, F/N's
    order: validation raises past it, any other search is left unknown."""
    report = validate(p, state_cap)
    if not report.valid:
        return Analysis(False, list(p.indices), [], None, [], [], [], False, [])
    blocks, blocks_capped = _block_summaries(p, state_cap)
    try:
        m = refinement_index(p, state_cap)
    except CapExceeded:
        m = None
    reports = [
        check_full_cycle(p, state_cap),
        check_cycle_bounds(p, state_cap),
        check_intersections(p, state_cap),
    ]
    problems = [f"{theorem.name}: condition fired but prediction failed"
                for theorem in reports if not theorem.sound]
    loop_checks = []
    unknown = (blocks_capped or m is None
               or any(r.status == UNKNOWN for r in reports))
    if m is not None:  # m, validation and F/N are cached under these caps
        sample = words if words is not None else default_word_sample(p, reports)
        for w in sample:
            check = loop_consistency(p, w, state_cap)
            loop_checks.append(check)
            problems.extend(f"{check['word']}: {q}" for q in check["problems"])
    return Analysis(
        True, list(p.indices), sorted(multiplicity(p)), m, blocks,
        reports, loop_checks, unknown, problems)
