"""Condition checkers: fired conditions must verify their own predictions."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import re
import weakref
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

import pytest

import hsforge.partition
import hsforge.perm
import hsforge.theorems
from conftest import P
from helpers import (
    coset_partition,
    fuzz_partitions,
    loop_consistency_by_n,
    loop_z_partition,
    max_cycle_length,
    reduced_words_up_to,
    residue_partition,
    sym_ladder_partition,
    two_table_sym_partition,
)
from hsforge import cli
from hsforge.files import load_partition
from hsforge.hsgraph import build_hs_graph
from hsforge.partition import (
    CosetPartition,
    CosetSpec,
    PairIntersectionReport,
    StateCapExceeded,
    act,
    big_n,
    intersection_conditions,
    multiplicity,
    relative_orders,
    rho,
    validate,
)
from hsforge.perm import CapExceeded, Permutation, cycle_type_census, transition_group
from hsforge.sampling import (
    random_lifted_partition,
    random_split_chain,
    random_table,
    random_word,
)
from hsforge.schreier import cycles, table_from_generators, transversal, word_step
from hsforge.theorems import (
    Analysis,
    TheoremReport,
    analyze,
    check_cycle_bounds,
    check_full_cycle,
    check_intersections,
    check_neighborhood,
    default_word_sample,
    loop_consistency,
)
from hsforge.words import parse_word
from hsforge.zcover import SpacingViolation, erdos_checks

# sha256 of analyze(p).to_json(), dumped with sorted keys, over the first 60
# partitions of `scripts/fuzz_soundness.py --seed 0`; recorded when every
# caller still built its own transition groups, cores, all-blocks products
# and colors, so sharing them must leave every analysis unchanged.
ANALYZE_STREAM_SHA256 = (
    "3bd7bcb1c6dfaf73449711b2e67449d61b5d64e7f75f65cfce00f60efeaf29b9")

# sha256 of check_neighborhood(p0, q).to_json(), dumped with sorted keys,
# over the pairs of ``neighborhood_pairs``; recorded when each condition's
# radius was still parsed out of its label.
NEIGHBORHOOD_STREAM_SHA256 = (
    "6be0abe67b28ada7d1a415fc0607be60218f7c158884c0bea0a6e0f351737865")

DATA = Path(__file__).resolve().parents[1] / "data"


def test_full_cycle_applies_on_mixed_partition(p44):
    report = check_full_cycle(p44)
    assert report.status == "applies"
    assert report.verified is True
    assert report.predicted == "index 4 occurs at least 2 times"
    assert report.details["max_index"] == 4
    assert report.details["smallest_prime"] == 2
    assert report.details["max_index_blocks"] == [1, 2]
    assert report.details["witness"] == "ab"
    assert report.details["subgroup_rank"] == 5  # 4*(2-1)+1
    assert report.details["relative_orders"] == [2, 4, 4]
    assert sorted(multiplicity(p44)) == [4]


def test_full_cycle_silent_on_normal_partition(p77):
    report = check_full_cycle(p77)
    assert report.status == "does_not_apply"
    assert report.sound
    # no element of the order-4 Klein group has a 4-cycle
    assert all(c["cycle"] is None for c in report.details["candidates"])


def test_full_cycle_on_pure_coset_partitions(p22, p333):
    for p, expected_prime in ((p22, 2), (p333, 3)):
        report = check_full_cycle(p)
        assert report.status == "applies"
        assert report.verified is True
        assert report.details["smallest_prime"] == expected_prime


def test_full_cycle_not_applicable_on_whole_group():
    table = table_from_generators(2, [P("a"), P("b")])
    p = coset_partition(2, [CosetSpec(table, P("1"))])
    report = check_full_cycle(p)
    assert report.status == "not_applicable"


def test_full_cycle_prediction_matches_loop_structure(p44):
    # the predicted repetition count equals the largest-modulus repetition
    # count on any witness loop through a maximal-index block
    report = check_full_cycle(p44)
    witness = P(report.details["witness"])
    graph = build_hs_graph(p44, witness)
    top = report.details["max_index"]
    seen = 0
    for loop in graph.loops():
        if not any(p44.specs[i].index == top for i in set(loop.colors)):
            continue
        z = loop_z_partition(graph, loop)
        struct = erdos_checks(z)
        assert struct.o_max == top
        assert struct.smallest_prime == report.details["smallest_prime"]
        assert struct.o_max_count >= report.details["smallest_prime"]
        seen += 1
    assert seen > 0


def test_cycle_bounds_applies_on_mixed_partition(p44):
    report = check_cycle_bounds(p44)
    assert report.status == "applies"
    assert report.verified is True
    assert report.details["k"] == 4
    assert report.details["smallest_prime"] == 2
    assert report.details["repeated_indices"] == [4]
    candidates = report.details["candidates"]
    assert [c["block"] for c in candidates] == [1, 2]
    for c in candidates:
        assert c["o_max"] == 4 and c["sharp"] == 2
        orders = relative_orders(p44, P(c["witness"]))
        assert max(orders) == 4 and orders.count(4) == 2
        labels = [cond["label"] for cond in c["conditions"]]
        assert labels == ["exceeds_second_largest"]
        assert c["conditions"][0]["threshold"] == 2


def test_cycle_bounds_silent_on_normal_partition(p77):
    report = check_cycle_bounds(p77)
    assert report.status == "does_not_apply"
    assert report.details["k"] == 2
    assert all(not c["conditions"] for c in report.details["candidates"])


def test_cycle_bounds_needs_three_blocks(p22):
    assert check_cycle_bounds(p22).status == "not_applicable"


def test_cycle_bounds_on_pure_index_three_partition(p333):
    report = check_cycle_bounds(p333)
    # k = 3 > d_{s-2} = 3? no: thresholds are the lower indices (3,3,3) so
    # k must exceed 3; it does not, and the checker stays silent
    assert report.details["k"] == 3
    assert report.status == "does_not_apply"


def test_intersections_fire_and_verify(p44, p77, p333):
    for p in (p44, p77):
        report = check_intersections(p)
        assert report.status == "applies"
        assert report.verified is True
        assert report.details["fired"] == [[1, 2]]
        fired_entry = [e for e in report.details["pairs"] if e["pair"] == [1, 2]][0]
        assert fired_entry["strict_refinement"] is True
        assert fired_entry["subgroups_equal"] is True
    report = check_intersections(p333)
    assert report.status == "applies"
    assert report.verified is True
    assert report.details["fired"] == [[0, 1], [0, 2], [1, 2]]


def test_intersections_need_three_blocks(p22):
    assert check_intersections(p22).status == "not_applicable"


def test_neighborhood_transfers_at_distance_zero(p44):
    report = check_neighborhood(p44, p44)
    assert report.status == "applies"
    assert report.verified is True
    sources = [a["source"] for a in report.details["assertions"]]
    assert "full_cycle" in sources
    assert "exceeds_second_largest" in sources
    assert all(a["holds"] for a in report.details["assertions"])


def test_neighborhood_out_of_range(p44, p77):
    report = check_neighborhood(p44, p77)  # rho = 1/2, no radius reaches
    assert report.details["rho"] == "1/2"
    assert report.details["assertions"] == []
    assert report.status == "does_not_apply"


def test_neighborhood_silent_base(p77):
    report = check_neighborhood(p77, p77)
    assert report.status == "does_not_apply"
    assert report.details["assertions"] == []


def test_neighborhood_transfer_within_radius(p44):
    from hsforge.partition import act, rho
    moved = act(p44, P("ab"))
    assert rho(p44, moved) == 0
    report = check_neighborhood(p44, moved)
    assert report.status == "applies"
    assert report.verified is True


def neighborhood_pairs():
    """40 residue-class partitions of seeded split chains, each paired with
    its translate by ab and with every other one closer than 1/2."""
    rng = random.Random(5)
    pool = []
    for _ in range(40):
        z = random_split_chain(rng, max_period=200, max_steps=6)
        pool.append(residue_partition([(c.modulus, c.residue) for c in z.classes]))
    for p0 in pool:
        yield p0, act(p0, P("ab"))
        for q in pool:
            if q is not p0 and rho(p0, q) < Fraction(1, 2):
                yield p0, q


def test_neighborhood_stream_is_pinned():
    # radii 1/2 to 1/32768 at distances 0 to 1/256, threshold conditions
    # with r = 2..14, and a conclusion-only r = 3 condition among them
    digest = hashlib.sha256()
    radii = set()
    for p0, q in neighborhood_pairs():
        report = check_neighborhood(p0, q)
        radii |= {a["radius"] for a in report.details["assertions"]}
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == NEIGHBORHOOD_STREAM_SHA256
    assert {"1/2", "1/8", "1/16", "1/32768"} <= radii


def test_loop_consistency_rejects_a_word_of_another_rank(p44):
    # its order of w modulo N used to come out as 1 for the rank-3 word "ab"
    with pytest.raises(ValueError, match="word rank 3 != table rank 2"):
        loop_consistency(p44, parse_word(3, "ab"))


def test_loop_consistency(p44, p77):
    check = loop_consistency(p44, P("ab"))
    assert check["problems"] == []
    assert check["m"] == 8
    assert check["order_mod_n"] == 4
    assert check["relative_orders"] == [2, 4, 4]
    assert check["loop_count"] == 2
    assert check["loop_lengths"] == [4]
    check = loop_consistency(p77, P("ab"))
    assert check["problems"] == []
    assert check["m"] == 4
    assert check["loop_count"] == 2


def test_order_mod_n_read_off_p_is_the_per_table_lcm():
    # P's action has kernel N, so the lcm of its w-cycle lengths is w's
    # order on the distinct block tables taken together; on the ladders every
    # word up to length 4 is tried, cycle types such as 2+3 among them, where
    # the lcm is not the longest cycle
    rng = random.Random(13)
    cases = [(sym_ladder_partition(d), reduced_words_up_to(2, 4)) for d in range(5, 8)]
    cases += [(p, [random_word(rng, p.rank, n) for n in (2, 4, 6)])
              for p in fuzz_partitions(300)]
    uneven = 0
    for p, sample in cases:
        for w in sample:
            check = loop_consistency(p, w)
            lengths = [len(c) for t in p.groups for c in cycles(word_step(t, w))]
            assert check["order_mod_n"] == lcm(*lengths)
            assert check["problems"] == []
            uneven += lcm(*lengths) > max(lengths)
    assert uneven > 0


def test_a_failed_spacing_check_is_a_soundness_problem(monkeypatch, capsys):
    # a loop whose colors fail their own spacing check is reported with the
    # loop that broke it and exits 2, never as invalid input
    def violated(length, colors, moduli):
        raise SpacingViolation(f"color {colors[0]} off its progression")

    monkeypatch.setattr(hsforge.theorems, "colored_loop_partition", violated)
    path = str(DATA / "ex_two_four_four.partition")
    analysis = analyze(load_partition(path))
    assert analysis.exit_code == 2
    assert analysis.loop_checks and all(c["problems"] for c in analysis.loop_checks)
    assert analysis.soundness_problems == [
        f"{c['word']}: {q}" for c in analysis.loop_checks for q in c["problems"]]
    assert all(re.fullmatch(r"\S+: loop at \S+: color \d off its progression", q)
               for q in analysis.soundness_problems)
    assert cli.main(["analyze", path, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["soundness_problems"] == (
        analysis.soundness_problems)


def test_default_word_sample(p44):
    reports = [check_full_cycle(p44), check_cycle_bounds(p44)]
    sample = default_word_sample(p44, reports)
    texts = [str(w) for w in sample]
    assert "a" in texts and "b" in texts
    assert "ab" in texts and "ba" in texts
    assert "aa" in texts and "bb" in texts
    assert len(set(texts)) == len(texts)
    assert all(not w.is_identity for w in sample)


def test_report_soundness_property():
    good = TheoremReport("x", "applies", "p", True)
    assert good.sound and good.applies
    bad = TheoremReport("x", "applies", "p", False)
    assert not bad.sound
    silent = TheoremReport("x", "does_not_apply")
    assert silent.sound and not silent.applies
    as_json = good.to_json()
    assert as_json["name"] == "x" and as_json["status"] == "applies"


def _assert_report_shape(report: TheoremReport) -> None:
    """One status rule and one field list for every report and pair entry."""
    assert (report.status == "applies") == (report.verified is not None)
    assert list(report.to_json()) == [f.name for f in fields(TheoremReport)]
    for entry in report.details.get("pairs", ()):
        if "capped" not in entry:
            assert list(entry) == [f.name for f in fields(PairIntersectionReport)]
            assert type(entry["pair"]) is list


def _reports_under(p: CosetPartition, cap: int) -> list[TheoremReport]:
    """The reports of p's analysis under the cap; none when validation's
    automaton exceeds it, which raises."""
    try:
        return analyze(p, state_cap=cap).reports
    except CapExceeded:
        return []


def _validated(p: CosetPartition) -> CosetPartition:
    """A fresh copy of p, validated under the default cap."""
    copy = CosetPartition(p.rank, p.specs)
    validate(copy)
    return copy


def test_every_report_applies_exactly_when_verified(p44, p77):
    pool = [load_partition(path) for path in sorted(DATA.glob("*.partition"))]
    pool += list(fuzz_partitions(60))
    pool += [sym_ladder_partition(5), sym_ladder_partition(6)]
    statuses = Counter()
    for p in pool:
        # fresh copies under small caps reach the unknown statuses; a
        # checker validates a fresh copy under its own cap, so this one is
        # validated first
        reports = [*analyze(p).reports,
                   *_reports_under(CosetPartition(p.rank, p.specs), 40),
                   check_intersections(_validated(p), 2)]
        for report in reports:
            _assert_report_shape(report)
            statuses[report.name, report.status] += 1
    moved = act(p44, P("ab"))
    pairs = [(p44, p44), (p44, p77), (p77, p77), (p44, moved)]
    pairs += neighborhood_pairs()
    for p0, q in pairs:
        for cap in (10**6, 2):  # p0 is validated under the first cap
            report = check_neighborhood(p0, _validated(q), cap)
            _assert_report_shape(report)
            statuses[report.name, report.status] += 1
    for name in ("full_cycle", "cycle_bounds", "intersection", "neighborhood"):
        assert {status for key, status in statuses if key == name} >= {
            "applies", "does_not_apply", "unknown"}


def test_analysis_exit_codes():
    base = dict(indices=[2, 4, 4], repeated=[4], m=8, blocks=[],
                reports=[], loop_checks=[], soundness_problems=[])
    assert Analysis(valid=True, unknown=False, **base).exit_code == 0
    assert Analysis(valid=False, unknown=False, **base).exit_code == 1
    assert Analysis(valid=True, unknown=True, **base).exit_code == 3
    broken = dict(base, soundness_problems=["x: fired but failed"])
    assert Analysis(valid=True, unknown=False, **broken).exit_code == 2


def test_analyze_mixed_partition(p44):
    analysis = analyze(p44)
    assert analysis.valid
    assert analysis.exit_code == 0
    assert analysis.m == 8
    assert analysis.repeated == [4]
    assert [r.status for r in analysis.reports] == ["applies"] * 3
    assert analysis.loop_checks and all(
        not c["problems"] for c in analysis.loop_checks)
    payload = analysis.to_json()
    assert set(payload) == {
        "valid", "indices", "multiplicity", "m", "blocks", "per_theorem",
        "loop_checks", "unknown", "soundness_problems"}
    assert set(payload["per_theorem"]) == {
        "full_cycle", "cycle_bounds", "intersection"}
    assert [b["index"] for b in payload["blocks"]] == [2, 4, 4]
    assert all("cycle_types" in b for b in payload["blocks"])


def test_analyze_normal_partition(p77):
    analysis = analyze(p77)
    assert analysis.exit_code == 0
    assert analysis.m == 4
    statuses = {r.name: r.status for r in analysis.reports}
    assert statuses == {
        "full_cycle": "does_not_apply",
        "cycle_bounds": "does_not_apply",
        "intersection": "applies",
    }


def test_analyze_invalid_partition(h1_table, k_table):
    broken = coset_partition(2, [
        CosetSpec(h1_table, P("1")),
        CosetSpec(k_table, P("a")),
    ])
    analysis = analyze(broken)
    assert not analysis.valid
    assert analysis.exit_code == 1
    assert analysis.reports == []


def test_cycle_bound_k_is_read_off_the_census(g_table, m_table, k_table, h1_table):
    # k, the largest part of any cycle type, is the longest cycle that the
    # element-by-element reference finds; check_cycle_bounds reports it on
    # the cosets of each table's subgroup, and the census is computed once
    rng = random.Random(407)
    tables = [g_table, m_table, k_table, h1_table]
    tables += [random_table(rng, rng.choice((2, 3)), 7) for _ in range(60)]
    checked = 0
    for table in tables:
        group = transition_group(table)
        census = cycle_type_census(group)
        k = max_cycle_length(group)[0]
        assert max(shape[-1] for shape, _, _ in census) == k
        if table.degree >= 3:
            p = CosetPartition(table.rank, [
                CosetSpec(table, rep) for rep in transversal(table)])
            assert check_cycle_bounds(p).details["k"] == k
            checked += 1
        assert cycle_type_census(group) is census
    assert checked > 40


def test_analyze_with_tiny_cap_reports_unknown(p44):
    # validation's automaton holds 4 states and the index-4 block group has
    # order 8 = m: a cap of 1 stops validation, which raises, and a cap of
    # 4 leaves the block groups, both cycle checkers and m unknown
    with pytest.raises(CapExceeded):
        analyze(coset_partition(2, list(p44.specs)), state_cap=1)
    analysis = analyze(coset_partition(2, list(p44.specs)), state_cap=4)
    assert analysis.exit_code == 3
    assert analysis.unknown and analysis.m is None
    assert [r.status for r in analysis.reports][:2] == ["unknown", "unknown"]


def test_a_checker_validates_a_fresh_partition_under_its_own_cap(p44):
    # validation's automaton holds 30 states on the two-table S_6 partition:
    # a checker used to validate a fresh copy under the default cap, and so
    # reported unknown under a cap of 5 where validate raises
    checkers = (check_full_cycle, check_cycle_bounds, check_intersections,
                lambda q, cap: check_neighborhood(q, q, cap))
    for p in (two_table_sym_partition(6), p44):
        states = validate(CosetPartition(p.rank, p.specs)).state_count
        for cap in (1, 5, states - 1, states, 10**6):
            try:
                validate(CosetPartition(p.rank, p.specs), cap)
                raised = False
            except StateCapExceeded:
                raised = True
            assert raised == (cap < states)
            for checker in checkers:
                fresh = CosetPartition(p.rank, p.specs)
                if raised:
                    with pytest.raises(StateCapExceeded):
                        checker(fresh, cap)
                else:
                    _assert_report_shape(checker(fresh, cap))


def test_a_partition_is_freed_without_the_cycle_collector():
    # nothing that analyze caches on the partition or on its groups refers
    # back to them, so dropping the partition frees F/N's group and the two
    # block groups with it by reference counting
    gc.disable()
    try:
        p = two_table_sym_partition(5)
        assert analyze(p).exit_code == 0
        freed = [weakref.ref(p), weakref.ref(p.quotient),
                 *map(weakref.ref, p.groups.values())]
        del p
        assert [ref() for ref in freed] == [None] * 4
    finally:
        gc.enable()


def test_checkers_never_fire_without_multiplicity(p44, p77, p22, p333):
    rng = random.Random(47)
    pool = [p44, p77, p22, p333]
    pool.extend(random_lifted_partition(rng, 2, max_degree=5, max_order=48)
                for _ in range(6))
    for p in pool:
        fresh = coset_partition(2, list(p.specs))
        if not validate(fresh).valid:
            continue
        analysis = analyze(fresh)
        assert analysis.exit_code != 2
        assert not analysis.soundness_problems
        for report in analysis.reports:
            if report.applies:
                assert multiplicity(fresh), (
                    f"{report.name} fired on a multiplicity-free partition")


def test_analyze_stream_is_pinned():
    digest = hashlib.sha256()
    for p in fuzz_partitions(60):
        digest.update(json.dumps(analyze(p).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == ANALYZE_STREAM_SHA256


def _like_fresh_copy(call, p, *args, **kwargs) -> bool:
    """Assert that call answers on p as on a fresh copy of p; return whether
    that answer is a cap hit or an analysis left unknown."""
    outcomes = []
    for q in (p, CosetPartition(p.rank, p.specs)):
        try:
            result = call(q, *args, **kwargs)
        except CapExceeded as err:
            outcomes.append((type(err), str(err)))
            continue
        outcomes.append(result.to_json() if isinstance(result, Analysis) else result)
    answer, fresh = outcomes
    assert answer == fresh
    return isinstance(answer, tuple) or (isinstance(answer, dict) and answer["unknown"])


def _capped_or_unknown(p: CosetPartition, cap: int) -> bool:
    """Whether p's analysis under the cap raises or is left unknown."""
    try:
        return analyze(p, state_cap=cap).unknown
    except CapExceeded:
        return True


def test_cached_objects_take_smaller_caps_like_fresh_copies():
    # a partition that holds its validation report, closures, N and
    # all-blocks index answers a smaller cap as a fresh copy of it does, and
    # so does a partition moved by act after its source was analyzed; a
    # group or all-blocks orbit that failed under a cap raises at once for
    # any cap at or below it, as a fresh copy raises after its own search,
    # and a larger cap searches again; the S_5..S_7 ladders add groups that
    # the census scan recognizes
    rng = random.Random(406)
    capped = Counter()
    ladders = (sym_ladder_partition(d) for d in (5, 6, 7))
    for p in itertools.chain(fuzz_partitions(150), ladders):
        validate(p)
        capped["validate"] += _like_fresh_copy(validate, p, 5)
        analysis = analyze(p)
        capped["analyze"] += _like_fresh_copy(analyze, p, state_cap=40)
        if analysis.m is not None:
            capped["big_n"] += _like_fresh_copy(big_n, p, analysis.m - 1)
        if p.size >= 3:
            index = intersection_conditions(p, 0, 1).index_all
            capped["index"] += _like_fresh_copy(
                intersection_conditions, p, 0, 2, index - 1)
        q = act(p, random_word(rng, p.rank, 4))
        capped["act"] += _like_fresh_copy(analyze, q, state_cap=40)
        failed = CosetPartition(p.rank, p.specs)
        if _capped_or_unknown(failed, 40):
            for cap in (40, 12):
                capped["failed search"] += _like_fresh_copy(
                    analyze, failed, state_cap=cap)
            assert not _like_fresh_copy(analyze, failed)
        if p.size >= 3:
            failed = CosetPartition(p.rank, p.specs)
            for cap in (index - 1, index - 1, index // 2, index):
                capped["failed index"] += _like_fresh_copy(
                    intersection_conditions, failed, 0, 2, cap)
    assert min(capped[kind] for kind in
               ("validate", "analyze", "big_n", "index", "act",
                "failed search", "failed index")) > 0


def test_a_cap_is_hit_once_not_once_per_caller(monkeypatch):
    # on the d = 6 ladder one cap of 40 or 100 bounds every search: one
    # census scan of the single table's group serves every block, the two
    # cycle checkers, m and the pairs, and the scan of S_6 holds 135 states,
    # so it fails once and every later caller raises at once; the pairs read
    # their indices off that closure too, so they run no product of their
    # own.  The other orbit is the primitivity test's orbit of point 0,
    # which holds 6 states
    searches = Counter()
    for module, name in ((hsforge.perm, "orbit"), (hsforge.partition, "product"),
                         (hsforge.partition, "orbit")):
        def counted(*args, original=getattr(module, name),
                    key=f"{module.__name__}.{name}"):
            searches[key] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    for cap in (40, 100):
        searches.clear()
        analysis = analyze(sym_ladder_partition(6), state_cap=cap)
        assert analysis.exit_code == 3 and analysis.m is None
        assert all(block["capped"] for block in analysis.blocks)
        reports = analysis.to_json()["per_theorem"]
        assert {name: report["status"] for name, report in reports.items()} == {
            "full_cycle": "unknown", "cycle_bounds": "unknown",
            "intersection": "unknown"}
        pairs = reports["intersection"]["details"]["pairs"]
        assert len(pairs) == 15 and all(pair["capped"] for pair in pairs)
        # the one partition.orbit is validation's, which steps the
        # partition's own side-by-side layout, so no product runs
        assert searches == {"hsforge.perm.orbit": 2, "hsforge.partition.orbit": 1}


def test_one_closure_answers_the_census_and_every_pair(monkeypatch):
    # at default caps on the d = 6 ladder, the one closure of its single
    # table gives the census, m and all 15 pair indices: the only product
    # automaton is validation's
    searches = Counter()
    for module, name in ((hsforge.perm, "orbit"), (hsforge.partition, "product"),
                         (hsforge.partition, "orbit")):
        def counted(*args, original=getattr(module, name),
                    key=f"{module.__name__}.{name}"):
            searches[key] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    analysis = analyze(sym_ladder_partition(6))
    assert analysis.exit_code == 0 and analysis.m == 720
    pairs = analysis.to_json()["per_theorem"]["intersection"]["details"]["pairs"]
    assert len(pairs) == 15 and all(pair["index_all"] == 720 for pair in pairs)
    # the one partition.orbit is validation's, on the partition's own
    # side-by-side layout; the perm.orbit calls are the census scan and the
    # primitivity test's orbit of point 0
    assert searches == {"hsforge.perm.orbit": 2, "hsforge.partition.orbit": 1}


def test_blocks_of_one_table_share_one_census_summary(monkeypatch):
    # the census is formatted once per distinct table, not once per block:
    # one call on the d = 6 ladder's six blocks, one per table of the mixed
    # example, and the blocks of a table share its cycle_types list
    calls = []

    def counted(group, cap, original=hsforge.theorems.cycle_type_census):
        calls.append(group)
        return original(group, cap)
    monkeypatch.setattr(hsforge.theorems, "cycle_type_census", counted)
    for p in (sym_ladder_partition(6),
              load_partition(str(DATA / "ex_two_four_four.partition"))):
        calls.clear()
        blocks, capped = hsforge.theorems._block_summaries(p, 10**6)
        assert not capped and len(blocks) == p.size
        assert len(calls) == len(set(map(id, calls))) == len(p.groups)
        for block, spec in zip(blocks, p.specs):
            first = next(b for b, s in zip(blocks, p.specs) if s.table == spec.table)
            assert block["cycle_types"] is first["cycle_types"]
    assert len(calls) == 2 and p.size == 3


def test_the_d10_and_d11_ladders_are_decided_under_default_caps(monkeypatch):
    # S_10 and S_11 have 3,628,800 and 39,916,800 elements, above both
    # default caps of 10^6, but the census scan recognizes each and stops
    # after fewer than 10^5 states: m, every block's census, both cycle
    # checkers and every pair's indices are read off that one scan, with no
    # product.  Validation's product is left out of the count.
    for d in (10, 11):
        expanded = Counter()
        products = []
        with monkeypatch.context() as patch:
            for name in ("orbit", "resume"):
                def counted(start, images, *rest,
                            original=getattr(hsforge.perm, name), name=name):
                    def counted_images(state):
                        expanded[name] += 1
                        return images(state)
                    return original(start, counted_images, *rest)
                patch.setattr(hsforge.perm, name, counted)
            p = sym_ladder_partition(d)
            assert validate(p).valid
            patch.setattr(hsforge.partition, "product",
                          lambda *args: products.append(args))
            analysis = analyze(p)
        assert analysis.exit_code == 0 and analysis.m == factorial(d)
        assert all(block["group_order"] == factorial(d) for block in analysis.blocks)
        reports = analysis.to_json()["per_theorem"]
        assert all(report["status"] != "unknown" for report in reports.values())
        pairs = reports["intersection"]["details"]["pairs"]
        assert len(pairs) == d * (d - 1) // 2
        assert all(pair["index_all"] == factorial(d) for pair in pairs)
        assert products == [] and expanded.keys() <= {"orbit"}
        assert expanded["orbit"] < 10**5


def test_analyze_builds_no_n_table():
    for p in (load_partition(str(DATA / "ex_two_four_four.partition")),
              sym_ladder_partition(6)):
        assert analyze(p).loop_checks
        assert p._n is None


def test_analyze_builds_one_permutation_per_generator_and_table(monkeypatch):
    # the searches keep image tuples: the only Permutations are the
    # generators of each distinct table's transition group and, with two
    # tables or more, of F/N on the tables laid side by side
    built = []
    post_init = Permutation.__post_init__

    def counted(element):
        built.append(element)
        post_init(element)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    loads = [lambda: sym_ladder_partition(6)]
    loads += [lambda path=path: load_partition(str(path))
              for path in sorted(DATA.glob("*.partition"))]
    assert len(loads) == 6
    for load in loads:
        built.clear()
        p = load()
        assert analyze(p).valid
        assert len(built) <= p.rank * (len(p.groups) + (len(p.groups) > 1))


def test_loop_checks_match_walks_on_n():
    # the checks read off the validated product automaton agree with every
    # loop of N's colored table on the bundled examples, the S_d ladders
    # for d = 4..7, the fuzz stream and a partition whose m = lcm(6, 4)
    # exceeds every block's group order
    pool = [load_partition(str(path)) for path in sorted(DATA.glob("*.partition"))]
    pool += [sym_ladder_partition(d) for d in range(4, 8)]
    pool.append(residue_partition([(6, 0), (6, 2), (6, 4), (4, 1), (4, 3)]))
    pool += fuzz_partitions(60)
    for p in pool:
        checks = analyze(p).loop_checks
        assert checks
        assert checks == [loop_consistency_by_n(p, parse_word(p.rank, c["word"]))
                          for c in checks]


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs).to_json()
    except CapExceeded as err:
        return type(err), str(err)


def test_capped_analysis_matches_the_n_pipeline(monkeypatch):
    # with a cap of 40, of m and below m, analyze answers as when m comes
    # from N's table and the loops are walked on it
    outcomes = Counter()
    for p in fuzz_partitions(60):
        m = analyze(p).m
        for cap in (40, m, m - 1):
            answer = _outcome(analyze, CosetPartition(p.rank, p.specs),
                              state_cap=cap)
            with monkeypatch.context() as patch:
                patch.setattr(hsforge.theorems, "refinement_index",
                              lambda q, s: big_n(q, s).degree)
                patch.setattr(hsforge.theorems, "loop_consistency",
                              loop_consistency_by_n)
                reference = _outcome(analyze, CosetPartition(p.rank, p.specs),
                                     state_cap=cap)
            assert answer == reference
            if isinstance(answer, dict):
                outcomes["m" if answer["m"] else "m capped"] += 1
                outcomes["loops"] += bool(answer["loop_checks"])
    assert min(outcomes[kind] for kind in ("m", "m capped", "loops")) > 0
