"""Tests of the benchmark itself: every check rejects a wrong answer, a short
run of every workload ends with no failed operation, and the result format
matches BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seconds: float = 0.5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def rejects(check, *args) -> None:
    with pytest.raises(oracles.CheckFailed):
        check(*args)


# -- the checks reject wrong answers ------------------------------------------

@pytest.fixture(scope="module")
def ladder5(tmp_path_factory):
    ladder = workloads.SymLadder(SEED, tmp_path_factory.mktemp("ladder"))
    d, points, path = ladder.cases[0]
    assert d == 5
    code, out = workloads.run_cli(["analyze", path, "--json"])
    oracles.check_ladder(d, points, code, json.loads(out))
    return d, points, code, json.loads(out)


def test_ladder_check_rejects_a_wrong_m(ladder5):
    d, points, code, payload = ladder5
    rejects(oracles.check_ladder, d, points, code, {**payload, "m": 60})
    rejects(oracles.check_ladder, d, points, 3, payload)


def test_ladder_check_rejects_a_wrong_cycle_type_count(ladder5):
    d, points, code, payload = ladder5
    wrong = json.loads(json.dumps(payload))
    wrong["blocks"][2]["cycle_types"][1]["count"] += 1
    rejects(oracles.check_ladder, d, points, code, wrong)


def test_ladder_check_rejects_a_witness_of_another_type(ladder5):
    d, points, code, payload = ladder5
    wrong = json.loads(json.dumps(payload))
    types = wrong["blocks"][0]["cycle_types"]
    types[-1]["witness"] = types[-2]["witness"]
    rejects(oracles.check_ladder, d, points, code, wrong)


def test_ladder_check_rejects_a_wrong_loop_count(ladder5):
    d, points, code, payload = ladder5
    wrong = json.loads(json.dumps(payload))
    wrong["loop_checks"][0]["loop_count"] += 1
    rejects(oracles.check_ladder, d, points, code, wrong)


def test_lifted_check_rejects_a_wrong_m(tmp_path):
    batch = workloads.LiftedBatch(SEED, tmp_path)
    ops = batch.round()
    # the first partition with more than one block, so m > 1
    i = next(i for i, (_, p) in enumerate(batch.batch) if p.size > 2)
    analysis = ops[i].call()
    ops[i].check(analysis)
    quotient_order = batch.quotient_order(i)
    indices = batch.batch[i][1].indices
    for m in (analysis.m * 2, analysis.m + 1, quotient_order * 2):
        rejects(oracles.check_lifted, quotient_order, indices,
                dataclasses.replace(analysis, m=m))


@pytest.fixture(scope="module")
def orbits(tmp_path_factory):
    return workloads.WordOrbits(SEED, tmp_path_factory.mktemp("orbits"))


def test_orbit_check_rejects_a_wrong_orbit(orbits):
    table, text, _ = orbits.tables[5]
    op = orbits.round()[5]
    orders, visited = op.call()
    op.check((orders, visited))
    other = next(v for v in range(table.degree) if visited[v] != visited[0])
    wrong = list(visited)
    wrong[0] = visited[other]
    rejects(oracles.check_orbits, table.delta, text, orders, wrong)
    wrong = list(visited)
    wrong[0] = visited[0] | {next(iter(visited[other]))}
    rejects(oracles.check_orbits, table.delta, text, orders, wrong)
    rejects(oracles.check_orbits, table.delta, text,
            [orders[0] + 1] + orders[1:], visited)


def test_loop_check_rejects_a_wrong_fiber_count(orbits):
    ops = orbits.round()[len(orbits.tables):]
    loops, counts = ops[0].call()
    ops[0].check((loops, counts))
    rejects(ops[0].check, (loops, [counts[0] + 1] + counts[1:]))
    rejects(ops[0].check, (loops[1:], counts))


@pytest.fixture(scope="module")
def zcheck(tmp_path_factory):
    return workloads.ZcheckPeriods(SEED, tmp_path_factory.mktemp("zcheck"))


def test_zcheck_cases_are_what_they_claim(zcheck):
    for classes, valid, _ in zcheck.cases[:12]:
        counts = oracles.cover_counts(classes, max(o for o, _ in classes) * 2)
        assert (set(counts) == {1}) == valid


def test_zcheck_check_rejects_a_wrong_witness(zcheck):
    classes, valid, text = zcheck.cases[3]
    assert not valid
    code, out = workloads.run_cli(["zcheck", text, "--json"])
    payload = json.loads(out)
    oracles.check_zcheck(classes, valid, code, payload)
    witness = payload["witness"]
    for wrong in {witness + 1, max(witness - 1, 0) if witness else witness + 2}:
        rejects(oracles.check_zcheck, classes, valid, code, {**payload, "witness": wrong})
    rejects(oracles.check_zcheck, classes, valid, 0, payload)


def test_zcheck_check_rejects_a_partition_reported_invalid(zcheck):
    classes, valid, text = zcheck.cases[0]
    assert valid
    code, out = workloads.run_cli(["zcheck", text, "--json"])
    payload = json.loads(out)
    oracles.check_zcheck(classes, valid, code, payload)
    rejects(oracles.check_zcheck, classes, valid, 1,
            {"valid": False, "witness": 0})
    wrong = {**payload, "checks": {**payload["checks"], "o_max_repeats": False}}
    rejects(oracles.check_zcheck, classes, valid, code, wrong)


def test_class_sizes_sum_to_the_group_order():
    for d in range(1, 8):
        sizes = oracles.class_sizes(d)
        assert sum(sizes.values()) == oracles.closure_order(
            [tuple([1, 0] + list(range(2, d))) if d > 1 else (0,),
             tuple((v + 1) % d for v in range(d))])
    assert oracles.class_sizes(4) == {
        "1+1+1+1": 1, "1+1+2": 6, "2+2": 3, "1+3": 8, "4": 6}


# -- the result format ----------------------------------------------------------

def test_benchmark_json_names_what_the_benchmark_reports():
    bench = bench_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES + run.BY_HAND)
    assert [m["name"] for m in bench["per_layer"]] == (
        list(tracer.PER_LAYER) + ["trace.overhead_s"])
    fake = {"latencies": [[0.001], [0.002]]}
    reported = run.end_to_end(0.5, fake)
    assert [m["name"] for m in bench["end_to_end"]] == list(reported)
    for m in bench["end_to_end"]:
        assert reported[m["name"]][1] == m["unit"]


def gauge_at(speed: float):
    """A gauge that reads a machine `speed` times as fast as the reference."""
    gauge = run.Gauge()
    gauge.readings = [run.REFERENCE_S / speed]
    return gauge


def test_each_operation_counts_by_its_median():
    fake = {"latencies": [[0.001] * 9 + [0.05], [0.004, 0.002, 0.002], [0.003] * 10]}
    reported = run.end_to_end(0.5, fake)
    assert reported["run_s"][0] == pytest.approx(0.006)
    assert reported["op_p50_ms"][0] == pytest.approx(2.0)
    assert 2.0 < reported["op_p95_ms"][0] <= 3.0


def test_times_are_scaled_by_the_latest_gauge_reading():
    # The same work on a machine half as fast takes twice the seconds on
    # the clock and the same reference seconds.
    gauge = gauge_at(0.5)
    assert gauge.scaled(0.004) == pytest.approx(0.002)
    gauge.readings.append(run.REFERENCE_S / 2)
    assert gauge.scaled(0.001) == pytest.approx(0.002)
    assert gauge.scaled(0.0025, -2) == pytest.approx(0.002)
    gauge.read()
    assert len(gauge.readings) == 3 and gauge.readings[-1] > 0


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES + run.BY_HAND)
def test_short_run_has_no_failed_operation(workload):
    result = result_of(run_bench(workload, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["word-orbits", "zcheck-periods"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run_bench(workload, trace=1)) for _ in range(2))
    names = [m["name"] for m in bench_json()["per_layer"]]
    assert list(first["metrics"]) == names
    assert first["failed"] == 0
    counts = [n for n in names if first["metrics"][n]["unit"] == "count"]
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run_bench("zcheck-periods", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
