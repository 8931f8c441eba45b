"""Residue-class partitions of the integers and their structural checks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from helpers import erdos_checks_by_pairs, validate_z_by_scan, z_cover_scan
from hsforge.sampling import random_split_chain
from hsforge.zcover import (
    CountViolation,
    InvalidPartition,
    SpacingViolation,
    ZClass,
    ZPartition,
    colored_loop_partition,
    erdos_checks,
    format_zpartition,
    parse_zpartition,
    smallest_prime_factor,
    split_class,
    validate_z,
    zpartition,
)


def test_zclass_validation():
    assert str(ZClass(4, 3)) == "4:3"
    with pytest.raises(InvalidPartition):
        ZClass(0, 0)
    with pytest.raises(InvalidPartition):
        ZClass(4, 4)
    with pytest.raises(InvalidPartition):
        ZClass(4, -1)
    with pytest.raises(InvalidPartition):
        ZPartition(())


def test_zpartition_normalizes_residues():
    z = zpartition([(4, 7), (2, -1)])
    assert {(c.modulus, c.residue) for c in z.classes} == {(4, 3), (2, 1)}
    assert z.period == 4


def test_validate_z_examples():
    assert validate_z(parse_zpartition("2:0,4:1,4:3")).valid
    check = validate_z(parse_zpartition("2:0,4:1"))
    assert not check.valid
    assert check.witness == 3  # 3 is in neither class
    check = validate_z(parse_zpartition("2:0,2:0"))
    assert not check.witness  # 0 is covered twice
    assert not check.valid
    assert validate_z(zpartition([(1, 0)])).valid


def test_validate_z_matches_period_scan():
    # the exact test and the witness search against a scan of the whole
    # period: split chains, the same with one residue moved, the classes of
    # the two zcheck goldens, and 17 classes whose first gap is 2**17 - 1
    rng = random.Random(12)
    systems = [parse_zpartition("2:0,4:1,4:3"), parse_zpartition("2:0,3:1"),
               zpartition([(2**i, 2**(i - 1) - 1) for i in range(1, 18)])]
    for _ in range(150):
        z = random_split_chain(rng, max_period=5000)
        systems.append(z)
        which = rng.randrange(len(z.classes))
        o, r = z.classes[which].modulus, z.classes[which].residue
        moved = zpartition([(o, r + rng.randrange(1, o))] if o > 1 else [(2, 1)])
        systems.append(ZPartition(
            z.classes[:which] + moved.classes + z.classes[which + 1:]))
    for z in systems:
        assert validate_z(z) == validate_z_by_scan(z)
    assert sum(validate_z(z).valid for z in systems) == 151
    assert validate_z(systems[2]).witness == 2**17 - 1


def _outcome(check, z):
    """A structural check's fields, or the witness and message it raised."""
    try:
        return check(z)
    except InvalidPartition as err:
        return err.witness, str(err)


def test_grouped_checks_match_pairwise_oracles():
    # split chains as drawn, with one residue moved, one class duplicated,
    # one class dropped and one foreign class added, each shuffled: repeated
    # moduli and several meeting pairs are common
    rng = random.Random(18)
    systems = []
    for _ in range(300):
        classes = list(random_split_chain(rng, max_period=5000).classes)
        which = rng.randrange(len(classes))
        o, r = classes[which].modulus, classes[which].residue
        o2 = rng.randint(1, 12)
        variants = [
            classes,
            classes[:which] + [ZClass(o, (r + rng.randrange(1, o)) % o)]
            + classes[which + 1:],
            classes + [classes[which]],
            classes[:which] + classes[which + 1:],
            classes + [ZClass(o2, rng.randrange(o2))],
        ]
        for variant in variants:
            if variant:
                rng.shuffle(variant)
                systems.append(ZPartition(tuple(variant)))
    for z in systems:
        assert validate_z(z) == validate_z_by_scan(z)
        assert _outcome(erdos_checks, z) == _outcome(erdos_checks_by_pairs, z)
    assert sum(validate_z(z).valid for z in systems) == 300


def test_validate_z_past_any_period_scan():
    # periods far too long to scan: the witness is the first meeting point
    # or a gap below 2**t
    big = 10**18
    assert validate_z(parse_zpartition("99999999999999:0")).witness == 1
    assert validate_z(parse_zpartition(f"1:0,{big}:{big - 1}")).witness == big - 1
    assert validate_z(parse_zpartition(f"2:0,2:1,{big}:{big - 3}")).witness == big - 3
    assert validate_z(parse_zpartition(f"{big}:0,{big}:1,2:1")).witness == 1
    # t classes 2:0,4:1,...,2**t:2**(t-1)-1 whose first gap is 2**t - 1
    for t in (4, 40, 60):
        chain = ",".join(f"{2 ** k}:{2 ** (k - 1) - 1}" for k in range(1, t + 1))
        assert chain.startswith("2:0,4:1,8:3,16:7")
        assert validate_z(parse_zpartition(chain)).witness == 2 ** t - 1
    assert validate_z(parse_zpartition(f"2:0,2:1,{big}:5,{big}:5")).witness == 5


def test_smallest_prime_factor():
    assert smallest_prime_factor(2) == 2
    assert smallest_prime_factor(9) == 3
    assert smallest_prime_factor(35) == 5
    assert smallest_prime_factor(49) == 7
    assert smallest_prime_factor(97) == 97


def test_erdos_checks_on_period_four_cover():
    report = erdos_checks(parse_zpartition("2:0,4:1,4:3"))
    assert report.o_max == 4
    assert report.smallest_prime == 2
    assert report.o_max_count == 2
    assert report.not_pairwise_coprime
    assert report.o_max_repeats
    assert report.every_modulus_divides_another
    assert report.non_divisors_repeat
    assert report.all_hold


def test_erdos_checks_trivial_and_rejects():
    singleton = erdos_checks(zpartition([(1, 0)]))
    assert singleton.all_hold
    for text, witness in (("2:0,4:1", 3),   # not a partition
                          ("2:0,2:0", 0)):  # double cover
        with pytest.raises(InvalidPartition) as err:
            erdos_checks(parse_zpartition(text))
        assert err.value.witness == witness == validate_z(parse_zpartition(text)).witness
    # modulus 1 beside other classes is rejected by validation: Z meets them
    for text, witness in (("1:0,2:1", 1), ("1:0,3:0", 0)):
        with pytest.raises(InvalidPartition) as err:
            erdos_checks(parse_zpartition(text))
        assert err.value.witness == witness


def test_split_class():
    z = zpartition([(1, 0)])
    halves = split_class(z, 0, 2)
    assert format_zpartition(halves) == "2:0,2:1"
    again = split_class(halves, 0, 2)
    assert sorted((c.modulus, c.residue) for c in again.classes) == [
        (2, 1), (4, 0), (4, 2)]
    assert validate_z(again).valid
    with pytest.raises(ValueError):
        split_class(z, 0, 1)
    with pytest.raises(ValueError):
        split_class(z, 5, 2)


def test_colored_loop_partition_roundtrip_example():
    z = colored_loop_partition(4, (0, 2, 0, 1), {0: 2, 1: 4, 2: 4})
    assert format_zpartition(z) == "2:0,4:1,4:3"
    z = colored_loop_partition(4, (1, 0, 2, 0), {0: 2, 1: 4, 2: 4})
    assert format_zpartition(z) == "4:0,2:1,4:2"


def test_colored_loop_partition_violations():
    # color 1 should appear 4/2 = 2 times but appears once
    with pytest.raises(CountViolation):
        colored_loop_partition(4, (0, 2, 0, 1), {0: 2, 1: 2, 2: 4})
    # color 0 appears the right number of times but at gap 1
    with pytest.raises(SpacingViolation):
        colored_loop_partition(4, (0, 0, 1, 2), {0: 2, 1: 4, 2: 4})


def test_render_then_rebuild_is_identity():
    rng = random.Random(7)
    for _ in range(50):
        z = random_split_chain(rng, max_period=200)
        length = z.period
        colors = []
        for t in range(length):
            hits = [i for i, c in enumerate(z.classes)
                    if t % c.modulus == c.residue]
            assert len(hits) == 1
            colors.append(hits[0])
        moduli = {i: c.modulus for i, c in enumerate(z.classes)}
        rebuilt = colored_loop_partition(length, tuple(colors), moduli)
        assert sorted((c.modulus, c.residue) for c in rebuilt.classes) == \
            sorted((c.modulus, c.residue) for c in z.classes)


def test_parse_format_round_trip():
    for text in ("2:0,4:1,4:3", "1:0", "6:5,6:1,3:0,6:3,6:... "):
        if "..." in text:
            with pytest.raises(InvalidPartition):
                parse_zpartition(text)
            continue
        assert format_zpartition(parse_zpartition(text)) == text
    assert parse_zpartition(" 2:0 , 4:1 ,4:3") == parse_zpartition("2:0,4:1,4:3")
    with pytest.raises(InvalidPartition):
        parse_zpartition("")
    with pytest.raises(InvalidPartition):
        parse_zpartition("2")


@given(st.lists(
    st.tuples(st.integers(1, 12), st.integers(0, 11)), min_size=1, max_size=12))
def test_validate_agrees_with_direct_scan(pairs):
    z = zpartition(pairs)
    check = validate_z(z)
    scanned = z_cover_scan(z, 2 * z.period)
    assert check.valid == (scanned is None)
    if not check.valid:
        assert z_cover_scan(z, check.witness + 1) == check.witness


def test_split_chains_always_validate_and_pass_checks():
    rng = random.Random(11)
    for _ in range(60):
        z = random_split_chain(rng, max_period=5000)
        assert validate_z(z).valid
        assert erdos_checks(z).all_hold
