import random

import pytest

from hammerprint.challenge import (
    ChallengeError,
    DataPattern,
    DramChallenge,
    HammerPattern,
    PatternKind,
    build_pattern,
    challenge_hash,
    default_challenge,
    encode_challenge,
    parse_challenge,
    victim_rows,
)


class TestDefaultChallenge:
    def test_reference_parameters(self):
        ch = default_challenge()
        assert ch.bank_range == (0, 1, 2, 3, 4)
        assert len(ch.pattern.aggressor_offsets) == 22
        assert ch.measurements == 10
        assert ch.banks_measured == 5
        assert ch.first_aggressor_offset == 1
        assert ch.data == DataPattern(0x55, 0xAA)

    def test_hash_is_stable(self):
        assert challenge_hash(default_challenge()) == challenge_hash(default_challenge())


class TestBuildPattern:
    def test_double_sided_layout(self):
        p = build_pattern(PatternKind.DOUBLE_SIDED, 2, 1)
        assert p.aggressor_offsets == (1, 3)
        assert victim_rows(p) == [0, 2, 4]

    def test_n_sided_enumeration(self):
        p = build_pattern(PatternKind.N_SIDED, 22, 1)
        # independent arithmetic enumeration of the alternating layout
        expected_aggs = tuple(1 + 2 * i for i in range(22))
        assert p.aggressor_offsets == expected_aggs
        expected_victims = sorted(
            {a + d for a in expected_aggs for d in (-1, 1)} - set(expected_aggs)
        )
        assert victim_rows(p) == expected_victims
        assert victim_rows(p) == list(range(0, 45, 2))

    def test_kind_count_mismatch(self):
        with pytest.raises(ChallengeError):
            build_pattern(PatternKind.ONE_LOCATION, 2, 1)
        with pytest.raises(ChallengeError):
            build_pattern(PatternKind.N_SIDED, 2, 1)
        for n in (1, 3):
            with pytest.raises(ChallengeError, match="single-sided pattern takes exactly 2"):
                build_pattern(PatternKind.SINGLE_SIDED, n, 1)

    def test_non_uniform_is_deterministic(self):
        a = build_pattern(PatternKind.NON_UNIFORM, 6, 1, rng_seed=42)
        b = build_pattern(PatternKind.NON_UNIFORM, 6, 1, rng_seed=42)
        c = build_pattern(PatternKind.NON_UNIFORM, 6, 1, rng_seed=43)
        assert a == b
        assert a.temporal != c.temporal
        assert not a.uniform

    def test_single_sided_has_no_shared_victim(self):
        p = build_pattern(PatternKind.SINGLE_SIDED, 2, 3)
        assert p.aggressor_offsets == (3, 7)
        assert len(victim_rows(p)) == 4


class TestVictimRows:
    def test_one_location(self):
        p = build_pattern(PatternKind.ONE_LOCATION, 1, 5)
        assert victim_rows(p) == [4, 6]

    def test_edge_row_clipped(self):
        p = build_pattern(PatternKind.ONE_LOCATION, 1, 0)
        assert victim_rows(p) == [1]

    def test_disjoint_from_aggressors(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(3, 24)
            p = build_pattern(PatternKind.N_SIDED, n, rng.randint(0, 10))
            assert set(victim_rows(p)) & set(p.aggressor_offsets) == set()

    def test_n_sided_count_law(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(3, 24)
            p = build_pattern(PatternKind.N_SIDED, n, rng.randint(1, 10))
            assert len(victim_rows(p)) == n + 1


class TestPatternInvariants:
    def test_double_sided_distance(self):
        with pytest.raises(ChallengeError):
            HammerPattern(PatternKind.DOUBLE_SIDED, (1, 4))

    def test_non_uniform_needs_temporal(self):
        with pytest.raises(ChallengeError):
            HammerPattern(PatternKind.NON_UNIFORM, (1, 3))
        for short in ((1.0, 0.5),), ((1.0, 0.5, 1.0, 0.0),):
            with pytest.raises(ChallengeError):
                HammerPattern(PatternKind.NON_UNIFORM, (1,), short)

    def test_uniform_rejects_temporal(self):
        with pytest.raises(ChallengeError):
            HammerPattern(PatternKind.DOUBLE_SIDED, (1, 3), ((1.0, 0.0, 1.0),) * 2)

    def test_duplicate_aggressors(self):
        with pytest.raises(ChallengeError):
            HammerPattern(PatternKind.SINGLE_SIDED, (2, 2))


class TestChallengeValidation:
    def test_banks_measured_must_match(self):
        p = build_pattern(PatternKind.DOUBLE_SIDED, 2, 1)
        with pytest.raises(ChallengeError):
            DramChallenge((0, 1), 1, p, DataPattern(), banks_measured=3, measurements=1)

    def test_measurements_positive(self):
        p = build_pattern(PatternKind.DOUBLE_SIDED, 2, 1)
        with pytest.raises(ChallengeError):
            DramChallenge((0,), 1, p, DataPattern(), banks_measured=1, measurements=0)

    def test_validate_for_geometry(self, toy_geom):
        ch = default_challenge()
        ch.validate_for(toy_geom)
        tall = build_pattern(PatternKind.N_SIDED, 200, 1)
        bad = DramChallenge((0,), 1, tall, DataPattern(), 1, 1)
        with pytest.raises(ChallengeError):
            bad.validate_for(toy_geom)
        wrong_bank = DramChallenge((toy_geom.banks,), 1,
                                   build_pattern(PatternKind.DOUBLE_SIDED, 2, 1),
                                   DataPattern(), 1, 1)
        with pytest.raises(ChallengeError):
            wrong_bank.validate_for(toy_geom)


class TestSerialization:
    def test_roundtrip_default(self):
        ch = default_challenge()
        assert parse_challenge(encode_challenge(ch)) == ch

    def test_roundtrip_non_uniform(self):
        p = build_pattern(PatternKind.NON_UNIFORM, 4, 1, rng_seed=9)
        ch = DramChallenge((0, 2), 1, p, DataPattern(0xFF, 0x00), 2, 5)
        assert parse_challenge(encode_challenge(ch)) == ch

    def test_hash_binds_content(self):
        ch = default_challenge()
        assert challenge_hash(ch) != challenge_hash(ch.with_measurements(2))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ChallengeError):
            parse_challenge("pattern 22\n")
        with pytest.raises(ChallengeError):
            parse_challenge("bank_range=0\n")
        for bad_value in ("temporal=1,2\n", "bank_range=x\n"):
            with pytest.raises(ChallengeError):
                parse_challenge(encode_challenge(default_challenge()) + bad_value)
