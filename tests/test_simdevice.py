import copy
import math
import pickle
import random
import statistics
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from conftest import expand_cells, small_challenge
from hammerprint.challenge import PatternKind, default_challenge, victim_rows
from hammerprint.fingerprint import FlipLocation, encode_fingerprint, union_of
from hammerprint.geometry import (
    AddressMapping,
    DramGeometry,
    GeometryError,
    MappingError,
    phys_to_dram,
)
from hammerprint.simdevice import (
    BASE_LATENCY,
    SUPPORT_BLOCK,
    DeviceError,
    NoiseConfig,
    SimDevice,
    TrrConfig,
    access_time,
    deterministic_noise,
    encode_device,
    hammer,
    make_timing_oracle,
    new_sim_device,
    parse_device,
    run_query,
    trr_neutralizes,
)


def window_support(dev: SimDevice, ch) -> set[FlipLocation]:
    """Latent susceptible cells inside the challenge's victim window."""
    out = set()
    for bank in ch.bank_range:
        for row in victim_rows(ch.pattern):
            for location, _, _ in expand_cells(dev, bank, row):
                out.add(location)
    return out


def eligible_cells(dev: SimDevice, ch) -> set[FlipLocation]:
    """Independent eligibility enumerator: victim row, susceptible, and
    initialized to the charged state of the cell's polarity."""
    out = set()
    for bank in ch.bank_range:
        for row in victim_rows(ch.pattern):
            for location, polarity, _ in expand_cells(dev, bank, row):
                init_bit = (ch.data.victim_value >> location.bit) & 1
                if init_bit == polarity:
                    out.add(location)
    return out


class TestConfigValidation:
    def test_trr_sampler(self):
        with pytest.raises(DeviceError):
            TrrConfig(enabled=True, sampler_size=0)
        TrrConfig(enabled=False, sampler_size=0)

    def test_noise_ranges(self):
        with pytest.raises(DeviceError):
            NoiseConfig(p_flip_given_susceptible=1.5)
        with pytest.raises(DeviceError):
            NoiseConfig(susceptibility_density=-1)
        with pytest.raises(DeviceError):
            NoiseConfig(marginal_activation=-0.1)

    @pytest.mark.parametrize("name", [f.name for f in fields(NoiseConfig)])
    def test_noise_must_be_finite(self, name):
        for bad in (math.nan, math.inf):
            with pytest.raises(DeviceError):
                NoiseConfig(**{name: bad})

    def test_seed_beyond_prf_encoding_is_device_error(self):
        ch = default_challenge()
        for dimm_seed, query_seed in ((2**135, 1), (-2**135 - 1, 1), (1, 10**45)):
            with pytest.raises(DeviceError):
                run_query(new_sim_device(dimm_seed, 2), ch, query_seed)
        assert run_query(new_sim_device(2**135 - 1, -2**135), ch, 2**135 - 1).locations


class TestDeterminism:
    def test_identical_inputs_identical_fingerprints(self):
        ch = default_challenge()
        a = new_sim_device(42, 43)
        b = new_sim_device(42, 43)
        fa = run_query(a, ch, measurement_seed=99)
        fb = run_query(b, ch, measurement_seed=99)
        assert encode_fingerprint(fa) == encode_fingerprint(fb)

    def test_measurement_seed_changes_output(self):
        ch = default_challenge()
        dev = new_sim_device(42, 43)
        assert run_query(dev, ch, 1).locations != run_query(dev, ch, 2).locations

    def test_hammer_per_measurement_determinism(self, toy_device):
        ch = small_challenge()
        assert hammer(toy_device, ch, 5) == hammer(toy_device, ch, 5)

    def test_susceptible_cells_pure(self):
        # a device keeps each row it draws, so compare fresh devices, not one twice
        first = new_sim_device(7, 8).susceptible_cells(0, 2)
        again = new_sim_device(7, 8).susceptible_cells(0, 2)
        assert first == again and first is not again
        assert new_sim_device(7, 9).susceptible_cells(0, 2) != first

    @pytest.mark.parametrize("round_trip", [copy.deepcopy,
                                            lambda dev: pickle.loads(pickle.dumps(dev))])
    def test_warm_device_survives_copy_and_pickle(self, round_trip):
        # a device keeps its rows and cached values after a query; none of
        # them may stop it being copied or pickled
        ch = default_challenge()
        dev = new_sim_device(42, 43)
        run_query(dev, ch, 1)
        twin = round_trip(dev)
        assert twin == dev
        want = encode_fingerprint(run_query(dev, ch, 2))
        assert encode_fingerprint(run_query(twin, ch, 2)) == want


class TestLatentSupport:
    def test_different_hosts_disjoint(self):
        ch = default_challenge()
        rng = random.Random(30)
        for _ in range(5):
            dimm = rng.getrandbits(64)
            a = new_sim_device(dimm, rng.getrandbits(64))
            b = new_sim_device(dimm, rng.getrandbits(64))
            assert window_support(a, ch) & window_support(b, ch) == set()

    def test_different_dimms_disjoint(self):
        ch = default_challenge()
        rng = random.Random(31)
        for _ in range(5):
            host = rng.getrandbits(64)
            a = new_sim_device(rng.getrandbits(64), host)
            b = new_sim_device(rng.getrandbits(64), host)
            assert window_support(a, ch) & window_support(b, ch) == set()

    def test_host_binding_over_random_triples(self):
        # fingerprint supports across hosts never intersect
        ch = default_challenge()
        rng = random.Random(32)
        for _ in range(20):
            dimm = rng.getrandbits(64)
            host_a, host_b = rng.getrandbits(64), rng.getrandbits(64)
            a = new_sim_device(dimm, host_a)
            b = new_sim_device(dimm, host_b)
            assert window_support(a, ch) & window_support(b, ch) == set()

    def test_row_query_bounds(self):
        dev = new_sim_device(1, 2)
        with pytest.raises(GeometryError):
            dev.susceptible_cells(dev.geom.banks, 0)

    def test_every_row_holds_a_whole_support_block(self):
        # a row of one column (8 positions) is narrower than the block, and
        # no device has one: the canonical mapping would give it an empty
        # column range, and a one-bit range does not match its width
        one_column = DramGeometry(banks=4, rows_per_bank=64, columns_per_row=1,
                                  address_bits=20)
        with pytest.raises(MappingError, match="nonempty"):
            new_sim_device(1, 2, geom=one_column)
        explicit = AddressMapping((0b1010, 0b10100), (3, 9), (0, 1))
        with pytest.raises(MappingError, match="column bit range width"):
            new_sim_device(1, 2, geom=one_column, mapping=explicit)
        # two columns are the narrowest row, exactly one block wide
        two_columns = DramGeometry(banks=4, rows_per_bank=64, columns_per_row=2,
                                   address_bits=20)
        dev = new_sim_device(1, 2, geom=two_columns)
        assert dev.geom.columns_per_row * 8 == SUPPORT_BLOCK
        assert dev.support_block_start == 0
        assert {location.column for row in range(64)
                for location, _, _ in expand_cells(dev, 0, row)} == {0, 1}


class TestAccessTime:
    def test_same_address_no_gap(self, toy_device):
        quiet = new_sim_device(1, 2, geom=toy_device.geom, mapping=toy_device.mapping,
                               noise=NoiseConfig(timing_sigma=0.0))
        assert access_time(quiet, 100, 100, 1) == BASE_LATENCY

    def test_conflict_adds_exact_gap_when_noiseless(self, toy_geom, toy_mapping):
        dev = new_sim_device(1, 2, geom=toy_geom, mapping=toy_mapping,
                             noise=NoiseConfig(timing_sigma=0.0))
        rng = random.Random(33)
        seen_conflict = seen_fast = False
        for _ in range(300):
            a, b = rng.randrange(toy_geom.address_space), rng.randrange(toy_geom.address_space)
            da, db = (phys_to_dram(x, toy_mapping, toy_geom) for x in (a, b))
            lat = access_time(dev, a, b, 7)
            if da.bank == db.bank and da.row != db.row:
                assert lat == BASE_LATENCY + dev.noise.timing_conflict_gap
                seen_conflict = True
            else:
                assert lat == BASE_LATENCY
                seen_fast = True
        assert seen_conflict and seen_fast

    def test_population_separation_under_noise(self, toy_geom, toy_mapping):
        # Monte-Carlo: same-bank and cross-bank means separated by >= 0.9 gap
        gap = 100.0
        dev = new_sim_device(3, 4, geom=toy_geom, mapping=toy_mapping,
                             noise=NoiseConfig(timing_conflict_gap=gap,
                                               timing_sigma=gap / 10))
        rng = random.Random(34)
        conflict, fast = [], []
        for i in range(10_000):
            a, b = rng.randrange(toy_geom.address_space), rng.randrange(toy_geom.address_space)
            da, db = (phys_to_dram(x, toy_mapping, toy_geom) for x in (a, b))
            lat = access_time(dev, a, b, i)
            if da.bank == db.bank and da.row != db.row:
                conflict.append(lat)
            else:
                fast.append(lat)
        assert statistics.fmean(conflict) - statistics.fmean(fast) >= 0.9 * gap

    def test_deterministic_given_seed(self, toy_device):
        assert access_time(toy_device, 5, 9, 42) == access_time(toy_device, 5, 9, 42)

    def test_address_validation(self, toy_device):
        with pytest.raises(GeometryError):
            access_time(toy_device, toy_device.geom.address_space, 0, 1)

    # (geometry, a, b, rng_seed, latency repr): a conflict pair (same bank,
    # rows 0 and 1) and a non-conflict pair on the default and the 64-bank
    # geometry; recovery only thresholds latencies, so nothing else sees
    # the noise stream float for float
    PINNED = (
        (None, 0x1234, 0x1101234, 3, "185.3254138331599"),
        (None, 0x1234, 0x1101234, 4, "201.35807861477505"),
        (None, 0x1234, 0x5678, 3, "105.48843896772473"),
        (None, 0x1234, 0x5678, 4, "106.58141136207973"),
        (64, 0x2345, 0x12745, 3, "210.0816955780078"),
        (64, 0x2345, 0x12745, 4, "179.12129928752907"),
        (64, 0x2345, 0x2355, 3, "112.158170343183"),
        (64, 0x2345, 0x2355, 4, "97.5013938374367"),
    )

    @pytest.mark.parametrize("banks, a, b, rng_seed, want", PINNED)
    def test_noise_draws_are_pinned(self, banks, a, b, rng_seed, want):
        if banks is None:
            dev = new_sim_device(1, 2)
        else:
            geom = DramGeometry(banks=banks, rows_per_bank=1024, columns_per_row=1024,
                                address_bits=26)
            dev = new_sim_device(5, 6, geom=geom)
        assert repr(access_time(dev, a, b, rng_seed)) == want

    def test_a_value_too_wide_for_the_prf_is_named(self):
        wide = DramGeometry(banks=16, rows_per_bank=4096, columns_per_row=2**20,
                            address_bits=200)
        dev = new_sim_device(1, 2, geom=wide)
        assert access_time(dev, 2**135 - 1, 5, 7) > 0  # 135 bits still fit
        with pytest.raises(DeviceError, match="^probe address of 136 bits "
                                              r"\(address_bits=200\) does not fit"):
            access_time(dev, 5, 2**135, 7)
        with pytest.raises(DeviceError, match="^seed does not fit"):
            access_time(dev, 2**135 - 1, 6, 2**135)


# Every draw is a threshold on stream words, so a wrong threshold, bit or
# word shows as a rate off its model value. Each rate is taken over at
# least 20,000 trials at fixed seeds and must lie within 5 binomial
# standard deviations.
def assert_rate(hits: int, trials: int, p: float) -> None:
    assert trials >= 20_000
    assert abs(hits - trials * p) <= 5 * math.sqrt(trials * p * (1 - p)), (hits, trials, p)


def test_row_draw_rates_match_the_model():
    dev = new_sim_device(71, 72)
    rows = [(bank, row) for bank in range(5) for row in range(4096)]
    n_cells = n_true = n_marginal = 0
    for bank, row in rows:
        # not kept, unlike susceptible_cells
        for _, polarity, marginal in expand_cells(dev, bank, row, dev._draw_cells(bank, row)):
            n_cells += 1
            n_true += polarity
            n_marginal += marginal
    assert_rate(n_cells, len(rows) * SUPPORT_BLOCK,
                dev.noise.susceptibility_density * dev.density_factor / SUPPORT_BLOCK)
    assert_rate(n_true, n_cells, 0.5)
    assert_rate(n_marginal, n_cells, dev.noise.marginal_fraction)


def test_activation_and_flip_rates_match_the_model():
    ch = default_challenge()
    # with p_flip = 1 a marginal eligible cell flips in a measurement
    # exactly when it is active in the query
    dev = new_sim_device(73, 74, noise=NoiseConfig(p_flip_given_susceptible=1.0))
    marginal = eligible_cells(dev, ch) & {
        location for bank in ch.bank_range for row in victim_rows(ch.pattern)
        for location, _, is_marginal in expand_cells(dev, bank, row) if is_marginal}
    seeds = range(-(-20_000 // len(marginal)))
    active = sum(len(marginal & run_query(dev, ch.with_measurements(1), s).locations)
                 for s in seeds)
    assert_rate(active, len(marginal) * len(seeds), dev.noise.marginal_activation)

    # with no marginal cells every eligible cell is active in every query
    dev = new_sim_device(75, 76, noise=NoiseConfig(marginal_fraction=0.0))
    n_eligible = len(eligible_cells(dev, ch))
    seeds = range(-(-20_000 // (n_eligible * ch.measurements)))
    flips = sum(len(flips) for s in seeds for flips in hammer(dev, ch, s))
    assert_rate(flips, n_eligible * ch.measurements * len(seeds),
                dev.noise.p_flip_given_susceptible)


def test_timing_noise_has_mean_zero_and_spread_sigma():
    dev = new_sim_device(77, 78)
    quiet = new_sim_device(77, 78, noise=NoiseConfig(timing_sigma=0.0))
    rng = random.Random(79)
    n, space, sigma = 20_000, dev.geom.address_space, dev.noise.timing_sigma
    residuals = []
    for i in range(n):
        a, b = rng.randrange(space), rng.randrange(space)
        residuals.append(access_time(dev, a, b, i) - access_time(quiet, a, b, i))
    # 5 standard errors of the mean and of the standard deviation
    assert abs(statistics.fmean(residuals)) <= 5 * sigma / math.sqrt(n)
    assert abs(statistics.pstdev(residuals) - sigma) <= 5 * sigma / math.sqrt(2 * n)


def outcome(call):
    """A call's value, or its exception's class and message."""
    try:
        return call()
    except Exception as e:
        return type(e), str(e)


BATCH_GEOMS = (
    None,  # the default geometry
    DramGeometry(banks=64, rows_per_bank=1024, columns_per_row=1024, address_bits=26),
    DramGeometry(banks=16, rows_per_bank=4096, columns_per_row=2**20, address_bits=200),
)


def assert_batch_matches_pairs(dev, base, partners, rng_seed):
    batch = outcome(lambda: make_timing_oracle(dev, rng_seed).latencies(base, partners))
    pairs = outcome(lambda: [access_time(dev, base, p, rng_seed) for p in partners])
    assert batch == pairs  # float for float: == on floats is exact
    return batch


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batch_latencies_equal_the_pairs(data):
    # the third geometry's 200-bit space holds addresses too wide for the PRF
    dev = new_sim_device(data.draw(st.integers(0, 2**64)), data.draw(st.integers(0, 2**64)),
                         geom=data.draw(st.sampled_from(BATCH_GEOMS)),
                         noise=NoiseConfig(timing_sigma=data.draw(st.sampled_from([0.0, 10.0]))))
    space = dev.geom.address_space
    address = st.one_of(st.integers(0, min(space, 2**135) - 1), st.integers(0, space - 1),
                        st.sampled_from([-1, space]))
    base = data.draw(address)
    near = st.builds(lambda m: base ^ m, st.integers(0, 2**12))  # same row, most often
    partners = data.draw(st.lists(st.one_of(address, near, st.just(base)), min_size=1,
                                  max_size=12))
    rng_seed = data.draw(st.one_of(st.integers(-2**32, 2**32),
                                   st.sampled_from([2**135, -2**135 - 1])))  # too wide
    assert_batch_matches_pairs(dev, base, partners, rng_seed)


@pytest.mark.parametrize("geom, base, partners, rng_seed, error, message", [
    pytest.param(None, 5, [7, 2**36, 2**40], 3, GeometryError,
                 "address 0x1000000000 outside 36-bit space", id="partner-out-of-range"),
    pytest.param(BATCH_GEOMS[2], 5, [7, 2**135, 2**136], 3, DeviceError,
                 "probe address of 136 bits", id="wide-partner"),
    pytest.param(BATCH_GEOMS[2], 2**140, [7], 3, DeviceError,
                 "probe address of 141 bits", id="wide-base"),
    pytest.param(None, 5, [7, 9], 2**135, DeviceError,
                 "seed does not fit", id="wide-seed"),
])
def test_batch_raises_what_the_first_failing_pair_raises(geom, base, partners, rng_seed,
                                                         error, message):
    dev = new_sim_device(1, 2, geom=geom)
    got = assert_batch_matches_pairs(dev, base, partners, rng_seed)
    assert got[0] is error and got[1].startswith(message)

class TestTrr:
    def test_uniform_double_sided_suppressed(self):
        dev = new_sim_device(50, 51, trr=TrrConfig(enabled=True, sampler_size=16))
        ch = small_challenge(PatternKind.DOUBLE_SIDED, 2, banks=(0,), measurements=4)
        assert hammer(dev, ch, 1) == [set()] * 4

    def test_uniform_patterns_within_sampler_all_suppressed(self):
        dev = new_sim_device(52, 53, trr=TrrConfig(enabled=True, sampler_size=16))
        cases = [
            small_challenge(PatternKind.ONE_LOCATION, 1),
            small_challenge(PatternKind.SINGLE_SIDED, 2),
            small_challenge(PatternKind.DOUBLE_SIDED, 2),
            small_challenge(PatternKind.N_SIDED, 16),
        ]
        rng = random.Random(35)
        for ch in cases:
            assert trr_neutralizes(dev, ch)
            for _ in range(100):
                assert all(not s for s in hammer(dev, ch, rng.getrandbits(32)))

    def test_wide_pattern_pierces_sampler(self):
        dev = new_sim_device(54, 55, noise=deterministic_noise())
        ch = default_challenge()  # 22 aggressors > 16-slot sampler
        assert not trr_neutralizes(dev, ch)
        flips = hammer(dev, ch, 3)
        assert all(len(s) > 0 for s in flips)

    def test_non_uniform_pierces_sampler(self):
        dev = new_sim_device(56, 57, noise=deterministic_noise())
        ch = small_challenge(PatternKind.NON_UNIFORM, 4, measurements=2)
        assert not trr_neutralizes(dev, ch)
        assert all(len(s) > 0 for s in hammer(dev, ch, 4))

    def test_disabled_trr_lets_double_sided_flip(self):
        dev = new_sim_device(58, 59, trr=TrrConfig(enabled=False),
                             noise=deterministic_noise())
        ch = small_challenge(PatternKind.DOUBLE_SIDED, 2, measurements=1)
        assert len(hammer(dev, ch, 5)[0]) > 0


class TestHammerSemantics:
    def test_deterministic_flips_equal_eligibility_oracle(self):
        dev = new_sim_device(60, 61, noise=deterministic_noise())
        ch = default_challenge()
        expected = eligible_cells(dev, ch)
        for flips in hammer(dev, ch, 6):
            assert flips == expected

    def test_flips_subset_of_latent_support(self):
        dev = new_sim_device(62, 63)
        ch = default_challenge()
        support = window_support(dev, ch)
        for flips in hammer(dev, ch, 7):
            assert flips <= support

    def test_pattern_compatibility_with_polarity(self):
        # victim init 0x55: true cells flip only at odd bits' complement
        dev = new_sim_device(64, 65)
        ch = default_challenge()
        polarity = {}
        for bank in ch.bank_range:
            for row in victim_rows(ch.pattern):
                for location, cell_polarity, _ in expand_cells(dev, bank, row):
                    polarity[location] = cell_polarity
        for flips in hammer(dev, ch, 8):
            for f in flips:
                init_bit = (0x55 >> f.bit) & 1
                assert polarity[f] == init_bit

    def test_aggressor_rows_never_flip(self):
        dev = new_sim_device(66, 67, noise=deterministic_noise())
        ch = default_challenge()
        aggressors = set(ch.pattern.aggressor_offsets)
        for flips in hammer(dev, ch, 9):
            assert all(f.row not in aggressors for f in flips)

    def test_challenge_geometry_mismatch(self, toy_device):
        from hammerprint.challenge import ChallengeError
        ch = small_challenge(PatternKind.N_SIDED, 200)  # rows exceed toy geometry
        with pytest.raises(ChallengeError):
            hammer(toy_device, ch, 1)

    def test_query_union_strictly_contains_each_measurement(self):
        dev = new_sim_device(68, 69)
        ch = default_challenge()
        sets = hammer(dev, ch, 10)
        union = set().union(*sets)
        for s in sets:
            assert s < union  # strict: every measurement misses something

    def test_three_query_union_at_least_max(self):
        dev = new_sim_device(70, 71)
        ch = default_challenge()
        queries = [run_query(dev, ch, s) for s in (1, 2, 3)]
        u = union_of(queries)
        assert len(u.locations) >= max(len(q.locations) for q in queries)


class TestCalibration:
    def test_flip_count_in_shipped_band(self):
        rng = random.Random(36)
        ch = default_challenge()
        for _ in range(5):
            dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
            n = len(run_query(dev, ch, rng.getrandbits(32)).locations)
            assert 50 <= n <= 2500

    def test_host_seed_changes_flip_count_scale(self):
        ch = default_challenge()
        counts = set()
        for host in (1, 2, 3):
            dev = new_sim_device(999, host)
            counts.add(len(run_query(dev, ch, 1).locations))
        assert len(counts) == 3


class TestDeviceProfile:
    def test_roundtrip(self):
        dev = new_sim_device(0x1234, 0x5678)
        assert parse_device(encode_device(dev)) == dev

    def test_roundtrip_custom(self, toy_geom, toy_mapping):
        dev = new_sim_device(
            1, 2, geom=toy_geom, mapping=toy_mapping,
            trr=TrrConfig(enabled=False, sampler_size=4),
            noise=NoiseConfig(p_flip_given_susceptible=1.0, susceptibility_density=3.5,
                              timing_conflict_gap=55.0, timing_sigma=0.5,
                              marginal_fraction=0.0, marginal_activation=1.0),
        )
        assert parse_device(encode_device(dev)) == dev

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(DeviceError):
            parse_device("dimm_seed=0x1\n")
        good = encode_device(new_sim_device(1, 2))
        for bad_value in ("bankfn=zz\n", "row=1\n", "banks=3\n"):
            with pytest.raises(DeviceError):
                parse_device(good + bad_value)


@pytest.mark.parametrize("field", ["timing_sigma", "timing_conflict_gap"])
def test_negative_timing_parameter_is_refused(field):
    with pytest.raises(DeviceError, match="timing parameters must be >= 0"):
        NoiseConfig(**{field: -1.0})
