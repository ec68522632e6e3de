import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from criteria import random_mapping
from hammerprint import gf2
from hammerprint.geometry import (
    AddressMapping,
    DramAddress,
    DramGeometry,
    GeometryError,
    MappingError,
    ProbeConfig,
    RecoveryError,
    canonical_mapping,
    encode_mapping,
    parse_mapping,
    phys_to_dram,
    recover_bank_functions,
    timing_threshold,
)
from hammerprint.simdevice import NoiseConfig, make_timing_oracle, new_sim_device


def naive_parity(addr: int, mask: int) -> int:
    """Independent bit-by-bit parity oracle."""
    p = 0
    for i in range(addr.bit_length() | mask.bit_length() | 1):
        if (mask >> i) & 1:
            p ^= (addr >> i) & 1
    return p


class TestGeometryValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(GeometryError):
            DramGeometry(banks=3, rows_per_bank=4, columns_per_row=4, address_bits=10)

    def test_rejects_short_address(self):
        with pytest.raises(GeometryError):
            DramGeometry(banks=4, rows_per_bank=256, columns_per_row=256, address_bits=10)

    def test_bit_widths(self, toy_geom):
        assert toy_geom.bank_bits == 3
        assert toy_geom.row_bits == 8
        assert toy_geom.column_bits == 8

    def test_hash_repr_and_pickle_are_those_of_the_fields(self, toy_geom):
        state = {"banks": 8, "rows_per_bank": 256, "columns_per_row": 256, "address_bits": 20}
        assert hash(toy_geom) == hash(tuple(state.values()))
        assert repr(toy_geom) == "DramGeometry(%s)" % ", ".join(f"{k}={v}" for k, v in state.items())
        assert toy_geom.__reduce_ex__(4)[2] == state  # what pickle writes: the fields alone
        for remake in (copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))):
            got = remake(toy_geom)
            assert got == toy_geom and hash(got) == hash(toy_geom)
        assert toy_geom != DramGeometry(8, 256, 256, 21)

    def test_loading_a_pickle_runs_the_checks(self):
        forged = object.__new__(DramGeometry)
        for name, value in (("banks", 3), ("rows_per_bank", 4), ("columns_per_row", 4),
                            ("address_bits", 10)):
            object.__setattr__(forged, name, value)
        with pytest.raises(GeometryError):
            pickle.loads(pickle.dumps(forged))


class TestMappingValidation:
    def test_rejects_dependent_functions(self):
        with pytest.raises(MappingError):
            AddressMapping((0b11, 0b101, 0b110), (8, 12), (0, 4))

    def test_rejects_overlapping_ranges(self):
        with pytest.raises(MappingError):
            AddressMapping((1 << 6,), (4, 10), (0, 5))

    def test_size_consistency_enforced(self, toy_geom):
        bad = AddressMapping((1 << 8,), (9, 17), (0, 8))  # one function, 8 banks
        with pytest.raises(MappingError):
            phys_to_dram(0, bad, toy_geom)


class TestPhysToDram:
    def test_zero_address(self, toy_geom, toy_mapping):
        assert phys_to_dram(0, toy_mapping, toy_geom) == DramAddress(0, 0, 0)

    def test_xor_of_equal_bits_cancels(self):
        geom = DramGeometry(banks=2, rows_per_bank=2 ** 10, columns_per_row=2 ** 12,
                            address_bits=24)
        mapping = AddressMapping(((1 << 13) | (1 << 17),), (13, 23), (0, 12))
        addr = (1 << 13) | (1 << 17)
        assert phys_to_dram(addr, mapping, geom).bank == 0

    def test_out_of_range(self, toy_geom, toy_mapping):
        with pytest.raises(GeometryError):
            phys_to_dram(toy_geom.address_space, toy_mapping, toy_geom)
        with pytest.raises(GeometryError):
            phys_to_dram(-1, toy_mapping, toy_geom)

    def test_matches_naive_parity_oracle(self, toy_geom):
        rng = random.Random(10)
        for _ in range(40):
            mapping = random_mapping(toy_geom, rng)
            for _ in range(50):
                addr = rng.randrange(toy_geom.address_space)
                da = phys_to_dram(addr, mapping, toy_geom)
                for i, f in enumerate(mapping.bank_functions):
                    assert (da.bank >> i) & 1 == naive_parity(addr, f)

    def test_parity_agreement_bulk(self, toy_geom):
        # 10**5 random addresses against the independent recomputation
        rng = random.Random(11)
        mapping = random_mapping(toy_geom, rng)
        for _ in range(100_000):
            addr = rng.randrange(toy_geom.address_space)
            da = phys_to_dram(addr, mapping, toy_geom)
            expect = 0
            for i, f in enumerate(mapping.bank_functions):
                expect |= naive_parity(addr, f) << i
            assert da.bank == expect


class TestLayoutCache:
    """A (mapping, geometry) pair is checked once and its layout kept."""

    @staticmethod
    def mismatched():
        return AddressMapping((1 << 8,), (9, 17), (0, 8))  # one function, 8 banks

    def test_mismatched_pair_raises_on_every_call(self, toy_geom):
        bad = self.mismatched()
        for _ in range(3):
            with pytest.raises(MappingError):
                phys_to_dram(0, bad, toy_geom)
        assert bad._layouts == {}  # a failed check keeps nothing

    def test_address_range_is_checked_before_consistency(self, toy_geom):
        bad = self.mismatched()
        for addr in (toy_geom.address_space, -1):
            with pytest.raises(GeometryError):
                phys_to_dram(addr, bad, toy_geom)
        with pytest.raises(MappingError):
            phys_to_dram(0, bad, toy_geom)

    def test_one_mapping_keeps_a_layout_per_geometry(self, toy_geom):
        mapping = canonical_mapping(toy_geom)
        wider = DramGeometry(toy_geom.banks, toy_geom.rows_per_bank,
                             toy_geom.columns_per_row, toy_geom.address_bits + 1)
        taller = DramGeometry(toy_geom.banks, toy_geom.rows_per_bank * 2,
                              toy_geom.columns_per_row, toy_geom.address_bits)
        addr = toy_geom.address_space - 1
        want = phys_to_dram(addr, mapping, toy_geom)
        for _ in range(2):
            assert phys_to_dram(addr, mapping, wider) == want
            # the wider space admits an address the toy geometry refuses; its
            # only set bit lies outside every bank function and bit range
            assert phys_to_dram(addr + 1, mapping, wider) == DramAddress(0, 0, 0)
            with pytest.raises(GeometryError):
                phys_to_dram(addr + 1, mapping, toy_geom)
            with pytest.raises(MappingError):
                phys_to_dram(addr, mapping, taller)
            assert phys_to_dram(addr, mapping, toy_geom) == want
        assert set(mapping._layouts) == {toy_geom, wider}

    def test_building_a_device_keeps_its_layout(self, toy_geom):
        dev = new_sim_device(1, 2, geom=toy_geom)
        assert set(dev.mapping._layouts) == {toy_geom}
        bad = self.mismatched()
        with pytest.raises(MappingError):
            new_sim_device(1, 2, geom=toy_geom, mapping=bad)
        assert bad._layouts == {}


def naive_resolve(addr: int, mapping: AddressMapping, geom: DramGeometry) -> DramAddress:
    """Bit-by-bit resolution, sharing no code with ``phys_to_dram``."""
    bank = 0
    for i, f in enumerate(mapping.bank_functions):
        bank |= naive_parity(addr, f) << i
    row = sum(((addr >> (mapping.row_bits[0] + k)) & 1) << k for k in range(geom.row_bits))
    col = sum(((addr >> (mapping.column_bits[0] + k)) & 1) << k
              for k in range(geom.column_bits))
    return DramAddress(bank, row, col)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cold_and_warm_mappings_resolve_like_the_naive_parity(data):
    bb, rb, cb = (data.draw(st.integers(0, 4)), data.draw(st.integers(3, 9)),
                  data.draw(st.integers(1, 9)))
    geom = DramGeometry(1 << bb, 1 << rb, 1 << cb, bb + rb + cb + data.draw(st.integers(0, 3)))
    warm = random_mapping(geom, random.Random(data.draw(st.integers(0, 2 ** 32))))

    def cold():  # an equal mapping that has never resolved an address
        return AddressMapping(warm.bank_functions, warm.row_bits, warm.column_bits)

    addrs = data.draw(st.lists(st.integers(0, geom.address_space - 1), min_size=1,
                               max_size=16))
    for addr in addrs:
        want = naive_resolve(addr, warm, geom)
        assert phys_to_dram(addr, cold(), geom) == want
        assert phys_to_dram(addr, warm, geom) == want


def test_dependent_mapping_resolves_like_the_naive_parity():
    # random_mapping gives every bank function its own home bit; here both
    # functions share bit 6, their only bit off the row and column ranges
    geom = DramGeometry(banks=4, rows_per_bank=32, columns_per_row=64,
                        address_bits=16)
    mapping = AddressMapping(((1 << 6) | (1 << 8), (1 << 6) | (1 << 9)),
                             (8, 13), (0, 6))
    for addr in (0, (1 << 6) | (1 << 8), geom.address_space - 1, 0):  # 0 again: kept layout
        assert phys_to_dram(addr, mapping, geom) == naive_resolve(addr, mapping, geom)
    assert set(mapping._layouts) == {geom}


def test_dram_address_is_an_immutable_tuple():
    da = DramAddress(1, 2, 3)
    assert da == DramAddress(bank=1, row=2, column=3) == (1, 2, 3)
    assert da != DramAddress(1, 2, 4)
    assert hash(da) == hash((1, 2, 3))
    assert (da.bank, da.row, da.column) == (1, 2, 3)
    assert repr(da) == "DramAddress(bank=1, row=2, column=3)"
    with pytest.raises(AttributeError):
        da.bank = 5


class TestMappingSerialization:
    def test_roundtrip(self, toy_geom):
        rng = random.Random(14)
        for _ in range(10):
            mapping = random_mapping(toy_geom, rng)
            assert parse_mapping(encode_mapping(mapping)) == mapping

    def test_format(self, toy_mapping):
        text = encode_mapping(toy_mapping)
        lines = text.strip().splitlines()
        assert lines[-2].startswith("row=")
        assert lines[-1].startswith("col=")
        assert all(l.startswith("0x") for l in lines[:-2])

    def test_parse_rejects_incomplete(self):
        with pytest.raises(MappingError):
            parse_mapping("0x40\n")
        for bad in ("zz\nrow=8:12\ncol=0:6\n", "0x40\nrow=8-12\ncol=0:6\n"):
            with pytest.raises(MappingError):
                parse_mapping(bad)


class TestTimingThreshold:
    def test_perfectly_separated(self):
        thr = timing_threshold([10, 10, 50, 50])
        assert 10 < thr <= 50

    def test_bimodal_matches_exhaustive_scan(self):
        rng = random.Random(15)
        samples = [rng.gauss(100, 10) for _ in range(200)]
        samples += [rng.gauss(300, 10) for _ in range(200)]
        thr = timing_threshold(samples)
        assert 150 <= thr <= 250

        # independent oracle: score every candidate split of the sorted data
        xs = sorted(samples)
        n = len(xs)
        best, best_thr = -1.0, None
        for k in range(1, n):
            if xs[k - 1] == xs[k]:
                continue
            lo, hi = xs[:k], xs[k:]
            mu0 = sum(lo) / len(lo)
            mu1 = sum(hi) / len(hi)
            var = (len(lo) / n) * (len(hi) / n) * (mu0 - mu1) ** 2
            if var > best:
                best, best_thr = var, (xs[k - 1] + xs[k]) / 2
        assert thr == best_thr

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            timing_threshold([7, 7, 7])
        with pytest.raises(ValueError):
            timing_threshold([7])

    def test_non_finite_samples(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                timing_threshold([10.0, 50.0, 10.0, 50.0, bad])


class TestRecovery:
    def test_single_bit_function_noiseless(self):
        geom = DramGeometry(banks=2, rows_per_bank=256, columns_per_row=64,
                            address_bits=15)
        mapping = AddressMapping(((1 << 6),), (7, 15), (0, 6))
        dev = new_sim_device(1, 2, geom=geom, mapping=mapping,
                             noise=NoiseConfig(timing_sigma=0.0))
        funcs = recover_bank_functions(make_timing_oracle(dev, 1), geom,
                                       ProbeConfig(seed=1))
        assert funcs == [1 << 6]

    def test_documented_three_function_plant_with_noise(self):
        # plant b13^b17, b14^b18, b15^b19 and recover at sigma = 5% of gap
        geom = DramGeometry(banks=8, rows_per_bank=1024, columns_per_row=8192,
                            address_bits=26)
        funcs = ((1 << 13) | (1 << 17), (1 << 14) | (1 << 18), (1 << 15) | (1 << 19))
        mapping = AddressMapping(funcs, (16, 26), (0, 13))
        dev = new_sim_device(3, 4, geom=geom, mapping=mapping,
                             noise=NoiseConfig(timing_conflict_gap=100.0,
                                               timing_sigma=5.0))
        got = recover_bank_functions(make_timing_oracle(dev, 2), geom,
                                     ProbeConfig(seed=2))
        assert gf2.row_space_equal(got, list(funcs))

    def test_random_plants_noiseless(self, toy_geom):
        rng = random.Random(16)
        probe = ProbeConfig(num_bases=8, partners_per_base=256, seed=17)
        for trial in range(50):
            mapping = random_mapping(toy_geom, rng)
            dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64),
                                 geom=toy_geom, mapping=mapping,
                                 noise=NoiseConfig(timing_sigma=0.0))
            got = recover_bank_functions(make_timing_oracle(dev, trial), toy_geom, probe)
            # independent check: compare brute-force spans, not rref forms
            full_span = set()
            for x in range(1 << len(mapping.bank_functions)):
                v = 0
                for i, f in enumerate(mapping.bank_functions):
                    if (x >> i) & 1:
                        v ^= f
                full_span.add(v)
            got_span = set()
            for x in range(1 << len(got)):
                v = 0
                for i, f in enumerate(got):
                    if (x >> i) & 1:
                        v ^= f
                got_span.add(v)
            assert got_span == full_span

    def test_no_timing_gap_raises(self, toy_geom, toy_mapping):
        dev = new_sim_device(5, 6, geom=toy_geom, mapping=toy_mapping,
                             noise=NoiseConfig(timing_conflict_gap=0.0,
                                               timing_sigma=3.0))
        with pytest.raises(RecoveryError):
            recover_bank_functions(make_timing_oracle(dev, 3), toy_geom,
                                   ProbeConfig(seed=3))

    def test_non_finite_oracle_raises_recovery_error(self, toy_geom, toy_mapping):
        # every conflict reads inf, so no base has a usable threshold
        def oracle(a, b):
            same = phys_to_dram(a, toy_mapping, toy_geom).bank == \
                phys_to_dram(b, toy_mapping, toy_geom).bank
            return math.inf if same and a != b else 100.0
        with pytest.raises(RecoveryError):
            recover_bank_functions(oracle, toy_geom, ProbeConfig(seed=3))

    def test_a_split_with_an_empty_class_is_no_usable_base(self, toy_geom):
        # the midpoint of 1.0 and the next float rounds to 1.0, so no latency
        # falls below the threshold
        lats = itertools.cycle([1.0, math.nextafter(1.0, 2.0)])
        with pytest.raises(RecoveryError,
                           match="^only 0 of 4 bases showed a usable conflict gap$"):
            recover_bank_functions(lambda a, b: next(lats), toy_geom,
                                   ProbeConfig(num_bases=4, partners_per_base=8))

    def test_impossible_probe_plan_is_a_usage_error(self):
        # below MIN_GOOD_BASES bases, or one partner (no threshold), recovery
        # can never succeed, so the plan itself is refused
        for kw in ({"num_bases": -3}, {"num_bases": 3}, {"partners_per_base": 1},
                   {"partners_per_base": 0}):
            with pytest.raises(GeometryError):
                ProbeConfig(**kw)
        ProbeConfig(num_bases=4, partners_per_base=2)



def outcome(call):
    """A call's value, or its exception's class and message."""
    try:
        return call()
    except RecoveryError as e:
        return RecoveryError, str(e)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batch_and_pairwise_recovery_agree(data):
    # at sigma = gap many recoveries fail, and must fail with the same message
    geom = DramGeometry(banks=8, rows_per_bank=256, columns_per_row=256, address_bits=20)
    gap = 100.0
    seeds = st.integers(0, 2**32)
    dev = new_sim_device(data.draw(seeds), data.draw(seeds), geom=geom,
                         mapping=random_mapping(geom, random.Random(data.draw(seeds))),
                         noise=NoiseConfig(timing_conflict_gap=gap, timing_sigma=data.draw(
                             st.sampled_from([0.0, gap / 10, gap]))))
    oracle = make_timing_oracle(dev, data.draw(seeds))
    cfg = ProbeConfig(num_bases=data.draw(st.integers(4, 8)),
                      partners_per_base=data.draw(st.integers(2, 128)), seed=data.draw(seeds))
    assert outcome(lambda: recover_bank_functions(oracle, geom, cfg)) == \
        outcome(lambda: recover_bank_functions(lambda a, b: oracle(a, b), geom, cfg))


def test_the_library_oracle_is_asked_once_per_base(toy_geom, toy_mapping, monkeypatch):
    dev = new_sim_device(1, 2, geom=toy_geom, mapping=toy_mapping,
                         noise=NoiseConfig(timing_sigma=0.0))
    cfg = ProbeConfig(num_bases=5, partners_per_base=64, seed=4)
    batches, pairs = [], []
    oracle = make_timing_oracle(dev, 7)
    latencies = type(oracle).latencies

    def counted_latencies(self, base, partners):
        batches.append(len(partners))
        return latencies(self, base, partners)

    def refused_call(self, a, b):
        raise AssertionError("the batch path made a pairwise call")
    monkeypatch.setattr(type(oracle), "latencies", counted_latencies)
    monkeypatch.setattr(type(oracle), "__call__", refused_call)
    batch = recover_bank_functions(oracle, toy_geom, cfg)
    assert batches == [64] * 5
    monkeypatch.undo()

    def plain(a, b):
        pairs.append((a, b))
        return oracle(a, b)
    assert recover_bank_functions(plain, toy_geom, cfg) == batch
    assert len(pairs) == 5 * 64


FUNCS = (1 << 8, 1 << 9, 1 << 10)  # three bank bits, as toy_geom's 8 banks need


def one_function_oracle(a: int, b: int) -> float:
    """Latency of a device with the single bank function 0x1040: a
    conflict (same bank) is slow."""
    return 150.0 if ((a ^ b) & 0x1040).bit_count() % 2 == 0 else 50.0


@pytest.mark.parametrize("refused, error, message", [
    pytest.param(lambda g: DramGeometry(8, 256, 256, 0),
                 GeometryError, "address_bits must be >= 1", id="no-address-bits"),
    pytest.param(lambda g: AddressMapping((1 << 8, 0), (10, 18), (0, 8)),
                 MappingError, "bank functions must be nonzero masks", id="zero-mask"),
    pytest.param(lambda g: AddressMapping(FUNCS, (11, 11), (0, 8)),
                 MappingError, "bit ranges must be nonempty", id="empty-range"),
    pytest.param(lambda g: phys_to_dram(0, AddressMapping(FUNCS, (11, 19), (0, 7)), g),
                 MappingError, "column bit range width does not match columns_per_row",
                 id="column-width"),
    pytest.param(lambda g: phys_to_dram(0, AddressMapping(FUNCS, (13, 21), (0, 8)), g),
                 MappingError, "row/column ranges exceed address_bits", id="range-too-high"),
    pytest.param(lambda g: phys_to_dram(
                     0, AddressMapping((1 << 8, 1 << 9, 1 << 20), (11, 19), (0, 8)), g),
                 MappingError, "bank function mask exceeds address_bits", id="mask-too-high"),
    pytest.param(lambda g: canonical_mapping(DramGeometry(16, 4, 16, 10)),
                 MappingError, "canonical mapping needs row_bits >= bank_bits",
                 id="canonical-few-rows"),
    pytest.param(lambda g: recover_bank_functions(one_function_oracle,
                                                  DramGeometry(4, 64, 64, 16)),
                 RecoveryError, "recovered 1 candidate functions, geometry implies 2",
                 id="candidate-count"),
])
def test_refusals(toy_geom, refused, error, message):
    with pytest.raises(error, match=message):
        refused(toy_geom)
