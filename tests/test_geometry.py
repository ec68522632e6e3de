import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_mapping
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
    dram_to_phys,
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
        with pytest.raises(MappingError):
            dram_to_phys(DramAddress(0, 0, 0), bad, toy_geom)
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
        back = dram_to_phys(want, cold(), geom)
        assert back == dram_to_phys(want, warm, geom)
        assert naive_resolve(back, warm, geom) == want
        assert phys_to_dram(back, warm, geom) == want


def test_dram_address_is_an_immutable_tuple():
    da = DramAddress(1, 2, 3)
    assert da == DramAddress(bank=1, row=2, column=3) == (1, 2, 3)
    assert da != DramAddress(1, 2, 4)
    assert hash(da) == hash((1, 2, 3))
    assert (da.bank, da.row, da.column) == (1, 2, 3)
    assert repr(da) == "DramAddress(bank=1, row=2, column=3)"
    with pytest.raises(AttributeError):
        da.bank = 5


class TestDramToPhys:
    def test_zero(self, toy_geom, toy_mapping):
        assert dram_to_phys(DramAddress(0, 0, 0), toy_mapping, toy_geom) == 0

    def test_roundtrip_random_mappings(self, toy_geom):
        rng = random.Random(12)
        for _ in range(20):
            mapping = random_mapping(toy_geom, rng)
            for _ in range(500):
                da = DramAddress(rng.randrange(toy_geom.banks),
                                 rng.randrange(toy_geom.rows_per_bank),
                                 rng.randrange(toy_geom.columns_per_row))
                addr = dram_to_phys(da, mapping, toy_geom)
                assert addr < toy_geom.address_space
                assert phys_to_dram(addr, mapping, toy_geom) == da

    def test_equals_exhaustive_search_at_toy_size(self):
        geom = DramGeometry(banks=4, rows_per_bank=32, columns_per_row=64,
                            address_bits=16)
        rng = random.Random(13)
        mapping = random_mapping(geom, rng, max_extra_bits=2)
        smallest = {}
        for addr in range(1 << 16):
            da = phys_to_dram(addr, mapping, geom)
            key = (da.bank, da.row, da.column)
            if key not in smallest:
                smallest[key] = addr
        assert len(smallest) == 4 * 32 * 64
        for (bank, row, col), addr in smallest.items():
            assert dram_to_phys(DramAddress(bank, row, col), mapping, geom) == addr

    def test_non_invertible_mapping(self):
        geom = DramGeometry(banks=4, rows_per_bank=32, columns_per_row=64,
                            address_bits=16)
        # both functions share the single free bit 6: dependent outside row/col
        mapping = AddressMapping(((1 << 6) | (1 << 8), (1 << 6) | (1 << 9)),
                                 (8, 13), (0, 6))
        with pytest.raises(MappingError):
            dram_to_phys(DramAddress(1, 0, 0), mapping, geom)

    def test_rejects_out_of_bounds_dram_address(self, toy_geom, toy_mapping):
        with pytest.raises(GeometryError):
            dram_to_phys(DramAddress(toy_geom.banks, 0, 0), toy_mapping, toy_geom)


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

    def test_impossible_probe_plan_is_a_usage_error(self):
        # below MIN_GOOD_BASES bases, or one partner (no threshold), recovery
        # can never succeed, so the plan itself is refused
        for kw in ({"num_bases": -3}, {"num_bases": 3}, {"partners_per_base": 1},
                   {"partners_per_base": 0}):
            with pytest.raises(GeometryError):
                ProbeConfig(**kw)
        ProbeConfig(num_bases=4, partners_per_base=2)


def test_canonical_mapping_is_invertible(toy_geom):
    mapping = canonical_mapping(toy_geom)
    rng = random.Random(18)
    for _ in range(100):
        da = DramAddress(rng.randrange(toy_geom.banks),
                         rng.randrange(toy_geom.rows_per_bank),
                         rng.randrange(toy_geom.columns_per_row))
        assert phys_to_dram(dram_to_phys(da, mapping, toy_geom), mapping, toy_geom) == da
