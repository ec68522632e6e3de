"""Bank-map recovery against a reference copy of its earlier code.

``reference_recovery`` draws each address in a Python loop and decides
each base with ``statistics``; the library draws in C and gives a constant
class its spread of 0.0 without ``statistics``. Both must give the same
masks, or the same error.
"""

import itertools
import math
import random
import statistics
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_recovery as reference
from criteria import random_mapping
from hammerprint import geometry, gf2
from hammerprint.geometry import (
    DramGeometry,
    ProbeConfig,
    RecoveryError,
    recover_bank_functions,
    timing_threshold,
)
from hammerprint.simdevice import NoiseConfig, default_geometry, make_timing_oracle, new_sim_device

GEOMETRIES = (
    DramGeometry(banks=8, rows_per_bank=256, columns_per_row=256, address_bits=20),
    DramGeometry(banks=2, rows_per_bank=256, columns_per_row=64, address_bits=15),
    DramGeometry(banks=8, rows_per_bank=1024, columns_per_row=8192, address_bits=26),
    DramGeometry(banks=64, rows_per_bank=1024, columns_per_row=1024, address_bits=26),
    default_geometry(),
    # 32 addresses, so a partner is often the base itself
    DramGeometry(banks=2, rows_per_bank=8, columns_per_row=2, address_bits=5),
)


def outcome(recover, module, oracle, geom, cfg):
    """The recovered masks, or the error's class and message, with the rows
    that reached ``module.null_space``."""
    rows = []
    null_space = module.null_space

    def recorded(diffs, n_bits):
        rows.append(list(diffs))
        return null_space(diffs, n_bits)
    with mock.patch.object(module, "null_space", recorded):
        try:
            return recover(oracle, geom, cfg), rows
        except RecoveryError as e:
            return (RecoveryError, str(e)), rows


class CountingRandom(random.Random):
    """A ``random.Random`` that records the width of each ``getrandbits`` call."""

    def __init__(self, seed):
        self.widths = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


class PairRecorder:
    """A plain oracle that records each pair it is asked about."""

    def __init__(self):
        self.asked = []

    def __call__(self, a, b):
        self.asked.append((a, b))
        return 150.0 if ((a ^ b) & 0b110).bit_count() % 2 == 0 else 50.0


class BatchRecorder(PairRecorder):
    def latencies(self, base, partners):
        return [self(base, p) for p in partners]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_recovery_matches_the_reference(data):
    seeds = st.integers(0, 2**32)
    geom = data.draw(st.sampled_from(GEOMETRIES))
    noise = NoiseConfig(timing_conflict_gap=data.draw(st.sampled_from([0.0, 100.0])),
                        timing_sigma=data.draw(st.sampled_from([0.0, 0.5, 10.0, 100.0])))
    dev = new_sim_device(data.draw(seeds), data.draw(seeds), geom=geom,
                         mapping=random_mapping(geom, random.Random(data.draw(seeds))),
                         noise=noise)
    oracle = make_timing_oracle(dev, data.draw(seeds))
    if data.draw(st.booleans()):
        oracle = oracle.__call__  # no latencies method: asked pair by pair
    cfg = ProbeConfig(num_bases=data.draw(st.integers(4, 8)),
                      partners_per_base=data.draw(st.integers(2, 64)), seed=data.draw(seeds))
    assert outcome(recover_bank_functions, gf2, oracle, geom, cfg) == \
        outcome(reference.recover_bank_functions, reference, oracle, geom, cfg)


def test_a_partner_equal_to_its_base_adds_no_row():
    # a pair of equal addresses is slow here, yet it is no conflict to solve for
    geom = GEOMETRIES[-1]
    cfg = ProbeConfig(num_bases=4, partners_per_base=64, seed=0)
    oracle = PairRecorder()
    masks, rows = outcome(recover_bank_functions, gf2, oracle, geom, cfg)
    assert any(a == b for a, b in oracle.asked), "the seed draws no partner equal to its base"
    assert masks == [0b110] and 0 not in rows[0]
    assert (masks, rows) == outcome(reference.recover_bank_functions, reference, oracle, geom, cfg)


def reference_verdict(lo, hi) -> bool:
    """The earlier code's test: True when the base gives no usable gap."""
    spread = max(statistics.pstdev(lo), statistics.pstdev(hi), 1e-12)
    return (statistics.fmean(hi) - statistics.fmean(lo)) / spread < geometry.MIN_SEPARATION


ONE_UP = math.nextafter(1.0, 2.0)
TINY = 5e-324  # the least subnormal
CLASSES = [
    [100.0] * 7,
    [TINY],
    [TINY] * 3,
    [1e308] * 3,
    [1.79e308] * 2,
    [0.0, -0.0],
    [1.0, ONE_UP],  # the empty-class test's latencies
    [1.0, ONE_UP, ONE_UP, ONE_UP],
    [math.nextafter(1.0, 0.0), 1.0, ONE_UP],
    [100.0, math.nextafter(100.0, 200.0)],
    [TINY, 2 * TINY, 3 * TINY],
    [TINY, 1e-310, 2.2250738585072014e-308],
    [1e308, math.nextafter(1e308, math.inf)],
    [1.7e308, 1.79e308, 1e308],
]


@pytest.mark.parametrize("xs", CLASSES)
def test_spread_is_pstdev(xs):
    got = geometry._spread(xs)
    assert type(got) is float and got == statistics.pstdev(xs)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.79e308), st.integers(1, 40), st.integers(0, 3))
def test_spread_of_drawn_near_constant_classes(x, n, neighbours):
    xs = [x] * n + [math.nextafter(x, math.inf)] * neighbours
    assert geometry._spread(xs) == statistics.pstdev(xs)


# classes whose ratio is MIN_SEPARATION or an ulp either side, or whose
# larger spread is about the 1e-12 floor, or which are both constant
EDGES = [
    ([1.0, 3.0], [6.0, 6.0]),  # gap 4, spread 1: the ratio is exactly 4
    ([1.0, 3.0], [math.nextafter(6.0, 0.0)] * 2),
    ([1.0, 3.0], [math.nextafter(6.0, 9.0)] * 2),
    ([2e-12, 4e-12], [7e-12] * 3),  # the larger spread is the 1e-12 floor
    ([2e-12, math.nextafter(4e-12, 0.0)], [7e-12] * 3),
    ([2e-12, math.nextafter(4e-12, 1.0)], [7e-12] * 3),
    ([1.0, 1.0], [ONE_UP, ONE_UP]),
    ([1.0], [ONE_UP]),
]


@pytest.mark.parametrize("lo, hi", EDGES)
def test_verdict_near_the_bounds_is_that_of_statistics(lo, hi):
    assert geometry._no_usable_gap(lo, hi) == reference_verdict(lo, hi)


def test_overflowing_threshold_sums_are_a_value_error():
    with pytest.raises(ValueError, match="overflow"):
        timing_threshold([1.7e308, 1.7e308, 1.79e308])
    with pytest.raises(ValueError, match="overflow"):
        timing_threshold([-1e200, 1e200])  # the squared gap of the means


@pytest.mark.parametrize("values", [
    pytest.param([1.7e308, 1.7e308, 1.79e308], id="threshold-sums"),
    pytest.param([100.0, 1.7e308], id="class-mean"),
])
def test_latencies_whose_sums_overflow_are_a_refusal(toy_geom, values):
    lats = itertools.cycle(values)
    with pytest.raises(RecoveryError,
                       match="^only 0 of 4 bases showed a usable conflict gap$"):
        recover_bank_functions(lambda a, b: next(lats), toy_geom,
                               ProbeConfig(num_bases=4, partners_per_base=8))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GEOMETRIES), st.integers(0, 2**64), st.integers(4, 8),
       st.integers(2, 64), st.sampled_from([PairRecorder, BatchRecorder]))
def test_each_address_is_one_getrandbits_draw(geom, seed, num_bases, partners, recorder):
    made = []

    def counting(x):
        made.append(CountingRandom(x))
        return made[-1]
    oracle = recorder()
    cfg = ProbeConfig(num_bases=num_bases, partners_per_base=partners, seed=seed)
    with mock.patch.object(geometry, "random", SimpleNamespace(Random=counting)):
        try:
            recover_bank_functions(oracle, geom, cfg)
        except RecoveryError:
            pass
    want = random.Random(seed)
    draws = [want.getrandbits(geom.address_bits) for _ in range(num_bases * (1 + partners))]
    blocks = [draws[i:i + 1 + partners] for i in range(0, len(draws), 1 + partners)]
    assert oracle.asked == [(base, p) for base, *rest in blocks for p in rest]
    assert [m.widths for m in made] == [[geom.address_bits] * len(draws)]
