"""Property test: the one-pass ``hammer`` against the two-pass reference.

``reference_hammer`` keeps the earlier implementation: a staging pass
over every victim row, then one pass per measurement that rebuilds each
flip's location. Each ``random.Random`` is seeded from its own PRF tag,
so visiting rows before measurements must draw the same numbers and give
the same flip sets with the same number of PRF calls.
"""

import random
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from hammerprint import simdevice as sd
from hammerprint.challenge import DataPattern, DramChallenge, PatternKind, build_pattern, victim_rows
from hammerprint.fingerprint import FlipLocation
from hammerprint.geometry import DramGeometry, canonical_mapping


def reference_hammer(dev, ch, measurement_seed):
    ch.validate_for(dev.geom)
    if sd.trr_neutralizes(dev, ch):
        return [set() for _ in range(ch.measurements)]
    victims = victim_rows(ch.pattern)
    key = dev.device_key
    p_flip = dev.noise.p_flip_given_susceptible
    activation = dev.noise.marginal_activation
    victim_value = ch.data.victim_value

    rows = []
    for bank in ch.bank_range:
        for row in victims:
            cells = dev.susceptible_cells(bank, row)
            eligible = [c for c in cells if (victim_value >> c.location.bit) & 1 == c.polarity]
            if not eligible:
                continue
            arng = random.Random(sd._prf("act", key, measurement_seed, bank, row))
            active = [not c.marginal or arng.random() < activation for c in eligible]
            rows.append((bank, row, eligible, active))

    results = []
    for t in range(ch.measurements):
        flips = set()
        for bank, row, eligible, active in rows:
            mrng = random.Random(sd._prf("meas", key, measurement_seed, t, bank, row))
            for cell, act in zip(eligible, active):
                u = mrng.random()
                if act and u < p_flip:
                    flips.add(FlipLocation(bank, row, cell.location.column, cell.location.bit))
        results.append(flips)
    return results


@contextmanager
def counting_prf():
    calls = [0]
    real = sd._prf

    def counted(*parts):
        calls[0] += 1
        return real(*parts)

    with mock.patch.object(sd, "_prf", counted):
        yield calls


PATTERNS = (
    (PatternKind.ONE_LOCATION, st.just(1)),
    (PatternKind.SINGLE_SIDED, st.just(2)),
    (PatternKind.DOUBLE_SIDED, st.just(2)),
    (PatternKind.N_SIDED, st.integers(3, 8)),
    (PatternKind.NON_UNIFORM, st.integers(1, 8)),
)


@st.composite
def cases(draw):
    geom_args = dict(banks=draw(st.sampled_from([1, 2, 4, 8])),
                     rows_per_bank=draw(st.sampled_from([32, 64])),
                     columns_per_row=draw(st.sampled_from([2, 8, 64, 256])))
    bits = sum(n.bit_length() - 1 for n in geom_args.values())
    geom = DramGeometry(address_bits=bits + draw(st.integers(0, 2)), **geom_args)
    kind, count = draw(st.sampled_from(PATTERNS))
    first = draw(st.integers(0, 5))
    pattern = build_pattern(kind, draw(count), first, draw(st.integers(0, 2**32)))
    banks = draw(st.lists(st.integers(0, geom.banks - 1), min_size=1,
                          max_size=geom.banks, unique=True))
    ch = DramChallenge(bank_range=tuple(banks), first_aggressor_offset=first, pattern=pattern,
                       data=DataPattern(draw(st.integers(0, 0xFF)), draw(st.integers(0, 0xFF))),
                       banks_measured=len(banks), measurements=draw(st.integers(1, 10)))
    noise = sd.NoiseConfig(susceptibility_density=draw(st.sampled_from([2.0, 12.0, 40.0])))
    if draw(st.booleans()):
        noise = sd.deterministic_noise(noise)
    trr = sd.TrrConfig(enabled=draw(st.booleans()), sampler_size=draw(st.integers(1, 16)))
    seeds = draw(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))
    return seeds, geom, trr, noise, ch, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_one_pass_hammer_matches_two_pass_reference(case):
    (dimm, host), geom, trr, noise, ch, measurement_seed = case

    def fresh_device():
        # a new device per run, so both runs fill the cached device values
        return sd.new_sim_device(dimm, host, geom=geom, mapping=canonical_mapping(geom),
                                 trr=trr, noise=noise)

    with counting_prf() as want_calls:
        want = reference_hammer(fresh_device(), ch, measurement_seed)
    with counting_prf() as got_calls:
        got = sd.hammer(fresh_device(), ch, measurement_seed)
    assert got == want
    assert got_calls[0] == want_calls[0]
    assert all(type(loc) is FlipLocation for flips in got for loc in flips)
