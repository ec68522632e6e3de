"""Property tests: ``hammer`` against a two-pass reference, and the row cache.

``reference_hammer`` keeps an earlier implementation: a staging pass over
every victim row, then one pass per measurement that rebuilds each flip's
location. It derives each ``act`` and ``meas`` stream in full from
``hashlib`` and ``struct`` with its own copy of the stream construction,
so it checks ``hammer``'s prefix states independently. Each stream is a
pure function of its own input, so visiting rows before measurements, or
skipping a row that cannot flip, must give the same flip sets with no
more stream or PRF calls.

``reference_hammer`` takes its cells from ``susceptible_cells``, so
``reference_cells`` checks the row draw on its own: it hashes the whole
derivation in full and builds every cell's location with the checked
constructor.

``run_query`` stops a row's streams once every active cell has flipped,
so it is held to the union of ``hammer``'s sets, with no more stream or
PRF calls, and to the same calls however many measurements follow the
last one it needs.
"""

import dataclasses
import hashlib
import struct
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import expand_cells
from hammerprint import simdevice as sd
from hammerprint.challenge import (
    DataPattern,
    DramChallenge,
    PatternKind,
    build_pattern,
    challenge_hash,
    default_challenge,
    victim_rows,
)
from hammerprint.fingerprint import FlipLocation, from_measurements
from hammerprint.geometry import DramGeometry, GeometryError, canonical_mapping


def tagged(parts) -> bytes:
    return b"".join(b"s" + p.encode() if isinstance(p, str)
                    else b"i" + int(p).to_bytes(17, "little", signed=True) for p in parts)


def reference_prf(*parts):
    h = hashlib.blake2b(tagged(parts), digest_size=8, key=b"hammerprint.simdevice")
    return int.from_bytes(h.digest(), "little")


def reference_stream(*parts):
    """The sixteen little-endian 32-bit words of the stream at ``parts``."""
    h = hashlib.blake2b(tagged(parts), digest_size=64, key=b"hammerprint.simdevice.stream")
    return struct.unpack("<16I", h.digest())


def reference_cells(dev, bank, row):
    """``expand_cells(dev, bank, row)`` from the device's seeds alone."""
    key = reference_prf("host", reference_prf("dimm", dev.dimm_seed), dev.host_seed)
    block = sd.SUPPORT_BLOCK
    base = reference_prf("slot", key) % (dev.geom.columns_per_row * 8 // block) * block
    density_factor = 0.85 + 0.40 * (reference_prf("density", key) / 2**64)
    p_cell = min(1.0, dev.noise.susceptibility_density * density_factor / block)
    draws = reference_stream("row", key, bank, row, 0)
    kinds = reference_stream("row", key, bank, row, 1)
    cells = []
    for j in range(block):
        if draws[j] < p_cell * 2**32:
            polarity = kinds[j] // 2**31
            marginal = kinds[j] % 2**31 < dev.noise.marginal_fraction * 2**31
            location = FlipLocation(bank, row, (base + j) // 8, (base + j) % 8)
            cells.append((location, polarity, marginal))
    return cells


def reference_hammer(dev, ch, measurement_seed, stream):
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
            eligible = [(location, marginal)
                        for location, polarity, marginal in expand_cells(dev, bank, row)
                        if (victim_value >> location.bit) & 1 == polarity]
            if not eligible:
                continue
            words = stream("act", key, measurement_seed, bank, row)
            active = [not marginal or words[k] < activation * 2**32
                      for k, (_, marginal) in enumerate(eligible)]
            rows.append((bank, row, eligible, active))

    results = []
    for t in range(ch.measurements):
        flips = set()
        for bank, row, eligible, active in rows:
            words = stream("meas", key, measurement_seed, t, bank, row)
            for k, ((location, _), act) in enumerate(zip(eligible, active)):
                if act and words[k] < p_flip * 2**32:
                    flips.add(FlipLocation(bank, row, location.column, location.bit))
        results.append(flips)
    return results


@contextmanager
def counting_prf(limit=None):
    """Count ``simdevice._prf`` and ``simdevice._stream`` calls together;
    yields the counter and a counted ``reference_stream``.

    With a ``limit``, the call after that many raises AssertionError.
    """
    calls = [0]

    def count():
        calls[0] += 1
        assert limit is None or calls[0] <= limit, f"more than {limit} _prf and _stream calls"

    def counting(real):
        def counted(*args, **kwargs):
            count()
            return real(*args, **kwargs)
        return counted

    with mock.patch.object(sd, "_prf", counting(sd._prf)), \
            mock.patch.object(sd, "_stream", counting(sd._stream)):
        yield calls, counting(reference_stream)


PATTERNS = (
    (PatternKind.ONE_LOCATION, st.just(1)),
    (PatternKind.SINGLE_SIDED, st.just(2)),
    (PatternKind.DOUBLE_SIDED, st.just(2)),
    (PatternKind.N_SIDED, st.integers(3, 8)),
    (PatternKind.NON_UNIFORM, st.integers(1, 8)),
)


@st.composite
def setups(draw):
    """Seeds, geometry, TRR and noise of a device."""
    geom_args = dict(banks=draw(st.sampled_from([1, 2, 4, 8])),
                     rows_per_bank=draw(st.sampled_from([32, 64])),
                     columns_per_row=draw(st.sampled_from([2, 8, 64, 256])))
    bits = sum(n.bit_length() - 1 for n in geom_args.values())
    geom = DramGeometry(address_bits=bits + draw(st.integers(0, 2)), **geom_args)
    noise = sd.NoiseConfig(susceptibility_density=draw(st.sampled_from([2.0, 12.0, 40.0])))
    if draw(st.booleans()):
        noise = sd.deterministic_noise(noise)
    trr = sd.TrrConfig(enabled=draw(st.booleans()), sampler_size=draw(st.integers(1, 16)))
    seeds = draw(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)))
    return seeds, geom, trr, noise


def new_device(setup):
    (dimm, host), geom, trr, noise = setup
    return sd.new_sim_device(dimm, host, geom=geom, mapping=canonical_mapping(geom),
                             trr=trr, noise=noise)


@st.composite
def queries(draw, geom):
    """A challenge valid for ``geom`` and a measurement seed."""
    kind, count = draw(st.sampled_from(PATTERNS))
    first = draw(st.integers(0, 5))
    pattern = build_pattern(kind, draw(count), first, draw(st.integers(0, 2**32)))
    banks = draw(st.lists(st.integers(0, geom.banks - 1), min_size=1,
                          max_size=geom.banks, unique=True))
    ch = DramChallenge(bank_range=tuple(banks), pattern=pattern,
                       data=DataPattern(draw(st.integers(0, 0xFF)), draw(st.integers(0, 0xFF))),
                       measurements=draw(st.integers(1, 10)))
    return ch, draw(st.integers(0, 2**32))


@st.composite
def cases(draw, min_queries=1, max_queries=1):
    setup = draw(setups())
    return setup, draw(st.lists(queries(setup[1]), min_size=min_queries, max_size=max_queries))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_one_pass_hammer_matches_two_pass_reference(case):
    setup, [(ch, measurement_seed)] = case
    # a new device per run, so both runs fill the cached device values
    with counting_prf() as (want_calls, stream):
        want = reference_hammer(new_device(setup), ch, measurement_seed, stream)
    with counting_prf() as (got_calls, _):
        got = sd.hammer(new_device(setup), ch, measurement_seed)
    assert got == want
    assert got_calls[0] <= want_calls[0]
    # locations made at first flip skip the constructor: plain int fields
    assert all(type(loc) is FlipLocation and list(map(type, loc)) == [int] * 4
               for flips in got for loc in flips)


@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([None, "dev-7"]), st.sampled_from([None, "2026-01-02T03:04"]))
def test_run_query_is_the_union_of_hammer(case, hint, when):
    setup, [(ch, measurement_seed)] = case
    with counting_prf() as (want_calls, _):
        want = from_measurements(sd.hammer(new_device(setup), ch, measurement_seed),
                                 challenge_hash(ch), device_hint=hint, query_time=when)
    with counting_prf() as (got_calls, _):
        got = sd.run_query(new_device(setup), ch, measurement_seed,
                           device_hint=hint, query_time=when)
    assert got.locations == want.locations
    assert (got.challenge_hash, got.device_hint, got.query_time) == (
        want.challenge_hash, want.device_hint, want.query_time)
    # run_query may stop a row's streams early, never draw more of them
    assert got_calls[0] <= want_calls[0]

    # a location object is made at its cell's first flip and then kept: after
    # a cold query the filled slots are the fingerprint's own locations, and
    # a warm query hands back the very same objects
    dev = new_device(setup)
    cold = sd.run_query(dev, ch, measurement_seed)
    made = [loc for *_, slots in dev._row_cells.values() for loc in slots if loc is not None]
    assert {id(loc) for loc in made} == {id(loc) for loc in cold.locations}
    warm = sd.run_query(dev, ch, measurement_seed)
    assert warm.locations == want.locations
    base = dev.support_block_start
    assert all(loc is dev._row_cells[loc.bank, loc.row][3][loc.column * 8 + loc.bit - base]
               for loc in warm.locations)

    # a device warmed by hammer, which filled the slots of every cell that
    # flipped in any measurement, reports those slots' own objects
    warm = new_device(setup)
    sd.hammer(warm, ch, measurement_seed)
    again = sd.run_query(warm, ch, measurement_seed)
    assert again.locations == want.locations
    assert all(loc is warm._row_cells[loc.bank, loc.row][3][loc.column * 8 + loc.bit - base]
               for loc in again.locations)


@settings(max_examples=60, deadline=None)
@given(setups(), st.data())
def test_row_draw_matches_reference(setup, data):
    dev = new_device(setup)
    geom = setup[1]
    rows = data.draw(st.lists(st.tuples(st.integers(0, geom.banks - 1),
                                        st.integers(0, geom.rows_per_bank - 1)),
                              min_size=1, max_size=8))
    for bank, row in rows:
        got = dev.susceptible_cells(bank, row)
        assert expand_cells(dev, bank, row, got) == reference_cells(dev, bank, row)
        # three plain int masks of the block, and no location before a flip
        assert type(got) is tuple and list(map(type, got)) == [int, int, int, list]
        assert all(0 <= mask < 1 << sd.SUPPORT_BLOCK for mask in got[:3])
        assert got[3] == [None] * sd.SUPPORT_BLOCK


# the PRF's 17-byte signed field holds exactly these ints
FIELD_INTS = st.one_of(st.integers(-2**135, 2**135 - 1), st.sampled_from([-2**135, 2**135 - 1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(), FIELD_INTS, st.booleans()), max_size=4),
       st.one_of(FIELD_INTS, st.booleans()))
def test_stream_and_prf_match_the_reference(head, index):
    # the library's draw primitive and its fast int path against the test's
    # own construction, over the whole field, and refusing one past each end
    state = sd._stream_state(*head)
    assert sd._stream(state, index) == reference_stream(*head, index)
    assert sd._prf(*head, index) == reference_prf(*head, index)
    for wide in (-2**135 - 1, 2**135):
        with pytest.raises(sd.DeviceError, match="^seed does not fit"):
            sd._stream(state, wide)
        with pytest.raises(sd.DeviceError, match="^seed does not fit"):
            sd._prf(*head, wide)
    # the state is copied, never changed
    assert sd._stream(state, index) == reference_stream(*head, index)


def test_row_draw_cuts_belong_to_the_device():
    # a device's row cuts follow its own noise, so a twin with other noise,
    # made after the first device drew its rows, must draw its rows afresh
    dev = sd.new_sim_device(11, 12)
    sd.run_query(dev, default_challenge(), 13)
    for density, fraction in ((40.0, 0.2), (2.0, 1.0), (0.0, 0.0)):
        twin = dataclasses.replace(dev, noise=sd.NoiseConfig(
            susceptibility_density=density, marginal_fraction=fraction))
        for bank, row in ((0, 0), (1, 5), (3, 17)):
            assert expand_cells(twin, bank, row) == reference_cells(twin, bank, row)
            assert expand_cells(dev, bank, row) == reference_cells(dev, bank, row)


@settings(max_examples=40, deadline=None)
@given(cases(min_queries=2, max_queries=5), st.data())
def test_warm_device_matches_fresh_devices(case, data):
    setup, runs = case
    warm = new_device(setup)
    got = [sd.hammer(warm, ch, seed) for ch, seed in runs]
    assert got == [sd.hammer(new_device(setup), ch, seed) for ch, seed in runs]

    # the row cache hands every query of a device the same location objects
    first: dict[FlipLocation, FlipLocation] = {}
    for flips in (flips for sets in got for flips in sets):
        assert all(first.setdefault(loc, loc) is loc for loc in flips)

    geom = setup[1]
    bank, row = data.draw(st.tuples(st.integers(-3, geom.banks + 2),
                                    st.integers(-3, geom.rows_per_bank + 2)).filter(
        lambda br: not (0 <= br[0] < geom.banks and 0 <= br[1] < geom.rows_per_bank)))
    cached = dict(warm._row_cells)
    with pytest.raises(GeometryError):
        warm.susceptible_cells(bank, row)
    assert warm._row_cells == cached


@pytest.mark.parametrize("noise, enough", [(sd.deterministic_noise(), 1), (None, 1000)])
def test_run_query_draws_streams_lazily(noise, enough):
    # a row's streams stop once its active cells have all flipped, so a
    # million measurements draw no more streams than ``enough`` do; the
    # call limit makes a walker that draws its streams up front fail fast
    got = []
    for measurements in (enough, 10**6):
        ch = default_challenge().with_measurements(measurements)
        with counting_prf(limit=10**5) as (calls, _):
            fp = sd.run_query(sd.new_sim_device(5, 6, noise=noise), ch, 7)
        got.append((fp.locations, calls[0]))
    assert got[0] == got[1]
    assert got[0][0]
