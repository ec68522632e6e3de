"""Seeded virtual DRAM device: conflict timings and Rowhammer bit flips.

The latent state of a device is a sparse susceptibility map derived from
a keyed PRF over (dimm seed, host seed) and keyed streams over the cell
coordinates. Host mixing is a second PRF stage, so the same DIMM on another host draws an effectively
fresh map: supports across hosts or across DIMMs are disjoint, matching
the observation that fingerprints bind to the whole machine.

Two details carry the measured statistics:

* Each device's susceptible cells sit inside one device-keyed aligned
  column block per row (same block index in every row). Distinct devices
  therefore overlap only on a block-index collision (about 2**-19 per
  pair at default geometry), which keeps cross-device similarity at an
  exact zero over any realistic device count.
* Susceptible cells come in two latent classes. Stable cells flip in
  nearly every measurement. Marginal cells first activate per query with
  a small probability, which reproduces both the sub-unity repeat
  similarity of real queries and its insensitivity to the number of
  measurements within a query.

Every random draw is a pure function of its coordinates, in the manner of
a counter-based generator (Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011): ``_stream(state, index)`` is the sixteen
little-endian 32-bit words of one 64-byte keyed blake2b digest of a
tagged coordinate tuple, and an event of probability p is
``word < ceil(p * 2**32)``, so p = 0 and p = 1 are exact. A row draw reads
two digests of ``("row", key, bank, row)``: position j of the device's
block is susceptible when word j of digest 0 falls under ``p_cell``; word j
of digest 1 gives the cell's polarity (its top bit) and whether it is
marginal (its low 31 bits against ``marginal_fraction * 2**31``). Bit j of
three masks holds these; a cell's ``FlipLocation`` is made at its first
flip. The query streams and the timing noise are described at
``_flip_streams`` and ``make_timing_oracle``.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass, fields, replace
from functools import cached_property

from .challenge import DramChallenge, victim_rows
from .codec import parse_bit_range, profile_errors, read_profile
from .fingerprint import FlipLocation, Fingerprint, from_measurements
from .geometry import (
    AddressMapping,
    DramGeometry,
    GeometryError,
    canonical_mapping,
    check_consistent,
    phys_to_dram,
)
from . import challenge as challenge_mod

BASE_LATENCY = 100.0
SUPPORT_BLOCK = 16  # candidate susceptible positions per row per device


class DeviceError(ValueError):
    """Invalid device configuration or arguments."""


@dataclass(frozen=True)
class TrrConfig:
    """Target Row Refresh model: a sampler that can track only so many
    distinct aggressor rows. Uniform patterns within its capacity are
    fully neutralized; wider or non-uniform patterns slip through."""

    enabled: bool = True
    sampler_size: int = 16

    def __post_init__(self):
        if self.enabled and self.sampler_size < 1:
            raise DeviceError("sampler_size must be >= 1 when TRR is enabled")


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement and manufacturing noise calibration.

    ``susceptibility_density`` is the expected susceptible cells per
    victim row. ``p_flip_given_susceptible`` is the per-measurement flip
    probability of an eligible, active cell. ``marginal_fraction`` of
    susceptible cells only participate in a query at all with probability
    ``marginal_activation``; setting the fraction to 0 (or activation to
    1) together with p_flip = 1 makes flips fully deterministic.
    """

    p_flip_given_susceptible: float = 0.955
    susceptibility_density: float = 12.0
    timing_conflict_gap: float = 100.0
    timing_sigma: float = 10.0
    marginal_fraction: float = 0.77
    marginal_activation: float = 0.06

    def __post_init__(self):
        for name in ("p_flip_given_susceptible", "marginal_fraction", "marginal_activation"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DeviceError(f"{name} must lie in [0, 1], got {v}")
        if self.susceptibility_density < 0:
            raise DeviceError("susceptibility_density must be >= 0")
        if self.timing_conflict_gap < 0 or self.timing_sigma < 0:
            raise DeviceError("timing parameters must be >= 0")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DeviceError(f"{f.name} must be finite, got {getattr(self, f.name)}")


def _integer(value, name: str) -> int:
    """``value`` as an int (``operator.index``, so a bool or an int subclass
    is its int); a float or any other non-integer raises DeviceError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DeviceError(f"{name} must be an integer, got {value!r}") from None


def _absorb(h, parts):
    """Feed tagged ints and strings into a PRF state; returns the state."""
    try:
        for p in parts:
            if type(p) is int:
                h.update(b"i" + p.to_bytes(17, "little", signed=True))
            elif isinstance(p, str):
                h.update(b"s" + p.encode())
            else:
                h.update(b"i" + _integer(p, "seed").to_bytes(17, "little", signed=True))
    except OverflowError:
        raise DeviceError("seed does not fit the PRF's 17-byte signed encoding") from None
    return h


_PRF_EMPTY = hashlib.blake2b(digest_size=8, key=b"hammerprint.simdevice")


def _prf(*parts) -> int:
    """Keyed 64-bit PRF over a tagged tuple of ints and strings."""
    return int.from_bytes(_absorb(_PRF_EMPTY.copy(), parts).digest(), "little")


# the random streams' key, apart from the PRF's
_STREAM_EMPTY = hashlib.blake2b(digest_size=64, key=b"hammerprint.simdevice.stream")
_WORDS = struct.Struct("<16I").unpack
# a row's cells are one stream digest's words and the bits of 16-bit masks
assert SUPPORT_BLOCK == 16
_BITS = tuple(1 << j for j in range(SUPPORT_BLOCK))


def _stream_state(*parts, prefix=_STREAM_EMPTY):
    """A stream state that has absorbed ``parts`` after ``prefix``, to pass
    to ``_stream``; ``prefix`` is copied, not changed."""
    return _absorb(prefix.copy(), parts)


# every row draw's head starts with this tag
_ROW_PREFIX = _stream_state("row")


def _stream(state, index: int) -> tuple[int, ...]:
    """The sixteen 32-bit words of the stream at ``index`` after ``state``.

    blake2b is streamed, so for ``state = _stream_state(*head)`` the words
    are those of the keyed 64-byte digest of ``(*head, index)``; ``state``
    is copied, not changed.
    """
    h = state.copy()
    if type(index) is int:  # _absorb's int case, written out for the hot path
        try:
            h.update(b"i" + index.to_bytes(17, "little", signed=True))
            return _WORDS(h.digest())
        except OverflowError:
            pass  # h is unchanged, and _absorb raises the error
    return _WORDS(_absorb(h, (index,)).digest())


def _normal(words) -> float:
    """A standard normal deviate from words 0-3 of a stream: Box-Muller over
    two 53-bit uniforms u, v in [0, 1), each built as ``random.random`` builds
    one from two words, with ``1 - u`` under the log."""
    u = ((words[0] >> 5) * 67108864 + (words[1] >> 6)) / 9007199254740992
    v = ((words[2] >> 5) * 67108864 + (words[3] >> 6)) / 9007199254740992
    return math.sqrt(-2.0 * math.log(1.0 - u)) * math.cos(math.tau * v)


@dataclass(frozen=True)
class SimDevice:
    dimm_seed: int
    host_seed: int
    geom: DramGeometry
    mapping: AddressMapping
    trr: TrrConfig
    noise: NoiseConfig

    def __post_init__(self):
        for name in ("dimm_seed", "host_seed"):
            _integer(getattr(self, name), name)
        check_consistent(self.mapping, self.geom)  # keeps the pair's layout for phys_to_dram

    @cached_property
    def device_key(self) -> int:
        # host mixing as a second PRF stage over the DIMM-stage key
        dimm_key = _prf("dimm", self.dimm_seed)
        return _prf("host", dimm_key, self.host_seed)

    @cached_property
    def support_block_start(self) -> int:
        """Start position of this device's susceptible block in every row."""
        # a device's mapping needs a nonempty column range: 2 or more columns,
        # so at least 16 positions, per row
        n_slots = self.geom.columns_per_row * 8 // SUPPORT_BLOCK
        return (_prf("slot", self.device_key) % n_slots) * SUPPORT_BLOCK

    @cached_property
    def density_factor(self) -> float:
        """Host-flavored scaling of the susceptible-cell density."""
        u = _prf("density", self.device_key) / 2**64
        return 0.85 + 0.40 * u

    @cached_property
    def _row_cells(self) -> dict[tuple[int, int], tuple[int, int, int, list]]:
        return {}

    def susceptible_cells(self, bank: int, row: int) -> tuple[int, int, int, list]:
        """Latent susceptibility of one row; pure in (seeds, bank, row).

        ``(susceptible, polarity, marginal, locations)``: bit j of each mask
        and slot j of the list are position ``support_block_start + j``; a
        slot holds the cell's ``FlipLocation`` from its first flip on. The
        row is drawn once per device and this kept entry returned, so queries
        share locations; writing to its list changes later fingerprints.
        """
        cells = self._row_cells.get((bank, row))
        if cells is None:
            if not (0 <= bank < self.geom.banks and 0 <= row < self.geom.rows_per_bank):
                raise GeometryError(f"bank {bank} / row {row} outside geometry")
            cells = self._row_cells[bank, row] = self._draw_cells(bank, row)
        return cells

    @cached_property
    def _cell_cuts(self) -> tuple[int, int]:
        """``(cell_cut, marginal_cut)``: a row draw's cuts for a susceptible
        cell and for a marginal one."""
        p_cell = min(1.0, self.noise.susceptibility_density * self.density_factor / SUPPORT_BLOCK)
        return math.ceil(p_cell * 2**32), math.ceil(self.noise.marginal_fraction * 2**31)

    def _draw_cells(self, bank: int, row: int) -> tuple[int, int, int, list]:
        cell_cut, marginal_cut = self._cell_cuts
        state = _stream_state(self.device_key, bank, row, prefix=_ROW_PREFIX)
        susceptible = polarity = marginal = 0
        for bit, draw, kind in zip(_BITS, _stream(state, 0), _stream(state, 1)):
            if draw < cell_cut:
                susceptible |= bit
                # polarity is the top bit, marginal the low 31 bits' draw
                polarity |= bit if kind >> 31 else 0
                marginal |= bit if kind & 0x7FFFFFFF < marginal_cut else 0
        return susceptible, polarity, marginal, [None] * SUPPORT_BLOCK


def new_sim_device(dimm_seed: int,
                   host_seed: int,
                   geom: DramGeometry | None = None,
                   mapping: AddressMapping | None = None,
                   trr: TrrConfig | None = None,
                   noise: NoiseConfig | None = None) -> SimDevice:
    """Build a device, defaulting every component not supplied."""
    geom = geom if geom is not None else default_geometry()
    mapping = mapping if mapping is not None else canonical_mapping(geom)
    return SimDevice(
        dimm_seed=dimm_seed,
        host_seed=host_seed,
        geom=geom,
        mapping=mapping,
        trr=trr if trr is not None else TrrConfig(),
        noise=noise if noise is not None else NoiseConfig(),
    )


def default_geometry() -> DramGeometry:
    """Shipped simulation geometry.

    Rows are much wider than a hardware DRAM row so that per-device
    support blocks have 2**19 distinct positions: independently seeded
    devices then share no susceptible cells except with negligible
    probability, which is what the cross-device experiments assume.
    """
    return DramGeometry(banks=16, rows_per_bank=4096,
                        columns_per_row=2**20, address_bits=36)


def access_time(dev: SimDevice, a: int, b: int, rng_seed: int) -> float:
    """Latency of alternating accesses to physical addresses a and b: the
    one-pair case ``make_timing_oracle(dev, rng_seed).latencies(a, [b])[0]``,
    where the rule is stated."""
    return make_timing_oracle(dev, rng_seed).latencies(a, [b])[0]


# see make_timing_oracle; a plain class, since a dataclass's generated
# methods would add to import time
class _TimingOracle:
    def __init__(self, dev: SimDevice, rng_seed: int):
        self.dev = dev
        self.rng_seed = rng_seed

    # through the module's name, where perfbench's tracer times each pair
    def __call__(self, a: int, b: int) -> float:
        return access_time(self.dev, a, b, self.rng_seed)

    def latencies(self, base: int, partners) -> list[float]:
        dev, mapping, geom = self.dev, self.dev.mapping, self.dev.geom
        phys_to_dram(base, mapping, geom)  # raises the base's range error
        funcs, row_shift, row_mask, _, _ = check_consistent(mapping, geom)
        sigma = dev.noise.timing_sigma
        if (min(partners, default=0) < 0 or max(partners, default=0) >= geom.address_space
                or (sigma > 0 and geom.address_bits > 135)):
            # a partner out of range, or a pair the PRF may not fit: the
            # first failing pair raises, its checks in the order below
            for p in partners:
                phys_to_dram(p, mapping, geom)
                if sigma > 0:
                    width = max(base.bit_length(), p.bit_length())
                    if width > 135:  # _absorb's 17-byte signed field holds 135 bits
                        raise DeviceError(f"probe address of {width} bits (address_bits="
                                          f"{geom.address_bits}) does not fit the PRF's "
                                          "17-byte signed encoding")
                    _stream_state(self.rng_seed)  # raises when the seed does not fit
        rows = row_mask << row_shift
        conflict = BASE_LATENCY + dev.noise.timing_conflict_gap
        lats = []
        for p in partners:
            d = p ^ base
            lat = BASE_LATENCY
            if d & rows:  # another row, in the same bank when no mask sees d
                for _, f in funcs:
                    if (d & f).bit_count() & 1:
                        break
                else:
                    lat = conflict
            lats.append(lat)
        if sigma > 0 and partners:
            head = _stream_state("time", dev.device_key, self.rng_seed, base)
            lats = [lat + sigma * _normal(_stream(head, p)) for lat, p in zip(lats, partners)]
        return lats


def make_timing_oracle(dev: SimDevice, rng_seed: int) -> _TimingOracle:
    """Address-pair latency oracle for mapping recovery.

    ``oracle.latencies(base, partners)`` lists the latency of alternating
    accesses to ``base`` and each partner ``p``: ``BASE_LATENCY``, plus
    ``timing_conflict_gap`` when the two share a bank but not a row, plus
    Gaussian noise, ``timing_sigma * _normal`` of the stream at ``p`` after
    ``("time", device key, rng_seed, base)``. It is deterministic in
    (device, base, p, rng_seed) and independent of the other partners. The
    base is resolved, and the stream head absorbed, once per list. A list
    with a failing pair raises what the first one raises: the base out of
    range, then, pair by pair, the partner out of range, and under noise a
    probe address, then a seed, too wide for the PRF. ``oracle(a, b)`` and
    ``access_time(dev, a, b, rng_seed)`` are the one-pair case.
    """
    return _TimingOracle(dev, rng_seed)


def trr_neutralizes(dev: SimDevice, ch: DramChallenge) -> bool:
    """Uniform patterns whose aggressors (always distinct) fit the TRR
    sampler are fully refreshed away; anything wider or non-uniform gets
    through."""
    return (dev.trr.enabled and ch.pattern.uniform
            and len(ch.pattern.aggressor_offsets) <= dev.trr.sampler_size)


def _flip_streams(dev: SimDevice, ch: DramChallenge, measurement_seed: int):
    """Walk the measurement streams of every victim row that can flip.

    Validates the challenge, then yields ``(n_active, streams)`` for each victim
    row with at least one active eligible cell, banks in ``bank_range`` order
    and rows ascending (nothing when TRR neutralizes the pattern). ``streams``
    lazily gives, for measurement ``t = 0, 1, …``, the list of the row's
    active locations that flip in ``t``; ``n_active`` counts those locations.

    A row's draws read ``_stream`` words: the k-th eligible cell (set bit of
    the eligible mask, from bit 0 up) reads word k, active or not, so each
    draw stays tied to its cell. A marginal cell is active when its word of
    the ``("act", key, seed, bank, row)`` stream falls under
    ``marginal_activation``, and an active cell flips in ``t`` when its word
    of the ``("meas", key, seed, t, bank, row)`` stream falls under
    ``p_flip_given_susceptible``. Each stream is a pure function of its
    coordinates, so a stream that is never drawn moves no other draw. The
    ``act`` + bank and ``meas`` + t + bank states are built once per call,
    the latter on first use, so a stream absorbs only its row. A location
    is made at its cell's first flip and kept in the row's slot.
    """
    ch.validate_for(dev.geom)
    if trr_neutralizes(dev, ch):
        return
    key, base = dev.device_key, dev.support_block_start
    flip_cut = math.ceil(dev.noise.p_flip_given_susceptible * 2**32)
    meas_states = {}

    def location(bank, row, j, locations):
        # bank and row were range-checked by susceptible_cells and the
        # position is >= 0, so the constructor's checks cannot fail here
        locations[j] = tuple.__new__(FlipLocation, (bank, row, (base + j) >> 3, (base + j) & 7))
        return locations[j]

    def streams(bank, row, active, locations):
        for t in range(ch.measurements):
            state = meas_states.get((t, bank))
            if state is None:
                state = meas_states[t, bank] = _stream_state("meas", key, measurement_seed,
                                                             t, bank)
            words = _stream(state, row)
            yield [locations[j] or location(bank, row, j, locations)
                   for k, j in active if words[k] < flip_cut]

    victims = victim_rows(ch.pattern)
    activation_cut = math.ceil(dev.noise.marginal_activation * 2**32)
    # the block starts on a byte, so position j holds bit j & 7 of a byte
    victim_bits = ch.data.victim_value * 0x101
    act_prefix = _stream_state("act", key, measurement_seed)
    for bank in ch.bank_range:
        act_bank = _stream_state(bank, prefix=act_prefix)
        for row in victims:
            susceptible, polarity, marginal, locations = dev.susceptible_cells(bank, row)
            # charged-state gate: a true cell needs its bit initialized to
            # 1, an anti cell to 0, i.e. init bit == polarity
            eligible = susceptible & ~(polarity ^ victim_bits)
            if not eligible:
                continue
            words = _stream(act_bank, row)
            active, k = [], 0  # (k, j) of each active cell: its word and position
            while eligible:
                low = eligible & -eligible
                if not marginal & low or words[k] < activation_cut:
                    active.append((k, low.bit_length() - 1))
                eligible ^= low
                k += 1
            if active:
                yield len(active), streams(bank, row, active, locations)


def hammer(dev: SimDevice, ch: DramChallenge, measurement_seed: int) -> list[set[FlipLocation]]:
    """Run one fingerprint query: per-measurement sets of flip locations.

    A cell can flip only when it sits in a victim row of the pattern, is
    latently susceptible, and its initialized value is the charged state
    for its polarity. Aggressor rows never flip. All randomness is drawn
    from (device key, measurement_seed), so identical calls agree bit for
    bit.

    The streams come from ``_flip_streams``, which skips rows that could
    flip nothing; every other row's streams are all drawn here, while
    ``run_query``, which needs only their union, stops earlier.
    """
    results: list[set[FlipLocation]] = [set() for _ in range(ch.measurements)]
    for _, streams in _flip_streams(dev, ch, measurement_seed):
        for flips, locations in zip(results, streams):
            flips.update(locations)
    return results


def run_query(dev: SimDevice, ch: DramChallenge, measurement_seed: int,
              device_hint: str | None = None,
              query_time: str | None = None) -> Fingerprint:
    """Hammer and union the measurements into a challenge-bound fingerprint.

    The fingerprint is the union of ``hammer``'s flip sets, and this draws
    only what the union needs: a row's measurement streams ``t = 0, 1, …``
    until each of its active cells has flipped once, then the next row.
    A stream that is not drawn moves no other draw (``_flip_streams``) and
    could only have flipped cells already in the union, so the locations
    are the same set ``hammer`` gives.
    """
    union: set[FlipLocation] = set()
    for n_active, streams in _flip_streams(dev, ch, measurement_seed):
        # rows share no location, so the row is done once the union has
        # grown by its active count
        goal = len(union) + n_active
        for locations in streams:
            union.update(locations)
            if len(union) == goal:
                break
    return from_measurements([union], challenge_mod.challenge_hash(ch),
                             device_hint=device_hint, query_time=query_time)


def deterministic_noise(noise: NoiseConfig | None = None) -> NoiseConfig:
    """Noise variant with fully deterministic flips (every eligible cell
    flips in every measurement)."""
    base = noise if noise is not None else NoiseConfig()
    return replace(base, p_flip_given_susceptible=1.0, marginal_fraction=0.0)


# --- device profile serialization -------------------------------------------

def encode_device(dev: SimDevice) -> str:
    t = dev.trr
    lines = [f"dimm_seed={dev.dimm_seed:#x}", f"host_seed={dev.host_seed:#x}"]
    # the geometry and noise lines follow their classes' field order
    lines += [f"{f.name}={getattr(dev.geom, f.name)}" for f in fields(DramGeometry)]
    lines += [f"bankfn={f:#x}" for f in dev.mapping.bank_functions]
    lines.append(f"row={dev.mapping.row_bits[0]}:{dev.mapping.row_bits[1]}")
    lines.append(f"col={dev.mapping.column_bits[0]}:{dev.mapping.column_bits[1]}")
    lines.append(f"trr_enabled={int(t.enabled)}")
    lines.append(f"trr_sampler_size={t.sampler_size}")
    lines += [f"{f.name}={getattr(dev.noise, f.name)!r}" for f in fields(NoiseConfig)]
    return "\n".join(lines) + "\n"


def parse_device(text: str) -> SimDevice:
    with profile_errors(DeviceError, "device profile"):
        values = read_profile(text, DeviceError, "device profile", single=(
            "dimm_seed", "host_seed", *(f.name for f in fields(DramGeometry)), "row", "col",
            "trr_enabled", "trr_sampler_size", *(f.name for f in fields(NoiseConfig))),
            repeated=("bankfn",))
        geom = DramGeometry(**{f.name: int(values[f.name]) for f in fields(DramGeometry)})
        mapping = AddressMapping(tuple(int(mask, 16) for mask in values["bankfn"]),
                                 parse_bit_range(values["row"]),
                                 parse_bit_range(values["col"]))
        trr = TrrConfig(
            enabled=bool(int(values["trr_enabled"])),
            sampler_size=int(values["trr_sampler_size"]),
        )
        noise = NoiseConfig(**{f.name: float(values[f.name]) for f in fields(NoiseConfig)})
        return SimDevice(
            dimm_seed=int(values["dimm_seed"], 16),
            host_seed=int(values["host_seed"], 16),
            geom=geom, mapping=mapping, trr=trr, noise=noise,
        )
