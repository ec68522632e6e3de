"""Seeded virtual DRAM device: conflict timings and Rowhammer bit flips.

The latent state of a device is a sparse susceptibility map derived from
a keyed PRF over (dimm seed, host seed, cell coordinates). Host mixing is
a second PRF stage, so the same DIMM on another host draws an effectively
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
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

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


class SusceptibleCell(NamedTuple):
    location: FlipLocation  # where the cell's flip is reported
    polarity: int  # 1 = true cell (charged stores 1), 0 = anti cell
    marginal: bool


def _absorb(h, parts):
    """Feed tagged ints and strings into a PRF state; returns the state."""
    try:
        for p in parts:
            if isinstance(p, str):
                h.update(b"s" + p.encode())
            else:
                h.update(b"i" + int(p).to_bytes(17, "little", signed=True))
    except OverflowError:
        raise DeviceError("seed does not fit the PRF's 17-byte signed encoding") from None
    return h


_PRF_EMPTY = hashlib.blake2b(digest_size=8, key=b"hammerprint.simdevice")


def _prf_prefix(*parts, prefix=_PRF_EMPTY):
    """A PRF state that has absorbed ``parts`` after ``prefix``, to pass
    as ``_prf(prefix=...)``; ``prefix`` is copied, not changed."""
    return _absorb(prefix.copy(), parts)


def _prf(*parts, prefix=_PRF_EMPTY) -> int:
    """Keyed 64-bit PRF over a tagged tuple of ints and strings.

    blake2b is streamed, so ``_prf(*tail, prefix=_prf_prefix(*head))``
    equals ``_prf(*head, *tail)``; the prefix state is copied, not changed.
    """
    return int.from_bytes(_absorb(prefix.copy(), parts).digest(), "little")


@dataclass(frozen=True)
class SimDevice:
    dimm_seed: int
    host_seed: int
    geom: DramGeometry
    mapping: AddressMapping
    trr: TrrConfig
    noise: NoiseConfig

    def __post_init__(self):
        check_consistent(self.mapping, self.geom)  # keeps the pair's layout for phys_to_dram

    @cached_property
    def device_key(self) -> int:
        # host mixing as a second PRF stage over the DIMM-stage key
        dimm_key = _prf("dimm", self.dimm_seed)
        return _prf("host", dimm_key, self.host_seed)

    @cached_property
    def support_block_start(self) -> int:
        """Start position of this device's susceptible block in every row."""
        positions = self.geom.columns_per_row * 8
        block = min(SUPPORT_BLOCK, positions)
        n_slots = positions // block
        return (_prf("slot", self.device_key) % n_slots) * block

    @cached_property
    def density_factor(self) -> float:
        """Host-flavored scaling of the susceptible-cell density."""
        u = _prf("density", self.device_key) / 2**64
        return 0.85 + 0.40 * u

    @cached_property
    def _row_cells(self) -> dict[tuple[int, int], tuple[SusceptibleCell, ...]]:
        return {}

    def susceptible_cells(self, bank: int, row: int) -> tuple[SusceptibleCell, ...]:
        """Latent susceptibility of one row; pure in (seeds, bank, row).

        Each row is drawn once per device and kept, so every query of the
        device shares the row's cells and their ``FlipLocation`` objects.
        """
        cells = self._row_cells.get((bank, row))
        if cells is None:
            if not (0 <= bank < self.geom.banks and 0 <= row < self.geom.rows_per_bank):
                raise GeometryError(f"bank {bank} / row {row} outside geometry")
            cells = self._row_cells[bank, row] = self._draw_cells(bank, row)
        return cells

    def _draw_cells(self, bank: int, row: int) -> tuple[SusceptibleCell, ...]:
        positions = self.geom.columns_per_row * 8
        block = min(SUPPORT_BLOCK, positions)
        base = self.support_block_start
        p_cell = min(1.0, self.noise.susceptibility_density * self.density_factor / block)
        rng = random.Random(_prf("row", self.device_key, bank, row))
        cells = []
        for j in range(block):
            if rng.random() < p_cell:
                polarity = rng.getrandbits(1)
                marginal = rng.random() < self.noise.marginal_fraction
                pos = base + j  # bit position within the row: column byte * 8 + bit
                # bank and row were range-checked by susceptible_cells and
                # pos >= 0, so the constructors' checks cannot fail here
                location = tuple.__new__(FlipLocation, (bank, row, pos >> 3, pos & 7))
                cells.append(tuple.__new__(SusceptibleCell, (location, polarity, marginal)))
        return tuple(cells)


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
    """Latency of alternating accesses to physical addresses a and b.

    Same bank but different row adds the row-buffer-conflict gap; Gaussian
    noise on top. Deterministic in (device, a, b, rng_seed).
    """
    da = phys_to_dram(a, dev.mapping, dev.geom)
    db = phys_to_dram(b, dev.mapping, dev.geom)
    lat = BASE_LATENCY
    if da.bank == db.bank and da.row != db.row:
        lat += dev.noise.timing_conflict_gap
    if dev.noise.timing_sigma > 0:
        try:
            rng = random.Random(_prf("time", dev.device_key, rng_seed, a, b))
        except DeviceError:
            width = max(a.bit_length(), b.bit_length())
            if width <= 135:  # the addresses fit, so rng_seed does not
                raise
            raise DeviceError(f"probe address of {width} bits (address_bits="
                              f"{dev.geom.address_bits}) does not fit the PRF's "
                              "17-byte signed encoding") from None
        lat += rng.gauss(0.0, dev.noise.timing_sigma)
    return lat


def make_timing_oracle(dev: SimDevice, rng_seed: int):
    """Address-pair latency oracle for mapping recovery."""
    return lambda a, b: access_time(dev, a, b, rng_seed)


def trr_neutralizes(dev: SimDevice, ch: DramChallenge) -> bool:
    """Uniform patterns whose aggressors (always distinct) fit the TRR
    sampler are fully refreshed away; anything wider or non-uniform gets
    through."""
    return (dev.trr.enabled and ch.pattern.uniform
            and len(ch.pattern.aggressor_offsets) <= dev.trr.sampler_size)


def _flip_streams(dev: SimDevice, ch: DramChallenge, measurement_seed: int):
    """Walk the measurement streams of every victim row that can flip.

    Validates the challenge, then yields ``(n_active, streams)`` for each
    victim row with at least one active eligible cell, banks in
    ``bank_range`` order and rows ascending (nothing when TRR neutralizes
    the pattern). ``streams`` lazily gives, for measurement ``t = 0, 1,
    …``, the list of the row's active locations that flip in ``t``;
    ``n_active`` counts those locations.

    Every stream is seeded from its own (tag, t, bank, row) PRF input, so
    a stream that is never drawn moves no other draw. The ``act`` + bank
    and ``meas`` + t + bank PRF states are built once per call, the latter
    on first use, so a stream's seed absorbs only its row. One generator
    serves every stream, reseeded through the C-level seed that
    ``Random(x)`` itself ends in, so each stream's ``random()`` values are
    those of ``Random(x)``; a stream is drawn in full before it is yielded.
    """
    ch.validate_for(dev.geom)
    if trr_neutralizes(dev, ch):
        return
    rng = random.Random()
    reseed = super(random.Random, rng).seed
    draw = rng.random
    key = dev.device_key
    p_flip = dev.noise.p_flip_given_susceptible
    meas_states = {}

    def streams(bank, row, eligible, active):
        for t in range(ch.measurements):
            state = meas_states.get((t, bank))
            if state is None:
                state = meas_states[t, bank] = _prf_prefix("meas", key, measurement_seed, t, bank)
            reseed(_prf(row, prefix=state))
            # every eligible cell draws, active or not, so each draw
            # stays tied to its cell
            yield [cell.location for cell, act in zip(eligible, active)
                   if draw() < p_flip and act]

    victims = victim_rows(ch.pattern)
    activation = dev.noise.marginal_activation
    victim_value = ch.data.victim_value
    act_prefix = _prf_prefix("act", key, measurement_seed)
    for bank in ch.bank_range:
        act_bank = _prf_prefix(bank, prefix=act_prefix)
        for row in victims:
            cells = dev.susceptible_cells(bank, row)
            # charged-state gate: a true cell needs its bit initialized to
            # 1, an anti cell to 0, i.e. init bit == polarity
            eligible = [c for c in cells if (victim_value >> c.location.bit) & 1 == c.polarity]
            if not eligible:
                continue
            reseed(_prf(row, prefix=act_bank))
            active = [not c.marginal or draw() < activation for c in eligible]
            n_active = active.count(True)
            if n_active:
                yield n_active, streams(bank, row, eligible, active)


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
