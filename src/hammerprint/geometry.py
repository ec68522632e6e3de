"""DRAM geometry and the linear physical-address-to-DRAM-address mapping.

Bank bits are XOR parities of physical address bits; row and column live
in fixed disjoint bit ranges. Bank functions can be recovered from a
row-buffer-conflict timing oracle by clustering slow address pairs and
solving for the null space of their XOR differences over GF(2).
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import accumulate, compress, filterfalse, islice, repeat
from operator import le, ne
from typing import NamedTuple

from . import gf2
from .codec import parse_bit_range, profile_errors, read_profile


class GeometryError(ValueError):
    """Invalid geometry or address arguments."""


class MappingError(ValueError):
    """Mapping malformed or inconsistent with the geometry."""


class RecoveryError(RuntimeError):
    """Timing populations did not separate well enough to recover bank bits."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DramGeometry:
    banks: int
    rows_per_bank: int
    columns_per_row: int  # bytes per row
    address_bits: int

    def __post_init__(self):
        for name in ("banks", "rows_per_bank", "columns_per_row"):
            if not _is_pow2(getattr(self, name)):
                raise GeometryError(f"{name} must be a power of two, got {getattr(self, name)}")
        if self.address_bits < 1:
            raise GeometryError("address_bits must be >= 1")
        need = self.bank_bits + self.row_bits + self.column_bits
        if self.address_bits < need:
            raise GeometryError(
                f"address_bits={self.address_bits} too small for geometry (need >= {need})"
            )
        # every phys_to_dram call hashes the geometry to find its layout
        object.__setattr__(self, "_hash", hash(
            (self.banks, self.rows_per_bank, self.columns_per_row, self.address_bits)))

    def __hash__(self) -> int:
        return self._hash

    # pickle and copy see the four fields alone, and loading re-runs the checks
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    @property
    def bank_bits(self) -> int:
        return self.banks.bit_length() - 1

    @property
    def row_bits(self) -> int:
        return self.rows_per_bank.bit_length() - 1

    @property
    def column_bits(self) -> int:
        return self.columns_per_row.bit_length() - 1

    @property
    def address_space(self) -> int:
        return 1 << self.address_bits


class DramAddress(NamedTuple):
    bank: int
    row: int
    column: int


@dataclass(frozen=True)
class AddressMapping:
    """Linear address mapping: one XOR bitmask per bank bit plus bit ranges.

    ``row_bits`` and ``column_bits`` are half-open (lo, hi) ranges of
    physical address bits holding the row and column indices.
    """

    bank_functions: tuple[int, ...]
    row_bits: tuple[int, int]
    column_bits: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "bank_functions", tuple(self.bank_functions))
        if any(f <= 0 for f in self.bank_functions):
            raise MappingError("bank functions must be nonzero masks")
        if gf2.rank(list(self.bank_functions)) != len(self.bank_functions):
            raise MappingError("bank functions must be linearly independent over GF(2)")
        for lo, hi in (self.row_bits, self.column_bits):
            if not (0 <= lo < hi):
                raise MappingError("bit ranges must be nonempty with lo < hi")
        (row_lo, row_hi), (col_lo, col_hi) = self.row_bits, self.column_bits
        if row_lo < col_hi and col_lo < row_hi:
            raise MappingError("row and column bit ranges overlap")

    @cached_property
    def _layouts(self) -> dict[DramGeometry, tuple]:
        return {}


def check_consistent(mapping: AddressMapping, geom: DramGeometry) -> tuple:
    """Check the pair on first use, then keep and return its layout.

    The layout is the tuple (bank functions as (bank bit i, XOR mask) pairs,
    row shift, row mask, column shift, column mask). A pair whose sizes disagree
    raises MappingError and stores nothing, so it raises on every call.
    """
    layout = mapping._layouts.get(geom)
    if layout is not None:
        return layout
    if len(mapping.bank_functions) != geom.bank_bits:
        raise MappingError(
            f"{len(mapping.bank_functions)} bank functions for {geom.banks} banks"
        )
    if mapping.row_bits[1] - mapping.row_bits[0] != geom.row_bits:
        raise MappingError("row bit range width does not match rows_per_bank")
    if mapping.column_bits[1] - mapping.column_bits[0] != geom.column_bits:
        raise MappingError("column bit range width does not match columns_per_row")
    if mapping.row_bits[1] > geom.address_bits or mapping.column_bits[1] > geom.address_bits:
        raise MappingError("row/column ranges exceed address_bits")
    if max(mapping.bank_functions, default=0) >> geom.address_bits:
        raise MappingError("bank function mask exceeds address_bits")
    row_shift, row_mask = mapping.row_bits[0], geom.rows_per_bank - 1
    column_shift, column_mask = mapping.column_bits[0], geom.columns_per_row - 1
    layout = mapping._layouts[geom] = (tuple(enumerate(mapping.bank_functions)),
                                       row_shift, row_mask, column_shift, column_mask)
    return layout


def canonical_mapping(geom: DramGeometry) -> AddressMapping:
    """Controller-style layout: column low, bank home bits, then row.

    Bank function i is its home bit XOR row bit i, so every function
    touches the row range.
    """
    cb, bb, rb = geom.column_bits, geom.bank_bits, geom.row_bits
    if bb > rb:
        raise MappingError("canonical mapping needs row_bits >= bank_bits")
    row_lo = cb + bb
    funcs = tuple((1 << (cb + i)) | (1 << (row_lo + i)) for i in range(bb))
    return AddressMapping(funcs, (row_lo, row_lo + rb), (0, cb))


def phys_to_dram(addr: int, mapping: AddressMapping, geom: DramGeometry) -> DramAddress:
    """Resolve a physical address to (bank, row, column).

    The address range is checked on every call, the (mapping, geometry)
    pair only on its first; see ``check_consistent``.
    """
    if not 0 <= addr < geom.address_space:
        raise GeometryError(f"address {addr:#x} outside {geom.address_bits}-bit space")
    funcs, row_shift, row_mask, col_shift, col_mask = check_consistent(mapping, geom)
    bank = 0
    for i, f in funcs:
        bank |= ((addr & f).bit_count() & 1) << i
    return DramAddress(bank, (addr >> row_shift) & row_mask, (addr >> col_shift) & col_mask)


def encode_mapping(mapping: AddressMapping) -> str:
    """Text form: hex mask per bank function, then row=lo:hi, col=lo:hi."""
    lines = [f"{f:#x}" for f in mapping.bank_functions]
    lines.append(f"row={mapping.row_bits[0]}:{mapping.row_bits[1]}")
    lines.append(f"col={mapping.column_bits[0]}:{mapping.column_bits[1]}")
    return "\n".join(lines) + "\n"


def parse_mapping(text: str) -> AddressMapping:
    with profile_errors(MappingError, "mapping text"):
        funcs: list[int] = []
        ranges = read_profile(text, MappingError, "mapping", single=("row", "col"),
                              bare=lambda mask: funcs.append(int(mask, 16)))
        return AddressMapping(tuple(funcs), parse_bit_range(ranges["row"]),
                              parse_bit_range(ranges["col"]))


def timing_threshold(samples: list[float]) -> float:
    """Two-class split threshold maximizing between-class variance.

    Deterministic: candidate splits are scanned in sorted order and the
    first maximizer wins. Raises ValueError on fewer than two samples, on
    a non-finite sample, when every sample is identical, or on overflow.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if not all(map(math.isfinite, samples)):
        raise ValueError("non-finite sample: no separation")
    xs = sorted(samples)
    if xs[0] == xs[-1]:
        raise ValueError("all samples identical: no separation")
    n = len(xs)
    prefix = list(accumulate(xs, initial=0.0))
    total = prefix[-1]
    best_var = -1.0
    best_split = None
    try:
        # only a split between two different values is a candidate
        for k in compress(range(1, n), map(ne, xs, islice(xs, 1, None))):
            w0 = k / n
            mu0 = prefix[k] / k
            mu1 = (total - prefix[k]) / (n - k)
            var = w0 * (1.0 - w0) * (mu0 - mu1) ** 2
            if var > best_var:
                best_var = var
                best_split = k
    except OverflowError:  # the squared gap of the means exceeds the float range
        best_split = None
    if best_split is None:
        raise ValueError("sums overflow: no separation")
    return (xs[best_split - 1] + xs[best_split]) / 2.0


MIN_SEPARATION = 4.0  # mean gap over within-class spread
MIN_GOOD_BASES = 4


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling plan for bank-function recovery.

    A handful of random base addresses are each timed against many random
    partners; partners above the per-base threshold are row-buffer
    conflicts, hence same-bank.
    """

    num_bases: int = 16
    partners_per_base: int = 512
    seed: int = 0

    def __post_init__(self):
        # a plan that no timing can make succeed is a usage error, not a recovery failure
        if self.num_bases < MIN_GOOD_BASES:
            raise GeometryError(f"num_bases must be at least {MIN_GOOD_BASES}")
        if self.partners_per_base < 2:
            raise GeometryError("partners_per_base must be at least 2")


def _randranges(rng: random.Random, space: int):
    """The ``rng.randrange(space)`` draws for ``space > 0``, made in C: each is
    ``rng.getrandbits(space.bit_length())`` drawn again until below ``space``."""
    return filter(space.__gt__, map(rng.getrandbits, repeat(space.bit_length())))


def _spread(xs: list) -> float:
    """``statistics.pstdev(xs)``; a constant class is 0.0 at once, as ``pstdev``
    gives it, without turning each sample into an exact Fraction."""
    return 0.0 if min(xs) == max(xs) else statistics.pstdev(xs)


def _no_usable_gap(lo: list, hi: list) -> bool:
    """Whether the class means lie under ``MIN_SEPARATION`` spreads apart, as
    ``statistics`` decides it. Sums that overflow give no usable gap."""
    try:
        spread = max(_spread(lo), _spread(hi), 1e-12)
        return (statistics.fmean(hi) - statistics.fmean(lo)) / spread < MIN_SEPARATION
    except OverflowError:  # math.fsum's, or statistics.pstdev's before Python 3.11
        return True


def recover_bank_functions(oracle, geom: DramGeometry, cfg: ProbeConfig = ProbeConfig()) -> list[int]:
    """Recover bank XOR masks from an access-latency oracle.

    ``oracle(a, b)`` returns the latency of alternating accesses to two
    physical addresses; an oracle with a ``latencies(base, partners)``
    method (``simdevice.make_timing_oracle``'s) is asked once per base for
    the list of ``oracle(base, p)``. Each base and its partners are, in
    order, ``randrange(geom.address_space)`` draws of ``random.Random(cfg.seed)``.
    Returns the canonical GF(2) basis of the bank functions' row space.
    Raises RecoveryError when too few bases separate (decided exactly as by
    ``statistics``; sums that overflow do not) or too few conflicts are seen.
    """
    draws = _randranges(random.Random(cfg.seed), geom.address_space)
    diffs: list[int] = []
    good_bases = 0
    batch = getattr(oracle, "latencies", None)
    for _ in range(cfg.num_bases):
        base = next(draws)
        partners = list(islice(draws, cfg.partners_per_base))
        lats = batch(base, partners) if batch else list(map(oracle, repeat(base), partners))
        try:
            thr = timing_threshold(lats)
        except ValueError:
            continue
        slow = partial(le, thr)  # t >= thr
        lo = list(filterfalse(slow, lats))
        hi = list(filter(slow, lats))
        if not lo or not hi or _no_usable_gap(lo, hi):
            continue
        good_bases += 1
        diffs += map(base.__xor__, filter(base.__ne__, compress(partners, map(slow, lats))))
    if good_bases < MIN_GOOD_BASES:
        raise RecoveryError(
            f"only {good_bases} of {cfg.num_bases} bases showed a usable conflict gap"
        )
    funcs = gf2.null_space(diffs, geom.address_bits)
    if len(funcs) != geom.bank_bits:
        raise RecoveryError(
            f"recovered {len(funcs)} candidate functions, geometry implies {geom.bank_bits}"
        )
    return funcs
