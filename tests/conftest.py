import os

import pytest

from hammerprint.challenge import DramChallenge, DataPattern, PatternKind, build_pattern
from hammerprint.fingerprint import FlipLocation
from hammerprint.geometry import DramGeometry, canonical_mapping
from hammerprint.simdevice import SUPPORT_BLOCK, new_sim_device


@pytest.fixture
def toy_geom():
    """Small geometry: 8 banks, 256 rows, 256-byte rows, 20-bit addresses."""
    return DramGeometry(banks=8, rows_per_bank=256, columns_per_row=256, address_bits=20)


@pytest.fixture
def toy_mapping(toy_geom):
    return canonical_mapping(toy_geom)


@pytest.fixture
def toy_device(toy_geom, toy_mapping):
    return new_sim_device(111, 222, geom=toy_geom, mapping=toy_mapping)


def small_challenge(kind=PatternKind.N_SIDED, n=6, banks=(0, 1), measurements=3,
                    first_offset=1, rng_seed=0) -> DramChallenge:
    pattern = build_pattern(kind, n, first_offset, rng_seed)
    return DramChallenge(
        bank_range=tuple(banks),
        pattern=pattern,
        data=DataPattern(0x55, 0xAA),
        measurements=measurements,
    )


def expand_cells(dev, bank, row, entry=None) -> list[tuple[FlipLocation, int, bool]]:
    """``(location, polarity, marginal)`` of each susceptible cell of a row, in
    block order, from its mask entry (``dev.susceptible_cells`` by default)."""
    susceptible, polarity, marginal, _ = entry or dev.susceptible_cells(bank, row)
    base = dev.support_block_start
    return [(FlipLocation(bank, row, (base + j) // 8, (base + j) % 8),
             polarity >> j & 1, bool(marginal >> j & 1))
            for j in range(SUPPORT_BLOCK) if susceptible >> j & 1]


def tree(root) -> dict:
    """Each path under root: a file's bytes, a symlink's target, None for a directory."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            p = os.path.join(dirpath, name)
            if os.path.islink(p):
                out[p] = os.readlink(p)
            elif os.path.isfile(p):
                with open(p, "rb") as fh:
                    out[p] = fh.read()
            else:
                out[p] = None
    return out
