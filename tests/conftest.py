import os
import random

import pytest

from hammerprint.challenge import DramChallenge, DataPattern, PatternKind, build_pattern
from hammerprint.geometry import AddressMapping, DramGeometry, canonical_mapping
from hammerprint.simdevice import new_sim_device


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


def random_mapping(geom: DramGeometry, rng: random.Random) -> AddressMapping:
    """Mapping in the canonical layout (column low, bank home bits, then
    row) whose bank function i is home bit i XOR one to three random row
    bits."""
    cb, bb, rb = geom.column_bits, geom.bank_bits, geom.row_bits
    row_lo = cb + bb
    funcs = []
    for i in range(bb):
        mask = 1 << (cb + i)
        for e in rng.sample(range(rb), rng.randint(1, 3)):
            mask |= 1 << (row_lo + e)
        funcs.append(mask)
    return AddressMapping(tuple(funcs), (row_lo, row_lo + rb), (0, cb))


def small_challenge(kind=PatternKind.N_SIDED, n=6, banks=(0, 1), measurements=3,
                    first_offset=1, rng_seed=0) -> DramChallenge:
    pattern = build_pattern(kind, n, first_offset, rng_seed)
    return DramChallenge(
        bank_range=tuple(banks),
        pattern=pattern,
        data=DataPattern(0x55, 0xAA),
        measurements=measurements,
    )


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
