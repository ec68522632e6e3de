import itertools
import random

from hypothesis import given, settings, strategies as st

import reference_recovery as reference
from hammerprint import gf2


def span(rows):
    """Full row space by brute-force XOR of all subsets."""
    out = set()
    for r in range(len(rows) + 1):
        for combo in itertools.combinations(rows, r):
            v = 0
            for c in combo:
                v ^= c
            out.add(v)
    return out


def test_rref_canonical_under_reordering():
    rng = random.Random(1)
    for _ in range(50):
        rows = [rng.getrandbits(12) for _ in range(5)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert gf2.rref(rows) == gf2.rref(shuffled)


def test_rref_spans_same_space():
    rng = random.Random(2)
    for _ in range(30):
        rows = [rng.getrandbits(8) for _ in range(4)]
        assert span(gf2.rref(rows)) == span(rows)


def test_rank_matches_span_size():
    rng = random.Random(3)
    for _ in range(30):
        rows = [rng.getrandbits(8) for _ in range(4)]
        assert 2 ** gf2.rank(rows) == len(span(rows))


def test_row_space_equal():
    a = [0b011, 0b101]
    b = [0b011, 0b110]  # 110 = 011 ^ 101
    assert gf2.row_space_equal(a, b)
    assert not gf2.row_space_equal(a, [0b001])


def test_null_space_orthogonal_and_complete():
    rng = random.Random(4)
    n_bits = 10
    for _ in range(20):
        rows = [rng.getrandbits(n_bits) for _ in range(3)]
        basis = gf2.null_space(rows, n_bits)
        for v in basis:
            assert all((v & r).bit_count() % 2 == 0 for r in rows)
        assert len(basis) == n_bits - gf2.rank(rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda bits: st.lists(st.integers(0, 2**bits - 1), max_size=60)))
def test_rref_matches_the_reference(rows):
    # the earlier rref reduced each row against every basis row
    dependent = rows + [a ^ b ^ c for a, b, c in zip(rows, rows[1:], rows[2:])]
    for case in (rows, dependent, dependent[::-1]):
        assert gf2.rref(case) == reference.rref(case)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda bits: st.tuples(st.lists(st.integers(0, 2**bits - 1), max_size=60), st.just(bits))))
def test_null_space_matches_the_reference(case):
    rows, n_bits = case
    assert gf2.null_space(rows, n_bits) == reference.null_space(rows, n_bits)
