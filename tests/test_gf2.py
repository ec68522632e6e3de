import itertools
import random

from hypothesis import example, given, settings, strategies as st

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


def test_parity():
    assert gf2.parity(0) == 0
    assert gf2.parity(0b1011) == 1
    assert gf2.parity(0b1001) == 0


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
            assert all(gf2.parity(v & r) == 0 for r in rows)
        assert len(basis) == n_bits - gf2.rank(rows)


def test_solve_matches_brute_force_minimum():
    rng = random.Random(5)
    n_bits = 8
    for _ in range(200):
        rows = [rng.getrandbits(n_bits) for _ in range(3)]
        rhs = [rng.getrandbits(1) for _ in range(3)]
        solutions = [x for x in range(1 << n_bits)
                     if all(gf2.parity(x & r) == b for r, b in zip(rows, rhs))]
        got = gf2.solve(rows, rhs)
        if solutions:
            assert got == min(solutions)
        else:
            assert got is None


@st.composite
def systems(draw):
    """(n_bits, rows, rhs) with 0-6 equations over 1-8 bits."""
    n_bits = draw(st.integers(1, 8))
    eqs = draw(st.lists(st.tuples(st.integers(0, (1 << n_bits) - 1), st.integers(0, 1)),
                        max_size=6))
    return n_bits, [r for r, _ in eqs], [b for _, b in eqs]


@settings(max_examples=300, deadline=None)
@given(systems())
@example((1, [], []))
@example((1, [0], [1]))  # 0 = 1
@example((3, [0b011, 0b101, 0b110], [1, 1, 1]))  # third row is the sum of the others
def test_solve_is_brute_force_minimum_or_none(system):
    n_bits, rows, rhs = system
    solutions = [x for x in range(1 << n_bits)
                 if all(gf2.parity(x & r) == b for r, b in zip(rows, rhs))]
    assert gf2.solve(rows, rhs) == (min(solutions) if solutions else None)
