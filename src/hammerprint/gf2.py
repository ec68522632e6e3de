"""Small GF(2) linear algebra over int bitmasks (bit i = column i)."""

from __future__ import annotations


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon basis of the span of ``rows``.

    Columns are scanned from bit 0 upward, so every pivot is the lowest
    set bit of its row. The result is the canonical basis of the row
    space: two lists span the same space iff their rref is equal.
    """
    pivots: dict[int, int] = {}  # lowest set bit -> the one row whose lowest bit it is
    for row in rows:
        while row and (low := row & -row) in pivots:
            row ^= pivots[low]
        if row:
            pivots[low] = row
    # back-substitute from the highest pivot down, clearing every higher pivot
    reduced: dict[int, int] = {}
    for low in sorted(pivots, reverse=True):
        row = pivots[low]
        for high, high_row in reduced.items():
            if row & high:
                row ^= high_row
        reduced[low] = row
    return list(reversed(reduced.values()))


def rank(rows: list[int]) -> int:
    return len(rref(rows))


def row_space_equal(a: list[int], b: list[int]) -> bool:
    return rref(a) == rref(b)


def null_space(rows: list[int], n_bits: int) -> list[int]:
    """Canonical basis of {x : x & r has even popcount for all r in rows}.

    Treats each row as a linear functional over n_bits variables.
    """
    reduced = rref(rows)
    pivots = [(r & -r).bit_length() - 1 for r in reduced]
    pivot_set = set(pivots)
    basis = []
    for free in range(n_bits):
        if free in pivot_set:
            continue
        vec = 1 << free
        for r, p in zip(reduced, pivots):
            if (r >> free) & 1:
                vec |= 1 << p
        basis.append(vec)
    return rref(basis)
