"""Small GF(2) linear algebra over int bitmasks (bit i = column i)."""

from __future__ import annotations


def rref(rows: list[int]) -> list[int]:
    """Reduced row echelon basis of the span of ``rows``.

    Columns are scanned from bit 0 upward, so every pivot is the lowest
    set bit of its row. The result is the canonical basis of the row
    space: two lists span the same space iff their rref is equal.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row == 0:
            continue
        low = row & -row
        basis = [b ^ row if b & low else b for b in basis]
        basis.append(row)
    basis.sort(key=lambda r: r & -r)
    return basis


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
