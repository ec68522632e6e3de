"""Small GF(2) linear algebra over int bitmasks (bit i = column i)."""

from __future__ import annotations


def parity(x: int) -> int:
    """Parity of the set bits of x."""
    return x.bit_count() & 1


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
    """Canonical basis of {x : parity(x & r) = 0 for all r in rows}.

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


def solve(rows: list[int], rhs: list[int]) -> int | None:
    """Minimum-value x with parity(x & rows[i]) = rhs[i] for all i.

    Returns None when the system is inconsistent. Each rhs bit rides in
    a column above every row bit, so a basis row of the augmented rref
    whose pivot is that column reads 0 = 1. With pivots at lowest bit
    indices and free variables forced to zero, x is the smallest
    solution: any other differs by a null vector whose highest bit lands
    on a free column.
    """
    one = 1 << max(rows, default=0).bit_length()
    x = 0
    for row in rref([row | (one if r else 0) for row, r in zip(rows, rhs)]):
        if row == one:
            return None
        if row & one:
            x |= row & -row
    return x
