"""Reference copies of bank-map recovery as it was before its fast paths.

``timing_threshold`` and ``recover_bank_functions`` (from
``hammerprint.geometry``) and ``rref`` and ``null_space`` (from
``hammerprint.gf2``) are kept here with their bodies verbatim and their
docstrings left out; the recovery calls this file's threshold and null
space. Partners are ``randrange`` draws, and the separation test uses
``statistics``. The library's versions must give the same masks and the
same errors.
"""

from __future__ import annotations

import math
import random
import statistics

from hammerprint.geometry import MIN_GOOD_BASES, MIN_SEPARATION, ProbeConfig, RecoveryError

assert MIN_GOOD_BASES == 4 and MIN_SEPARATION == 4.0  # the values this copy was made with


def rref(rows: list[int]) -> list[int]:
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


def null_space(rows: list[int], n_bits: int) -> list[int]:
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


def timing_threshold(samples: list[float]) -> float:
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if not all(map(math.isfinite, samples)):
        raise ValueError("non-finite sample: no separation")
    xs = sorted(samples)
    if xs[0] == xs[-1]:
        raise ValueError("all samples identical: no separation")
    n = len(xs)
    prefix = [0.0]
    for v in xs:
        prefix.append(prefix[-1] + v)
    total = prefix[-1]
    best_var = -1.0
    best_split = None
    for k in range(1, n):
        if xs[k - 1] == xs[k]:
            continue
        w0 = k / n
        w1 = 1.0 - w0
        mu0 = prefix[k] / k
        mu1 = (total - prefix[k]) / (n - k)
        var = w0 * w1 * (mu0 - mu1) ** 2
        if var > best_var:
            best_var = var
            best_split = k
    assert best_split is not None
    return (xs[best_split - 1] + xs[best_split]) / 2.0


def recover_bank_functions(oracle, geom, cfg: ProbeConfig = ProbeConfig()) -> list[int]:
    rng = random.Random(cfg.seed)
    space = geom.address_space
    diffs: list[int] = []
    good_bases = 0
    batch = getattr(oracle, "latencies", None)
    for _ in range(cfg.num_bases):
        base = rng.randrange(space)
        partners = [rng.randrange(space) for _ in range(cfg.partners_per_base)]
        lats = batch(base, partners) if batch else [oracle(base, p) for p in partners]
        try:
            thr = timing_threshold(lats)
        except ValueError:
            continue
        lo = [t for t in lats if t < thr]
        hi = [t for t in lats if t >= thr]
        if not lo or not hi:
            continue
        spread = max(statistics.pstdev(lo), statistics.pstdev(hi), 1e-12)
        if (statistics.fmean(hi) - statistics.fmean(lo)) / spread < MIN_SEPARATION:
            continue
        good_bases += 1
        for p, t in zip(partners, lats):
            if t >= thr and p != base:
                diffs.append(base ^ p)
    if good_bases < MIN_GOOD_BASES:
        raise RecoveryError(
            f"only {good_bases} of {cfg.num_bases} bases showed a usable conflict gap"
        )
    funcs = null_space(diffs, geom.address_bits)
    if len(funcs) != geom.bank_bits:
        raise RecoveryError(
            f"recovered {len(funcs)} candidate functions, geometry implies {geom.bank_bits}"
        )
    return funcs
