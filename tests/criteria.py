"""The procedure and band of acceptance criteria 01-07 and 10.

``tests/test_acceptance.py`` runs each criterion at its pinned inputs and
``scripts/heldout_report.py`` over held-out seeds; both call the functions
here, so the two measure the same procedure against the same band. Each
function takes what its callers draw differently and returns ``ok``, the
band's verdict, with the raw numbers both callers format. Wall-time gates
stay with the suite. Standard library and ``hammerprint`` only: the
held-out script runs without pytest.
"""

import contextlib
import csv
import io
import random
import statistics
import tempfile
from collections import namedtuple
from pathlib import Path

from hammerprint import cli, gf2
from hammerprint.challenge import (
    DataPattern,
    DramChallenge,
    PatternKind,
    build_pattern,
    default_challenge,
)
from hammerprint.evalharness import (
    detection_experiment,
    measurements_tradeoff,
    one_dimm_multi_host,
    reliability_experiment,
)
from hammerprint.fingerprint import jaccard_prime, union_of
from hammerprint.geometry import (
    AddressMapping,
    DramGeometry,
    ProbeConfig,
    RecoveryError,
    recover_bank_functions,
)
from hammerprint.simdevice import (
    NoiseConfig,
    make_timing_oracle,
    new_sim_device,
    run_query,
)

C01 = namedtuple("C01", "ok means flips")
C02 = namedtuple("C02", "ok worst n_values")
C03 = namedtuple("C03", "ok means step")
C04 = namedtuple("C04", "ok correct witness_sim replaced_new replaced_correct")
C05 = namedtuple("C05", "ok worst mean_flips")
C06 = namedtuple("C06", "ok suppressed pierced")
C07 = namedtuple("C07", "ok noisy clean")
C10 = namedtuple("C10", "ok work_ratio rel2 rel9")


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


def c01(seed: int) -> C01:
    """`eval reliability` at ``seed``: each device's mean J' lies in the
    calibrated band. Also returns each device's mean flips per query."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--seed", str(seed), "eval", "reliability", "--out-dir", out])
        if rc != 0:
            raise RuntimeError(f"eval reliability --seed {seed} exited {rc}")
        means, flips = [], []
        for i in (1, 2):
            with open(Path(out) / f"reliability_device{i}.csv") as fh:
                rows = list(csv.DictReader(fh))
            means.append(statistics.fmean(float(r["jaccard_prime"]) for r in rows))
            flips.append(statistics.fmean(int(r["new_query_flips"]) for r in rows))
    return C01(all(0.83 <= m <= 0.93 for m in means), means, flips)


def c02(rng: random.Random) -> C02:
    """20 devices, 3 queries in each database: every cross-device J' is zero."""
    ch = default_challenge()
    databases, new_queries = [], []
    for _ in range(20):
        dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
        queries = [run_query(dev, ch, rng.getrandbits(64)) for _ in range(3)]
        databases.append(union_of(queries))
        new_queries.append(run_query(dev, ch, rng.getrandbits(64)))
    values = [jaccard_prime(new_queries[i], databases[j])
              for i in range(20) for j in range(20) if i != j]
    worst = max(values)
    return C02(worst == 0.0, worst, len(values))


def c03(dev, seed: int) -> C03:
    """Mean J' over database sizes d = 1..5 falls by at most a small step
    from one size to the next."""
    means = [reliability_experiment(dev, default_challenge(), n_queries=20, d_size=d,
                                    seed=seed, max_cases=2500).mean
             for d in range(1, 6)]
    step = min(means[i + 1] - means[i] for i in range(4))
    return C03(step >= -0.02, means, step)


def c04(seed: int) -> C04:
    """A fleet re-identified with permuted labels, then again with some of
    its devices replaced by new ones: every decision is right."""
    result = detection_experiment(n_devices=8, seed=seed)
    witness_sim = [row for row in result.rows if row[2] == "dev-1"][0][5]
    replaced = detection_experiment(n_devices=8, seed=seed, replace=2)
    ok = (result.correct == 8 and result.new_count == 0 and witness_sim == 1.0
          and replaced.new_count == 2 and replaced.correct == 8)
    return C04(ok, result.correct, witness_sim, replaced.new_count, replaced.correct)


def c05(dimm: int, hosts: list[int], seed: int) -> C05:
    """One DIMM in three hosts: no similarity across hosts, and distinct
    mean flips per host."""
    res = one_dimm_multi_host(dimm, hosts, seed=seed)
    worst = max(res.matrix[i][j] for i in range(3) for j in range(3) if i != j)
    return C05(worst == 0.0 and len(set(res.mean_flips)) == 3, worst, res.mean_flips)


def c06(dev, rng: random.Random) -> C06:
    """TRR suppresses every double-sided query, and the 22-sided default
    challenge nearly always flips."""
    double = DramChallenge((0,), build_pattern(PatternKind.DOUBLE_SIDED, 2, 1),
                           DataPattern(), 10)
    suppressed = sum(not run_query(dev, double, rng.getrandbits(64)).locations
                     for _ in range(100))
    wide = default_challenge()
    pierced = sum(bool(run_query(dev, wide, rng.getrandbits(64)).locations)
                  for _ in range(100))
    return C06(suppressed == 100 and pierced >= 99, suppressed, pierced)


def c07(rng: random.Random) -> C07:
    """Bank functions recovered on random mappings with timing noise at a
    tenth of the conflict gap (nearly all) and without noise (all)."""
    geom = DramGeometry(banks=64, rows_per_bank=1024, columns_per_row=1024, address_bits=26)

    def run_batch(sigma: float) -> int:
        good = 0
        for _ in range(50):
            mapping = random_mapping(geom, rng)
            dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64),
                                 geom=geom, mapping=mapping,
                                 noise=NoiseConfig(timing_conflict_gap=100.0,
                                                   timing_sigma=sigma))
            oracle = make_timing_oracle(dev, rng.getrandbits(32))
            try:
                funcs = recover_bank_functions(oracle, geom,
                                               ProbeConfig(seed=rng.getrandbits(32)))
            except RecoveryError:
                continue
            good += gf2.row_space_equal(funcs, list(mapping.bank_functions))
        return good

    noisy = run_batch(10.0)  # gap / 10
    clean = run_batch(0.0)
    return C07(noisy >= 48 and clean == 50, noisy, clean)


def c10(dev, seed: int) -> C10:
    """Work grows linearly in measurements, reliability stays flat from 2
    to 9 measurements, and rel(2) lies in its band."""
    rep = measurements_tradeoff(dev, default_challenge(), seed=seed)
    work = {m: w for m, w, *_ in rep.rows}
    rel = {m: r for m, _, r, *_ in rep.rows}
    ok = (all(work[m] == m * work[1] for m in work) and abs(rel[2] - rel[9]) <= 0.05
          and 0.80 <= rel[2] <= 0.90)
    return C10(ok, work[10] / work[1], rel[2], rel[9])
