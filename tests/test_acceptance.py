"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
its measured numbers. Tolerances are pinned here; seeds are fixed so the
whole suite is reproducible bit for bit.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import csv
import random
import time

from conftest import random_mapping
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
from hammerprint.fingerprint import (
    Fingerprint,
    FlipLocation,
    decode_fingerprint,
    encode_fingerprint,
    jaccard,
    jaccard_prime,
    union_of,
)
from hammerprint.geometry import (
    DramGeometry,
    ProbeConfig,
    RecoveryError,
    recover_bank_functions,
)
from hammerprint.registry import (
    FingerprintDataset,
    enroll,
    identify,
)
from hammerprint.simdevice import (
    NoiseConfig,
    hammer,
    make_timing_oracle,
    new_sim_device,
    run_query,
)

H = "e" * 64


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_reliability_reproduction(tmp_path):
    start = time.monotonic()
    rc = cli.main(["--seed", "1001", "eval", "reliability",
                   "--out-dir", str(tmp_path)])
    elapsed = time.monotonic() - start
    assert rc == 0
    means = []
    for i in (1, 2):
        with open(tmp_path / f"reliability_device{i}.csv") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["jaccard_prime"]) for r in rows]
        means.append(sum(values) / len(values))
    ok = all(0.83 <= m <= 0.93 for m in means) and elapsed <= 60.0
    report(1, "reliability-reproduction", ok,
           f"mean J_intra = {means[0]:.4f} / {means[1]:.4f}, {elapsed:.1f}s")


def test_criterion_02_uniqueness_all_zero():
    start = time.monotonic()
    ch = default_challenge()
    rng = random.Random("acceptance-2")
    databases, new_queries = [], []
    for _ in range(20):
        dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
        queries = [run_query(dev, ch, rng.getrandbits(64)) for _ in range(3)]
        databases.append(union_of(queries))
        new_queries.append(run_query(dev, ch, rng.getrandbits(64)))
    values = [jaccard_prime(new_queries[i], databases[j])
              for i in range(20) for j in range(20) if i != j]
    elapsed = time.monotonic() - start
    ok = max(values) == 0.0 and elapsed <= 60.0
    report(2, "uniqueness-all-zero", ok,
           f"{len(values)} cross-device values, max = {max(values)}, {elapsed:.1f}s")


def test_criterion_03_database_size_trend():
    dev = new_sim_device(3001, 3002)
    ch = default_challenge()
    means = []
    for d in range(1, 6):
        rep = reliability_experiment(dev, ch, n_queries=20, d_size=d,
                                     seed=330, max_cases=2500)
        means.append(rep.mean)
    ok = all(means[i + 1] >= means[i] - 0.02 for i in range(4))
    report(3, "database-size-trend", ok,
           "means d=1..5: " + " ".join(f"{m:.4f}" for m in means))


def test_criterion_04_identification_experiment():
    result = detection_experiment(n_devices=8, seed=4001)
    witness_rows = [row for row in result.rows if row[2] == "dev-1"]
    witness_sim = witness_rows[0][5]
    replaced = detection_experiment(n_devices=8, seed=4001, replace=2)
    ok = (result.correct == 8 and result.new_count == 0
          and witness_sim == 1.0
          and replaced.new_count == 2 and replaced.correct == 8)
    report(4, "identification-experiment", ok,
           f"recovered {result.correct}/8, witness similarity = {witness_sim}, "
           f"replacement run: {replaced.new_count} new / {replaced.correct}/8 correct")


def test_criterion_05_host_binding():
    res = one_dimm_multi_host(5001, [5101, 5102, 5103], seed=550)
    off_diag = [res.matrix[i][j] for i in range(3) for j in range(3) if i != j]
    ok = (max(off_diag) == 0.0 and len(set(res.mean_flips)) == 3)
    flips = ", ".join(f"{v:.1f}" for v in res.mean_flips)
    report(5, "host-binding", ok,
           f"max off-diagonal = {max(off_diag)}, per-host mean flips = {flips}")


def test_criterion_06_trr_property():
    rng = random.Random("acceptance-6")
    dev = new_sim_device(6001, 6002)
    double = DramChallenge((0,), build_pattern(PatternKind.DOUBLE_SIDED, 2, 1),
                           DataPattern(), 10)
    suppressed = 0
    for _ in range(100):
        flips = hammer(dev, double, rng.getrandbits(64))
        suppressed += all(not s for s in flips)
    wide = default_challenge()
    pierced = 0
    for _ in range(100):
        flips = hammer(dev, wide, rng.getrandbits(64))
        pierced += any(s for s in flips)
    ok = suppressed == 100 and pierced >= 99
    report(6, "trr-property", ok,
           f"double-sided suppressed {suppressed}/100, "
           f"22-sided flipped {pierced}/100")


def test_criterion_07_mapping_recovery():
    start = time.monotonic()
    geom = DramGeometry(banks=64, rows_per_bank=1024, columns_per_row=1024,
                        address_bits=26)
    rng = random.Random("acceptance-7")

    def run_batch(sigma: float) -> int:
        good = 0
        for trial in range(50):
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

    noisy = run_batch(sigma=10.0)  # gap / 10
    clean = run_batch(sigma=0.0)
    elapsed = time.monotonic() - start
    ok = noisy >= 48 and clean == 50 and elapsed <= 120.0  # 48/50 = 96%
    report(7, "mapping-recovery", ok,
           f"sigma=gap/10: {noisy}/50, sigma=0: {clean}/50, {elapsed:.1f}s")


def _random_locations(rng: random.Random, n: int) -> set[FlipLocation]:
    return {FlipLocation(rng.randrange(16), rng.randrange(64),
                         rng.randrange(512), rng.randrange(8))
            for _ in range(n)}


def test_criterion_08_metric_laws():
    rng = random.Random("acceptance-8")
    cases = 1000
    for _ in range(cases):
        a = Fingerprint(frozenset(_random_locations(rng, rng.randrange(1, 50))), H)
        b = Fingerprint(frozenset(_random_locations(rng, rng.randrange(1, 50))), H)
        j = jaccard(a, b)
        assert j == jaccard(b, a)
        assert 0.0 <= j <= 1.0
        assert 0.0 <= jaccard_prime(a, b) <= 1.0
    for _ in range(cases):
        s = _random_locations(rng, rng.randrange(1, 50))
        extra = _random_locations(rng, rng.randrange(0, 50))
        assert jaccard_prime(Fingerprint(frozenset(s), H),
                             Fingerprint(frozenset(s | extra), H)) == 1.0
    for _ in range(cases):
        s_n = Fingerprint(frozenset(_random_locations(rng, rng.randrange(1, 40))), H)
        small = _random_locations(rng, rng.randrange(0, 40))
        big = small | _random_locations(rng, rng.randrange(0, 40))
        assert jaccard_prime(s_n, Fingerprint(frozenset(small), H)) <= \
            jaccard_prime(s_n, Fingerprint(frozenset(big), H))
    for _ in range(cases):
        f = Fingerprint(frozenset(_random_locations(rng, rng.randrange(0, 60))), H)
        assert decode_fingerprint(encode_fingerprint(f)) == f
    report(8, "metric-laws", True,
           f"symmetry/range, superset=1, monotonicity, roundtrip x {cases} each")


def _random_k1_dataset(rng: random.Random):
    """Single-fingerprint-per-device dataset plus a query that overlaps at
    least one device well above the match threshold."""
    n_devices = rng.randrange(3, 9)
    pool = list(_random_locations(rng, 600))
    ds = FingerprintDataset(H)
    sets = []
    for i in range(n_devices):
        locs = set(rng.sample(pool, rng.randrange(60, 140)))
        sets.append(locs)
        enroll(ds, f"dev-{i + 1}", Fingerprint(frozenset(locs), H))
    target = rng.randrange(n_devices)
    base = sets[target]
    keep = rng.sample(sorted(base), int(len(base) * rng.uniform(0.75, 0.95)))
    query = set(keep) | _random_locations(rng, rng.randrange(0, 8))
    return ds, Fingerprint(frozenset(query), H)


def test_criterion_09_identification_determinism():
    rng = random.Random("acceptance-9")
    cfg = 0.4
    agree = 0
    for _ in range(100):
        ds, query = _random_k1_dataset(rng)
        result = identify(ds, query, cfg)

        # brute force: argmax of the ranking metric over every device
        best = max(((jaccard_prime(query, r.union()), rid)
                    for rid, r in ds.records.items()),
                   key=lambda sr: (sr[0], tuple(-ord(c) for c in sr[1])))
        assert result.decision == "matched"
        agree += result.device_id == best[1]

        # record-order permutations never change the outcome
        ids = list(ds.records)
        for _ in range(5):
            rng.shuffle(ids)
            permuted = FingerprintDataset(H)
            for rid in ids:
                permuted.records[rid] = ds.records[rid]
            assert identify(permuted, query, cfg) == result
    ok = agree == 100
    report(9, "identification-determinism", ok,
           f"brute-force agreement {agree}/100, order-invariant x 5 permutations")


def test_criterion_10_measurement_tradeoff():
    dev = new_sim_device(10001, 10002)
    ch = default_challenge()
    rep = measurements_tradeoff(dev, ch, seed=1010)
    work = {m: w for m, w, *_ in rep.rows}
    rel = {m: r for m, _, r, *_ in rep.rows}
    linear = all(work[m] == m * work[1] for m in work)
    flat = abs(rel[2] - rel[9]) <= 0.05
    in_band = 0.80 <= rel[2] <= 0.90
    ok = linear and flat and in_band
    report(10, "measurement-tradeoff", ok,
           f"work(10)/work(1) = {work[10] / work[1]:.0f}, "
           f"rel(2) = {rel[2]:.4f}, rel(9) = {rel[9]:.4f}")
