"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
its measured numbers. The procedure and band of criteria 01-07 and 10
live in ``criteria.py``, which ``scripts/heldout_report.py`` runs over
held-out seeds; this module pins their inputs and adds the wall-time
gates. Seeds are fixed so the whole suite is reproducible bit for bit.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import criteria
from hammerprint.fingerprint import (
    Fingerprint,
    FlipLocation,
    decode_fingerprint,
    encode_fingerprint,
    jaccard,
    jaccard_prime,
    union_of,
)
from hammerprint.registry import (
    FingerprintDataset,
    enroll,
    identify,
)
from hammerprint.simdevice import new_sim_device

H = "e" * 64


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_reliability_reproduction():
    start = time.monotonic()
    r = criteria.c01(1001)
    elapsed = time.monotonic() - start
    report(1, "reliability-reproduction", r.ok and elapsed <= 60.0,
           f"mean J_intra = {r.means[0]:.4f} / {r.means[1]:.4f}, {elapsed:.1f}s")


def test_criterion_02_uniqueness_all_zero():
    start = time.monotonic()
    r = criteria.c02(random.Random("acceptance-2"))
    elapsed = time.monotonic() - start
    report(2, "uniqueness-all-zero", r.ok and elapsed <= 60.0,
           f"{r.n_values} cross-device values, max = {r.worst}, {elapsed:.1f}s")


def test_criterion_03_database_size_trend():
    r = criteria.c03(new_sim_device(3001, 3002), 330)
    report(3, "database-size-trend", r.ok,
           "means d=1..5: " + " ".join(f"{m:.4f}" for m in r.means))


def test_criterion_04_identification_experiment():
    r = criteria.c04(4001)
    report(4, "identification-experiment", r.ok,
           f"recovered {r.correct}/8, witness similarity = {r.witness_sim}, "
           f"replacement run: {r.replaced_new} new / {r.replaced_correct}/8 correct")


def test_criterion_05_host_binding():
    r = criteria.c05(5001, [5101, 5102, 5103], 550)
    flips = ", ".join(f"{v:.1f}" for v in r.mean_flips)
    report(5, "host-binding", r.ok,
           f"max off-diagonal = {r.worst}, per-host mean flips = {flips}")


def test_criterion_06_trr_property():
    r = criteria.c06(new_sim_device(6001, 6002), random.Random("acceptance-6"))
    report(6, "trr-property", r.ok,
           f"double-sided suppressed {r.suppressed}/100, "
           f"22-sided flipped {r.pierced}/100")


def test_criterion_07_mapping_recovery():
    start = time.monotonic()
    r = criteria.c07(random.Random("acceptance-7"))
    elapsed = time.monotonic() - start
    report(7, "mapping-recovery", r.ok and elapsed <= 120.0,
           f"sigma=gap/10: {r.noisy}/50, sigma=0: {r.clean}/50, {elapsed:.1f}s")


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
        best = max(((jaccard_prime(query, union_of(r.fingerprints)), rid)
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
    r = criteria.c10(new_sim_device(10001, 10002), 1010)
    report(10, "measurement-tradeoff", r.ok,
           f"work(10)/work(1) = {r.work_ratio:.0f}, "
           f"rel(2) = {r.rel2:.4f}, rel(9) = {r.rel9:.4f}")
