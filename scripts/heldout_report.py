#!/usr/bin/env python3
"""Held-out seed report for the acceptance statistics, standard library only.

    python3 scripts/heldout_report.py > report.txt
    python3 scripts/heldout_report.py --compare before.txt after.txt

The acceptance suite (``tests/test_acceptance.py``) checks each criterion at
one pinned seed, so it cannot tell a change that keeps the simulator's
statistics from one that shifts them but still lands in the band. This
script reruns criteria 01-06 and 10 over K = 20 held-out seeds and
criterion 07 over K07 = 5 (each of its runs is 100 recoveries). Run ``k``
of criterion ``c`` draws every seed it needs from
``random.Random(f"heldout:{c:02d}:{k}")``; the rest of the run is the
criterion's own procedure and check. The suite's wall-time gates are not
part of a held-out pass, so the report is the same bytes on every run.

For each criterion the report prints its pass count and the min / median /
max of its measured number. For criterion 01 it also lists each device's
mean J' and mean flips per query, in seed order.

``--compare`` holds a change of the simulator's random streams to the
tolerance fixed below, reading the report before the change and the report
after it; it exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import random
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hammerprint import cli, gf2  # noqa: E402
from hammerprint.challenge import (  # noqa: E402
    DataPattern,
    DramChallenge,
    PatternKind,
    build_pattern,
    default_challenge,
)
from hammerprint.evalharness import (  # noqa: E402
    detection_experiment,
    measurements_tradeoff,
    one_dimm_multi_host,
    reliability_experiment,
)
from hammerprint.fingerprint import jaccard_prime, union_of  # noqa: E402
from hammerprint.geometry import (  # noqa: E402
    DramGeometry,
    ProbeConfig,
    RecoveryError,
    recover_bank_functions,
)
from hammerprint.simdevice import (  # noqa: E402
    NoiseConfig,
    hammer,
    make_timing_oracle,
    new_sim_device,
    run_query,
)
from perfbench.workloads import random_mapping  # noqa: E402

# held-out seeds per criterion, and for criterion 07
K, K07 = 20, 5

# The tolerance a change of the random streams must meet, fixed before any
# such change is measured. A criterion's pass count may drop by at most
# MAX_PASS_DROP runs (criterion 07's by none). Criterion 01's per-device
# samples must pass a two-sample Kolmogorov-Smirnov test at level 0.01:
# D <= KS_C_ALPHA * sqrt((n + m) / (n * m)), which is 0.364 at n = m = 40.
MAX_PASS_DROP = {"07": 0}
DEFAULT_PASS_DROP = 1
KS_C_ALPHA = 1.628


def seeded(criterion: str, k: int) -> random.Random:
    return random.Random(f"heldout:{criterion}:{k}")


def criterion_01(rng):
    seed = rng.getrandbits(32)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--seed", str(seed), "eval", "reliability", "--out-dir", out]) == 0
        means, flips = [], []
        for i in (1, 2):
            with open(Path(out) / f"reliability_device{i}.csv") as fh:
                rows = list(csv.DictReader(fh))
            means.append(statistics.fmean(float(r["jaccard_prime"]) for r in rows))
            flips.append(statistics.fmean(int(r["new_query_flips"]) for r in rows))
    ok = all(0.83 <= m <= 0.93 for m in means)
    return ok, means, {"mean_j_intra": means, "mean_flips": flips}


def criterion_02(rng):
    ch = default_challenge()
    databases, new_queries = [], []
    for _ in range(20):
        dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
        queries = [run_query(dev, ch, rng.getrandbits(64)) for _ in range(3)]
        databases.append(union_of(queries))
        new_queries.append(run_query(dev, ch, rng.getrandbits(64)))
    worst = max(jaccard_prime(new_queries[i], databases[j])
                for i in range(20) for j in range(20) if i != j)
    return worst == 0.0, [worst], None


def criterion_03(rng):
    dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
    seed = rng.getrandbits(32)
    means = [reliability_experiment(dev, default_challenge(), n_queries=20, d_size=d,
                                    seed=seed, max_cases=2500).mean
             for d in range(1, 6)]
    step = min(means[i + 1] - means[i] for i in range(4))
    return step >= -0.02, [step], None


def criterion_04(rng):
    seed = rng.getrandbits(32)
    result = detection_experiment(n_devices=8, seed=seed)
    witness_sim = [row for row in result.rows if row[2] == "dev-1"][0][5]
    replaced = detection_experiment(n_devices=8, seed=seed, replace=2)
    ok = (result.correct == 8 and result.new_count == 0 and witness_sim == 1.0
          and replaced.new_count == 2 and replaced.correct == 8)
    return ok, [result.correct + replaced.correct], None


def criterion_05(rng):
    dimm, hosts, seed = rng.getrandbits(64), [rng.getrandbits(64) for _ in range(3)], \
        rng.getrandbits(32)
    res = one_dimm_multi_host(dimm, hosts, seed=seed)
    worst = max(res.matrix[i][j] for i in range(3) for j in range(3) if i != j)
    return worst == 0.0 and len(set(res.mean_flips)) == 3, [worst], None


def criterion_06(rng):
    dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
    double = DramChallenge((0,), build_pattern(PatternKind.DOUBLE_SIDED, 2, 1),
                           DataPattern(), 10)
    suppressed = sum(all(not s for s in hammer(dev, double, rng.getrandbits(64)))
                     for _ in range(100))
    wide = default_challenge()
    pierced = sum(any(hammer(dev, wide, rng.getrandbits(64))) for _ in range(100))
    return suppressed == 100 and pierced >= 99, [pierced], None


def criterion_07(rng):
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

    noisy = run_batch(10.0)
    clean = run_batch(0.0)
    return noisy >= 48 and clean == 50, [noisy], None


def criterion_10(rng):
    dev = new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
    rep = measurements_tradeoff(dev, default_challenge(), seed=rng.getrandbits(32))
    work = {m: w for m, w, *_ in rep.rows}
    rel = {m: r for m, _, r, *_ in rep.rows}
    ok = (all(work[m] == m * work[1] for m in work) and abs(rel[2] - rel[9]) <= 0.05
          and 0.80 <= rel[2] <= 0.90)
    return ok, [rel[2]], None


# criterion -> (name, its measured number, number format, run)
CRITERIA = {
    "01": ("reliability-reproduction", "mean J_intra per device", "{:.4f}", criterion_01),
    "02": ("uniqueness-all-zero", "max cross-device J'", "{:.4f}", criterion_02),
    "03": ("database-size-trend", "smallest step of the mean over d", "{:.4f}", criterion_03),
    "04": ("identification-experiment", "correct decisions of 16", "{:g}", criterion_04),
    "05": ("host-binding", "max off-diagonal J'", "{:.4f}", criterion_05),
    "06": ("trr-property", "wide runs that flipped of 100", "{:g}", criterion_06),
    "07": ("mapping-recovery", "recoveries at sigma=gap/10 of 50", "{:g}", criterion_07),
    "10": ("measurement-tradeoff", "rel(2)", "{:.4f}", criterion_10),
}
SAMPLE_FORMAT = {"mean_j_intra": "{:.6f}", "mean_flips": "{:.4f}"}


def report(criteria: list[str], k: int, k07: int) -> str:
    lines = [f"held-out report: K={k}, criterion 07 K={k07}"]
    sample_lines = []
    for c in criteria:
        name, measured, fmt, run = CRITERIA[c]
        runs = k07 if c == "07" else k
        passed, values, samples = 0, [], {}
        for i in range(runs):
            ok, got, extra = run(seeded(c, i))
            passed += ok
            values += got
            for key, vals in (extra or {}).items():
                samples.setdefault(key, []).extend(vals)
        lo, mid, hi = (fmt.format(v) for v in (min(values), statistics.median(values),
                                               max(values)))
        lines.append(f"criterion {c} {name}: passed {passed}/{runs}; {measured} "
                     f"min {lo} median {mid} max {hi}")
        for key, vals in samples.items():
            sample_lines.append(f"samples {c} {key}: "
                                + " ".join(SAMPLE_FORMAT[key].format(v) for v in vals))
    return "\n".join(lines + sample_lines) + "\n"


def parse_report(text: str):
    """(criterion -> (passed, runs), (criterion, key) -> samples) of a report."""
    counts, samples = {}, {}
    for line in text.splitlines():
        if line.startswith("criterion "):
            c, rest = line.split()[1], line.split(": passed ", 1)[1]
            passed, runs = rest.split(";", 1)[0].split("/")
            counts[c] = int(passed), int(runs)
        elif line.startswith("samples "):
            head, values = line.split(": ", 1)
            _, c, key = head.split()
            samples[c, key] = [float(v) for v in values.split()]
    return counts, samples


def ks_distance(xs: list[float], ys: list[float]) -> float:
    """Two-sample Kolmogorov-Smirnov D: the largest gap between the
    empirical distribution functions of ``xs`` and ``ys``."""
    xs, ys = sorted(xs), sorted(ys)
    i = j = 0
    d = 0.0
    while i < len(xs) and j < len(ys):
        v = min(xs[i], ys[j])
        while i < len(xs) and xs[i] == v:
            i += 1
        while j < len(ys) and ys[j] == v:
            j += 1
        d = max(d, abs(i / len(xs) - j / len(ys)))
    return d


def compare(before: str, after: str) -> tuple[bool, str]:
    """Check ``after`` against ``before`` under the fixed tolerance; return
    (every check holds, one line per check)."""
    (counts0, samples0), (counts1, samples1) = parse_report(before), parse_report(after)
    lines, ok = [], True
    for c in sorted(counts0.keys() | counts1.keys()):
        if c not in counts0 or c not in counts1 or counts0[c][1] != counts1[c][1]:
            good, text = False, "not run over the same seeds in both reports"
        else:
            (p0, runs), (p1, _) = counts0[c], counts1[c]
            allowed = MAX_PASS_DROP.get(c, DEFAULT_PASS_DROP)
            good = p0 - p1 <= allowed
            text = f"passed {p0}/{runs} -> {p1}/{runs} (may drop by {allowed})"
        ok &= good
        lines.append(f"{'ok' if good else 'FAIL'} criterion {c}: {text}")
    for key in sorted(samples0.keys() | samples1.keys()):
        xs, ys = samples0.get(key), samples1.get(key)
        if not xs or not ys:
            good, text = False, "missing from one report"
        else:
            d = ks_distance(xs, ys)
            bound = KS_C_ALPHA * math.sqrt((len(xs) + len(ys)) / (len(xs) * len(ys)))
            good = d <= bound
            text = (f"KS D = {d:.4f} (bound {bound:.3f}, n = {len(xs)}, m = {len(ys)}); "
                    f"median {statistics.median(xs):.4f} -> {statistics.median(ys):.4f}")
        ok &= good
        lines.append(f"{'ok' if good else 'FAIL'} samples {key[0]} {key[1]}: {text}")
    return ok, "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="check the AFTER report against the BEFORE report")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (Path(p).read_text() for p in args.compare)
        ok, text = compare(before, after)
        sys.stdout.write(text)
        return 0 if ok else 1
    sys.stdout.write(report(list(CRITERIA), K, K07))
    return 0


if __name__ == "__main__":
    sys.exit(main())
