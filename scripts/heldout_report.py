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
criterion's procedure and band in ``tests/criteria.py``, the same function
the suite calls. The suite's wall-time gates are not part of a held-out
pass, so the report is the same bytes on every run.

For each criterion the report prints its pass count and the min / median /
max of its measured number. For criterion 01 it also lists each device's
mean J' and mean flips per query, in seed order.

``--compare`` holds a change of the simulator's random streams to the
tolerance fixed below, reading the report before the change and the report
after it; it exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import math
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a reloaded script adds no entry twice
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "tests")) if path not in sys.path]

import criteria  # noqa: E402
from hammerprint.simdevice import new_sim_device  # noqa: E402

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


def seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def device(rng: random.Random):
    return new_sim_device(rng.getrandbits(64), rng.getrandbits(64))


# criterion -> (name, its measured number, number format, the shared
# procedure, its inputs drawn from a run's rng, the measured numbers of its
# result)
CRITERIA = {
    "01": ("reliability-reproduction", "mean J_intra per device", "{:.4f}", criteria.c01,
           lambda rng: [seed(rng)], lambda r: r.means),
    "02": ("uniqueness-all-zero", "max cross-device J'", "{:.4f}", criteria.c02,
           lambda rng: [rng], lambda r: [r.worst]),
    "03": ("database-size-trend", "smallest step of the mean over d", "{:.4f}", criteria.c03,
           lambda rng: [device(rng), seed(rng)], lambda r: [r.step]),
    "04": ("identification-experiment", "correct decisions of 16", "{:g}", criteria.c04,
           lambda rng: [seed(rng)], lambda r: [r.correct + r.replaced_correct]),
    "05": ("host-binding", "max off-diagonal J'", "{:.4f}", criteria.c05,
           lambda rng: [rng.getrandbits(64), [rng.getrandbits(64) for _ in range(3)],
                        seed(rng)],
           lambda r: [r.worst]),
    "06": ("trr-property", "wide runs that flipped of 100", "{:g}", criteria.c06,
           lambda rng: [device(rng), rng], lambda r: [r.pierced]),
    "07": ("mapping-recovery", "recoveries at sigma=gap/10 of 50", "{:g}", criteria.c07,
           lambda rng: [rng], lambda r: [r.noisy]),
    "10": ("measurement-tradeoff", "rel(2)", "{:.4f}", criteria.c10,
           lambda rng: [device(rng), seed(rng)], lambda r: [r.rel2]),
}
# criterion 01's per-device samples: key -> (field of its result, format)
SAMPLES = {"mean_j_intra": ("means", "{:.6f}"), "mean_flips": ("flips", "{:.4f}")}


def report(names: list[str], k: int, k07: int) -> str:
    lines = [f"held-out report: K={k}, criterion 07 K={k07}"]
    sample_lines = []
    for c in names:
        name, measured, fmt, run, inputs, numbers = CRITERIA[c]
        runs = k07 if c == "07" else k
        passed, values, samples = 0, [], {}
        for i in range(runs):
            result = run(*inputs(seeded(c, i)))
            passed += result.ok
            values += numbers(result)
            if c == "01":
                for key, (field, _) in SAMPLES.items():
                    samples.setdefault(key, []).extend(getattr(result, field))
        lo, mid, hi = (fmt.format(v) for v in (min(values), statistics.median(values),
                                               max(values)))
        lines.append(f"criterion {c} {name}: passed {passed}/{runs}; {measured} "
                     f"min {lo} median {mid} max {hi}")
        for key, vals in samples.items():
            sample_lines.append(f"samples {c} {key}: "
                                + " ".join(SAMPLES[key][1].format(v) for v in vals))
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
