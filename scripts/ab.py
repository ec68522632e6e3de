#!/usr/bin/env python3
"""Alternating A/B timings of two revisions on the benchmark, standard library only.

    python3 scripts/ab.py HEAD --workload query --seed 71 --pairs 10
    python3 scripts/ab.py HEAD~1 HEAD --record BENCH_32.json

BASE is a commit. CHANGE is a commit too or, when left out, the working
tree: the index and the tracked files as they stand, taken with
``git stash create`` (which moves no ref); untracked files are left out
until they are added. Each side is ``git archive``d into its own
temporary directory (never a worktree) and byte-compiled there, so
neither side pays for compiling its sources during a run.

The benchmark is the base tree's ``BENCHMARK.json``: its ``command``
(whose interpreter also byte-compiles the trees), its ``run_seconds``,
its workloads (all of them unless ``--workload`` names some; the command
rejects an unknown one) and the metrics it declares with a ``better``
direction. For each workload, N pairs of
``COMMAND --workload W --seed S --seconds run_seconds`` run one after the
other, the first side of a pair alternating, each in its own tree; the
script reads the two JSON lines that the command ends with (the record
and the result). Alternation and repetition are the only controls
against a host whose speed drifts (Mytkowicz et al., ASPLOS 2009;
Kalibera and Jones, ISMM 2013).

For each declared metric that every run reports it prints each side's
median and quartiles, the median of the per-pair ratios change / base
and how many pairs each side won. An end-to-end metric also gets a
verdict: the change's median is within its bound when it is worse than
the base's median by no more than ``bound`` times the base's median.
Then it prints whether the two sides agree on ``correct``, ``failed``
and ``output_sha256`` (each side must give one value; a timed fleet or
reliability run's digest depends on how many requests it reached, so
only query and reverse_map digests are expected to agree).

``--record FILE`` writes the change side's records and results with the
pair count and each side's identity: the base commit, the change commit
(null for the working tree) and the ``source_sha256`` its runs report,
the digest of the library sources, which names the code without git.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AGREEMENT = ("correct", "failed", "output_sha256")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()


def revision(repo: Path, rev: str | None) -> tuple[str, str | None]:
    """The commit to archive for ``rev`` and the sha to record for it.

    ``None`` is the working tree: a ``git stash create`` commit of the
    index and tracked files (HEAD when nothing differs), recorded as None
    because that commit belongs to no branch."""
    if rev is None:
        return git(repo, "stash", "create") or git(repo, "rev-parse", "HEAD"), None
    sha = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
    return sha, sha


def checkout(repo: Path, sha: str, dest: Path, python: str = sys.executable) -> None:
    """Extract the tree of commit ``sha`` into ``dest`` and byte-compile it."""
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=repo,
                         capture_output=True, check=True).stdout
    # the "data" filter refuses links and paths that leave dest; CPython
    # before 3.10.12 / 3.11.4 has no filters, and git archive writes neither
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)
    subprocess.run([python, "-m", "compileall", "-q", "."], cwd=dest, check=True,
                   stdout=subprocess.DEVNULL)


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The record and the result, the last two lines the command prints."""
    *_, record, result = stdout.splitlines()
    return json.loads(record), json.loads(result)


def run_side(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds)],
                         cwd=tree, stdout=subprocess.PIPE, text=True, check=True).stdout
    return parse_run(out)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[tuple[dict, dict], tuple[dict, dict]]], bench: dict) -> dict:
    """Per-metric statistics and agreement over ``(base run, change run)`` pairs.

    A run is a ``(record, result)`` pair as ``parse_run`` returns it; a
    metric is summarized when ``bench`` (a ``BENCHMARK.json``) declares it
    and every run reports it.
    """
    declared = {m["name"]: m for m in (*bench["end_to_end"], *bench["per_layer"])}
    reported = set.intersection(*(set(record["metrics"]) for pair in pairs
                                  for record, _ in pair))
    metrics = {}
    for name in sorted(reported & declared.keys()):
        base = [b[0]["metrics"][name]["value"] for b, _ in pairs]
        change = [c[0]["metrics"][name]["value"] for _, c in pairs]
        sign = -1 if declared[name]["better"] == "higher" else 1
        ratios = [c / b for b, c in zip(base, change) if b]
        m = metrics[name] = {
            "unit": pairs[0][0][0]["metrics"][name]["unit"],
            "better": declared[name]["better"],
            "base": quartiles(base),
            "change": quartiles(change),
            "ratio": statistics.median(ratios) if ratios else None,
            "base_wins": sum(sign * b < sign * c for b, c in zip(base, change)),
            "change_wins": sum(sign * c < sign * b for b, c in zip(base, change)),
        }
        if "bound" in declared[name]:
            bmed, cmed = m["base"][1], m["change"][1]
            m["bound"] = declared[name]["bound"]
            m["within_bound"] = sign * (cmed - bmed) <= m["bound"] * abs(bmed)
    agreement = {}
    for key in AGREEMENT:
        sides = [sorted({str((record if key in record else result).get(key))
                         for record, result in side}) for side in zip(*pairs)]
        agreement[key] = {"base": sides[0], "change": sides[1],
                          "agree": sides[0] == sides[1] and len(sides[0]) == 1}
    return {"pairs": len(pairs), "metrics": metrics, "agreement": agreement}


def format_summary(workload: str, summary: dict) -> str:
    n = summary["pairs"]
    lines = [f"workload {workload}: {n} pairs; median (q1-q3) base -> change, "
             "median ratio, wins base/change, end-to-end bound"]
    for name, m in summary["metrics"].items():
        (bq1, bmed, bq3), (cq1, cmed, cq3) = m["base"], m["change"]
        ratio = "-" if m["ratio"] is None else f"{m['ratio']:.3f}"
        line = (f"  {name:<24} {bmed:.6g} ({bq1:.6g}-{bq3:.6g}) -> "
                f"{cmed:.6g} ({cq1:.6g}-{cq3:.6g}) {m['unit']}; ratio {ratio}; "
                f"wins {m['base_wins']}/{m['change_wins']}")
        if "bound" in m:
            verdict = "within" if m["within_bound"] else "OUTSIDE"
            line += f"; {verdict} bound {m['bound']:g}"
        lines.append(line)
    for key, a in summary["agreement"].items():
        verdict = "agree" if a["agree"] else "DIFFER"
        lines.append(f"  {key}: {verdict}; base {' '.join(a['base'])}, "
                     f"change {' '.join(a['change'])}")
    return "\n".join(lines)


def source_digest(runs: list[tuple[dict, dict]]) -> str | None:
    """The ``source_sha256`` that a side's runs report, if they agree on one."""
    digests = {record["env"].get("source_sha256") for record, _ in runs}
    return digests.pop() if len(digests) == 1 else None


def bench_record(base_sha: str, change_sha: str | None, runs: dict, summaries: dict) -> dict:
    """The ``--record`` file: both sides' identities, and for each workload
    the change side's runs and the pairs' summary."""
    return {
        "base_sha": base_sha,
        "change_sha": change_sha,
        "base_source_sha256": source_digest([b for pairs in runs.values() for b, _ in pairs]),
        "change_source_sha256": source_digest([c for pairs in runs.values() for _, c in pairs]),
        "workloads": {w: {"pairs": summaries[w]["pairs"],
                          "records": [c[0] for _, c in runs[w]],
                          "results": [c[1] for _, c in runs[w]],
                          "summary": summaries[w]} for w in runs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="base commit")
    ap.add_argument("change", nargs="?", help="change commit (default: the working tree)")
    ap.add_argument("--workload", action="append",
                    help="workload to run; may be repeated (default: all the benchmark's)")
    ap.add_argument("--seed", type=int, default=71)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--record", type=Path, help="write the change side's record here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    (base, base_sha), (change, change_sha) = (revision(ROOT, args.base),
                                              revision(ROOT, args.change))
    runs, summaries = {}, {}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = Path(tmp, "base"), Path(tmp, "change")
        bench = json.loads(git(ROOT, "show", f"{base}:BENCHMARK.json"))
        command, seconds = bench["command"], bench["run_seconds"]
        for sha, tree in zip((base, change), trees):
            checkout(ROOT, sha, tree, python=command[0])
        for workload in args.workload or [w["name"] for w in bench["workloads"]]:
            pairs = []
            for i in range(args.pairs):
                order = (0, 1) if i % 2 == 0 else (1, 0)
                pair = [None, None]
                for side in order:
                    pair[side] = run_side(trees[side], command, workload, args.seed, seconds)
                pairs.append(tuple(pair))
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            runs[workload], summaries[workload] = pairs, summarize(pairs, bench)
            print(format_summary(workload, summaries[workload]), flush=True)
    if args.record:
        record = bench_record(base_sha, change_sha, runs, summaries)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
