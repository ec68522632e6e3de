#!/usr/bin/env python3
"""hammerprint benchmark: one closed-loop client per run, standard library only.

    python3 perfbench/run.py --workload fleet --seed 3 --seconds 12 --trace 0

``--trace 0`` times the package import in seven fresh interpreters and the
workload's set-up three times (``setup_s`` is the median import plus the
median set-up, at nominal host speed), then sends requests for
``--seconds`` seconds, one at a time, checking every output, and prints the
end-to-end metrics. ``--trace 1`` runs a fixed slice of every workload
twice under the tracer, checks that the exact counters repeat, sweeps the
dataset size, and prints the per-layer metrics; it also runs the named
workload's slice untraced to report the tracing overhead. The last line of
stdout is always the JSON result; the lines above it are the
human-readable report and a JSON record of the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "perfbench-traces"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
WORKLOADS = ("query", "reliability", "fleet", "reverse_map")

# End-to-end metrics in the final JSON line, the same three on every
# workload. ``latency_norm_ms`` is the trimmed mean latency of the
# workload's main request kind, and ``setup_s`` the set-up time, each
# scaled to a nominal host speed (see ``HostSpeed``). On a shared 2-vCPU
# host the speed alternates between states about 1.3x apart, for seconds to
# minutes at a time. Raw latencies then spread up to 0.43 (IQR/median) over
# a few runs, so they, the medians and ``throughput_per_s`` are reported
# but not gated. The trimmed twentieths hold the rare requests that a
# garbage collection or a file-system stall landed in: one fleet identify
# in 108 took 300 ms against a median of 10 ms.
E2E_UNITS = {"setup_s": "s", "max_rss_mb": "MB", "latency_norm_ms": "ms"}

# Requests in one traced slice; fixed, so that counts repeat exactly.
TRACE_OPS = {"query": 40, "reliability": 1, "fleet": 40, "reverse_map": 4}
# Recoveries at timing noise gap/10, for the traced run's success ratio.
NOISY_RECOVERIES = 24
SWEEP_SIZES = (100, 300, 1000)
SWEEP_PROBES = 20
# Per-layer counts that must be identical whenever the same seed is run.
EXACT_COUNTERS = (
    "simdevice.prf.calls", "simdevice.susceptible_cells.calls",
    "simdevice.flips_per_query", "registry.identify.stage1_compares",
    "registry.save_dataset.files_written",
    "geometry.recover_bank_functions.oracle_calls", "evalharness.pairings",
)


class HostSpeed:
    """Samples the host's speed while the run sets up and sends requests.

    Every ``INTERVAL_S`` a SIGALRM handler runs ``hostprobe.probe``.
    ``scale(t0, t1)`` is ``NOMINAL_NS`` over the probe time (see
    ``hostprobe.probe_ns``) of the probes from ``WINDOW_S`` before ``t0``
    to ``WINDOW_S`` after ``t1``: multiplying the latency of a request that
    ran from ``t0`` to ``t1`` by it gives its latency on a nominal host. The
    host switches speed within seconds, so each request is scaled by the
    probes timed around it. The handler's own time (about 1.5% of the run)
    falls inside the requests on every commit alike.
    """

    INTERVAL_S = 0.02
    WINDOW_S = 0.25

    def __init__(self):
        self.samples: list[tuple[float, tuple[int, int]]] = []  # (perf_counter, probe)

    def _probe(self, signum, frame):
        self.samples.append((time.perf_counter(), hostprobe.probe(time.perf_counter_ns)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_ns(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        lo, hi = t0 - self.WINDOW_S, t1 + self.WINDOW_S
        return hostprobe.probe_ns([p for t, p in self.samples if lo <= t <= hi])

    def scale(self, t0: float, t1: float) -> float:
        return hostprobe.NOMINAL_NS / self.probe_ns(t0, t1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout-seed", type=int, default=None,
                    help="generate inputs from this held-out seed instead of --seed")
    args = ap.parse_args(argv)

    if not (SRC / "hammerprint" / "__init__.py").is_file():
        print(f"error: no hammerprint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hammerprint
    if Path(hammerprint.__file__).resolve().parent != (SRC / "hammerprint").resolve():
        print(f"error: imported hammerprint from {hammerprint.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    seed = args.seed if args.holdout_seed is None else args.holdout_seed
    env = environment(args, seed)
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            result, report = traced_run(args.workload, seed, workdir)
        else:
            result, report = timed_run(args.workload, seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"hammerprint benchmark: workload={args.workload} seed={seed} "
          f"trace={args.trace} python={env['python']} git={env['git_sha']} "
          f"nproc={env['nproc']}")
    for name, m in report["metrics"].items():
        n = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{n}")
    for key in ("output_sha256", "digest_ops", "notes"):
        if key in report:
            print(f"  {key}: {report[key]}")
    print(json.dumps({"env": env, **report}))
    print(json.dumps(result))
    return 0


def environment(args, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": seed,
        "held_out": args.holdout_seed is not None,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    """Digest of the library sources, which names the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hammerprint").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- timed run ------------------------------------------------------------------

def timed_run(name: str, seed: int, seconds: float, workdir: str):
    import workloads

    imports, imports_norm = [], []
    for _ in range(IMPORT_REPEATS):
        import_s, probe_ns = child_import_s()
        imports.append(import_s)
        imports_norm.append(import_s * hostprobe.NOMINAL_NS / probe_ns)
    speed = HostSpeed()
    speed.start()
    try:
        spans = []  # (start, end) of each set-up
        for _ in range(SETUP_REPEATS):
            wl = None  # let the previous set-up go before building the next
            d = tempfile.mkdtemp(dir=workdir)
            t0 = time.perf_counter()
            wl = workloads.make(name, seed, d)
            spans.append((t0, time.perf_counter()))
        out = run_ops(wl, seconds=seconds)
    finally:
        speed.stop()
    setups = [t1 - t0 for t0, t1 in spans]
    setups_norm = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    setup_s = statistics.median(imports_norm) + statistics.median(setups_norm)
    attempted, failed, wrong = out["attempted"], out["failed"], out["wrong"]
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = out["latency_ms"]
    main = lat[wl.main_kind]
    throughput = out["units"] / out["busy_s"]

    metrics = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS},
        "setup_raw_s": {"value": statistics.median(imports) + statistics.median(setups),
                        "unit": "s", "samples": SETUP_REPEATS},
        "max_rss_mb": {"value": max_rss_mb, "unit": "MB"},
        "failed_ratio": {"value": failed / attempted, "unit": "ratio",
                         "samples": attempted},
    }
    named = {"query": [("query_p50_ms", "query", 50), ("query_p90_ms", "query", 90)],
             "fleet": [("identify_p50_ms", "identify", 50), ("identify_p90_ms", "identify", 90),
                       ("enroll_p50_ms", "enroll", 50)],
             "reverse_map": [("reverse_map_p50_ms", "recover", 50),
                             ("reverse_map_p90_ms", "recover", 90)]}
    for metric, kind, pct in named.get(name, []):
        metrics[metric] = {"value": percentile(lat[kind], pct), "unit": "ms",
                           "samples": len(lat[kind])}
    if name == "reliability":
        metrics["reliability_trials_per_s"] = {"value": throughput, "unit": "1/s",
                                               "samples": len(main)}
        metrics["reliability_devices_out_of_band"] = {"value": wl.out_of_band,
                                                      "unit": "count", "samples": len(main)}
    metrics["latency_mean_ms"] = {"value": statistics.fmean(main), "unit": "ms",
                                  "samples": len(main)}
    metrics["host_probe_us"] = {"value": speed.probe_ns() / 1e3, "unit": "us",
                               "samples": len(speed.samples)}
    norm = [lat_ms / size * speed.scale(t0, t1)
            for lat_ms, (t0, t1, size) in zip(main, out["requests"][wl.main_kind])]
    metrics["latency_norm_ms"] = {"value": hostprobe.trimmed_mean(norm),
                                  "unit": "ms", "samples": len(norm)}
    metrics["throughput_per_s"] = {"value": throughput, "unit": "1/s",
                                   "samples": attempted}

    report = {"metrics": metrics, "output_sha256": out["digest"].hexdigest(),
              "digest_ops": wl.digest_ops, "setup_runs_s": setups, "import_runs_s": imports,
              "requests": {k: len(v) for k, v in lat.items()}, "failures": out["errors"]}
    result = {"correct": wrong == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k]["value"], "unit": u}
                          for k, u in E2E_UNITS.items()}}
    return result, report


def child_import_s() -> tuple[float, float]:
    """Time ``import hammerprint`` in a fresh interpreter.

    Returns the import time and the probe time (``hostprobe.probe_ns``) of
    probes run in that interpreter just before and after the import; the
    first five, taken while the new interpreter warms up, are dropped.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import hostprobe; "
            "p = [hostprobe.probe(time.perf_counter_ns) for _ in range(25)][5:]; "
            "t = time.perf_counter(); import hammerprint; d = time.perf_counter() - t; "
            "p += [hostprobe.probe(time.perf_counter_ns) for _ in range(20)]; "
            "print(d, hostprobe.probe_ns(p))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE), str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    import_s, probe_ns = map(float, out.stdout.split())
    return import_s, probe_ns


def run_ops(wl, seconds: float | None = None, count: int | None = None, tracer=None):
    """Closed loop over ``wl.ops()``: until ``seconds`` have passed and the
    digest prefix is complete, or for exactly ``count`` requests. Then the
    workload's final check, if it has one, counts as one more request.

    A request that raises fails. ``RecoveryError`` is the documented
    refusal of ``reverse-map`` and counts like a ``FAILED`` verdict; any
    other exception counts like ``WRONG``.
    """
    from hammerprint.geometry import RecoveryError
    from workloads import OK, WRONG

    latency: dict[str, list[float]] = {}
    requests: dict[str, list[tuple]] = {}  # (start, end, size) of each timed request
    digest = hashlib.sha256()
    attempted = failed = wrong = units = 0
    busy = 0.0
    errors: list[str] = []
    ops = wl.ops()
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        if count is not None:
            if attempted >= count:
                break
        elif attempted >= wl.digest_ops and time.perf_counter() >= deadline:
            break
        kind, call, verify = next(ops)
        if tracer is not None:
            tracer.request = f"{wl.name}:{kind}:{attempted}"
        t0 = time.perf_counter()
        try:
            result = call()
            error = None
        except Exception as e:  # one failed request must not end the run
            result, error = None, e
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.request = None
        attempted += 1
        busy += t1 - t0
        if error is not None:
            failed += 1
            wrong += not isinstance(error, RecoveryError)
            errors.append(f"{kind}#{attempted - 1}: {error!r}")
            out = f"error {type(error).__name__}\n".encode()
        else:
            out, v, n, size = verify(result)
            latency.setdefault(kind, []).append((t1 - t0) * 1e3)
            requests.setdefault(kind, []).append((t0, t1, size))
            units += n
            if v != OK:
                failed += 1
                wrong += v == WRONG
                errors.append(f"{kind}#{attempted - 1}: {v} check")
        if attempted <= wl.digest_ops:
            digest.update(out)
    final = wl.finish()
    if final is not None:
        out, v = final
        digest.update(out)
        attempted += 1
        if v != OK:
            failed += 1
            wrong += v == WRONG
            errors.append(f"final: {v} check")
    return {"latency_ms": latency, "requests": requests, "digest": digest, "attempted": attempted,
            "failed": failed, "wrong": wrong, "units": units, "busy_s": busy,
            "errors": errors[:20]}


def percentile(xs: list[float], pct: int) -> float:
    if len(xs) == 1:
        return xs[0]
    if pct == 50:
        return statistics.median(xs)
    return statistics.quantiles(xs, n=100)[pct - 1]


# --- traced run -------------------------------------------------------------------

def traced_run(name: str, seed: int, workdir: str):
    import tracing
    import workloads

    untraced = traced_slice(workloads, name, seed, workdir, None)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics: dict[str, dict] = {}
        keep: list[list] = []
        attempted, failed, wrong = untraced["attempted"], untraced["failed"], untraced["wrong"]
        mismatches = []
        traced_p50 = None
        for w in WORKLOADS:
            runs = []
            for repeat in range(2):
                tracer.clear()
                out = traced_slice(workloads, w, seed, workdir, tracer)
                attempted += out["attempted"]
                failed += out["failed"]
                wrong += out["wrong"]
                rec = tracing.Record(list(tracer.spans), tracer.counts.copy())
                runs.append(layer_metrics(w, rec))
                if repeat == 0:
                    keep += rec.spans
                    if w == name:
                        traced_p50 = out["p50_ms"]
            first, second = runs
            for key in EXACT_COUNTERS:
                if key in first and first[key]["value"] != second[key]["value"]:
                    mismatches.append(f"{key}: {first[key]['value']} then {second[key]['value']}")
            metrics.update(first)
        metrics.update(size_sweep(workloads, tracing, tracer, seed, workdir, keep))
    finally:
        tracer.uninstall()

    # A refusal under noise is within acceptance criterion 07, so it feeds
    # this ratio rather than ``failed``; a wrong mapping is still wrong.
    noisy = run_ops(workloads.ReverseMapWorkload(seed, sigma=workloads.NOISY_SIGMA),
                    count=NOISY_RECOVERIES)
    attempted += noisy["attempted"]
    wrong += noisy["wrong"]
    metrics["geometry.recover_bank_functions.noisy_success_ratio"] = {
        "value": 1 - noisy["failed"] / noisy["attempted"], "unit": "ratio",
        "samples": noisy["attempted"]}
    metrics["trace.untraced_p50_ms"] = {"value": untraced["p50_ms"], "unit": "ms"}
    metrics["trace.traced_p50_ms"] = {"value": traced_p50, "unit": "ms"}
    metrics["trace.overhead_ratio"] = {"value": traced_p50 / untraced["p50_ms"], "unit": "ratio"}

    TRACE_DIR.mkdir(exist_ok=True)
    span_file = TRACE_DIR / f"spans-{name}-seed{seed}.csv"
    tracing.write_spans(str(span_file), keep)

    failed += len(mismatches)
    report = {"metrics": metrics, "notes": {"span_file": str(span_file.relative_to(ROOT)),
                                            "spans": len(keep),
                                            "counter_mismatches": mismatches}}
    result = {"correct": wrong == 0 and not mismatches, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items()}}
    return result, report


def traced_slice(workloads, w: str, seed: int, workdir: str, tracer) -> dict:
    """Set up ``w`` and run its fixed slice of requests."""
    if tracer is not None:
        tracer.request = f"{w}:setup"
    wl = workloads.make(w, seed, tempfile.mkdtemp(dir=workdir))
    if tracer is not None:
        tracer.request = None
    out = run_ops(wl, count=TRACE_OPS[w], tracer=tracer)
    out["p50_ms"] = percentile(out["latency_ms"][wl.main_kind], 50)
    return out


def layer_metrics(w: str, rec) -> dict[str, dict]:
    """Per-layer metrics whose home is workload ``w``.

    ``.ms`` is time per request of the home workload (median over its
    requests), ``.us`` time per call (median over calls), ``.calls`` and
    other counts are per request.
    """
    m: dict[str, tuple] = {}
    if w == "query":
        q = "query:query"
        m["simdevice.run_query.ms"] = (rec.per_request_ms("simdevice.run_query", q), "ms")
        m["simdevice.hammer.self_ms"] = (rec.per_request_ms("simdevice.hammer", q, True), "ms")
        m["simdevice.susceptible_cells.ms"] = (
            rec.per_request_ms("simdevice.susceptible_cells", q), "ms")
        m["simdevice.susceptible_cells.calls"] = (rec.calls("simdevice.susceptible_cells", q), "count")
        m["simdevice.prf.calls"] = (rec.per_request("simdevice.prf", q), "count")
        m["simdevice.flips_per_query"] = (rec.per_request("simdevice.flips", q), "count")
        m["fingerprint.from_measurements.us"] = (
            rec.per_call_us("fingerprint.from_measurements", q), "us")
        m["fingerprint.encode_fingerprint.us"] = (
            rec.per_call_us("fingerprint.encode_fingerprint", q), "us")
        m["challenge.challenge_hash.calls"] = (rec.calls("challenge.challenge_hash", q), "count")
        m["challenge.challenge_hash.us"] = (rec.per_call_us("challenge.challenge_hash", q), "us")
    elif w == "reliability":
        r = "reliability:report"
        for fn in ("union_of", "jaccard_prime"):
            m[f"fingerprint.{fn}.calls"] = (rec.calls(f"fingerprint.{fn}", r), "count")
            m[f"fingerprint.{fn}.us"] = (rec.per_call_us(f"fingerprint.{fn}", r), "us")
        m["evalharness.reliability_experiment.self_ms"] = (
            rec.per_request_ms("evalharness.reliability_experiment", r, True), "ms")
        m["evalharness.pairings"] = (rec.per_request("evalharness.pairings", r), "count")
        m["evalharness.to_delimited.ms"] = (rec.per_request_ms("evalharness.to_delimited", r), "ms")
    elif w == "fleet":
        i, e, s = "fleet:identify", "fleet:enroll", "fleet:setup"
        compares = rec.calls("registry.fingerprint_match", i)
        candidates = rec.per_request("registry.candidates", i)
        m["fingerprint.decode_fingerprint.us"] = (
            rec.per_call_us("fingerprint.decode_fingerprint", i), "us")
        m["fingerprint.jaccard.calls"] = (rec.calls("fingerprint.jaccard", i), "count")
        m["fingerprint.jaccard.us"] = (rec.per_call_us("fingerprint.jaccard", i), "us")
        m["registry.identify.ms"] = (rec.per_request_ms("registry.identify", i), "ms")
        m["registry.identify.stage1_ms"] = (rec.per_request_ms("registry.fingerprint_match", i), "ms")
        m["registry.identify.stage1_compares"] = (compares, "count")
        m["registry.identify.candidates"] = (candidates, "count")
        m["registry.identify.stage1_yield"] = (candidates / compares, "ratio")
        m["registry.identify.stage2_ms"] = (rec.per_request_ms("registry.get_similarity", i), "ms")
        m["registry.save_dataset.ms"] = (rec.per_request_ms("registry.save_dataset", e), "ms")
        m["registry.save_dataset.files_written"] = (
            rec.per_request("registry.files_written", e), "count")
        m["registry.load_dataset.ms"] = (rec.per_request_ms("registry.load_dataset", s), "ms")
        m["registry.load_dataset.files_read"] = (rec.count("registry.files_read", s)
                                                 / rec.calls("registry.load_dataset", s), "count")
    elif w == "reverse_map":
        r = "reverse_map:recover"
        m["geometry.phys_to_dram.calls"] = (rec.calls("geometry.phys_to_dram", r), "count")
        m["geometry.phys_to_dram.us"] = (rec.per_call_us("geometry.phys_to_dram", r), "us")
        m["simdevice.access_time.calls"] = (rec.calls("simdevice.access_time", r), "count")
        m["simdevice.access_time.us"] = (rec.per_call_us("simdevice.access_time", r), "us")
        m["geometry.timing_threshold.ms"] = (rec.per_request_ms("geometry.timing_threshold", r), "ms")
        m["geometry.recover_bank_functions.oracle_calls"] = (
            rec.per_request("geometry.oracle_calls", r), "count")
        m["geometry.recover_bank_functions.good_base_ratio"] = (
            rec.count("geometry.good_bases", r) / rec.count("geometry.bases", r), "ratio")
        m["gf2.null_space.ms"] = (rec.per_request_ms("gf2.null_space", r), "ms")
        m["gf2.null_space.rows"] = (rec.per_request("gf2.null_space.rows", r), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def size_sweep(workloads, tracing, tracer, seed: int, workdir: str,
               keep: list[list]) -> dict[str, dict]:
    """identify, save_dataset and load_dataset at several enrolled-device counts.

    The datasets are built like the fleet workload's, from ten real devices.
    Each size times one save after an enroll, one load and ``SWEEP_PROBES``
    identifies, half of enrolled devices and half of unenrolled ones.
    """
    inputs = workloads.FleetInputs(seed, real_devices=10)
    metrics = {}
    for n in SWEEP_SIZES:
        tracer.clear()
        enrolled = inputs.real_devices() + inputs.shifted_devices(n - len(inputs.real))
        spare = inputs.shifted_devices(SWEEP_PROBES // 2)
        directory = os.path.join(tempfile.mkdtemp(dir=workdir), "dataset")
        ds = workloads.build_dataset(inputs, enrolled)
        workloads.registry.save_dataset(ds, directory)
        tag = f"sweep{n}"
        tracer.request = f"{tag}:save:0"
        workloads.registry.enroll(ds, "dev-1", enrolled[0][-1])
        workloads.registry.save_dataset(ds, directory)
        tracer.request = f"{tag}:load:0"
        workloads.registry.load_dataset(directory)
        probes = [fps[-1] for fps in enrolled[::max(1, n // (SWEEP_PROBES // 2))]]
        probes = probes[:SWEEP_PROBES // 2] + [fps[0] for fps in spare]
        for k, fp in enumerate(probes):
            tracer.request = f"{tag}:identify:{k}"
            workloads.registry.identify(ds, fp)
        tracer.request = None
        rec = tracing.Record(list(tracer.spans), tracer.counts.copy())
        keep += rec.spans
        for fn, kind in (("identify", "identify"), ("save_dataset", "save"),
                         ("load_dataset", "load")):
            metrics[f"registry.{fn}.ms.n{n}"] = {
                "value": rec.per_request_ms(f"registry.{fn}", f"{tag}:{kind}"), "unit": "ms"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
