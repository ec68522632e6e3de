"""Spans and counters recorded around calls into hammerprint's modules.

The library is not edited. ``Tracer.install`` replaces each traced name
where it is looked up at call time (``registry.jaccard``,
``evalharness.union_of``, ``simdevice.phys_to_dram``, ...) with a wrapper
and ``Tracer.uninstall`` puts the originals back. Modules import their
helpers by name, so one function can need wrapping in several modules.

A span is ``[name, start_ns, end_ns, parent_index, request]``. Spans stay in
memory; ``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import builtins
import statistics
from collections import Counter
from time import perf_counter_ns

from hammerprint import (
    challenge,
    evalharness,
    fingerprint,
    geometry,
    gf2,
    registry,
    simdevice,
)

# (owner, attribute, span name): every call site the benchmark observes.
SPANS = (
    (simdevice, "run_query", "simdevice.run_query"),
    (evalharness, "run_query", "simdevice.run_query"),
    (simdevice, "hammer", "simdevice.hammer"),
    (simdevice.SimDevice, "susceptible_cells", "simdevice.susceptible_cells"),
    (simdevice, "from_measurements", "fingerprint.from_measurements"),
    (simdevice, "access_time", "simdevice.access_time"),
    (simdevice, "phys_to_dram", "geometry.phys_to_dram"),
    (challenge, "challenge_hash", "challenge.challenge_hash"),
    (fingerprint, "encode_fingerprint", "fingerprint.encode_fingerprint"),
    (registry, "encode_fingerprint", "fingerprint.encode_fingerprint"),
    (fingerprint, "decode_fingerprint", "fingerprint.decode_fingerprint"),
    (registry, "decode_fingerprint", "fingerprint.decode_fingerprint"),
    (evalharness, "union_of", "fingerprint.union_of"),
    (registry, "union_of", "fingerprint.union_of"),
    (evalharness, "jaccard_prime", "fingerprint.jaccard_prime"),
    (registry, "jaccard_prime", "fingerprint.jaccard_prime"),
    (registry, "jaccard", "fingerprint.jaccard"),
    (registry, "identify", "registry.identify"),
    (registry, "fingerprint_match", "registry.fingerprint_match"),
    (registry, "get_similarity", "registry.get_similarity"),
    (registry, "generate_new_id", "registry.generate_new_id"),
    (registry, "enroll", "registry.enroll"),
    (registry, "save_dataset", "registry.save_dataset"),
    (registry, "load_dataset", "registry.load_dataset"),
    (geometry, "recover_bank_functions", "geometry.recover_bank_functions"),
    (geometry, "timing_threshold", "geometry.timing_threshold"),
    (gf2, "null_space", "gf2.null_space"),
    (evalharness, "reliability_experiment", "evalharness.reliability_experiment"),
    (evalharness.ExperimentReport, "to_delimited", "evalharness.to_delimited"),
)

# (owner, attribute, counter name): calls too frequent or too small for a span.
COUNTS = (
    (simdevice, "_prf", "simdevice.prf"),
    (registry, "_write_atomic", "registry.files_written"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (counter name, request) -> n
        self.request: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._recovery: dict | None = None

    # --- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))
        # ``open`` inside registry is the builtin; shadowing it there counts
        # exactly the files the store reads.
        self._patch(registry, "open", self._counted(builtins.open, "registry.files_read"))
        self._observe_recovery()
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        self._patch(registry, "fingerprint_match", self._count_results(
            registry.fingerprint_match, "registry.candidates"))
        self._patch(simdevice, "run_query", self._count_results(
            simdevice.run_query, "simdevice.flips", len))
        self._patch(evalharness, "reliability_experiment", self._count_results(
            evalharness.reliability_experiment, "evalharness.pairings",
            lambda report: len(report.values)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def _spanned(self, fn, name):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
        return traced

    def _counted(self, fn, name):
        counts, tracer = self.counts, self

        def counted(*args, **kwargs):
            counts[name, tracer.request] += 1
            return fn(*args, **kwargs)
        return counted

    def _count_results(self, fn, name, measure=int):
        """Add ``measure(result)`` of every call to counter ``name``."""
        counts, tracer = self.counts, self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name, tracer.request] += measure(result)
            return result
        return counted

    def _observe_recovery(self) -> None:
        """Count oracle calls and good bases of ``recover_bank_functions``.

        A base is good when the recovery kept it, i.e. the difference to
        its first above-threshold partner reached ``gf2.null_space``.
        """
        tracer = self
        recover, threshold, null_space = (geometry.recover_bank_functions,
                                          geometry.timing_threshold, gf2.null_space)

        def observed_recover(oracle, geom, cfg=geometry.ProbeConfig()):
            calls: list[tuple] = []

            def observed_oracle(a, b):
                t = oracle(a, b)
                calls.append((a, b, t))
                return t
            tracer._recovery = {"thresholds": [], "rows": set()}
            try:
                return recover(observed_oracle, geom, cfg)
            finally:
                seen, tracer._recovery = tracer._recovery, None
                good = 0
                n = cfg.partners_per_base
                for i, thr in enumerate(seen["thresholds"]):
                    block = calls[i * n:(i + 1) * n]
                    hi = [a ^ b for a, b, t in block if thr is not None and t >= thr and a != b]
                    good += bool(hi) and hi[0] in seen["rows"]
                req = tracer.request
                tracer.counts["geometry.oracle_calls", req] += len(calls)
                tracer.counts["geometry.bases", req] += cfg.num_bases
                tracer.counts["geometry.good_bases", req] += good

        def observed_threshold(samples):
            seen = tracer._recovery
            try:
                thr = threshold(samples)
            except ValueError:
                if seen is not None:
                    seen["thresholds"].append(None)
                raise
            if seen is not None:
                seen["thresholds"].append(thr)
            return thr

        def observed_null_space(rows, n_bits):
            if tracer._recovery is not None:
                tracer._recovery["rows"].update(rows)
            tracer.counts["gf2.null_space.rows", tracer.request] += len(rows)
            return null_space(rows, n_bits)

        self._patch(geometry, "recover_bank_functions", observed_recover)
        self._patch(geometry, "timing_threshold", observed_threshold)
        self._patch(gf2, "null_space", observed_null_space)

    # --- reading the record ----------------------------------------------------

    def clear(self) -> None:
        del self.spans[:]
        self.counts.clear()


_MISSING = object()


def write_spans(path: str, spans: list[list]) -> None:
    """Save spans as CSV; ``parent`` is a row index, -1 for a root span."""
    selfs = self_times(spans)
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,self_ns,parent,request\n")
        for i, (name, t0, t1, parent, req) in enumerate(spans):
            fh.write(f"{i},{name},{t0},{t1},{selfs[i]},{parent},{req}\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    selfs = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= t1 - t0
    return selfs


class Record:
    """Per-layer figures over the requests of one kind (a request id is
    ``<workload>:<kind>:<index>``)."""

    def __init__(self, spans: list[list], counts: Counter):
        self.spans = spans
        self.counts = counts
        self.selfs = self_times(spans)

    def requests(self, prefix: str) -> list[str]:
        seen = dict.fromkeys(r for *_, r in self.spans if r and r.startswith(prefix))
        seen.update(dict.fromkeys(r for _, r in self.counts if r and r.startswith(prefix)))
        return list(seen)

    def per_request_ms(self, name: str, prefix: str, self_time: bool = False) -> float:
        """Median over requests of the time spent in ``name`` per request."""
        totals = dict.fromkeys(self.requests(prefix), 0)
        for i, (n, t0, t1, _, r) in enumerate(self.spans):
            if n == name and r in totals:
                totals[r] += self.selfs[i] if self_time else t1 - t0
        return statistics.median(totals.values()) / 1e6

    def per_call_us(self, name: str, prefix: str) -> float:
        """Median duration of one call of ``name``."""
        return statistics.median(t1 - t0 for n, t0, t1, _, r in self.spans
                                 if n == name and r and r.startswith(prefix)) / 1e3

    def calls(self, name: str, prefix: str) -> float:
        """Spans named ``name`` per request."""
        n = sum(1 for s in self.spans if s[0] == name and s[4] and s[4].startswith(prefix))
        return n / len(self.requests(prefix))

    def count(self, name: str, prefix: str) -> int:
        return sum(v for (n, r), v in self.counts.items()
                   if n == name and r and r.startswith(prefix))

    def per_request(self, name: str, prefix: str) -> float:
        """Counter ``name`` per request."""
        return self.count(name, prefix) / len(self.requests(prefix))
