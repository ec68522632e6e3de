"""The four benchmark workloads.

Each workload is built from a seed (``__init__`` is its set-up) and then
yields an endless, seed-determined stream of operations. An operation is
``(kind, call, verify)``: ``call()`` holds only the library calls a user's
request makes and is the part that gets timed; ``verify(result)`` runs
outside the timed region and returns ``(output_bytes, verdict, work_units,
size)``, where ``size`` is the request's input size relative to a nominal
request (1.0 where requests are many enough to average it out).
``finish()`` runs after the last request.

A verdict is ``OK``; ``FAILED``, when the request missed an acceptance
check but its output is what the library must produce for that input (an
empty query, a run whose devices' mean J' is outside the reliability band);
or ``WRONG``, when the output itself is wrong. Both count as failed
requests; only ``WRONG`` makes the run incorrect.

Library functions are always looked up through their module at call time
(``simdevice.run_query``, never a name bound at import), so the tracer in
``tracing.py`` can wrap them for a traced run.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics

from hammerprint import (
    challenge,
    evalharness,
    fingerprint,
    geometry,
    gf2,
    registry,
    simdevice,
)

OK, FAILED, WRONG = "ok", "failed", "wrong"


def verdict(exact: bool, accepted: bool = True) -> str:
    return WRONG if not exact else OK if accepted else FAILED


# --- query --------------------------------------------------------------------

# Every OTHER_EVERY-th query uses one of these measurement counts instead of
# the reference challenge's. A fixed share keeps the mix, and so the mean
# latency, the same from run to run.
OTHER_MEASUREMENTS = (1, 3, 5)
OTHER_EVERY = 4


class QueryWorkload:
    """``fingerprint`` without file I/O: run_query, then encode_fingerprint.

    Devices are fresh and each gets one to three queries, interleaved over
    a small window of active devices, so per-device caching sees little
    reuse.
    """

    name = "query"
    main_kind = "query"
    digest_ops = 100

    def __init__(self, seed: int):
        self.rng = random.Random(f"query:{seed}")
        base = challenge.default_challenge()
        self.default_m = base.measurements
        self.challenges = {m: base.with_measurements(m)
                           for m in (base.measurements,) + OTHER_MEASUREMENTS}
        self.hashes = {m: challenge.challenge_hash(ch) for m, ch in self.challenges.items()}

    def ops(self):
        rng = self.rng
        window: list[list] = []  # [device, queries left]
        for i in itertools.count():
            while len(window) < 4:
                dev = simdevice.new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
                window.append([dev, rng.randint(1, 3)])
            slot = rng.randrange(len(window))
            dev = window[slot][0]
            window[slot][1] -= 1
            if window[slot][1] == 0:
                window.pop(slot)
            m = rng.choice(OTHER_MEASUREMENTS) if i % OTHER_EVERY == 0 else self.default_m
            yield ("query", self._call(dev, self.challenges[m], rng.getrandbits(64)),
                   self._verify(m))

    @staticmethod
    def _call(dev, ch, measurement_seed):
        def call():
            fp = simdevice.run_query(dev, ch, measurement_seed)
            return fp, fingerprint.encode_fingerprint(fp)
        return call

    def _verify(self, m):
        def verify(result):
            fp, text = result
            lines = text.splitlines()
            exact = lines[0] == f"challenge={self.hashes[m]}" and len(lines) == 1 + len(fp.locations)
            return text.encode(), verdict(exact, m != self.default_m or len(fp.locations) > 0), 1, 1.0
        return verify

    def finish(self):
        return None


# --- reliability ----------------------------------------------------------------

RELIABILITY_BAND = (0.83, 0.93)  # acceptance band for the mean J' over devices
# A run holds only a few reports, and their cost grows in proportion to the
# device's flips per query (exponent 1.03 over 20 devices), which vary by
# about 13% between devices. A report's size is its mean flips per query
# over this nominal count, so latency_norm_ms compares like with like.
NOMINAL_FLIPS = 200


class ReliabilityWorkload:
    """``eval reliability`` for one fresh device per request: the experiment
    at its defaults (20 queries, d=3, 19,380 pairings), rendered as CSV.

    The acceptance band holds for the mean over the run's devices, as the
    reproduction reports it. About one device in fifty falls outside it on
    its own; those are counted in ``out_of_band``, not as failed requests,
    because each report is what the library must produce for its device.
    """

    name = "reliability"
    main_kind = "report"
    digest_ops = 2

    def __init__(self, seed: int):
        self.rng = random.Random(f"reliability:{seed}")
        self.challenge = challenge.default_challenge()
        self.means: list[float] = []

    @property
    def out_of_band(self) -> int:
        lo, hi = RELIABILITY_BAND
        return sum(not lo <= m <= hi for m in self.means)

    def ops(self):
        rng = self.rng
        while True:
            dev = simdevice.new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
            yield ("report", self._call(dev, rng.getrandbits(32)), self._verify)

    def _call(self, dev, seed):
        def call():
            report = evalharness.reliability_experiment(dev, self.challenge, seed=seed)
            return report, report.to_delimited()
        return call

    def _verify(self, result):
        report, text = result
        self.means.append(report.mean)
        exact = len(report.values) == 19380 and text.count("\n") == 1 + len(report.values)
        flips = statistics.fmean(row[2] for row in report.rows)
        return text.encode(), verdict(exact), len(report.values), flips / NOMINAL_FLIPS

    def finish(self):
        lo, hi = RELIABILITY_BAND
        mean = statistics.fmean(self.means)
        return f"mean J' {mean!r} over {len(self.means)}\n".encode(), verdict(True, lo <= mean <= hi)


# --- fleet ----------------------------------------------------------------------

REAL_DEVICES = 30
ENROLLED_PER_REAL = 10   # enrolled virtual devices per real device (300 in all)
SPARE_PER_REAL = 4       # unenrolled virtual devices per real device
QUERIES_PER_REAL = 4     # three enrolled fingerprints plus one probe
ENROLL_EVERY = 10        # every tenth request enrolls


def shift_fingerprint(fp, delta_blocks: int):
    """Move every flip by whole support blocks along the row.

    The result looks like a query of another device: same rows, same
    in-block pattern, and a support block no real device uses, so its
    overlap with every other device stays exactly zero.
    """
    dc = delta_blocks * simdevice.SUPPORT_BLOCK // 8
    return fingerprint.Fingerprint(
        frozenset(fingerprint.FlipLocation(loc.bank, loc.row, loc.column + dc, loc.bit)
                  for loc in fp.locations),
        fp.challenge_hash)


class FleetInputs:
    """Real simulated queries plus block-shifted copies of them.

    A virtual device is (real device, support slot). Its fingerprints are
    the real device's queries shifted into that slot.
    """

    def __init__(self, seed: int, real_devices: int = REAL_DEVICES):
        rng = random.Random(f"fleet:{seed}")
        self.rng = rng
        ch = challenge.default_challenge()
        self.challenge_hash = challenge.challenge_hash(ch)
        self.real = []   # (slot, [fingerprints])
        for _ in range(real_devices):
            dev = simdevice.new_sim_device(rng.getrandbits(64), rng.getrandbits(64))
            queries = [simdevice.run_query(dev, ch, rng.getrandbits(64))
                       for _ in range(QUERIES_PER_REAL)]
            self.real.append((dev.support_block_start // simdevice.SUPPORT_BLOCK, queries))
        positions = simdevice.default_geometry().columns_per_row * 8
        self.n_slots = positions // simdevice.SUPPORT_BLOCK
        self.used_slots = {slot for slot, _ in self.real}

    def real_devices(self) -> list[list]:
        return [list(queries) for _, queries in self.real]

    def shifted_devices(self, n: int) -> list[list]:
        """``n`` virtual devices in fresh slots, cycling over the real ones."""
        out = []
        for i in range(n):
            slot, queries = self.real[i % len(self.real)]
            target = self.rng.randrange(self.n_slots)
            while target in self.used_slots:
                target = self.rng.randrange(self.n_slots)
            self.used_slots.add(target)
            out.append([shift_fingerprint(q, target - slot) for q in queries])
        return out


def build_dataset(inputs: FleetInputs, virtual: list[list], enroll_queries: int = 3):
    """Dataset with device ``dev-<i+1>`` holding the first ``enroll_queries``
    fingerprints of virtual device ``i``."""
    ds = registry.FingerprintDataset(inputs.challenge_hash)
    for i, fps in enumerate(virtual):
        ds.records[f"dev-{i + 1}"] = registry.DeviceRecord(f"dev-{i + 1}", fps[:enroll_queries])
    return ds


class FleetWorkload:
    """An identification service over 300 enrolled devices (3 fingerprints
    each). Nine requests in ten identify a probe of an enrolled or an
    unenrolled device; the rest enroll, as a new device or as one more
    fingerprint of a known one, and save the dataset."""

    name = "fleet"
    main_kind = "identify"
    digest_ops = 120  # at least 108 identifies, enough for a p90

    def __init__(self, seed: int, workdir: str):
        inputs = FleetInputs(seed)
        n_real = len(inputs.real)
        enrolled = inputs.real_devices() + inputs.shifted_devices(
            n_real * (ENROLLED_PER_REAL - 1))
        spare = inputs.shifted_devices(n_real * SPARE_PER_REAL)
        self.directory = workdir
        built = build_dataset(inputs, enrolled)
        registry.save_dataset(built, self.directory)
        self.dataset = registry.load_dataset(self.directory)
        self.rng = inputs.rng
        # Ground truth, updated as the stream enrolls: virtual device -> id.
        self.devices = enrolled + spare
        self.truth: dict[int, str] = {i: f"dev-{i + 1}" for i in range(len(enrolled))}
        self.unused_fps = {i: list(range(QUERIES_PER_REAL)) for i in range(len(enrolled), len(self.devices))}
        # What the store must hold: every fingerprint enrolled, in order.
        self.expected = {dev_id: list(rec.fingerprints) for dev_id, rec in built.records.items()}

    def ops(self):
        rng = self.rng
        n_enrolled0 = len(self.truth)
        last = QUERIES_PER_REAL - 1  # the probe query of an initially enrolled device
        for i in itertools.count(1):
            spare = [v for v in self.unused_fps if v not in self.truth]
            if i % ENROLL_EVERY == 0:
                if spare and rng.random() < 0.5:
                    v = rng.choice(spare)
                    fp = self.devices[v][self.unused_fps[v].pop(0)]
                    dev_id = f"dev-{len(self.expected) + 1}"
                    self.truth[v] = dev_id
                    new = True
                else:
                    v = rng.choice(list(self.truth))
                    unused = self.unused_fps.get(v)
                    fp = self.devices[v][unused.pop(0) if unused else last]
                    dev_id = self.truth[v]
                    new = False
                self.expected.setdefault(dev_id, []).append(fp)
                text = fingerprint.encode_fingerprint(fp)
                yield ("enroll", self._enroll(text, None if new else dev_id),
                       self._verify_enroll(dev_id, len(self.expected[dev_id])))
            else:
                if spare and rng.random() < 0.25:
                    v = rng.choice(spare)
                    k = rng.choice(self.unused_fps[v])
                    want = ("new", f"dev-{len(self.expected) + 1}")
                else:
                    v = rng.choice(list(self.truth))
                    k = rng.choice(self.unused_fps.get(v) or [last])
                    want = ("matched", self.truth[v])
                text = fingerprint.encode_fingerprint(self.devices[v][k])
                yield ("identify", self._identify(text), self._verify_identify(want))

    def _identify(self, text):
        def call():
            fp = fingerprint.decode_fingerprint(text)
            return registry.identify(self.dataset, fp)
        return call

    def _enroll(self, text, dev_id):
        """``enroll``: a known id, or ``None`` to mint the next free one."""
        def call():
            fp = fingerprint.decode_fingerprint(text)
            target = dev_id or registry.generate_new_id(self.dataset)
            registry.enroll(self.dataset, target, fp)
            registry.save_dataset(self.dataset, self.directory)
            return target
        return call

    @staticmethod
    def _verify_identify(want):
        def verify(result):
            out = f"{result.decision} {result.device_id} {result.similarity!r}\n"
            return out.encode(), verdict((result.decision, result.device_id) == want), 1, 1.0
        return verify

    def _verify_enroll(self, dev_id, k):
        def verify(target):
            ok = target == dev_id and len(self.dataset.records[dev_id].fingerprints) == k
            return f"enrolled {dev_id} k={k}\n".encode(), verdict(ok), 1, 1.0
        return verify

    def finish(self):
        """Reload the saved dataset and compare it with every enroll made.

        Returns ``(output_bytes, verdict)``, or ``None`` where a workload
        has no final check.
        """
        loaded = registry.load_dataset(self.directory)
        got = {dev_id: rec.fingerprints for dev_id, rec in loaded.records.items()}
        out = "".join(f"{dev_id} {len(fps)}\n" for dev_id, fps in sorted(got.items()))
        return out.encode(), verdict(got == self.expected)


# --- reverse_map ------------------------------------------------------------------

GEOMETRIES = (
    simdevice.default_geometry(),
    geometry.DramGeometry(banks=64, rows_per_bank=1024, columns_per_row=1024,
                          address_bits=26),
)
# Timing noise as a share of the 100-unit conflict gap. Timed requests run
# noise-free, where acceptance criterion 07 requires every recovery to
# succeed. At a tenth of the gap the criterion allows up to 4% of recoveries
# to be refused, and about 1% are: too rare to repeat between runs of a
# fixed length, so the traced run reports that rate from a fixed count.
NOISY_SIGMA = 10.0
# Eight bases of 512 partners: each base is probed as `reverse-map` does by
# default, with half its bases, so a run records over a hundred recoveries.
PROBE_BASES = 8


def random_mapping(geom, rng: random.Random, max_extra_bits: int = 3):
    """Invertible XOR mapping: each bank function is its home bit plus one
    to ``max_extra_bits`` row bits."""
    cb, bb, rb = geom.column_bits, geom.bank_bits, geom.row_bits
    row_lo = cb + bb
    funcs = []
    for i in range(bb):
        mask = 1 << (cb + i)
        for e in rng.sample(range(rb), rng.randint(1, max_extra_bits)):
            mask |= 1 << (row_lo + e)
        funcs.append(mask)
    return geometry.AddressMapping(tuple(funcs), (row_lo, row_lo + rb), (0, cb))


class ReverseMapWorkload:
    """``reverse-map``: recover the bank functions of a fresh device with a
    random XOR mapping from its timing oracle alone. Requests cycle through
    the 16-bank and 64-bank geometries at timing noise ``sigma``."""

    name = "reverse_map"
    main_kind = "recover"
    digest_ops = 40

    def __init__(self, seed: int, sigma: float = 0.0):
        self.rng = random.Random(f"reverse_map:{seed}:{sigma}")
        self.sigma = sigma

    def ops(self):
        rng, sigma = self.rng, self.sigma
        while True:
            for geom in rng.sample(GEOMETRIES, len(GEOMETRIES)):
                mapping = random_mapping(geom, rng)
                dev = simdevice.new_sim_device(
                    rng.getrandbits(64), rng.getrandbits(64), geom=geom, mapping=mapping,
                    noise=simdevice.NoiseConfig(timing_conflict_gap=100.0, timing_sigma=sigma))
                oracle = simdevice.make_timing_oracle(dev, rng.getrandbits(32))
                cfg = geometry.ProbeConfig(num_bases=PROBE_BASES, seed=rng.getrandbits(32))
                yield ("recover", self._call(oracle, geom, cfg),
                       self._verify(list(mapping.bank_functions)))

    @staticmethod
    def _call(oracle, geom, cfg):
        return lambda: geometry.recover_bank_functions(oracle, geom, cfg)

    @staticmethod
    def _verify(planted):
        def verify(funcs):
            out = ",".join(f"{f:#x}" for f in funcs) + "\n"
            return out.encode(), verdict(gf2.row_space_equal(funcs, planted)), 1, 1.0
        return verify

    def finish(self):
        return None


def make(name: str, seed: int, workdir: str):
    """Set up workload ``name``; ``workdir`` is an empty scratch directory."""
    if name == "fleet":
        return FleetWorkload(seed, os.path.join(workdir, "dataset"))
    return {"query": QueryWorkload, "reliability": ReliabilityWorkload,
            "reverse_map": ReverseMapWorkload}[name](seed)
