"""Simulated reproductions of the fingerprinting experiments.

Everything here is driven by explicit seeds and returns machine-readable
reports: repeat-query reliability, cross-device uniqueness, the
two-detection identification run, one DIMM across several hosts, and the
measurement-count tradeoff. Wall-clock cost is replaced by a declared
work-unit model that keeps the linear scaling in the measurement count.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from operator import itemgetter

from .challenge import DramChallenge, challenge_hash, default_challenge
from .fingerprint import Fingerprint, jaccard_prime, union_of
from .registry import (
    FingerprintDataset,
    enroll,
    generate_new_id,
    identify,
)
from .simdevice import SimDevice, deterministic_noise, new_sim_device, run_query


class ExperimentError(ValueError):
    """Bad experiment arguments."""


@dataclass
class ExperimentReport:
    """Per-trial values plus summary statistics of one experiment."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.rows) != len(self.values):
            raise ExperimentError("one value per row required")
        if set(map(len, self.rows)) - {len(self.columns)}:
            raise ExperimentError("one cell per column required in every row")

    def _summarized(self) -> list[float]:
        if not self.values:
            raise ExperimentError(f"report {self.name!r} has no rows to summarize")
        return self.values

    @property
    def mean(self) -> float:
        return sum(self._summarized()) / len(self.values)

    @property
    def min(self) -> float:
        return min(self._summarized())

    @property
    def max(self) -> float:
        return max(self._summarized())

    def to_delimited(self) -> str:
        """CSV text: a header line, then one line per row, rendered column by
        column by ``_rendered``, which formats each distinct cell once."""
        return _delimited(self.columns, self.rows)

    def to_table(self, max_rows: int | None = None) -> str:
        # every row is checked, but only the shown ones are formatted
        formats = [_format(name, map(itemgetter(j), self.rows))
                   for j, name in enumerate(self.columns)]
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        widths = [len(c) for c in self.columns]
        rendered = [[f.format(v) for f, v in zip(formats, row)] for row in shown]
        for row in rendered:
            widths = [max(w, len(v)) for w, v in zip(widths, row)]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines = [header, "-" * len(header)]
        for row in rendered:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        if len(shown) < len(self.rows):
            lines.append(f"... {len(self.rows) - len(shown)} more trials")
        lines.append(
            f"{self.name}: trials={len(self.values)} "
            f"mean={self.mean:.4f} min={self.min:.4f} max={self.max:.4f}"
        )
        return "\n".join(lines)


_FLOAT_CELL = "{:.6g}"


def _format(name: str, cells) -> str:
    """The cell rule for column ``name``: ``_FLOAT_CELL`` for floats, ``{}``
    for ints or for strs; any other kind or a mix is refused."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        return _FLOAT_CELL
    if kinds in ({int}, {str}, set()):
        return "{}"
    kinds = ", ".join(sorted(k.__name__ for k in kinds))
    raise ExperimentError(f"column {name!r} holds {kinds}; a report column holds "
                          "only floats, only ints or only strs")


def _rendered(fmt: str, col: list) -> list:
    """A column's cells as text by ``fmt``, its cell rule: a str column as
    it is, any other with each distinct cell formatted once, unless it is a
    float column holding a zero (``0.0`` and ``-0.0`` are one dict key)."""
    if not col or type(col[0]) is str:
        return col
    texts = dict.fromkeys(col)
    if type(col[0]) is float and 0.0 in texts:
        return list(map(fmt.format, col))
    texts = dict(zip(texts, map(fmt.format, texts)))
    return list(map(texts.__getitem__, col))


def _delimited(columns, rows) -> str:
    """CSV text of ``columns`` and ``rows``, rendered column by column."""
    texts = [list(map(itemgetter(j), rows)) for j in range(len(columns))]
    # every column passes the cell rule before any is rendered, so a bad
    # column raises ExperimentError even beside an int too long for str
    for j, fmt in enumerate(list(map(_format, columns, texts))):
        texts[j] = _rendered(fmt, texts[j])
    lines = map(",".join, zip(*texts)) if texts else itertools.repeat("", len(rows))
    return "\n".join([",".join(columns), *lines]) + "\n"


def _make_queries(dev: SimDevice, ch: DramChallenge, seed: int, n: int,
                  tag: str = "") -> list[Fingerprint]:
    # str seeding is PYTHONHASHSEED-independent; tuple seeding is not
    rng = random.Random(f"{seed}:{tag}")
    return [run_query(dev, ch, rng.getrandbits(64)) for _ in range(n)]


def _pairing_values(new_queries: list[Fingerprint],
                    db_queries: list[Fingerprint],
                    d_size: int,
                    rng: random.Random,
                    max_cases: int,
                    exclude_self: bool) -> list[tuple[str, int, int, float]]:
    """Overlap of each candidate new query against every d_size database
    union, exhaustively when small enough, otherwise a seeded sample.

    Each row is ``(label, i, len(new_queries[i].locations), value)``, the
    reliability report's row, where ``label`` joins the database draw's
    indices by "+". With ``exclude_self`` both pools are one query list
    (pools of different lengths raise ``ExperimentError`` before the pool
    checks) and the new query never appears in its own database draw, so
    the case count is ``comb(n, d_size) * (n - d_size)``. Only a count
    above ``max_cases`` builds the flat case list, to sample it. Rows come
    grouped by combination, and each combination, or each run of one in a
    sample, is scored and labelled in one pass: its database mask is ORed,
    its label joined and its own queries skipped inline.

    The overlaps are counted on bits. Each distinct location of either
    pool gets its own bit number, once per call, so a query becomes one
    ``int`` with the bits of its locations set and a drawn database is
    the OR of its members' ints. Distinct locations have distinct bits,
    so the popcount of ``new & database`` is exactly
    ``len(new.locations & union.locations)``. Each value is the same
    float ``jaccard_prime`` returns, taken from a table of ``c / size``
    per new query, so rows with the same count share one float. One list
    as both pools has its ints made once.

    Both pools are checked once, before any case is scored: a database
    pool of mixed challenges raises, then the first new query that is
    empty or of another challenge, even one no sampled case uses.
    """
    if d_size < 1:
        raise ExperimentError("d_size must be at least 1")
    if max_cases < 1:
        raise ExperimentError("max_cases must be at least 1")
    n_db = len(db_queries)
    if exclude_self and len(new_queries) != n_db:
        raise ExperimentError("exclude_self needs one pool: as many new as database queries")
    if d_size > n_db - (1 if exclude_self else 0):
        raise ExperimentError("insufficient queries for the requested database size")
    # The check goes through the set formula itself, so a faulty pool raises
    # the class and message union_of and jaccard_prime raise, and a trace
    # of the run still sees their spans.
    pool = union_of(db_queries)
    for fp in new_queries:
        jaccard_prime(fp, pool)
    every = range(len(new_queries))
    combos = itertools.combinations(range(n_db), d_size)
    if math.comb(n_db, d_size) * (len(every) - (d_size if exclude_self else 0)) > max_cases:
        cases = rng.sample([(combo, i) for combo in combos for i in every
                            if not (exclude_self and i in combo)], max_cases)
        groups = ((combo, [i for _, i in run])
                  for combo, run in itertools.groupby(cases, key=itemgetter(0)))
    else:
        groups = zip(combos, itertools.repeat(every))
    bit_of: dict = {}  # location -> its bit number

    def bits_of(fp: Fingerprint) -> int:
        return sum(1 << bit_of.setdefault(loc, len(bit_of)) for loc in fp.locations)

    new_bits = [bits_of(fp) for fp in new_queries]
    db_bits = new_bits if db_queries is new_queries else [bits_of(fp) for fp in db_queries]
    sizes = [len(fp.locations) for fp in new_queries]
    ratios = [[c / size for c in range(size + 1)] for size in sizes]
    rows = []
    for combo, run in groups:
        mask = 0
        for k in combo:
            mask |= db_bits[k]
        label = "+".join(map(str, combo))
        own = combo if exclude_self else ()
        rows += [(label, i, sizes[i], ratios[i][(new_bits[i] & mask).bit_count()])
                 for i in run if i not in own]
    return rows


def reliability_experiment(dev: SimDevice, ch: DramChallenge,
                           n_queries: int = 20, d_size: int = 3,
                           seed: int = 0, max_cases: int = 25000) -> ExperimentReport:
    """Repeat-query similarity of one device against its own database.

    Runs ``n_queries`` fingerprint queries, then scores every way of
    picking ``d_size`` of them as the database and one of the rest as
    the new query (seeded sample when the combination count explodes).
    """
    if d_size >= n_queries:
        raise ExperimentError("d_size must be smaller than n_queries")
    queries = _make_queries(dev, ch, seed, n_queries)
    rng = random.Random(f"{seed}:combos")
    rows = _pairing_values(queries, queries, d_size, rng, max_cases, exclude_self=True)
    return ExperimentReport(
        name="reliability",
        columns=("database_queries", "new_query", "new_query_flips", "jaccard_prime"),
        rows=rows, values=list(map(itemgetter(3), rows)),
    )


def uniqueness_experiment(dev_a: SimDevice, dev_b: SimDevice, ch: DramChallenge,
                          n_queries: int = 20, seed: int = 0,
                          d_size: int = 3, max_cases: int = 4000) -> ExperimentReport:
    """Cross-device similarity for two distinct devices, both directions."""
    if (dev_a.dimm_seed, dev_a.host_seed) == (dev_b.dimm_seed, dev_b.host_seed):
        raise ExperimentError("uniqueness needs two distinct devices")
    if max_cases < 2:
        raise ExperimentError("max_cases must be at least 2, one case per direction")
    qa = _make_queries(dev_a, ch, seed, n_queries, tag="a")
    qb = _make_queries(dev_b, ch, seed, n_queries, tag="b")
    rng = random.Random(f"{seed}:combos")
    rows = []
    for direction, new_qs, db_qs in (("a_vs_b", qa, qb), ("b_vs_a", qb, qa)):
        rows += [(direction, label, i, value) for label, i, _, value
                 in _pairing_values(new_qs, db_qs, d_size, rng, max_cases // 2,
                                    exclude_self=False)]
    return ExperimentReport(
        name="uniqueness",
        columns=("direction", "database_queries", "new_query", "jaccard_prime"),
        rows=rows, values=list(map(itemgetter(3), rows)),
    )


def _detected(row: tuple) -> bool:
    """Right decision: replaced hardware is new, any other device matches its id."""
    _, _, true_id, result_id, decision, _ = row
    if true_id is None:
        return decision == "new"
    return decision == "matched" and result_id == true_id


@dataclass
class DetectionResult:
    """Outcome of the enroll-then-re-detect experiment."""

    enrolled_ids: list[str]
    rows: list[tuple]  # (position, phase2_label, true_id, result_id, decision, similarity)
    matrix: list[list[float]]  # phase-2 queries x enrolled devices

    @property
    def correct(self) -> int:
        return sum(map(_detected, self.rows))

    @property
    def new_count(self) -> int:
        return sum(row[4] == "new" for row in self.rows)

    def to_report(self) -> ExperimentReport:
        return ExperimentReport(
            name="detection",
            columns=("position", "label", "true_id", "result_id", "decision", "similarity"),
            rows=[(p, lb, t or "-", r, d, "-" if s is None else _FLOAT_CELL.format(s))
                  for p, lb, t, r, d, s in self.rows],
            values=[float(_detected(row)) for row in self.rows],
        )

    def matrix_delimited(self) -> str:
        rows = [(f"q{k}", *row) for k, row in enumerate(self.matrix, start=1)]
        return _delimited(("query", *self.enrolled_ids), rows)


def detection_experiment(n_devices: int = 8, seed: int = 0, replace: int = 0) -> DetectionResult:
    """Enroll a fleet, then re-detect it under permuted labels.

    Each device enrolls three queries. Phase two queries each device once
    with fresh virtual attributes (label, MAC, IP) and runs identification.
    ``replace`` devices are swapped for fresh hardware before phase two and
    must come back as new. The first device is built with deterministic
    flips, so its re-detection overlap is exactly 1.
    """
    if n_devices < 2:
        raise ExperimentError("need at least two devices")
    if not 0 <= replace <= n_devices:
        raise ExperimentError("replace must lie in [0, n_devices]")
    rng = random.Random(f"{seed}:detection")
    ch = default_challenge()

    def fresh_device(make_witness: bool) -> SimDevice:
        noise = deterministic_noise() if make_witness else None
        return new_sim_device(rng.getrandbits(64), rng.getrandbits(64), noise=noise)

    devices = [fresh_device(i == 0) for i in range(n_devices)]

    dataset = FingerprintDataset(challenge_hash(ch))
    enrolled_ids = []
    for dev in devices:
        dev_id = generate_new_id(dataset)
        for _ in range(3):
            fp = run_query(dev, ch, rng.getrandbits(64),
                           device_hint=_virtual_attrs(rng, dev_id))
            enroll(dataset, dev_id, fp)
        enrolled_ids.append(dev_id)

    # identify never edits the records, so their unions hold for every query
    unions = [union_of(dataset.records[i].fingerprints) for i in enrolled_ids]
    true_ids: list[str | None] = list(enrolled_ids)
    if replace:
        for pos in rng.sample(range(n_devices), replace):
            devices[pos] = fresh_device(False)
            true_ids[pos] = None

    order = list(range(n_devices))
    rng.shuffle(order)

    rows, matrix = [], []
    for position, idx in enumerate(order):
        label = f"probe-{position + 1}"
        query = run_query(devices[idx], ch, rng.getrandbits(64),
                          device_hint=_virtual_attrs(rng, label))
        result = identify(dataset, query)
        matrix.append([jaccard_prime(query, union) for union in unions])
        rows.append((position, label, true_ids[idx], result.device_id,
                     result.decision, result.similarity))
    return DetectionResult(enrolled_ids, rows, matrix)


def _virtual_attrs(rng: random.Random, label: str) -> str:
    mac = ":".join(f"{rng.getrandbits(8):02x}" for _ in range(6))
    ip = ".".join(str(rng.randrange(1, 255)) for _ in range(4))
    return f"label={label} mac={mac} ip={ip}"


@dataclass
class MultiHostResult:
    """One DIMM moved across hosts: cross-host overlaps and flip counts."""

    host_seeds: list[int]
    matrix: list[list[float]]  # new query of host i vs database of host j
    mean_flips: list[float]

    def to_report(self) -> ExperimentReport:
        rows, values = [], []
        for i, row in enumerate(self.matrix):
            for j, value in enumerate(row):
                rows.append((f"host{i + 1}", f"host{j + 1}", value))
                values.append(value)
        return ExperimentReport(
            name="one-dimm-multi-host",
            columns=("new_query_host", "database_host", "jaccard_prime"),
            rows=rows, values=values,
        )

    def matrix_delimited(self) -> str:
        names = [f"host{i + 1}" for i in range(len(self.host_seeds))]
        rows = [(name, *row) for name, row in zip(names, self.matrix)]
        return (_delimited(("new\\db", *names), rows) + "\n"
                + _delimited(("host", *names), [("mean_flips", *self.mean_flips)]))


def one_dimm_multi_host(dimm_seed: int, host_seeds: list[int],
                        seed: int = 0) -> MultiHostResult:
    """Fingerprint the same DIMM seed under several host seeds.

    Each host enrolls three queries of the reference challenge. The
    overlap table pairs each host's fresh query against each host's
    database union; per-host mean flip counts come along for the ride.
    """
    if len(host_seeds) < 2:
        raise ExperimentError("need at least two host seeds")
    ch = default_challenge()
    rng = random.Random(f"{seed}:hosts")
    databases, new_queries, mean_flips = [], [], []
    for host_seed in host_seeds:
        dev = new_sim_device(dimm_seed, host_seed)
        queries = [run_query(dev, ch, rng.getrandbits(64)) for _ in range(3)]
        fresh = run_query(dev, ch, rng.getrandbits(64))
        databases.append(union_of(queries))
        new_queries.append(fresh)
        counts = [len(q.locations) for q in queries + [fresh]]
        mean_flips.append(sum(counts) / len(counts))
    matrix = [[jaccard_prime(q, db) for db in databases] for q in new_queries]
    return MultiHostResult(list(host_seeds), matrix, mean_flips)


def measurements_tradeoff(dev: SimDevice, ch: DramChallenge,
                          m_values: tuple[int, ...] = tuple(range(1, 11)),
                          queries_per_m: int = 5, seed: int = 0) -> ExperimentReport:
    """Reliability and simulated cost as the measurement count varies.

    Work units follow the declared linear model: measurements times banks
    measured times aggressor activations. Reliability per m is
    leave-one-out over ``queries_per_m`` queries.
    """
    if not m_values:
        raise ExperimentError("m_values must be nonempty")
    if queries_per_m < 2:
        raise ExperimentError("leave-one-out needs at least two queries")
    n_aggressors = len(ch.pattern.aggressor_offsets)
    rows, values = [], []
    for m in m_values:
        ch_m = ch.with_measurements(m)
        queries = _make_queries(dev, ch_m, seed, queries_per_m, tag=f"m{m}")
        rels = []
        for i, q in enumerate(queries):
            others = [x for k, x in enumerate(queries) if k != i]
            rels.append(jaccard_prime(q, union_of(others)))
        mean_rel = sum(rels) / len(rels)
        work = m * ch.banks_measured * n_aggressors
        rows.append((m, work, mean_rel, min(rels), max(rels)))
        values.append(mean_rel)
    return ExperimentReport(
        name="measurements-tradeoff",
        columns=("measurements", "work_units", "mean_reliability",
                 "min_reliability", "max_reliability"),
        rows=rows, values=values,
    )
