"""The benchmark looks up library names that no library code calls.

``perfbench/tracing.py`` wraps functions such as ``registry.fingerprint_match``
and ``simdevice.phys_to_dram`` where they are looked up at call time, and
``perfbench/workloads.py`` calls names such as ``simdevice.make_timing_oracle``
through their modules. If a refactor deletes or renames one, a benchmark
run dies with an AttributeError; these tests make that failure show up in
the unit suite. Each workload also runs its first few requests, so an
attribute it reads off a library object fails here too. The files are only
read, parsed and executed, never imported from their directory, so nothing
is written next to them.
"""

import ast
import collections
import importlib
import itertools
import types
from pathlib import Path

import pytest

from hammerprint import evalharness, geometry, registry, simdevice
from hammerprint.challenge import challenge_hash, default_challenge

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load_perfbench(path: Path) -> types.ModuleType:
    module = types.ModuleType(f"perfbench_{path.stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def load_tracing() -> types.ModuleType:
    return load_perfbench(TRACING)


def test_workloads_library_lookups_exist():
    # every <module>.<name> that workloads.py looks up on a hammerprint
    # module it imports, such as simdevice.SUPPORT_BLOCK
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "hammerprint"
               for a in node.names}
    lookups = {(modules[node.value.id], node.attr) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules}
    assert ("simdevice", "make_timing_oracle") in lookups
    missing = sorted(f"{module}.{attr}" for module, attr in lookups
                     if not hasattr(importlib.import_module(f"hammerprint.{module}"), attr))
    assert missing == []


@pytest.mark.parametrize("name", ["query", "reliability", "fleet", "reverse_map"])
def test_workload_runs_its_first_requests(tmp_path, name):
    # runs the object attributes workloads.py reads, which the lookup test
    # above cannot see: dev.support_block_start, loc.bank, rec.fingerprints,
    # DeviceRecord(id, fps), report.values and the like
    workloads = load_perfbench(WORKLOADS)
    workload = workloads.make(name, 71, str(tmp_path))
    for kind, call, verify in itertools.islice(workload.ops(), 3):
        _, verdict, _, _ = verify(call())
        assert verdict == workloads.OK, kind
    final = workload.finish()
    assert final is None or final[1] == workloads.OK


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = load_tracing()
    owners = {owner for owner, _, _ in tracing.SPANS + tracing.COUNTS}
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not before[owner][attr]
                   for owner, attr, _ in tracing.SPANS + tracing.COUNTS)
    finally:
        tracer.uninstall()
    assert {owner: dict(vars(owner)) for owner in owners} == before


def test_traced_query_counts_prf_calls_and_row_spans(monkeypatch):
    # the per-layer counters must still see every _prf call and the 115
    # victim rows (5 banks x 23 rows) however they are computed; the random
    # streams read _stream, which the tracer does not count, so it is
    # counted here: a draw made outside the two would lower the exact counts
    tracer = load_tracing().Tracer()
    streams = collections.Counter()
    stream = simdevice._stream

    def counted(*args):
        streams[tracer.request] += 1
        return stream(*args)
    monkeypatch.setattr(simdevice, "_stream", counted)
    tracer.install()
    dev = simdevice.new_sim_device(1, 2)
    try:
        tracer.request = "cold"
        simdevice.run_query(dev, default_challenge(), 3)
        tracer.request = "warm"
        simdevice.run_query(dev, default_challenge(), 4)
    finally:
        tracer.uninstall()
    for request in ("cold", "warm"):
        rows = [span for span in tracer.spans
                if span[0] == "simdevice.susceptible_cells" and span[4] == request]
        assert len(rows) == 115
    # a cold device derives its key, block slot and density once
    assert tracer.counts["simdevice.prf", "cold"] == 4
    assert tracer.counts["simdevice.prf", "warm"] == 0
    # two per drawn row, then one per act and meas stream
    assert streams == {"cold": 2 * 115 + 228, "warm": 227}


def test_traced_access_time_resolves_each_address_once():
    # the traced reverse_map metrics divide by the phys_to_dram spans that
    # access_time makes through simdevice's module global
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        simdevice.access_time(simdevice.new_sim_device(1, 2), 0x1234, 0x5678, 3)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("simdevice.access_time") == 1
    assert names.count("geometry.phys_to_dram") == 2
    outer = names.index("simdevice.access_time")
    assert all(span[3] == outer for span in tracer.spans
               if span[0] == "geometry.phys_to_dram")


def test_traced_recovery_times_each_pair_and_the_timed_path_is_the_batch(tmp_path,
                                                                          monkeypatch):
    # the tracer hands recovery a plain oracle, so a traced run still makes
    # one access_time span per pair, each resolving both addresses
    geom = geometry.DramGeometry(banks=8, rows_per_bank=256, columns_per_row=256,
                                 address_bits=20)
    dev = simdevice.new_sim_device(1, 2, geom=geom)
    cfg = geometry.ProbeConfig(num_bases=4, partners_per_base=64, seed=5)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        geometry.recover_bank_functions(simdevice.make_timing_oracle(dev, 3), geom, cfg)
    finally:
        tracer.uninstall()
    outer = [i for i, span in enumerate(tracer.spans) if span[0] == "simdevice.access_time"]
    assert len(outer) == 4 * 64
    children = [span[3] for span in tracer.spans if span[0] == "geometry.phys_to_dram"]
    assert sorted(children) == sorted(outer * 2)

    # untraced, the workload's requests go through the batch and never
    # call access_time
    calls = []
    access_time = simdevice.access_time

    def counted(*args):
        calls.append(args)
        return access_time(*args)
    monkeypatch.setattr(simdevice, "access_time", counted)
    workloads = load_perfbench(WORKLOADS)
    workload = workloads.make("reverse_map", 71, str(tmp_path))
    for kind, call, verify in itertools.islice(workload.ops(), 3):
        assert verify(call())[1] == workloads.OK, kind
    assert calls == []


def test_traced_reliability_sees_the_set_algebra_and_counts_pairings():
    # the traced reliability metrics take medians over jaccard_prime and
    # union_of spans, which fail when a run records none
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        report = evalharness.reliability_experiment(
            simdevice.new_sim_device(1, 2), default_challenge(), n_queries=5, d_size=2)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "fingerprint.jaccard_prime" in names
    assert "fingerprint.union_of" in names
    assert tracer.counts["evalharness.pairings", None] == len(report.values) == 30


def test_traced_fleet_load_and_identify_see_every_file(tmp_path):
    # the traced fleet metrics divide by the decode_fingerprint spans, the
    # files registry reads and the fingerprint_match spans
    ch = default_challenge()
    dataset = registry.FingerprintDataset(challenge_hash(ch))
    for dimm in (1, 2):
        dev = simdevice.new_sim_device(dimm, 2)
        for seed in (3, 4):
            registry.enroll(dataset, f"dev-{dimm}", simdevice.run_query(dev, ch, seed))
    registry.save_dataset(dataset, str(tmp_path))
    query = simdevice.run_query(simdevice.new_sim_device(1, 2), ch, 5)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        registry.identify(registry.load_dataset(str(tmp_path)), query)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("fingerprint.decode_fingerprint") == 4  # one per .fp file
    assert tracer.counts["registry.files_read", None] == 4 + 1  # and dataset.meta
    assert names.count("registry.fingerprint_match") >= 1
