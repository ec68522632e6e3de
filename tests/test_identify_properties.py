"""Property tests for ``identify``'s stage-1 index and for id minting.

``identify`` looks up the devices that share a location with the query
and runs the Jaccard test on those alone. It must decide exactly as the
plain scan below, which runs that test on every record, however the
caller edits ``records`` between calls.
"""

import re
from itertools import cycle

import pytest
from hypothesis import example, given, settings, strategies as st

from hammerprint import registry
from hammerprint.fingerprint import (
    ChallengeMismatchError,
    Fingerprint,
    FlipLocation,
    jaccard,
    jaccard_prime,
    union_of,
)
from hammerprint.registry import (
    DeviceRecord,
    FingerprintDataset,
    IdentifyResult,
    enroll,
    generate_new_id,
    identify,
)

H = "c" * 64
FOREIGN = "f" * 64
THRESHOLDS = (0.1, 0.2, 0.25, 1 / 3, 0.4, 0.5, 2 / 3, 0.75)


def loc(i: int) -> FlipLocation:
    return FlipLocation(i % 3, i, 2 * i, i % 8)


def fp(indices, challenge=H, plain=False) -> Fingerprint:
    """``plain``: plain tuples, as a decode gives, not FlipLocations."""
    locs = map(loc, indices)
    return Fingerprint(frozenset(map(tuple, locs) if plain else locs), challenge)


def regex_new_id(dataset: FingerprintDataset) -> str:
    """The id rule as a regular expression: one past the highest dev-<digits>."""
    top = 0
    for dev_id in dataset.records:
        m = re.fullmatch(r"dev-(\d+)", dev_id)
        if m:
            top = max(top, int(m.group(1)))
    return f"dev-{top + 1}"


def scan_identify(dataset: FingerprintDataset, f_u: Fingerprint,
                  threshold: float) -> IdentifyResult:
    """Reference: the stage-1 Jaccard test on every record, no index."""
    candidates = [r for r in dataset.records.values()
                  if jaccard(f_u, r.fingerprints[0]) > threshold]
    if not candidates:
        return IdentifyResult(regex_new_id(dataset), "new")
    best_sim, best_id = min(((jaccard_prime(f_u, union_of(r.fingerprints)), r.id)
                             for r in candidates), key=lambda sr: (-sr[0], sr[1]))
    return IdentifyResult(best_id, "matched", best_sim)


def outcome(fn, *args):
    """The result, or the exception type when ``fn`` raises."""
    try:
        return fn(*args)
    except ChallengeMismatchError as exc:
        return type(exc)


# Small location and id universes, so queries overlap several devices and
# J' ties are common.
indices = st.frozensets(st.integers(0, 23), min_size=1, max_size=4)
keys = st.sampled_from([f"dev-{i}" for i in range(1, 7)] + ["laptop"])
edits = st.one_of(
    st.tuples(st.just("set"), keys, st.lists(indices, min_size=1, max_size=3)),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("replace_first"), keys, indices),
    st.tuples(st.just("append"), keys, indices),
    st.tuples(st.just("set_foreign"), keys, indices),
)


def apply(ds: FingerprintDataset, edit) -> None:
    """Edit ``records`` directly, as callers outside ``enroll`` may."""
    kind, key, *rest = edit
    record = ds.records.get(key)
    if kind == "set":  # add a record, or replace one under the same key
        ds.records[key] = DeviceRecord(key, [fp(i) for i in rest[0]])
    elif kind == "set_foreign":
        ds.records[key] = DeviceRecord(key, [fp(rest[0], FOREIGN)])
    elif record is None:
        return
    elif kind == "delete":
        del ds.records[key]
    elif kind == "replace_first":
        record.fingerprints[0] = fp(rest[0], record.fingerprints[0].challenge_hash)
    elif kind == "append":
        record.fingerprints.append(fp(rest[0], record.fingerprints[0].challenge_hash))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(keys, st.lists(indices, min_size=1, max_size=3)), max_size=6),
       st.lists(st.tuples(edits, indices, st.sampled_from(THRESHOLDS)), max_size=12),
       st.lists(st.booleans(), min_size=1, max_size=8))
def test_indexed_identify_equals_the_scan(initial, steps, plain):
    # each enrolled and each query fingerprint in turn takes the next kind,
    # so the index is often keyed by one kind and probed by the other
    kinds = cycle(plain)
    ds = FingerprintDataset(H)
    for key, fps in initial:
        for indices_ in fps:
            enroll(ds, key, fp(indices_, plain=next(kinds)))
    for edit, query, threshold in steps:
        apply(ds, edit)
        f_u = fp(query, plain=next(kinds))
        assert outcome(identify, ds, f_u, threshold) == outcome(scan_identify, ds, f_u, threshold)


def test_jaccard_at_the_threshold_does_not_match():
    ds = FingerprintDataset(H)
    enroll(ds, "dev-1", fp({0, 1, 2}))
    query = fp({0, 1, 8, 9})  # inter 2, union 5
    assert jaccard(query, ds.records["dev-1"].fingerprints[0]) == 0.4
    want = IdentifyResult("dev-2", "new")
    assert identify(ds, query, 0.4) == scan_identify(ds, query, 0.4) == want


def test_equal_overlap_breaks_ties_on_the_smallest_id():
    ds = FingerprintDataset(H)
    for key in ("dev-3", "dev-10", "dev-2"):
        enroll(ds, key, fp({0, 1, 2, 3}))
    query = fp({0, 1, 2})
    want = IdentifyResult("dev-10", "matched", 1.0)
    assert identify(ds, query, 0.4) == scan_identify(ds, query, 0.4) == want


def test_a_location_shared_by_representatives_finds_each_owner():
    ds = FingerprintDataset(H)
    enroll(ds, "dev-1", fp({0, 5, 6}))
    enroll(ds, "dev-2", fp({0}))
    enroll(ds, "dev-3", fp({0, 7}))
    query = fp({0})  # Jaccard 1/3 with dev-1, 1 with dev-2, 1/2 with dev-3
    for drop in ("dev-2", "dev-3"):
        assert identify(ds, query) == scan_identify(ds, query, 0.4)
        del ds.records[drop]
    assert identify(ds, query) == scan_identify(ds, query, 0.4) == IdentifyResult("dev-2", "new")


def test_foreign_record_raises_on_every_call_until_removed():
    ds = FingerprintDataset(H)
    enroll(ds, "dev-1", fp({0, 1, 2}))
    query = fp({0, 1, 2})
    identify(ds, query)
    ds.records["dev-2"] = DeviceRecord("dev-2", [fp({5, 6}, FOREIGN)])
    for _ in range(2):
        for fn in (identify, scan_identify):
            with pytest.raises(ChallengeMismatchError):
                fn(ds, query, 0.4)
    del ds.records["dev-2"]
    assert identify(ds, query) == IdentifyResult("dev-1", "matched", 1.0)
    ds.challenge_hash = FOREIGN  # dev-1, indexed under H, is now the foreign one
    for fn in (identify, scan_identify):
        with pytest.raises(ChallengeMismatchError):
            fn(ds, fp({9}, FOREIGN), 0.4)


def test_stage_one_tests_only_current_representatives_that_share_a_location(monkeypatch):
    """Stage 1 runs the Jaccard test on exactly the devices whose current
    representative shares a location with the query, once each, whatever
    edits came before. A stale index entry would only add candidates that
    the test then rejects, so the decisions alone cannot show one."""
    tested = []

    def spy(f_u, f_i1, threshold):
        tested.append(f_i1)
        return jaccard(f_u, f_i1) > threshold

    monkeypatch.setattr(registry, "fingerprint_match", spy)
    query = fp({1, 2, 3})

    def check(ds, want_keys):
        tested.clear()
        assert identify(ds, query) == scan_identify(ds, query, 0.4)
        want = [ds.records[key].fingerprints[0] for key in want_keys]
        assert sorted(map(id, tested)) == sorted(map(id, want))

    ds = FingerprintDataset(H)
    enroll(ds, "dev-1", fp({0, 1, 2}))
    enroll(ds, "dev-2", fp({2, 3}))
    enroll(ds, "dev-3", fp({4, 5}))
    check(ds, ["dev-1", "dev-2"])
    enroll(ds, "dev-4", fp({3, 9}))  # a new record
    check(ds, ["dev-1", "dev-2", "dev-4"])
    enroll(ds, "dev-3", fp({1, 2, 3}))  # an append leaves the representative
    check(ds, ["dev-1", "dev-2", "dev-4"])
    ds.records["dev-1"].fingerprints[0] = fp({6, 7})  # a replaced representative
    check(ds, ["dev-2", "dev-4"])
    ds.records["dev-5"] = DeviceRecord("dev-5", [fp({7, 1})])
    del ds.records["dev-2"]  # a deletion, in the same gap as an add
    check(ds, ["dev-4", "dev-5"])
    ds.challenge_hash = FOREIGN
    with pytest.raises(ChallengeMismatchError):
        identify(ds, fp({8}, FOREIGN))  # shares no location, so only the sync can raise
    ds.challenge_hash = H  # back again: every record is indexed anew
    check(ds, ["dev-4", "dev-5"])


def test_index_is_outside_repr_and_equality():
    ds = FingerprintDataset(H)
    enroll(ds, "dev-1", fp({0, 1, 2}))
    enroll(ds, "dev-2", fp({3, 4}))
    fresh = FingerprintDataset(H, dict(ds.records))
    before = repr(ds)
    identify(ds, fp({0, 1}))
    assert repr(ds) == before == f"FingerprintDataset(challenge_hash={H!r}, records={ds.records!r})"
    assert ds == fresh
    assert ds != FingerprintDataset(H)
    assert ds != FingerprintDataset(FOREIGN, dict(ds.records))


def dataset_with_ids(ids) -> FingerprintDataset:
    return FingerprintDataset(H, {i: DeviceRecord(i, [fp({0})]) for i in ids})


dev_ids = st.one_of(
    st.text(max_size=8),
    st.builds("dev-".__add__, st.text(st.characters(categories=("Nd", "No", "Zs", "Cc")),
                                      max_size=6)),
    st.builds("dev-{}".format, st.integers(0, 10 ** 6)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(dev_ids, max_size=6))
@example(["dev-"])
@example(["dev-01"])
@example(["dev-٣"])
@example(["dev-3\n"])
@example(["Dev-3"])
@example(["dev-", "dev-01", "dev-٣", "dev-3\n", "Dev-3", "dev-2"])
def test_new_id_follows_the_regex_rule(ids):
    ds = dataset_with_ids(ids)
    assert generate_new_id(ds) == regex_new_id(ds)


id_edits = st.one_of(
    edits,
    st.tuples(st.just("reassign"), st.lists(keys | dev_ids, max_size=4)),
    st.tuples(st.just("clear")),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(keys | dev_ids, max_size=6), st.lists(id_edits, max_size=12))
@example(["dev-1", "dev-5"], [("delete", "dev-5"), ("set", "dev-2", [{0}])])
@example(["dev-3"], [("reassign", ["dev-1"]), ("clear",), ("set", "dev-2", [{0}])])
def test_new_id_follows_every_edit_of_records(ids, steps):
    """``generate_new_id`` reads only the keys added since its last call,
    so each edit of ``records`` must still reach the id it mints."""
    ds = dataset_with_ids(ids)
    assert generate_new_id(ds) == regex_new_id(ds)
    for edit in steps:
        if edit[0] == "reassign":
            ds.records = dataset_with_ids(edit[1]).records
        elif edit[0] == "clear":
            ds.records.clear()
        else:
            apply(ds, edit)
        assert generate_new_id(ds) == regex_new_id(ds)
