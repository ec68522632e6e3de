import copy
import gc
import os
import shutil
import stat
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tree
from hammerprint.challenge import default_challenge, challenge_hash
from hammerprint.fingerprint import (
    ChallengeMismatchError,
    Fingerprint,
    FingerprintError,
    FlipLocation,
    encode_fingerprint,
    jaccard,
    jaccard_prime,
    union_of,
)
from hammerprint.registry import (
    DatasetError,
    DeviceRecord,
    FingerprintDataset,
    enroll,
    fingerprint_match,
    generate_new_id,
    get_similarity,
    identify,
    load_dataset,
    open_dataset,
    save_dataset,
)
from hammerprint.simdevice import new_sim_device, run_query

H = "c" * 64


def fp(locs, challenge=H) -> Fingerprint:
    return Fingerprint(frozenset(locs), challenge)


def loc(i: int) -> FlipLocation:
    return FlipLocation(i % 4, i % 100, i, i % 8)


def block(start: int, n: int) -> set[FlipLocation]:
    return {loc(i) for i in range(start, start + n)}


def write_capture(directory) -> None:
    """A user's own 1.fp, with a comment that no save writes."""
    with open(os.path.join(directory, "1.fp"), "w", encoding="utf-8") as fh:
        fh.write("# my capture\n" + encode_fingerprint(fp(block(0, 8))))


class TestGenerateNewId:
    def test_empty_dataset(self):
        assert generate_new_id(FingerprintDataset(H)) == "dev-1"

    def test_max_plus_one(self):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 3)))
        enroll(ds, "dev-3", fp(block(10, 3)))
        assert generate_new_id(ds) == "dev-4"

    def test_custom_ids_ignored(self):
        ds = FingerprintDataset(H)
        enroll(ds, "laptop-a", fp(block(0, 3)))
        assert generate_new_id(ds) == "dev-1"

    def test_hundred_sequential_mints_distinct(self):
        ds = FingerprintDataset(H)
        minted = []
        for i in range(100):
            new_id = generate_new_id(ds)
            minted.append(new_id)
            enroll(ds, new_id, fp(block(i * 5, 3)))
        assert len(set(minted)) == 100


class TestFingerprintMatch:
    def test_identical(self):
        a = fp(block(0, 10))
        assert fingerprint_match(a, a, 0.99)

    def test_disjoint(self):
        assert not fingerprint_match(fp(block(0, 5)), fp(block(50, 5)), 0.1)

    def test_threshold_strict(self):
        a, b = fp(block(0, 4)), fp(block(2, 4))  # jaccard = 2/6
        assert fingerprint_match(a, b, 0.33)
        assert not fingerprint_match(a, b, 1 / 3)

    def test_simulated_same_device_pairs(self):
        # calibrated same-device queries clear the 0.4 bar essentially always
        ch = default_challenge()
        dev = new_sim_device(90, 91)
        queries = [run_query(dev, ch, s) for s in range(101)]
        hits = sum(
            fingerprint_match(queries[i], queries[i + 1], 0.4) for i in range(100)
        )
        assert hits >= 99


class TestIdentify:
    def test_empty_dataset_mints_new(self):
        result = identify(FingerprintDataset(H), fp(block(0, 5)))
        assert result.decision == "new"
        assert result.device_id == "dev-1"

    def test_single_device_superset_union(self):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 40)))
        query = fp(block(0, 30))
        result = identify(ds, query, 0.4)
        assert result.decision == "matched"
        assert result.device_id == "dev-1"
        assert result.similarity == 1.0

    def test_two_candidates_ranked_by_similarity(self):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 100)))   # J'(query, dev-1) = 0.9
        enroll(ds, "dev-2", fp(block(40, 80)))   # J'(query, dev-2) = 0.6
        query = fp(block(0, 90) | block(100, 10))
        assert fingerprint_match(query, ds.records["dev-1"].fingerprints[0], 0.4)
        assert fingerprint_match(query, ds.records["dev-2"].fingerprints[0], 0.4)
        result = identify(ds, query, 0.4)
        # brute force over every device without the two-stage shortcut
        brute = max(
            ((jaccard_prime(query, union_of(r.fingerprints)), rid) for rid, r in ds.records.items()),
            key=lambda sr: (sr[0], [-ord(c) for c in sr[1]]),
        )
        assert result.device_id == brute[1] == "dev-1"
        assert result.similarity == brute[0] == 0.9

    def test_tie_breaks_on_smallest_id(self):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-2", fp(block(0, 50)))
        enroll(ds, "dev-1", fp(block(0, 50)))
        result = identify(ds, fp(block(0, 50)))
        assert result.device_id == "dev-1"

    def test_names_the_device_by_its_key_not_record_id(self, tmp_path):
        # The key is what stage 1, id minting and the saved directory go by.
        ds = FingerprintDataset(H, {"dev-1": DeviceRecord("laptop", [fp(block(0, 50))])})
        result = identify(ds, fp(block(0, 50)))
        assert (result.device_id, result.decision) == ("dev-1", "matched")
        save_dataset(ds, str(tmp_path / "ds"))
        assert sorted(os.listdir(tmp_path / "ds")) == ["dataset.meta", "dev-1"]
        # Ties go to the smallest key, whatever the records' ids say.
        ds.records["dev-2"] = DeviceRecord("a-first", [fp(block(0, 50))])
        assert identify(ds, fp(block(0, 50))).device_id == "dev-1"

    def test_pure_and_order_invariant(self):
        base = [("dev-1", block(0, 60)), ("dev-2", block(30, 60)), ("dev-3", block(200, 60))]
        query = fp(block(10, 50))
        results = set()
        for perm in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            ds = FingerprintDataset(H)
            for k in perm:
                dev_id, locs = base[k]
                enroll(ds, dev_id, fp(locs))
            r1 = identify(ds, query)
            r2 = identify(ds, query)
            assert r1 == r2
            results.add((r1.device_id, r1.decision, r1.similarity))
        assert len(results) == 1

    def test_does_not_mutate_dataset(self):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 10)))
        identify(ds, fp(block(100, 10)))
        assert list(ds.records) == ["dev-1"]
        assert len(ds.records["dev-1"].fingerprints) == 1

    def test_rejects_empty_and_mismatched(self):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 10)))
        with pytest.raises(FingerprintError):
            identify(ds, fp(set()))
        with pytest.raises(ChallengeMismatchError):
            identify(ds, fp(block(0, 5), challenge="d" * 64))


class TestGetSimilarity:
    def test_uses_full_union(self):
        record = DeviceRecord("dev-1", [fp(block(0, 10)), fp(block(10, 10))])
        assert get_similarity(fp(block(0, 20)), record) == 1.0
        assert get_similarity(fp(block(0, 20)), record) == \
            jaccard_prime(fp(block(0, 20)), union_of(record.fingerprints))


class TestEnroll:
    def test_fresh_then_repeat(self):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 5)))
        assert len(ds.records["dev-1"].fingerprints) == 1
        enroll(ds, "dev-1", fp(block(5, 5)))
        enroll(ds, "dev-1", fp(block(10, 5)))
        assert len(ds.records["dev-1"].fingerprints) == 3

    def test_enroll_then_identify_roundtrip(self):
        ds = FingerprintDataset(H)
        f = fp(block(0, 25))
        enroll(ds, "dev-1", f)
        result = identify(ds, f)
        assert result.decision == "matched" and result.device_id == "dev-1"

    def test_challenge_mismatch(self):
        ds = FingerprintDataset(H)
        with pytest.raises(ChallengeMismatchError):
            enroll(ds, "dev-1", fp(block(0, 5), challenge="d" * 64))

    def test_empty_fingerprint_refused(self):
        ds = FingerprintDataset(H)
        with pytest.raises(FingerprintError):
            enroll(ds, "dev-1", fp(set()))
        assert ds.records == {} and generate_new_id(ds) == "dev-1"

    def test_record_requires_fingerprints(self):
        with pytest.raises(DatasetError):
            DeviceRecord("dev-1", [])


class TestEnrollmentMonotonicity:
    def test_simulated_enroll_then_identify(self):
        ch = default_challenge()
        dev = new_sim_device(95, 96)
        ds = FingerprintDataset(challenge_hash(ch))
        for s in (1, 2, 3):
            enroll(ds, "dev-1", run_query(dev, ch, s))
        fresh = run_query(dev, ch, 4)
        result = identify(ds, fresh)
        assert result.device_id == "dev-1"
        enroll(ds, "dev-1", fresh)
        again = identify(ds, fresh)
        assert again.device_id == "dev-1"
        assert again.similarity == 1.0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        enroll(ds, "dev-1", fp(block(4, 8)))
        enroll(ds, "dev-2", fp(block(40, 8)))
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.challenge_hash == H
        assert set(loaded.records) == {"dev-1", "dev-2"}
        assert loaded.records["dev-1"].fingerprints == ds.records["dev-1"].fingerprints

    def test_meta_records_counter(self, tmp_path):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-7", fp(block(0, 4)))
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        meta = (tmp_path / "ds" / "dataset.meta").read_text()
        assert f"challenge={H}" in meta
        assert "id_counter=8" in meta

    def test_deleted_highest_device_id_is_not_reused(self, tmp_path):
        ds = FingerprintDataset(H)
        for i in range(3):
            enroll(ds, generate_new_id(ds), fp(block(10 * i, 4)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        shutil.rmtree(path / "dev-3")
        loaded = load_dataset(str(path))
        assert (path / "dataset.meta").read_text() == f"challenge={H}\nid_counter=4\n"
        # the counter stays outside repr and ==, and survives an index rebuild
        del ds.records["dev-3"]
        assert loaded == ds and "counter" not in repr(loaded)
        loaded._reset()
        assert generate_new_id(loaded) == "dev-4"
        enroll(loaded, "dev-4", fp(block(50, 4)))
        assert generate_new_id(loaded) == "dev-5"
        # a counter below the existing ids gives way to them
        (path / "dataset.meta").write_text(f"challenge={H}\nid_counter=1\n")
        assert generate_new_id(load_dataset(str(path))) == "dev-3"

    def test_counter_too_long_for_int_is_refused(self, tmp_path):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 4)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        (path / "dataset.meta").write_text(f"challenge={H}\nid_counter={'9' * 5000}\n")
        with pytest.raises(DatasetError, match="5000 digits"):
            load_dataset(str(path))

    def test_repeated_meta_key_is_refused(self, tmp_path):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 4)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        meta = path / "dataset.meta"
        meta.write_text(meta.read_text() + "challenge=" + "d" * 64 + "\n")
        with pytest.raises(DatasetError, match="repeated 'challenge'"):
            load_dataset(str(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta + "owner=me\n", "bad dataset.meta line: 'owner=me'"),
        (lambda meta: meta + "stray\n", "bad dataset.meta line: 'stray'"),
        (lambda meta: meta.replace("id_counter=2\n", ""), "id_counter"),
        (lambda meta: meta.replace("id_counter=2", "id_counter=abc"), "id_counter"),
        (lambda meta: meta.replace("id_counter=2", "id_counter=\u0662"), "id_counter"),
        (lambda meta: meta.replace("id_counter=2", "id_counter="), "id_counter"),
    ], ids=["unknown-key", "key-less-line", "no-counter", "letters", "arabic-indic-digit",
            "empty-counter"])
    def test_meta_holds_exactly_what_save_writes(self, tmp_path, edit, message):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 4)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        meta = path / "dataset.meta"
        assert meta.read_text() == f"challenge={H}\nid_counter=2\n"
        meta.write_text(edit(meta.read_text()), encoding="utf-8")
        with pytest.raises(DatasetError, match=message):
            load_dataset(str(path))

    @pytest.mark.parametrize("stray", ["notes.fp", "0.fp", "01.fp", "3.fp"])
    def test_fp_name_outside_saved_names_is_refused(self, tmp_path, stray):
        # save writes 1.fp..k.fp; any other .fp name, or a gap (3.fp after
        # 1.fp), would load a file that the next save never rewrites
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 4)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        (path / "dev-1" / stray).write_text((path / "dev-1" / "1.fp").read_text())
        with pytest.raises(DatasetError, match="1.fp"):
            load_dataset(str(path))

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("fails", [False, True])
    def test_load_pauses_the_collector_and_restores_its_state(
            self, tmp_path, monkeypatch, enabled, fails):
        import hammerprint.registry as registry_mod

        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        enroll(ds, "dev-2", fp(block(40, 8)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        if fails:  # dev-1 decodes, then dev-2's gap raises mid-load
            (path / "dev-2" / "3.fp").write_text((path / "dev-2" / "1.fp").read_text())
        during = []
        real_decode = registry_mod.decode_fingerprint

        def spy(text):
            during.append(gc.isenabled())
            return real_decode(text)

        monkeypatch.setattr(registry_mod, "decode_fingerprint", spy)
        caller = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fails:
                with pytest.raises(DatasetError, match="3.fp"):
                    load_dataset(str(path))
            else:
                load_dataset(str(path))
            after = gc.isenabled()
        finally:
            (gc.enable if caller else gc.disable)()
        assert after is enabled
        assert during == [False] * (1 if fails else 2)

    def test_save_without_challenge_hash_writes_nothing(self, tmp_path):
        path = tmp_path / "ds"
        with pytest.raises(DatasetError, match="challenge hash"):
            save_dataset(FingerprintDataset(""), str(path))
        assert not path.exists()

    @pytest.mark.parametrize("other", [None, "notes.fp", "0.fp", "01.fp", "02.fp", "2.fp.tmp"])
    def test_save_writes_exactly_the_dataset(self, tmp_path, other):
        ds = FingerprintDataset(H)
        for dev_id, start in (("dev-1", 0), ("dev-2", 40)):
            enroll(ds, dev_id, fp(block(start, 8)))
            enroll(ds, dev_id, fp(block(start + 4, 8)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        kept = [] if other is None else [other]
        if other is not None:
            for dev_id in ds.records:
                (path / dev_id / other).write_text("kept\n")
        ds.records["dev-1"].fingerprints.pop()
        del ds.records["dev-2"]
        save_dataset(ds, str(path))
        assert sorted(os.listdir(path / "dev-1")) == sorted(["1.fp", *kept])
        assert os.listdir(path / "dev-2") == kept
        if other is None:
            loaded = load_dataset(str(path))
            assert {k: len(r.fingerprints) for k, r in loaded.records.items()} == {"dev-1": 1}
            assert loaded == ds
        else:
            assert (path / "dev-2" / other).read_text() == "kept\n"

    def test_save_leaves_a_symlinked_directory_alone(self, tmp_path):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "1.fp").write_text("kept\n")
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(40, 8)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        os.symlink(outside, path / "link")
        save_dataset(ds, str(path))
        assert os.listdir(outside) == ["1.fp"]

    @pytest.mark.parametrize("target", ["captures", "gone"])
    def test_save_refuses_a_record_whose_directory_is_a_symlink(self, tmp_path, target):
        # "captures" holds the user's own commented 1.fp; "gone" does not exist
        captures = tmp_path / "captures"
        captures.mkdir()
        write_capture(captures)
        path = tmp_path / "ds"
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(40, 8)))
        save_dataset(ds, str(path))
        os.symlink(tmp_path / target, path / "dev-2")
        enroll(ds, "dev-2", fp(block(0, 8)))
        before = tree(tmp_path)
        with pytest.raises(DatasetError, match="'dev-2' is a symlink; a device needs a "
                                               "directory of its own"):
            save_dataset(ds, str(path))
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("target", ["dev-1", "captures"])
    def test_load_refuses_a_symlinked_device_directory(self, tmp_path, target):
        captures = tmp_path / "captures"
        captures.mkdir()
        write_capture(captures)
        path = tmp_path / "ds"
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(40, 8)))
        save_dataset(ds, str(path))
        os.symlink(path / "dev-1" if target == "dev-1" else captures, path / "dev-2")
        with pytest.raises(DatasetError, match="'dev-2' is a symlink"):
            load_dataset(str(path))
        kept = (captures / "1.fp").read_bytes()
        enroll(ds, "dev-1", fp(block(44, 8)))
        save_dataset(ds, str(path))  # the sweep leaves what is behind a symlink alone
        assert (captures / "1.fp").read_bytes() == kept
        assert sorted(os.listdir(path / "dev-1")) == ["1.fp", "2.fp"]

    @pytest.mark.parametrize("target", ["dev-1", "stray"])  # a record, or another entry
    def test_save_refuses_a_record_whose_directory_is_another_entry(self, tmp_path, target):
        path = tmp_path / "ds"
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        save_dataset(ds, str(path))
        if target == "stray":
            (path / "stray").mkdir()
            (path / "stray" / "1.fp").write_text("kept\n")
        os.symlink(path / target, path / "dev-2")
        for start in (40, 44, 48):
            enroll(ds, "dev-2", fp(block(start, 8)))
        before = tree(tmp_path)
        with pytest.raises(DatasetError, match="'dev-2' is a symlink; a device needs a "
                                               "directory of its own"):
            save_dataset(ds, str(path))
        assert tree(tmp_path) == before

    def test_save_allows_two_entries_that_are_no_record_to_share_a_directory(self, tmp_path):
        path = tmp_path / "ds"
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        save_dataset(ds, str(path))
        (path / "stray").mkdir()
        os.symlink(path / "stray", path / "link")
        enroll(ds, "dev-1", fp(block(4, 8)))
        save_dataset(ds, str(path))
        assert load_dataset(str(path)) == ds

    def test_save_writes_every_file_mode_0600_whatever_the_umask(self, tmp_path):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        enroll(ds, "dev-1", fp(block(4, 8)))
        enroll(ds, "dev-2", fp(block(40, 8)))
        path = tmp_path / "ds"
        umask = os.umask(0)  # a plain open() would make mode 0666
        try:
            save_dataset(ds, str(path))
        finally:
            os.umask(umask)
        modes = {p: stat.S_IMODE(os.stat(p).st_mode) for p, data in tree(path).items() if data}
        assert len(modes) == 4 and set(modes.values()) == {0o600}

    def test_interrupted_removal_leaves_a_loadable_dataset(self, tmp_path, monkeypatch):
        import hammerprint.registry as registry_mod

        ds = FingerprintDataset(H)
        fps = [fp(block(4 * k, 8)) for k in range(4)]
        for f in fps:
            enroll(ds, "dev-1", f)
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        del ds.records["dev-1"].fingerprints[1:]

        # fault injection: the second removal crashes
        real_remove = os.remove
        removed = []

        def failing_remove(name):
            if removed:
                raise OSError("simulated crash before remove")
            removed.append(os.path.basename(name))
            real_remove(name)

        monkeypatch.setattr(registry_mod.os, "remove", failing_remove)
        with pytest.raises(OSError):
            save_dataset(ds, path)
        monkeypatch.setattr(registry_mod.os, "remove", real_remove)

        assert removed == ["4.fp"]  # the highest first, so no gap opens
        assert load_dataset(path).records["dev-1"].fingerprints == fps[:3]

    def test_load_missing_dataset(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(str(tmp_path / "nope"))

    def test_interrupted_write_leaves_prior_dataset(self, tmp_path, monkeypatch):
        import hammerprint.registry as registry_mod

        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        before = load_dataset(path)

        # fault injection: the temp file vanishes before every rename
        real_replace = os.replace

        def failing_replace(src, dst):
            os.unlink(src)
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(registry_mod.os, "replace", failing_replace)
        enroll(ds, "dev-2", fp(block(50, 8)))
        with pytest.raises(OSError):
            save_dataset(ds, path)
        monkeypatch.setattr(registry_mod.os, "replace", real_replace)

        after = load_dataset(path)
        assert set(after.records) == set(before.records) == {"dev-1"}
        assert after.records["dev-1"].fingerprints == before.records["dev-1"].fingerprints

    def test_interrupted_first_save_of_new_device_is_not_enrolled(self, tmp_path, monkeypatch):
        import hammerprint.registry as registry_mod

        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        before = load_dataset(path)

        # fault injection: the crash hits only the new device's first file,
        # after its directory was made
        real_replace = os.replace

        def failing_replace(src, dst):
            if os.path.basename(os.path.dirname(dst)) == "dev-2":
                os.unlink(src)
                raise OSError("simulated crash before rename")
            real_replace(src, dst)

        monkeypatch.setattr(registry_mod.os, "replace", failing_replace)
        enroll(ds, generate_new_id(ds), fp(block(50, 8)))
        with pytest.raises(OSError):
            save_dataset(ds, path)
        monkeypatch.setattr(registry_mod.os, "replace", real_replace)

        assert os.path.isdir(os.path.join(path, "dev-2"))
        after = load_dataset(path)
        assert set(after.records) == set(before.records) == {"dev-1"}
        assert after.records["dev-1"].fingerprints == before.records["dev-1"].fingerprints
        assert generate_new_id(after) == "dev-2"

    def test_load_keeps_one_object_per_distinct_location_of_a_device(self, tmp_path):
        ch = default_challenge()
        ds = FingerprintDataset(challenge_hash(ch))
        for dimm in (1, 2):
            dev = new_sim_device(dimm, 2)
            for seed in (3, 4, 5):
                enroll(ds, f"dev-{dimm}", run_query(dev, ch, seed))
        path = str(tmp_path / "ds")
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded == ds
        for rec in loaded.records.values():
            objects = [x for f in rec.fingerprints for x in f.locations]
            assert all(type(x) is FlipLocation for x in objects)
            # the queries overlap, so a load without sharing holds more objects
            assert len(objects) > len(union_of(rec.fingerprints).locations)
            assert len(set(map(id, objects))) == len(union_of(rec.fingerprints).locations)

    @pytest.mark.parametrize("kind", ["file", "symlink", "dangling", "directory"])
    def test_new_ids_pass_a_file_or_symlink_named_dev_n(self, tmp_path, kind):
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        path = tmp_path / "ds"
        save_dataset(ds, str(path))
        entry, elsewhere = path / "dev-2", tmp_path / "elsewhere"
        if kind == "file":
            entry.write_text("mine\n")
        elif kind == "directory":  # what an enroll interrupted before its first file leaves
            entry.mkdir()
        else:
            if kind == "symlink":
                elsewhere.mkdir()
            os.symlink(elsewhere, entry)
        loaded = load_dataset(str(path))
        assert loaded == ds
        assert generate_new_id(loaded) == ("dev-2" if kind == "directory" else "dev-3")
        entry.rename(tmp_path / "dev-2")
        assert generate_new_id(load_dataset(str(path))) == "dev-2"

    def test_open_dataset_mints_past_entries_without_a_meta(self, tmp_path):
        path = tmp_path / "runs"
        assert open_dataset(str(path), H) == FingerprintDataset(H)
        assert generate_new_id(open_dataset(str(path), H)) == "dev-1"
        path.mkdir()
        (path / "dev-4").write_text("mine\n")
        os.symlink(tmp_path / "gone", path / "dev-6")
        (path / "dev-9").mkdir()
        assert generate_new_id(open_dataset(str(path), H)) == "dev-7"
        ds = FingerprintDataset(H)
        enroll(ds, "dev-1", fp(block(0, 8)))
        save_dataset(ds, str(path))
        assert open_dataset(str(path), "d" * 64) == ds
        assert generate_new_id(open_dataset(str(path), H)) == "dev-7"


@pytest.mark.parametrize("hashes", [(H, "d" * 64), ("d" * 64, H, H)])
def test_record_refuses_mixed_challenge_hashes(hashes):
    with pytest.raises(DatasetError, match="device 'dev-1' mixes challenge hashes"):
        DeviceRecord("dev-1", [fp(block(10 * i, 10), h) for i, h in enumerate(hashes)])


# (kind, claimed, holds_fp, n) per entry e<i> of the dataset directory. kind
# "record" is a real record directory with n % 3 + 1 fingerprints, dropped
# from the second save unless claimed; the other kinds are symlinks, to
# record n (dangling if there is none), to a stray directory beside the
# records, or to a directory outside the dataset; the last two hold a
# commented 1.fp when holds_fp. A claimed symlink is enrolled into before
# the second save.
entries = st.lists(st.tuples(st.sampled_from(["record", "to_record", "to_stray", "to_outside"]),
                             st.booleans(), st.booleans(), st.integers(0, 4)), max_size=5)


@settings(max_examples=100, deadline=None)
@given(entries)
def test_a_symlinked_entry_never_loads_as_a_device_nor_changes_outside_files(entries):
    with tempfile.TemporaryDirectory() as root:
        path, outside = os.path.join(root, "ds"), os.path.join(root, "outside")
        os.mkdir(outside)
        names = [f"e{i}" for i in range(len(entries))]
        first = FingerprintDataset(H)
        for i, (kind, _, _, n) in enumerate(entries):
            for k in range(n % 3 + 1 if kind == "record" else 0):
                enroll(first, names[i], fp(block(10 * i + k, 8)))
        save_dataset(first, path)
        second, records, links = copy.deepcopy(first), sorted(first.records), []
        for i, (kind, claimed, holds_fp, n) in enumerate(entries):
            if kind == "record":
                if not claimed:
                    del second.records[names[i]]
                continue
            if kind == "to_record":
                target = os.path.join(path, records[n % len(records)] if records else "gone")
            else:
                target = os.path.join(path if kind == "to_stray" else outside, f"t{i}")
                os.mkdir(target)
                if holds_fp:
                    write_capture(target)
            os.symlink(target, os.path.join(path, names[i]))
            if claimed:
                enroll(second, names[i], fp(block(10 * i + 5, 8)))
                links.append(names[i])
        before, outside_before = tree(root), tree(outside)
        if links:
            with pytest.raises(DatasetError, match=f"^{links[0]!r} is a symlink"):
                save_dataset(second, path)
            assert tree(root) == before
            saved = first
        else:
            save_dataset(second, path)
            saved = second
        holding = [name for name in sorted(os.listdir(path))
                   if os.path.islink(p := os.path.join(path, name)) and os.path.isdir(p)
                   and any(f.endswith(".fp") for f in os.listdir(p))]
        if holding:
            with pytest.raises(DatasetError, match=f"^{holding[0]!r} is a symlink"):
                load_dataset(path)
        else:
            loaded = load_dataset(path)
            assert loaded == saved
            queries = [f for rec in saved.records.values() for f in rec.fingerprints]
            for q in [*queries, fp(block(3, 8))]:
                assert identify(loaded, q) == identify(saved, q)
        assert tree(outside) == outside_before
