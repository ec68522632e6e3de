"""Fingerprint dataset and device identification.

Identification is two-staged: a cheap Jaccard match of the new query
against each device's representative (first-enrolled) fingerprint selects
candidates, then the asymmetric overlap of the query against each
candidate's full fingerprint union ranks them. No candidate means a new
device. Devices are named by their key in ``records``. Stage 1 only
tests the devices whose representative shares a location with the query,
found through an index of representatives; any other device has Jaccard 0
and could not pass. Callers may edit ``records`` directly: the next
``identify`` indexes the records added since the last, and an appended
fingerprint costs nothing; a removed key, a replaced first fingerprint or
a new ``challenge_hash`` makes it rebuild the whole index, as the first
one after a load does. Identification never changes the records.
"""

from __future__ import annotations

import gc
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

from .codec import read_profile
from .fingerprint import (
    ChallengeMismatchError,
    Fingerprint,
    FingerprintError,
    FlipLocation,
    decode_fingerprint,
    encode_fingerprint,
    jaccard,
    jaccard_prime,
    union_of,
)


class DatasetError(ValueError):
    """Inconsistent dataset state or arguments."""


@dataclass
class DeviceRecord:
    id: str
    fingerprints: list[Fingerprint]

    def __post_init__(self):
        if not self.fingerprints:
            raise DatasetError(f"device {self.id!r} needs at least one fingerprint")
        hashes = {fp.challenge_hash for fp in self.fingerprints}
        if len(hashes) > 1:
            raise DatasetError(f"device {self.id!r} mixes challenge hashes")


@dataclass
class FingerprintDataset:
    challenge_hash: str
    records: dict[str, DeviceRecord] = field(default_factory=dict)

    def __post_init__(self):
        # the id_counter of the dataset.meta this was loaded from, outside
        # repr and ==: ids below it may name deleted devices
        self._id_counter = 0
        self._reset()

    def _reset(self) -> None:
        # The stage-1 index, outside repr and ==. Each location of an indexed
        # representative maps to the key of the record holding it, or to a
        # list of keys when several do; ``_indexed`` is the representative
        # indexed under each key, under challenge ``_indexed_hash``.
        self._owners: dict[FlipLocation, str | list[str]] = {}
        self._indexed: dict[str, Fingerprint] = {}
        self._indexed_hash = self.challenge_hash

    def _sharing(self, f_u: Fingerprint) -> set[str]:
        """Keys of the records whose representative shares a location with f_u.

        A representative of another challenge raises ChallengeMismatchError
        and is never indexed, so it raises on every call, as ``jaccard``
        would.
        """
        if not self._index_new():
            self._reset()
            self._index_new()
        owners, keys = self._owners, set()
        for loc in f_u.locations:
            owner = owners.get(loc)
            if type(owner) is list:
                keys.update(owner)
            elif owner is not None:
                keys.add(owner)
        return keys

    def _index_new(self) -> bool:
        """Index the keys added since the last call; False if an indexed key is
        gone or holds another representative object, or the challenge changed."""
        if self._indexed_hash != self.challenge_hash:
            return False
        records, indexed, owners = self.records, self._indexed, self._owners
        for key, record in records.items():
            rep = record.fingerprints[0]
            old = indexed.get(key)
            if old is rep:
                continue
            if old is not None:
                return False
            if rep.challenge_hash != self.challenge_hash:
                raise ChallengeMismatchError(f"record {key!r} uses another challenge")
            for loc in rep.locations:
                owner = owners.get(loc)
                if owner is None:
                    owners[loc] = key  # the shared key itself, not a one-item list
                elif type(owner) is list:
                    owner.append(key)
                else:
                    owners[loc] = [owner, key]
            indexed[key] = rep
        return len(indexed) == len(records)  # every key is indexed, so more means one is gone


@dataclass(frozen=True)
class IdentifyResult:
    device_id: str
    decision: str  # "matched" or "new"
    similarity: float | None = None


def fingerprint_match(f_u: Fingerprint, f_i1: Fingerprint, threshold: float) -> bool:
    """First-pass candidate test: plain Jaccard strictly above threshold."""
    return jaccard(f_u, f_i1) > threshold


def get_similarity(f_u: Fingerprint, record: DeviceRecord) -> float:
    """Overlap of the new query with the device's full fingerprint union."""
    return jaccard_prime(f_u, union_of(record.fingerprints))


def generate_new_id(dataset: FingerprintDataset) -> str:
    """Next free id: dev-<n> with n one past the highest existing index, and
    no lower than the loaded ``id_counter``, so a deleted id is not reused."""
    return f"dev-{_next_index(dataset)}"


def _next_index(dataset: FingerprintDataset) -> int:
    # isdecimal, not isdigit: exactly the Unicode digits (Nd) that int reads
    indices = (int(d[4:]) for d in dataset.records if d[:4] == "dev-" and d[4:].isdecimal())
    return max(dataset._id_counter, max(indices, default=0) + 1)


DEFAULT_THRESHOLD = 0.4


def identify(dataset: FingerprintDataset, f_u: Fingerprint,
             threshold: float = DEFAULT_THRESHOLD) -> IdentifyResult:
    """Match a new fingerprint against the dataset.

    A candidate's stage-1 Jaccard must exceed ``threshold``, in (0, 1),
    and the best-ranked candidate wins. Pure in (dataset, f_u,
    threshold): record order never affects the result because ranking
    ties break on the lexicographically smallest id. Returns the matched
    key of ``records``, or a freshly minted id with decision "new" (the
    caller decides whether to enroll it).
    """
    if not 0.0 < threshold < 1.0:
        raise DatasetError("threshold must lie in (0, 1)")
    if not f_u.locations:
        raise FingerprintError("cannot identify an empty fingerprint")
    if f_u.challenge_hash != dataset.challenge_hash:
        raise ChallengeMismatchError("fingerprint and dataset use different challenges")

    records = dataset.records
    candidates = [key for key in dataset._sharing(f_u)
                  if fingerprint_match(f_u, records[key].fingerprints[0], threshold)]
    if not candidates:
        return IdentifyResult(generate_new_id(dataset), "new")
    best_sim, best_id = min(((get_similarity(f_u, records[key]), key) for key in candidates),
                            key=lambda sk: (-sk[0], sk[1]))
    return IdentifyResult(best_id, "matched", best_sim)


def enroll(dataset: FingerprintDataset, dev_id: str, fp: Fingerprint) -> FingerprintDataset:
    """Append a fingerprint to a device record, creating the record if new.

    The id names the device's directory in a saved dataset, so it must be
    a single path component other than ``.``, ``..`` and ``dataset.meta``.
    """
    if dev_id in ("", ".", "..", META_NAME) or os.path.basename(dev_id) != dev_id:
        raise DatasetError(f"device id {dev_id!r} cannot name a device directory")
    if not fp.locations:  # it could never match, yet would use up an id
        raise FingerprintError("cannot enroll an empty fingerprint")
    if fp.challenge_hash != dataset.challenge_hash:
        raise ChallengeMismatchError("fingerprint challenge does not match dataset")
    record = dataset.records.get(dev_id)
    if record is None:
        dataset.records[dev_id] = DeviceRecord(dev_id, [fp])
    else:
        record.fingerprints.append(fp)
    return dataset


# --- persistence -------------------------------------------------------------
#
# Layout: <dir>/dataset.meta plus one fingerprint file per enrolled entry,
# <dir>/<id>/<k>.fp with k = 1..n in enroll order. Loading reads exactly
# those names and refuses any other .fp name or a gap. A save into a
# directory that already holds a dataset.meta, once every file is written,
# sweeps each entry of it once: a record's directory (a symlink too) down to
# the record's count, any other directory that is not a symlink down to
# none. A sweep removes each <k>.fp above its count, highest k first, so
# the loader never meets a gap; other names (notes.fp, 0.fp, 01.fp) stay.
# A save into any other directory removes nothing. Each file lands via
# write-temp-then-rename, so each file is replaced atomically. A whole save
# is not: an interrupted save can leave some files new and others old, and
# nothing is fsync'd.

META_NAME = "dataset.meta"
_SAVED_NAME = re.compile(r"([1-9][0-9]*)\.fp")  # the <k>.fp names a save writes


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_dataset(dataset: FingerprintDataset, directory: str) -> None:
    if not dataset.challenge_hash:  # load_dataset would refuse the meta
        raise DatasetError("cannot save a dataset without a challenge hash")
    # only a directory that was a dataset before holds files a save wrote
    was_dataset = os.path.exists(os.path.join(directory, META_NAME))
    os.makedirs(directory, exist_ok=True)
    meta = f"challenge={dataset.challenge_hash}\nid_counter={_next_index(dataset)}\n"
    for dev_id in sorted(dataset.records):
        dev_dir = os.path.join(directory, dev_id)
        os.makedirs(dev_dir, exist_ok=True)
        for k, fp in enumerate(dataset.records[dev_id].fingerprints, start=1):
            _write_atomic(os.path.join(dev_dir, f"{k}.fp"), encode_fingerprint(fp))
    for name in os.listdir(directory) if was_dataset else ():
        dev_dir = os.path.join(directory, name)
        if name in dataset.records:
            count = len(dataset.records[name].fingerprints)
        elif os.path.isdir(dev_dir) and not os.path.islink(dev_dir):
            count = 0
        else:
            continue
        ks = [int(m[1]) for m in map(_SAVED_NAME.fullmatch, os.listdir(dev_dir)) if m]
        for k in sorted((k for k in ks if k > count), reverse=True):
            os.remove(os.path.join(dev_dir, f"{k}.fp"))
    _write_atomic(os.path.join(directory, META_NAME), meta)


def load_dataset(directory: str) -> FingerprintDataset:
    meta_path = os.path.join(directory, META_NAME)
    if not os.path.exists(meta_path):
        raise DatasetError(f"no dataset at {directory!r} (missing {META_NAME})")
    with open(meta_path, encoding="utf-8") as fh:
        meta = read_profile(fh.read(), DatasetError, META_NAME, single=("challenge", "id_counter"))
    if not meta.get("challenge"):
        raise DatasetError("dataset.meta lacks a challenge hash")
    counter = meta.get("id_counter", "")
    if not (counter.isascii() and counter.isdigit()):
        raise DatasetError(f"dataset.meta lacks an id_counter in ASCII digits: {counter!r}")
    dataset = FingerprintDataset(meta["challenge"])
    try:
        dataset._id_counter = int(counter)
    except ValueError:  # more digits than int() converts
        raise DatasetError(f"dataset.meta id_counter has {len(counter)} digits") from None
    with _collector_paused():
        for dev_id in sorted(os.listdir(directory)):
            dev_dir = os.path.join(directory, dev_id)
            if not os.path.isdir(dev_dir):
                continue
            names = {name for name in os.listdir(dev_dir) if name.endswith(".fp")}
            if not names:
                continue  # an enroll interrupted before its first file landed
            expected = [f"{k}.fp" for k in range(1, len(names) + 1)]
            if names != set(expected):
                raise DatasetError(
                    f"{dev_id!r} holds {sorted(names)}, not 1.fp..{len(names)}.fp")
            fps = []
            for name in expected:
                with open(os.path.join(dev_dir, name), encoding="utf-8") as fh:
                    fps.append(decode_fingerprint(fh.read()))
            for fp in fps:
                if fp.challenge_hash != dataset.challenge_hash:
                    raise ChallengeMismatchError(
                        f"fingerprint under {dev_id!r} does not match the dataset challenge")
            dataset.records[dev_id] = DeviceRecord(dev_id, fps)
    return dataset


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore the caller's state.

    Every decoded ``FlipLocation`` is a tuple subclass, which the collector
    keeps tracking, so each collection during a large load walks all the
    locations decoded so far. Decoding builds no reference cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()

