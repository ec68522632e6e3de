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
one after a load does. ``generate_new_id`` likewise reads only the keys
added since its last call, or all after a removal. Identification never
changes the records.
"""

from __future__ import annotations

import gc
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter

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
        # the keys _one_past last saw and its value for them, outside repr and ==
        self._minted: tuple[set[str], int] = (set(), 1)
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
    no lower than the loaded ``id_counter``, so a deleted id is not reused.
    A load also raises that floor past every dev-<n> that a file or a
    symlink in the dataset directory holds."""
    return f"dev-{_next_index(dataset)}"


def _next_index(dataset: FingerprintDataset) -> int:
    names, past = dataset._minted
    keys = dataset.records.keys()
    if keys != names:  # compared in C; only added keys are read, unless one is gone
        past = max(past, _one_past(keys - names)) if keys >= names else _one_past(keys)
        dataset._minted = set(keys), past
    return max(dataset._id_counter, past)


def _one_past(names) -> int:
    """One past the highest n among the names dev-<n>, or 1 if there is none."""
    # isdecimal, not isdigit: exactly the Unicode digits (Nd) that int reads
    return max((int(d[4:]) for d in names if d[:4] == "dev-" and d[4:].isdecimal()),
               default=0) + 1


def _one_past_taken(entries) -> int:
    """``_one_past`` of the entries that are a file or a symlink, dangling ones
    too: no save can put a record under their names."""
    return _one_past(e.name for e in entries if not e.is_dir(follow_symlinks=False))


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


def enroll(dataset: FingerprintDataset, dev_id: str, fp: Fingerprint) -> None:
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


# --- persistence -------------------------------------------------------------
#
# Layout: <dir>/dataset.meta plus one fingerprint file per enrolled entry,
# <dir>/<id>/<k>.fp with k = 1..n in enroll order. A device directory is
# never a symlink: a save refuses a record whose <dir>/<id> is one, a load
# a symlink that holds a .fp name. Loading reads exactly the saved names
# and refuses any other .fp name or a gap. A save into a directory that
# already holds a dataset.meta, once every file is written, sweeps each
# real directory in it down to its record's count, or to none. A sweep
# removes each <k>.fp above its count, highest k first, so the loader
# never meets a gap; other names (notes.fp, 0.fp, 01.fp) stay. A save into
# any other directory removes nothing, and refuses, before writing, one
# whose entries would not load as an empty dataset: a directory (symlinks
# followed) that holds a .fp name. A first enroll interrupted after its
# first file landed wrote no dataset.meta, so nothing was enrolled, and
# that directory must be removed before a new dataset starts there. Each
# file lands via write-temp-then-rename, mode 0600 from mkstemp, so each
# file is replaced atomically. A whole save is not: an interrupted save can
# leave some files new and others old, and nothing is fsync'd.
#
# A load keeps one object per distinct location of a device: each file's
# locations are the objects the device's earlier files decoded, so a
# device's memory grows with its distinct flips, not with fingerprints
# times flips. New ids pass every dev-<n> that a file or a symlink in the
# directory holds, dangling ones too, since no save can put a record
# there; a real directory without a .fp name may be reused.

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


def _fp_names(path: str) -> set[str]:
    return {name for name in os.listdir(path) if name.endswith(".fp")}


def _symlinked(name: str) -> DatasetError:
    return DatasetError(f"{name!r} is a symlink; a device needs a directory of its own")


def save_dataset(dataset: FingerprintDataset, directory: str) -> None:
    if not dataset.challenge_hash:  # load_dataset would refuse the meta
        raise DatasetError("cannot save a dataset without a challenge hash")
    for dev_id in sorted(dataset.records):
        if os.path.islink(os.path.join(directory, dev_id)):  # dangling ones too
            raise _symlinked(dev_id)
    # only a directory that was a dataset before holds files a save wrote
    was_dataset = os.path.exists(os.path.join(directory, META_NAME))
    if not was_dataset and os.path.isdir(directory):
        with os.scandir(directory) as listing:
            for entry in sorted(listing, key=attrgetter("name")):
                if entry.is_dir() and _fp_names(entry.path):
                    raise DatasetError(f"{entry.name!r} holds .fp files and there is no "
                                       f"{META_NAME}; a new dataset needs a directory without them")
    os.makedirs(directory, exist_ok=True)
    meta = f"challenge={dataset.challenge_hash}\nid_counter={_next_index(dataset)}\n"
    for dev_id in sorted(dataset.records):
        dev_dir = os.path.join(directory, dev_id)
        os.makedirs(dev_dir, exist_ok=True)
        for k, fp in enumerate(dataset.records[dev_id].fingerprints, start=1):
            _write_atomic(os.path.join(dev_dir, f"{k}.fp"), encode_fingerprint(fp))
    for entry in list(os.scandir(directory)) if was_dataset else ():
        if not entry.is_dir(follow_symlinks=False):  # a file or a symlink
            continue
        record = dataset.records.get(entry.name)
        count = len(record.fingerprints) if record else 0
        ks = [int(m[1]) for m in map(_SAVED_NAME.fullmatch, os.listdir(entry.path)) if m]
        for k in sorted((k for k in ks if k > count), reverse=True):
            os.remove(os.path.join(entry.path, f"{k}.fp"))
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
    with os.scandir(directory) as listing:
        entries = sorted(listing, key=attrgetter("name"))
    dataset._id_counter = max(dataset._id_counter, _one_past_taken(entries))
    with _collector_paused():
        for entry in entries:
            dev_id, dev_dir = entry.name, entry.path
            if not entry.is_dir():
                continue
            names = _fp_names(dev_dir)
            if not names:
                continue  # an enroll interrupted before its first file landed
            if entry.is_symlink():
                raise _symlinked(dev_id)
            expected = [f"{k}.fp" for k in range(1, len(names) + 1)]
            if names != set(expected):
                raise DatasetError(
                    f"{dev_id!r} holds {sorted(names)}, not 1.fp..{len(names)}.fp")
            fps, seen = [], {}  # seen: each location of this device, as first decoded
            for name in expected:
                with open(os.path.join(dev_dir, name), encoding="utf-8") as fh:
                    fp = decode_fingerprint(fh.read())
                locs = frozenset(map(seen.setdefault, fp.locations, fp.locations))
                fps.append(Fingerprint(locs, fp.challenge_hash, fp.device_hint, fp.query_time))
            for fp in fps:
                if fp.challenge_hash != dataset.challenge_hash:
                    raise ChallengeMismatchError(
                        f"fingerprint under {dev_id!r} does not match the dataset challenge")
            dataset.records[dev_id] = DeviceRecord(dev_id, fps)
    return dataset


def open_dataset(directory: str, challenge_hash: str) -> FingerprintDataset:
    """The dataset saved in ``directory``, or, where it holds no
    dataset.meta, an empty one of ``challenge_hash`` whose new ids pass its
    entries by ``load_dataset``'s rule."""
    if os.path.exists(os.path.join(directory, META_NAME)):
        return load_dataset(directory)
    dataset = FingerprintDataset(challenge_hash)
    if os.path.isdir(directory):
        with os.scandir(directory) as listing:
            dataset._id_counter = _one_past_taken(listing)
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

