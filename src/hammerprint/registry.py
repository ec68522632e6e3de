"""Fingerprint dataset and device identification.

Identification is two-staged: a cheap Jaccard match of the new query
against each device's representative (first-enrolled) fingerprint selects
candidates, then the asymmetric overlap of the query against each
candidate's full fingerprint union ranks them. No candidate means a new
device. Identification never mutates the dataset; enrollment is separate.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass, field

from .codec import profile_lines, set_once
from .fingerprint import (
    ChallengeMismatchError,
    Fingerprint,
    FingerprintError,
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

    @property
    def representative(self) -> Fingerprint:
        return self.fingerprints[0]

    def union(self) -> Fingerprint:
        return union_of(self.fingerprints)


@dataclass
class FingerprintDataset:
    challenge_hash: str
    records: dict[str, DeviceRecord] = field(default_factory=dict)


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
    return jaccard_prime(f_u, record.union())


def generate_new_id(dataset: FingerprintDataset) -> str:
    """Next free id: dev-<n> with n one past the highest existing index."""
    top = 0
    for dev_id in dataset.records:
        m = re.fullmatch(r"dev-(\d+)", dev_id)
        if m:
            top = max(top, int(m.group(1)))
    return f"dev-{top + 1}"


def identify(dataset: FingerprintDataset, f_u: Fingerprint,
             threshold: float = 0.4) -> IdentifyResult:
    """Match a new fingerprint against the dataset.

    A candidate's stage-1 Jaccard must exceed ``threshold``, in (0, 1),
    and the best-ranked candidate wins. Pure in (dataset, f_u,
    threshold): record order never affects the result because ranking
    ties break on the lexicographically smallest id. Returns the matched
    id, or a freshly minted id with decision "new" (the caller decides
    whether to enroll it).
    """
    if not 0.0 < threshold < 1.0:
        raise DatasetError("match_threshold must lie in (0, 1)")
    if not f_u.locations:
        raise FingerprintError("cannot identify an empty fingerprint")
    if f_u.challenge_hash != dataset.challenge_hash:
        raise ChallengeMismatchError("fingerprint and dataset use different challenges")

    candidates = [r for r in dataset.records.values()
                  if fingerprint_match(f_u, r.representative, threshold)]
    if not candidates:
        return IdentifyResult(generate_new_id(dataset), "new")
    best_sim, best_id = min(((get_similarity(f_u, r), r.id) for r in candidates),
                            key=lambda sr: (-sr[0], sr[1]))
    return IdentifyResult(best_id, "matched", best_sim)


def enroll(dataset: FingerprintDataset, dev_id: str, fp: Fingerprint) -> FingerprintDataset:
    """Append a fingerprint to a device record, creating the record if new.

    The id names the device's directory in a saved dataset, so it must be
    a single path component other than ``.`` and ``..``.
    """
    if dev_id in ("", ".", "..") or os.path.basename(dev_id) != dev_id:
        raise DatasetError(f"device id {dev_id!r} is not a single path component")
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
# <dir>/<id>/<k>.fp. Each file lands via write-temp-then-rename, so each file
# is replaced atomically. A whole save is not: an interrupted save can leave
# some files new and others old, and nothing is fsync'd.

META_NAME = "dataset.meta"


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_dataset(dataset: FingerprintDataset, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    next_index = int(generate_new_id(dataset).split("-")[1])
    meta = f"challenge={dataset.challenge_hash}\nid_counter={next_index}\n"
    for dev_id in sorted(dataset.records):
        record = dataset.records[dev_id]
        dev_dir = os.path.join(directory, dev_id)
        os.makedirs(dev_dir, exist_ok=True)
        for k, fp in enumerate(record.fingerprints, start=1):
            _write_atomic(os.path.join(dev_dir, f"{k}.fp"), encode_fingerprint(fp))
    _write_atomic(os.path.join(directory, META_NAME), meta)


def load_dataset(directory: str) -> FingerprintDataset:
    meta_path = os.path.join(directory, META_NAME)
    if not os.path.exists(meta_path):
        raise DatasetError(f"no dataset at {directory!r} (missing {META_NAME})")
    meta: dict[str, str | None] = {}
    with open(meta_path) as fh:
        for key, value in profile_lines(fh.read()):
            set_once(meta, key, value, DatasetError)
    challenge = meta.get("challenge")
    if not challenge:
        raise DatasetError("dataset.meta lacks a challenge hash")
    dataset = FingerprintDataset(challenge)
    for dev_id in sorted(os.listdir(directory)):
        dev_dir = os.path.join(directory, dev_id)
        if not os.path.isdir(dev_dir):
            continue
        fps = []
        for name in sorted(os.listdir(dev_dir), key=_fp_sort_key):
            if not name.endswith(".fp"):
                continue
            with open(os.path.join(dev_dir, name)) as fh:
                fps.append(decode_fingerprint(fh.read()))
        if not fps:
            continue  # an enroll interrupted before its first file landed
        for fp in fps:
            if fp.challenge_hash != challenge:
                raise ChallengeMismatchError(
                    f"fingerprint under {dev_id!r} does not match the dataset challenge"
                )
        dataset.records[dev_id] = DeviceRecord(dev_id, fps)
    return dataset


def _fp_sort_key(name: str):
    stem = name[:-3] if name.endswith(".fp") else name
    return (0, int(stem)) if stem.isdigit() else (1, stem)
