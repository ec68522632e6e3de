"""Bit-flip fingerprints and their similarity metrics.

A fingerprint is the set of flip locations collected by one query (the
union over its measurements), bound to the challenge that produced it.
Matching uses the plain Jaccard index for the cheap first pass and the
asymmetric variant |new ∩ database| / |new| for ranking, which stays
meaningful when the database union has grown much larger than a single
query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index, itemgetter
from typing import Iterable

from .codec import read_profile


class FingerprintError(ValueError):
    """Malformed fingerprint input."""


class ChallengeMismatchError(FingerprintError):
    """Operands were produced under different challenges."""


class FlipLocation(tuple):
    """One flipped bit: (bank, row, column byte, bit index 0-7).

    An immutable 4-tuple, so hashing, equality and ordering run in C and
    a location equals the plain tuple ``(bank, row, column, bit)``.
    Ordering is lexicographic on the fields, which fixes the canonical
    encoding order. Every way of making one (the constructor, copy,
    pickle) goes through the checks in ``__new__``: each field becomes a
    plain ``int`` through ``operator.index`` (so ``True`` is 1 and a
    float, string or None is refused), the bit lies in 0..7 and no index
    is negative. Those are exactly the locations the canonical encoding
    writes and decodes back equal.
    """

    __slots__ = ()

    def __new__(cls, bank: int, row: int, column: int, bit: int):
        try:
            bank, row, column, bit = index(bank), index(row), index(column), index(bit)
        except TypeError:  # raised before the names are rebound
            raise FingerprintError(
                f"location fields must be integers, got {(bank, row, column, bit)!r}") from None
        if not 0 <= bit <= 7:
            raise FingerprintError(f"bit index {bit} outside 0..7")
        if bank < 0 or row < 0 or column < 0:  # not min(): one call fewer on a hot path
            raise FingerprintError("negative location index")
        return tuple.__new__(cls, (bank, row, column, bit))

    bank = property(itemgetter(0), doc="bank index")
    row = property(itemgetter(1), doc="row index within the bank")
    column = property(itemgetter(2), doc="column byte within the row")
    bit = property(itemgetter(3), doc="bit index within the byte, 0-7")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return "FlipLocation(bank=%r, row=%r, column=%r, bit=%r)" % tuple(self)


@dataclass(frozen=True)
class Fingerprint:
    locations: frozenset[tuple[int, int, int, int]]
    challenge_hash: str
    device_hint: str | None = None
    query_time: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "locations", frozenset(self.locations))

    def __len__(self) -> int:
        return len(self.locations)


def _require_same_challenge(*fps: Fingerprint) -> None:
    hashes = {fp.challenge_hash for fp in fps}
    if len(hashes) > 1:
        raise ChallengeMismatchError(f"mixed challenge hashes: {sorted(hashes)}")


def from_measurements(measurement_sets: Iterable[Iterable[FlipLocation]],
                      challenge_hash: str,
                      device_hint: str | None = None,
                      query_time: str | None = None) -> Fingerprint:
    """Union the per-measurement flip sets of one query into a fingerprint."""
    sets = list(measurement_sets)
    if not sets:
        raise FingerprintError("a query needs at least one measurement")
    locations: frozenset[FlipLocation] = frozenset().union(*sets)
    return Fingerprint(locations, challenge_hash, device_hint, query_time)


def jaccard(a: Fingerprint, b: Fingerprint) -> float:
    """|a & b| / |a | b| for fingerprints of the same challenge."""
    _require_same_challenge(a, b)
    if not a.locations and not b.locations:
        raise FingerprintError("Jaccard of two empty fingerprints is undefined")
    inter = len(a.locations & b.locations)
    return inter / (len(a.locations) + len(b.locations) - inter)


def jaccard_prime(s_n: Fingerprint, s_d: Fingerprint) -> float:
    """|s_n & s_d| / |s_n|: overlap of a new query with a database union.

    Asymmetric on purpose. An empty s_n signals a failed query and is an
    error rather than a defined value.
    """
    _require_same_challenge(s_n, s_d)
    if not s_n.locations:
        raise FingerprintError("empty new-query fingerprint")
    return len(s_n.locations & s_d.locations) / len(s_n.locations)


def union_of(fps: list[Fingerprint]) -> Fingerprint:
    """Union fingerprints of one device into its database set."""
    if not fps:
        raise FingerprintError("cannot union an empty fingerprint list")
    _require_same_challenge(*fps)
    locations: frozenset[tuple[int, int, int, int]] = frozenset().union(*(fp.locations for fp in fps))
    return Fingerprint(locations, fps[0].challenge_hash)


def encode_fingerprint(fp: Fingerprint) -> str:
    """Canonical text form; bit-exact so digests are reproducible.

    Header lines, then one sorted location per line as
    ``b<bank>:r<row>:c<column>:i<bit>``. Newlines in the hint become
    spaces; any other header value that would not decode unchanged (a
    line break, trailing whitespace) raises FingerprintError.
    """
    lines = [f"challenge={fp.challenge_hash}"]
    if fp.query_time is not None:
        lines.append(f"time={fp.query_time}")
    if fp.device_hint is not None:
        hint = fp.device_hint.replace("\n", " ")
        lines.append(f"hint={hint}")
    for line in lines:
        # a header must decode to the value written: one line, nothing to strip
        if line.splitlines() != [line] or line.strip() != line:
            raise FingerprintError(f"header would not decode unchanged: {line!r}")
    for bank, row, column, bit in sorted(fp.locations):
        lines.append(f"b{bank}:r{row}:c{column}:i{bit}")
    return "\n".join(lines) + "\n"


# A canonical body, as ``encode_fingerprint`` writes it, less the ``b`` of
# its first line: location lines, each ending in a newline. Digit runs
# stop at 640, the lowest int-string limit CPython accepts, so ``int``
# never refuses a field taken here; a longer field sends the text to the
# line reader, where the limit in force decides.
_LINE = r"[0-9]{1,640}:r[0-9]{1,640}:c[0-9]{1,640}:i[0-7]\n"
_CANONICAL_BODY = re.compile(f"{_LINE}(?:b{_LINE})*")
_FIELD_BREAKS = str.maketrans(":", " ", "brci")


def decode_fingerprint(text: str) -> Fingerprint:
    """Parse a fingerprint file by the profile line rule: key-less lines
    are locations, and ``challenge``, ``time`` and ``hint`` the headers.

    Where the text from its first ``\nb`` on is canonical location lines,
    each ending in ``\n``, that body is tokenized in one pass and cannot
    fail, and only the head before it goes through the line reader; any
    other text goes through the line reader whole. The line reader takes
    each line on its own in file order, so the accepted inputs and the
    first error are its own. Either way each location is a plain
    ``(bank, row, column, bit)`` tuple of ints, one that ``FlipLocation``
    accepts and equals.
    """
    head, sep, body = text.partition("\nb")
    if not (sep and _CANONICAL_BODY.fullmatch(body)):
        head, body = text, ""
    tokens = body.translate(_FIELD_BREAKS).split()
    values = {token: int(token) for token in set(tokens)}
    fields = map(values.__getitem__, tokens)
    locations = frozenset(zip(fields, fields, fields, fields))
    others = set()
    headers = read_profile(head, FingerprintError, "fingerprint",
                           single=("challenge", "time", "hint"),
                           bare=lambda line: others.add(_parse_location(line)))
    if "challenge" not in headers:
        raise FingerprintError("fingerprint file lacks a challenge= header")
    if others:
        locations = locations.union(others)
    return Fingerprint(locations, headers["challenge"], headers.get("hint"), headers.get("time"))


def _parse_location(line: str) -> tuple[int, int, int, int]:
    try:
        b, r, c, i = line.split(":")
        if b[0] != "b" or r[0] != "r" or c[0] != "c" or i[0] != "i":
            raise ValueError
        return tuple(FlipLocation(int(b[1:]), int(r[1:]), int(c[1:]), int(i[1:])))
    except (ValueError, IndexError):
        raise FingerprintError(f"bad location line: {line!r}") from None
