"""DRAM challenges: aggressor row layout, data pattern, measuring plan.

A challenge pins everything a fingerprint query depends on. Its canonical
text form is hashed, and fingerprints carry that hash so only
like-for-like sets are ever compared.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from enum import Enum

from .codec import profile_errors, read_profile
from .geometry import DramGeometry


class ChallengeError(ValueError):
    """Malformed challenge or pattern."""


class PatternKind(str, Enum):
    ONE_LOCATION = "one-location"
    SINGLE_SIDED = "single-sided"
    DOUBLE_SIDED = "double-sided"
    N_SIDED = "n-sided"
    NON_UNIFORM = "non-uniform"


@dataclass(frozen=True)
class HammerPattern:
    """Aggressor rows plus, for non-uniform patterns, per-aggressor
    (frequency, phase, amplitude) randomization records."""

    kind: PatternKind
    aggressor_offsets: tuple[int, ...]
    temporal: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "aggressor_offsets", tuple(self.aggressor_offsets))
        n = len(self.aggressor_offsets)
        if any(a < 0 for a in self.aggressor_offsets):
            raise ChallengeError("aggressor offsets must be nonnegative")
        if len(set(self.aggressor_offsets)) != n:
            raise ChallengeError("aggressor offsets must be distinct")
        kind = self.kind
        if kind == PatternKind.ONE_LOCATION and n != 1:
            raise ChallengeError("one-location pattern takes exactly 1 aggressor")
        if kind == PatternKind.SINGLE_SIDED and n != 2:
            raise ChallengeError("single-sided pattern takes exactly 2 aggressors")
        if kind == PatternKind.DOUBLE_SIDED:
            if n != 2:
                raise ChallengeError("double-sided pattern takes exactly 2 aggressors")
            a, b = sorted(self.aggressor_offsets)
            if b - a != 2:
                raise ChallengeError("double-sided aggressors must sit two rows apart")
        if kind == PatternKind.N_SIDED and n < 3:
            raise ChallengeError("n-sided pattern needs at least 3 aggressors")
        if kind == PatternKind.NON_UNIFORM:
            if (n == 0 or self.temporal is None or len(self.temporal) != n
                    or any(len(triple) != 3 for triple in self.temporal)):
                raise ChallengeError("non-uniform pattern needs aggressors, "
                                     "each with one temporal triple")
            # a nan never equals itself, so its profile would not round-trip
            if not all(math.isfinite(v) for triple in self.temporal for v in triple):
                raise ChallengeError("temporal values must be finite")
            if any(freq < 0 or amp < 0 for freq, _, amp in self.temporal):
                raise ChallengeError("temporal frequency and amplitude must be nonnegative")
        elif self.temporal is not None:
            raise ChallengeError(f"{kind.value} pattern carries no temporal parameters")

    @property
    def uniform(self) -> bool:
        return self.kind != PatternKind.NON_UNIFORM

    def max_row(self) -> int:
        # the victim above the top aggressor is always the highest row
        return max(self.aggressor_offsets) + 1


def build_pattern(kind: PatternKind | str, n: int, first_offset: int, rng_seed: int = 0) -> HammerPattern:
    """Construct a pattern of ``n`` aggressors starting at ``first_offset``.

    Many-sided layouts interleave victims: aggressors land on
    first_offset, first_offset+2, and so on; single-sided ones sit four
    rows apart and share no victim. Non-uniform patterns use the
    many-sided layout and draw their temporal triples from ``rng_seed``.
    """
    kind = PatternKind(kind)
    step = 4 if kind == PatternKind.SINGLE_SIDED else 2
    offsets = tuple(first_offset + step * i for i in range(n))
    if kind != PatternKind.NON_UNIFORM:
        return HammerPattern(kind, offsets)  # checks the count for its kind
    rng = random.Random(rng_seed)
    temporal = tuple(
        (rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0))
        for _ in range(n)
    )
    return HammerPattern(kind, offsets, temporal)


def victim_rows(p: HammerPattern) -> list[int]:
    """Rows adjacent to an aggressor that are not aggressors themselves."""
    aggs = set(p.aggressor_offsets)
    victims = set()
    for a in aggs:
        for r in (a - 1, a + 1):
            if r >= 0 and r not in aggs:
                victims.add(r)
    return sorted(victims)


@dataclass(frozen=True)
class DataPattern:
    victim_value: int = 0x55
    aggressor_value: int = 0xAA

    def __post_init__(self):
        for v in (self.victim_value, self.aggressor_value):
            if not 0 <= v <= 0xFF:
                raise ChallengeError("data pattern values are single bytes")


@dataclass(frozen=True)
class DramChallenge:
    bank_range: tuple[int, ...]
    pattern: HammerPattern
    data: DataPattern
    measurements: int

    def __post_init__(self):
        object.__setattr__(self, "bank_range", tuple(self.bank_range))
        if not self.bank_range:
            raise ChallengeError("bank_range must be nonempty")
        if len(set(self.bank_range)) != len(self.bank_range):
            raise ChallengeError("bank_range entries must be distinct")
        if self.measurements < 1:
            raise ChallengeError("measurements must be >= 1")

    @property
    def first_aggressor_offset(self) -> int:
        return min(self.pattern.aggressor_offsets)

    @property
    def banks_measured(self) -> int:
        return len(self.bank_range)

    def validate_for(self, geom: DramGeometry) -> None:
        if any(not 0 <= b < geom.banks for b in self.bank_range):
            raise ChallengeError("bank_range outside geometry banks")
        if self.pattern.max_row() >= geom.rows_per_bank:
            raise ChallengeError("pattern rows exceed rows_per_bank")

    def with_measurements(self, m: int) -> "DramChallenge":
        return replace(self, measurements=m)


def default_challenge() -> DramChallenge:
    """The reference challenge: 5 banks, 22-sided pattern starting at row 1,
    victim rows 0x55 / aggressor rows 0xAA, 10 measurements."""
    return DramChallenge(
        bank_range=tuple(range(5)),
        pattern=build_pattern(PatternKind.N_SIDED, 22, 1),
        data=DataPattern(0x55, 0xAA),
        measurements=10,
    )


def encode_challenge(ch: DramChallenge) -> str:
    """Canonical text profile; stable input for the challenge hash."""
    lines = [
        "bank_range=" + ",".join(str(b) for b in ch.bank_range),
        f"first_aggressor_offset={ch.first_aggressor_offset}",
        f"hammering_pattern={ch.pattern.kind.value}",
        "aggressor_offsets=" + ",".join(str(a) for a in ch.pattern.aggressor_offsets),
        f"data_victim={ch.data.victim_value:#04x}",
        f"data_aggressor={ch.data.aggressor_value:#04x}",
        f"banks_measured={ch.banks_measured}",
        f"measurements={ch.measurements}",
    ]
    if ch.pattern.temporal is not None:
        for freq, phase, amp in ch.pattern.temporal:
            lines.append(f"temporal={freq!r},{phase!r},{amp!r}")
    return "\n".join(lines) + "\n"


def parse_challenge(text: str) -> DramChallenge:
    with profile_errors(ChallengeError, "challenge profile"):
        fields = read_profile(text, ChallengeError, "challenge", single=(
            "bank_range", "first_aggressor_offset", "hammering_pattern", "aggressor_offsets",
            "data_victim", "data_aggressor", "banks_measured", "measurements"),
            repeated=("temporal",))
        temporal = tuple((float(f), float(p), float(a))
                         for f, p, a in (triple.split(",") for triple in fields["temporal"]))
        pattern = HammerPattern(PatternKind(fields["hammering_pattern"]),
                                tuple(int(x) for x in fields["aggressor_offsets"].split(",")),
                                temporal or None)
        ch = DramChallenge(
            bank_range=tuple(int(b) for b in fields["bank_range"].split(",")),
            pattern=pattern,
            data=DataPattern(int(fields["data_victim"], 16), int(fields["data_aggressor"], 16)),
            measurements=int(fields["measurements"]),
        )
        # derived values, still hashed: a line that disagrees would not round-trip
        for key in ("first_aggressor_offset", "banks_measured"):
            if int(fields[key]) != getattr(ch, key):
                raise ChallengeError(f"{key}={fields[key]} disagrees with the challenge")
        return ch


def challenge_hash(ch: DramChallenge) -> str:
    return hashlib.sha256(encode_challenge(ch).encode()).hexdigest()
