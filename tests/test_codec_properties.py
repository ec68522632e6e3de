"""Property tests for the four text codecs.

Each codec must round-trip what it encodes, and parsing any text must
either succeed or raise that codec's own ValueError subclass.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from hammerprint import gf2
from hammerprint.challenge import (
    ChallengeError,
    DataPattern,
    DramChallenge,
    HammerPattern,
    PatternKind,
    build_pattern,
    default_challenge,
    encode_challenge,
    parse_challenge,
)
from hammerprint.fingerprint import (
    Fingerprint,
    FingerprintError,
    FlipLocation,
    decode_fingerprint,
    encode_fingerprint,
)
from hammerprint.geometry import (
    AddressMapping,
    DramGeometry,
    MappingError,
    encode_mapping,
    parse_mapping,
)
from hammerprint.simdevice import (
    DeviceError,
    NoiseConfig,
    SimDevice,
    TrrConfig,
    encode_device,
    new_sim_device,
    parse_device,
)

FEW = settings(max_examples=60, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
nonneg = st.floats(0.0, 1e6)
nonneg_finite = st.floats(0.0, allow_infinity=False)

# --- generators of valid values ----------------------------------------------


@st.composite
def patterns(draw):
    kind = draw(st.sampled_from(PatternKind))
    first = draw(st.integers(0, 100))
    if kind == PatternKind.ONE_LOCATION:
        return build_pattern(kind, 1, first)
    if kind in (PatternKind.SINGLE_SIDED, PatternKind.DOUBLE_SIDED):
        return build_pattern(kind, 2, first)
    offsets = tuple(draw(st.lists(st.integers(0, 10**6), min_size=3, max_size=12,
                                  unique=True)))
    if kind == PatternKind.N_SIDED:
        return HammerPattern(kind, offsets)
    triples = st.tuples(nonneg_finite, finite, nonneg_finite)  # (freq, phase, amp)
    temporal = draw(st.lists(triples, min_size=len(offsets), max_size=len(offsets)))
    return HammerPattern(kind, offsets, tuple(temporal))


@st.composite
def challenges(draw):
    banks = draw(st.lists(st.integers(-5, 64), min_size=1, max_size=8, unique=True))
    return DramChallenge(
        bank_range=tuple(banks),
        first_aggressor_offset=draw(st.integers(-10, 10**6)),
        pattern=draw(patterns()),
        data=DataPattern(draw(st.integers(0, 255)), draw(st.integers(0, 255))),
        banks_measured=len(banks),
        measurements=draw(st.integers(1, 1000)),
    )


@st.composite
def geometries(draw):
    bb, rb, cb = draw(st.integers(0, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    need = bb + rb + cb
    return DramGeometry(2**bb, 2**rb, 2**cb, draw(st.integers(need, need + 8)))


@st.composite
def mappings_for(draw, geom):
    """Independent bank masks inside the address space, column bits at the
    bottom and the row range anywhere above them."""
    row_lo = draw(st.integers(geom.column_bits, geom.address_bits - geom.row_bits))
    masks = draw(st.lists(st.integers(1, geom.address_space - 1),
                          min_size=geom.bank_bits, max_size=geom.bank_bits)
                 .filter(lambda ms: gf2.rank(ms) == len(ms)))
    return AddressMapping(tuple(masks), (row_lo, row_lo + geom.row_bits),
                          (0, geom.column_bits))


@st.composite
def mappings(draw):
    return draw(mappings_for(draw(geometries())))


@st.composite
def devices(draw):
    geom = draw(geometries())
    enabled = draw(st.booleans())
    return SimDevice(
        dimm_seed=draw(st.integers()),
        host_seed=draw(st.integers()),
        geom=geom,
        mapping=draw(mappings_for(geom)),
        trr=TrrConfig(enabled, draw(st.integers(1 if enabled else -5, 64))),
        noise=NoiseConfig(draw(unit), draw(nonneg), draw(nonneg), draw(nonneg),
                          draw(unit), draw(unit)),
    )


locations = st.builds(FlipLocation, st.integers(0, 64), st.integers(0, 10**5),
                      st.integers(0, 2**20), st.integers(0, 7))
header_values = st.none() | st.text(max_size=30)


@st.composite
def fingerprints(draw):
    return Fingerprint(frozenset(draw(st.lists(locations, max_size=40))),
                       draw(st.text(min_size=1, max_size=70)),
                       device_hint=draw(header_values),
                       query_time=draw(header_values))


def garbled(encoded: st.SearchStrategy) -> st.SearchStrategy:
    """Valid encodings with one line replaced, dropped or duplicated, or
    a line's value replaced by arbitrary text."""
    @st.composite
    def build(draw):
        lines = draw(encoded).splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        junk = draw(st.text(max_size=20))
        key = lines[i].partition("=")[0]
        lines[i:i + 1] = draw(st.sampled_from(
            [[junk], [], [lines[i], lines[i]], [f"{key}={junk}"]]))
        return "\n".join(lines) + "\n"
    return build()


# --- round trips ----------------------------------------------------------------


@FEW
@given(challenges())
@example(default_challenge())
def test_challenge_roundtrip(ch):
    assert parse_challenge(encode_challenge(ch)) == ch


@FEW
@given(devices())
@example(new_sim_device(0x1234, 0x5678))
def test_device_roundtrip(dev):
    assert parse_device(encode_device(dev)) == dev


@FEW
@given(mappings())
def test_mapping_roundtrip(mapping):
    assert parse_mapping(encode_mapping(mapping)) == mapping


@FEW
@given(fingerprints())
def test_fingerprint_roundtrip(fp):
    try:
        text = encode_fingerprint(fp)
    except FingerprintError:
        return  # a header that would not decode unchanged is refused
    hint = None if fp.device_hint is None else fp.device_hint.replace("\n", " ")
    assert decode_fingerprint(text) == replace(fp, device_hint=hint)


@FEW
@given(st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Zs", "Cs")),
               max_size=30))
def test_fingerprint_plain_headers_are_accepted(value):
    fp = Fingerprint(frozenset(), "c", device_hint=value, query_time=value)
    got = decode_fingerprint(encode_fingerprint(fp))
    assert (got.device_hint, got.query_time) == (value, value)


# --- arbitrary input --------------------------------------------------------------


def parses_or_raises(parse, error, text):
    try:
        parse(text)
    except error:
        pass


@FEW
@given(st.text() | garbled(challenges().map(encode_challenge)))
@example("temporal=1,2\n")
@example("hammering_pattern=n-sided\n")
def test_challenge_parse_arbitrary(text):
    parses_or_raises(parse_challenge, ChallengeError, text)


@FEW
@given(st.text() | garbled(devices().map(encode_device)))
@example("bankfn=zz\n")
@example(encode_device(new_sim_device(1, 2)).replace("address_bits=36", "address_bits=" + "9" * 30))
def test_device_parse_arbitrary(text):
    parses_or_raises(parse_device, DeviceError, text)


@FEW
@given(st.text() | garbled(mappings().map(encode_mapping)))
@example("0x40\nrow=1\ncol=0:4\n")
def test_mapping_parse_arbitrary(text):
    parses_or_raises(parse_mapping, MappingError, text)


@FEW
@given(st.text() | garbled(fingerprints().map(
    lambda fp: encode_fingerprint(Fingerprint(fp.locations, "c")))))
def test_fingerprint_parse_arbitrary(text):
    parses_or_raises(decode_fingerprint, FingerprintError, text)


def with_temporal_slot(slot: int, value: str) -> tuple[str, tuple[float, ...]]:
    """A non-uniform challenge text whose first temporal triple has ``value``
    in ``slot``, and that triple as floats."""
    lines = encode_challenge(replace(default_challenge(),
                                     pattern=build_pattern(PatternKind.NON_UNIFORM, 3, 1))
                             ).splitlines()
    triple = ["1.0", "0.5", "1.0"]
    triple[slot] = value
    first = next(i for i, line in enumerate(lines) if line.startswith("temporal="))
    lines[first] = "temporal=" + ",".join(triple)
    return "\n".join(lines) + "\n", tuple(map(float, triple))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", range(3))
def test_non_finite_temporal_value_is_refused(bad, slot):
    text, triple = with_temporal_slot(slot, bad)
    with pytest.raises(ChallengeError, match="finite"):
        parse_challenge(text)
    with pytest.raises(ChallengeError, match="finite"):
        HammerPattern(PatternKind.NON_UNIFORM, (1,), (triple,))


@pytest.mark.parametrize("slot", [0, 2])  # frequency, amplitude
def test_negative_frequency_or_amplitude_is_refused(slot):
    text, triple = with_temporal_slot(slot, "-1.0")
    with pytest.raises(ChallengeError, match="nonnegative"):
        parse_challenge(text)
    with pytest.raises(ChallengeError, match="nonnegative"):
        HammerPattern(PatternKind.NON_UNIFORM, (1,), (triple,))


def test_negative_phase_round_trips():
    text, triple = with_temporal_slot(1, "-0.5")
    ch = parse_challenge(text)
    assert ch.pattern.temporal[0] == triple
    assert parse_challenge(encode_challenge(ch)) == ch


# --- repeated keys --------------------------------------------------------------
# The round trips above cover the lines that may repeat: ``temporal``,
# ``bankfn``, mapping masks and locations.


@pytest.mark.parametrize("parse, error, text, repeat", [
    (parse_challenge, ChallengeError, encode_challenge(default_challenge()), "measurements=3"),
    (parse_device, DeviceError, encode_device(new_sim_device(1, 2)), "banks=16"),
    (parse_mapping, MappingError, "0x40\nrow=7:15\ncol=0:6\n", "row=8:16"),
    (decode_fingerprint, FingerprintError, "challenge=c\nb0:r1:c2:i3\n", "challenge=d"),
    (decode_fingerprint, FingerprintError, "challenge=c\ntime=1\n", "time=2"),
], ids=["challenge", "device", "mapping", "fingerprint-challenge", "fingerprint-time"])
def test_repeated_single_valued_key_is_refused(parse, error, text, repeat):
    parse(text)
    with pytest.raises(error, match="repeated"):
        parse(text + repeat + "\n")

