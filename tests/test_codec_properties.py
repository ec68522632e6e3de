"""Property tests for the four text codecs.

Each codec must round-trip what it encodes, and parsing any text must
either succeed or raise that codec's own ValueError subclass.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hammerprint import fingerprint, gf2
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
from hammerprint.codec import profile_lines, set_once
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
        pattern=draw(patterns()),
        data=DataPattern(draw(st.integers(0, 255)), draw(st.integers(0, 255))),
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
    """Valid encodings with one line replaced, dropped or duplicated, a
    line's value replaced by arbitrary text, or a copy of a line under an
    arbitrary key added."""
    @st.composite
    def build(draw):
        lines = draw(encoded).splitlines()
        i = draw(st.integers(0, len(lines) - 1))
        junk = draw(st.text(max_size=20))
        key, _, value = lines[i].partition("=")
        lines[i:i + 1] = draw(st.sampled_from([
            [junk], [], [lines[i], lines[i]], [f"{key}={junk}"], [lines[i], f"{junk}={value}"]]))
        return "\n".join(lines) + "\n"
    return build()


# --- round trips ----------------------------------------------------------------


@FEW
@given(challenges(), st.sampled_from(["first_aggressor_offset", "banks_measured"]),
       st.integers(-10, 10**6).filter(bool))
@example(default_challenge(), "first_aggressor_offset", 8)
def test_challenge_roundtrip(ch, derived, shift):
    text = encode_challenge(ch)
    assert parse_challenge(text) == ch
    # a derived line that disagrees with the challenge would not round-trip
    line = f"\n{derived}={getattr(ch, derived)}\n"
    assert line in text
    altered = text.replace(line, f"\n{derived}={getattr(ch, derived) + shift}\n")
    with pytest.raises(ChallengeError):
        parse_challenge(altered)


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


SINGLE_VALUED_KEYS = pytest.mark.parametrize("parse, error, text, repeat", [
    (parse_challenge, ChallengeError, encode_challenge(default_challenge()), "measurements=3"),
    (parse_device, DeviceError, encode_device(new_sim_device(1, 2)), "banks=16"),
    (parse_mapping, MappingError, "0x40\nrow=7:15\ncol=0:6\n", "row=8:16"),
    (decode_fingerprint, FingerprintError, "challenge=c\nb0:r1:c2:i3\n", "challenge=d"),
    (decode_fingerprint, FingerprintError, "challenge=c\ntime=1\n", "time=2"),
], ids=["challenge", "device", "mapping", "fingerprint-challenge", "fingerprint-time"])


@SINGLE_VALUED_KEYS
def test_repeated_single_valued_key_is_refused(parse, error, text, repeat):
    parse(text)
    with pytest.raises(error, match="repeated"):
        parse(text + repeat + "\n")


@SINGLE_VALUED_KEYS
def test_unknown_key_is_refused(parse, error, text, repeat):
    # a near miss of a known key: dropping the line would not round-trip
    unknown = "x" + repeat
    parse(text)
    with pytest.raises(error, match=f"bad .* line: '{unknown}'"):
        parse(text + unknown + "\n")


def content_keys(text: str) -> set[str]:
    return {key for key, value in profile_lines(text) if value is not None}


@pytest.mark.parametrize("parse, encode, error, encoded", [
    (parse_challenge, encode_challenge, ChallengeError, challenges().map(encode_challenge)),
    (parse_device, encode_device, DeviceError, devices().map(encode_device)),
    (parse_mapping, encode_mapping, MappingError, mappings().map(encode_mapping)),
    (decode_fingerprint, encode_fingerprint, FingerprintError, fingerprints().map(
        lambda fp: encode_fingerprint(Fingerprint(fp.locations, "c")))),
], ids=["challenge", "device", "mapping", "fingerprint"])
@FEW
@given(data=st.data())
def test_accepted_keys_are_written_back(parse, encode, error, encoded, data):
    # every key a parser accepts is one its encoder writes, so no line of
    # an accepted text is silently dropped
    text = data.draw(garbled(encoded))
    try:
        value = parse(text)
    except error:
        return
    assert content_keys(text) <= content_keys(encode(value))


# --- fingerprint decoding: canonical lines and the line parser --------------------
# ``decode_fingerprint`` takes canonical location lines in one regex pass and
# hands every other line to the line parser. The reference below parses each
# line on its own, so the two must agree on every text: the same fingerprint,
# or the same error class and message.


def reference_decode_fingerprint(text: str) -> Fingerprint:
    headers: dict[str, str] = {}
    locations = set()
    for key, value in profile_lines(text):
        if value is None:
            locations.add(reference_parse_location(key))
        elif key in ("challenge", "time", "hint"):
            set_once(headers, key, value, FingerprintError)
        else:
            raise FingerprintError(f"bad fingerprint line: {key + '=' + value!r}")
    if "challenge" not in headers:
        raise FingerprintError("fingerprint file lacks a challenge= header")
    return Fingerprint(locations, headers["challenge"], headers.get("hint"), headers.get("time"))


def reference_parse_location(line: str) -> FlipLocation:
    try:
        b, r, c, i = line.split(":")
        if b[0] != "b" or r[0] != "r" or c[0] != "c" or i[0] != "i":
            raise ValueError
        return FlipLocation(int(b[1:]), int(r[1:]), int(c[1:]), int(i[1:]))
    except (ValueError, IndexError):
        raise FingerprintError(f"bad location line: {line!r}") from None


def decode_outcome(decode, text):
    try:
        fp = decode(text)
    except FingerprintError as e:
        return type(e), str(e)
    if decode is decode_fingerprint:  # the reference's locations are FlipLocations
        assert all(type(loc) is tuple and list(map(type, loc)) == [int] * 4
                   for loc in fp.locations)
    return fp


SEPARATORS = ["\n", "\r\n", "\r", "\x85", "\u2028", "\x0c"]
# whitespace that strip() removes but that ends no line
PADDING = [" ", "\t", "\u00a0", "\u3000"]


def unicode_digits(digits: str, zero: int) -> str:
    return "".join(chr(zero + int(d)) for d in digits)


@st.composite
def noncanonical_field(draw, digits: str) -> str:
    """Another spelling of a location field that ``int`` reads the same,
    or, now and then, one it refuses."""
    return draw(st.sampled_from([
        "+" + digits, "0" + digits, "00" + digits, digits + " ",
        unicode_digits(digits, 0x660), unicode_digits(digits, 0xFF10),
        "-" + digits, digits + "x", "", digits + "8",
    ]))


@st.composite
def messy_line(draw, line: str) -> list[str]:
    """``line`` as it is, or spelled, commented, padded, repeated or
    replaced in one of the ways a hand-edited file might be."""
    edit = draw(st.sampled_from(
        ["keep"] * 12 + ["field"] * 2 + ["pad", "comment", "repeat", "junk", "drop"]))
    if edit == "field" and "=" not in line:
        parts = line.split(":")
        k = draw(st.integers(0, 3))
        parts[k] = parts[k][0] + draw(noncanonical_field(parts[k][1:]))
        return [":".join(parts)]
    if edit == "pad":
        pad = st.text(st.sampled_from(PADDING), min_size=1, max_size=2)
        return [draw(pad | st.just("")) + line + draw(pad | st.just(""))]
    if edit == "comment":
        return ["#" + line, line] if draw(st.booleans()) else ["#" + line]
    if edit == "repeat":
        return [line, line]
    if edit == "junk":
        return [draw(st.text(max_size=12))]
    if edit == "drop":
        return []
    return [line]


@st.composite
def messy_fingerprint_texts(draw):
    """Encoded fingerprints with lines respelled, padded, commented,
    repeated or moved, joined by any of the separators splitlines knows."""
    fp = draw(fingerprints())
    try:
        text = encode_fingerprint(fp)
    except FingerprintError:
        text = encode_fingerprint(Fingerprint(fp.locations, "c"))
    lines = text.splitlines()
    if draw(st.booleans()):  # locations before the headers
        headers = [line for line in lines if "=" in line]
        lines = [line for line in lines if "=" not in line] + headers
    out = []
    for line in lines:
        out += draw(messy_line(line))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(out), max_size=len(out)))
    text = "".join(line + sep for line, sep in zip(out, seps))
    return text if draw(st.booleans()) else text.rstrip("".join(SEPARATORS))


@settings(max_examples=400, deadline=None)
@given(messy_fingerprint_texts())
@example("challenge=c\r\nb1:r2:c3:i4\r\nb+1:r2:c3:i5\n")
@example("b1:r2:c3:i4\nb1:r2:c3:i4\x85challenge=c\n b0:r0:c0:i0\n#b9:r9:c9:i9\n")
@example("challenge=c\nb1:r2:c3:i4\nb\u0663:r2:c3:i4\nb1:r2:c3:i8\nchallenge=c\n")
@example("challenge=c\nb1:r2:c3:i4\rb5:r6:c7:i0\nb1:r2:c3:i07")
# the edges of the canonical tier: no last newline, a trailing blank line, a
# location before the header, a field past the 640-digit bound, no locations
@example("challenge=c\nb1:r2:c3:i4\nb5:r6:c7:i0")
@example("challenge=c\nb1:r2:c3:i4\nb5:r6:c7:i0\n\n")
@example("b1:r2:c3:i4\nchallenge=c\nb5:r6:c7:i0\n")
@example("challenge=c\nb1:r2:c3:i4\nb5:r" + "6" * 641 + ":c7:i0\n")
@example("challenge=c\n")
def test_decode_agrees_with_the_line_parser(text):
    assert (decode_outcome(decode_fingerprint, text)
            == decode_outcome(reference_decode_fingerprint, text))


@pytest.mark.parametrize("field", ["b", "r", "c"])
@pytest.mark.parametrize("digits", [641, 4301])  # past the pattern's bound; past int's limit
def test_location_field_of_many_digits(field, digits):
    values = {"b": "1", "r": "2", "c": "3"}
    values[field] = "1" + "0" * (digits - 1)
    text = "challenge=c\nb{b}:r{r}:c{c}:i4\n".format(**values)
    want = decode_outcome(reference_decode_fingerprint, text)
    assert decode_outcome(decode_fingerprint, text) == want
    if digits > 4300:  # CPython's default int-string limit
        with pytest.raises(FingerprintError, match="bad location line"):
            decode_fingerprint(text)


wide_locations = st.builds(FlipLocation, st.integers(0, 10**640 - 1), st.integers(0, 10**640 - 1),
                           st.integers(0, 10**640 - 1), st.integers(0, 7))


@FEW
@given(fingerprints(), st.lists(wide_locations, max_size=3))
def test_canonical_file_never_reaches_the_line_parser(fp, wide):
    fp = replace(fp, locations=fp.locations | set(wide))
    try:
        text = encode_fingerprint(fp)
    except FingerprintError:
        return  # a header that would not decode unchanged is refused
    def refuse(line):
        raise AssertionError(f"canonical line sent to the line parser: {line!r}")
    with mock.patch.object(fingerprint, "_parse_location", refuse):
        got = decode_fingerprint(text)
    assert got.locations == fp.locations


any_field = (st.integers(-2, 2**70) | st.integers(0, 8) | st.booleans() | st.floats()
             | st.text(max_size=2) | st.none() | st.fractions())


@settings(max_examples=200, deadline=None)
@given(any_field, any_field, any_field, any_field)
@example(1.0, 2, 3, 4)
@example(True, 0, 0, False)
@example(0, 0, 0, 7.0)
def test_every_constructible_location_round_trips(bank, row, column, bit):
    try:
        loc = FlipLocation(bank, row, column, bit)
    except FingerprintError:
        return
    got = decode_fingerprint(encode_fingerprint(Fingerprint({loc}, "c")))
    assert got.locations == {loc}
