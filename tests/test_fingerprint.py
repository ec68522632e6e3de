import random

import pytest

from hammerprint.fingerprint import (
    ChallengeMismatchError,
    Fingerprint,
    FingerprintError,
    FlipLocation,
    decode_fingerprint,
    encode_fingerprint,
    from_measurements,
    jaccard,
    jaccard_prime,
    union_of,
)

H = "a" * 64


def fp(locs, challenge=H, **kw) -> Fingerprint:
    return Fingerprint(frozenset(locs), challenge, **kw)


def loc(i: int) -> FlipLocation:
    return FlipLocation(i % 8, (i // 8) % 64, i % 1024, i % 8)


def random_locations(rng: random.Random, n: int) -> set[FlipLocation]:
    return {FlipLocation(rng.randrange(8), rng.randrange(64),
                         rng.randrange(256), rng.randrange(8))
            for _ in range(n)}


class TestFlipLocation:
    def test_order_is_lexicographic(self):
        a = FlipLocation(0, 5, 10, 3)
        b = FlipLocation(0, 5, 10, 4)
        c = FlipLocation(1, 0, 0, 0)
        assert a < b < c
        assert sorted([c, b, a]) == [a, b, c]

    def test_bit_range(self):
        with pytest.raises(FingerprintError):
            FlipLocation(0, 0, 0, 8)
        with pytest.raises(FingerprintError):
            FlipLocation(-1, 0, 0, 0)

    @pytest.mark.parametrize("bad", [1.0, 0.5, "1", None])
    @pytest.mark.parametrize("k", range(4))
    def test_fields_must_be_integers(self, bad, k):
        fields = [1, 2, 3, 4]
        fields[k] = bad
        with pytest.raises(FingerprintError, match="must be integers"):
            FlipLocation(*fields)

    def test_bool_fields_become_ints(self):
        got = FlipLocation(True, 0, 0, False)
        assert got == (1, 0, 0, 0) and all(type(f) is int for f in got)
        assert encode_fingerprint(fp({got})).endswith("\nb1:r0:c0:i0\n")


class TestFromMeasurements:
    def test_union(self):
        a, b = loc(1), loc(2)
        got = from_measurements([{a}, {a, b}], H)
        assert got.locations == {a, b}

    def test_idempotent(self):
        s = {loc(1), loc(5), loc(9)}
        got = from_measurements([s] * 10, H)
        assert got.locations == frozenset(s)

    def test_empty_list_rejected(self):
        with pytest.raises(FingerprintError):
            from_measurements([], H)


class TestJaccard:
    def test_identical(self):
        a = fp({loc(1), loc(2)})
        assert jaccard(a, a) == 1.0

    def test_disjoint(self):
        assert jaccard(fp({loc(1)}), fp({loc(2)})) == 0.0

    def test_published_flip_count_sizes(self):
        # |a|=354, |b|=365, shared 300: plain set arithmetic gives 300/419
        common = {FlipLocation(0, 0, i, 0) for i in range(300)}
        only_a = {FlipLocation(1, 0, i, 0) for i in range(54)}
        only_b = {FlipLocation(2, 0, i, 0) for i in range(65)}
        a, b = fp(common | only_a), fp(common | only_b)
        assert len(a) == 354 and len(b) == 365
        assert jaccard(a, b) == 300 / 419

    def test_both_empty_rejected(self):
        with pytest.raises(FingerprintError):
            jaccard(fp(set()), fp(set()))

    def test_challenge_mismatch(self):
        with pytest.raises(ChallengeMismatchError):
            jaccard(fp({loc(1)}), fp({loc(1)}, challenge="b" * 64))


class TestJaccardPrime:
    def test_subset_gives_one(self):
        small = fp({loc(1), loc(2)})
        big = fp({loc(1), loc(2), loc(3), loc(9)})
        assert jaccard_prime(small, big) == 1.0

    def test_disjoint_gives_zero(self):
        assert jaccard_prime(fp({loc(1)}), fp({loc(2)})) == 0.0

    def test_exact_ratio(self):
        s_n = {FlipLocation(0, 0, i, 0) for i in range(40)}
        s_d = {FlipLocation(0, 0, i, 0) for i in range(34)} | \
              {FlipLocation(3, 0, i, 0) for i in range(200)}
        assert jaccard_prime(fp(s_n), fp(s_d)) == 0.85

    def test_empty_new_query_rejected(self):
        with pytest.raises(FingerprintError):
            jaccard_prime(fp(set()), fp({loc(1)}))

    def test_asymmetric_witness(self):
        a = fp({loc(1), loc(2), loc(3)})
        b = fp({loc(1), loc(2), loc(3), loc(4), loc(5), loc(9)})
        assert jaccard_prime(a, b) != jaccard_prime(b, a)


class TestUnionOf:
    def test_singleton(self):
        a = fp({loc(1)})
        assert union_of([a]).locations == a.locations

    def test_commutative(self):
        a, b = fp({loc(1), loc(2)}), fp({loc(2), loc(3)})
        assert union_of([a, b]).locations == union_of([b, a]).locations

    def test_mixed_hashes_rejected(self):
        with pytest.raises(ChallengeMismatchError):
            union_of([fp({loc(1)}), fp({loc(2)}, challenge="b" * 64)])

    def test_empty_list_rejected(self):
        with pytest.raises(FingerprintError):
            union_of([])


class TestMetricLaws:
    def test_symmetry_and_range(self):
        rng = random.Random(20)
        for _ in range(300):
            a = fp(random_locations(rng, rng.randrange(1, 40)))
            b = fp(random_locations(rng, rng.randrange(1, 40)))
            j1, j2 = jaccard(a, b), jaccard(b, a)
            assert j1 == j2
            assert 0.0 <= j1 <= 1.0
            assert 0.0 <= jaccard_prime(a, b) <= 1.0

    def test_prime_monotone_in_database(self):
        rng = random.Random(21)
        for _ in range(300):
            s_n = fp(random_locations(rng, rng.randrange(1, 30)))
            small = random_locations(rng, rng.randrange(0, 30))
            big = small | random_locations(rng, rng.randrange(0, 30))
            assert jaccard_prime(s_n, fp(small)) <= jaccard_prime(s_n, fp(big))

    def test_prime_superset_is_one(self):
        rng = random.Random(22)
        for _ in range(300):
            s = random_locations(rng, rng.randrange(1, 30))
            extra = random_locations(rng, rng.randrange(0, 30))
            assert jaccard_prime(fp(s), fp(s | extra)) == 1.0


class TestEncoding:
    def test_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(200):
            f = fp(random_locations(rng, rng.randrange(0, 50)))
            assert decode_fingerprint(encode_fingerprint(f)) == f

    def test_roundtrip_with_metadata(self):
        f = fp({loc(3)}, device_hint="mac=aa:bb ip=10.0.0.2",
               query_time="2023-09-01T10:00:00+00:00")
        got = decode_fingerprint(encode_fingerprint(f))
        assert got == f
        assert got.device_hint == f.device_hint
        assert got.query_time == f.query_time

    def test_canonical_order_and_header(self):
        f = fp({FlipLocation(1, 2, 3, 4), FlipLocation(0, 9, 9, 7)})
        text = encode_fingerprint(f)
        lines = text.strip().splitlines()
        assert lines[0] == f"challenge={H}"
        assert lines[1] == "b0:r9:c9:i7"
        assert lines[2] == "b1:r2:c3:i4"

    def test_encoding_is_bit_stable(self):
        rng = random.Random(24)
        f = fp(random_locations(rng, 30))
        assert encode_fingerprint(f) == encode_fingerprint(f)

    def test_decode_rejects_bad_lines(self):
        with pytest.raises(FingerprintError):
            decode_fingerprint(f"challenge={H}\nb1:r2:c3\n")
        with pytest.raises(FingerprintError):
            decode_fingerprint(f"challenge={H}\nx1:r2:c3:i4\n")
        with pytest.raises(FingerprintError):
            decode_fingerprint("b0:r0:c0:i0\n")
        with pytest.raises(FingerprintError):
            decode_fingerprint(f"challenge={H}\nx=y\nb1:r2:c3:i4\n")

    def test_decode_skips_comment_and_blank_lines(self):
        f = fp({loc(3), loc(4)}, device_hint="label=x", query_time="t0")
        plain = encode_fingerprint(f)
        lines = plain.splitlines()
        commented = "\n".join(["# note", lines[0], "", "  # indented"] + lines[1:]
                              + ["   ", "#b9:r9:c9:i9"]) + "\n"
        assert decode_fingerprint(commented) == decode_fingerprint(plain) == f

    def test_encode_refuses_headers_that_do_not_decode_unchanged(self):
        for kw in ({"query_time": "2024\nb9:r9:c9:i1"},
                   {"query_time": "2024\r"},
                   {"query_time": "2024 "},
                   {"device_hint": "mac=aa\rb0:r0:c0:i0"},
                   {"device_hint": "ip=10.0.0.2\n"}):
            with pytest.raises(FingerprintError):
                encode_fingerprint(fp({loc(3)}, **kw))
        # a newline inside the hint still becomes a space, as before
        text = encode_fingerprint(fp({loc(3)}, device_hint="label=x\nmac=aa"))
        assert text.splitlines()[1] == "hint=label=x mac=aa"
        assert decode_fingerprint(text).device_hint == "label=x mac=aa"
