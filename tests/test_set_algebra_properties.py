"""Property tests for flip locations and the set algebra built on them.

``FlipLocation`` is a validated 4-tuple; ``jaccard`` and
``_pairing_values`` must give exactly what plain set arithmetic gives,
and ``_pairing_values`` must fail exactly where scoring each case with
``jaccard_prime`` fails.
"""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from hammerprint import evalharness
from hammerprint.evalharness import ExperimentError, _pairing_values
from hammerprint.fingerprint import (
    Fingerprint,
    FingerprintError,
    FlipLocation,
    jaccard,
    jaccard_prime,
    union_of,
)

FEW = settings(max_examples=60, deadline=None)
H = "a" * 64

fields = st.tuples(st.integers(0, 8), st.integers(0, 40), st.integers(0, 300),
                   st.integers(0, 7))
negative = st.integers(-10**6, -1)


@st.composite
def bad_fields(draw):
    """Valid fields with one made out of range."""
    t = list(draw(fields))
    k = draw(st.integers(0, 3))
    t[k] = draw(negative | st.integers(8, 10**6) if k == 3 else negative)
    return tuple(t)


# a small universe, so that random sets overlap
locations = st.builds(FlipLocation, st.integers(0, 2), st.integers(0, 3),
                      st.integers(0, 5), st.integers(0, 7))
location_sets = st.frozensets(locations, min_size=1, max_size=40)


# --- FlipLocation ---------------------------------------------------------------

@FEW
@given(fields)
def test_location_is_its_fields(t):
    loc = FlipLocation(*t)
    assert FlipLocation(bank=t[0], row=t[1], column=t[2], bit=t[3]) == loc
    assert (loc.bank, loc.row, loc.column, loc.bit) == t
    assert loc == t and hash(loc) == hash(t)
    assert repr(loc) == "FlipLocation(bank=%d, row=%d, column=%d, bit=%d)" % t


@FEW
@given(fields, fields)
def test_location_order_is_lexicographic(s, t):
    a, b = FlipLocation(*s), FlipLocation(*t)
    assert (a < b) == (s < t) and (a <= b) == (s <= t)
    assert (a == b) == (s == t)
    assert sorted([b, a]) == [FlipLocation(*x) for x in sorted([t, s])]


@FEW
@given(bad_fields())
def test_every_constructor_path_validates(t):
    with pytest.raises(FingerprintError):
        FlipLocation(*t)
    with pytest.raises(FingerprintError):
        FlipLocation(bank=t[0], row=t[1], column=t[2], bit=t[3])
    # an instance forged past the constructor cannot be copied or unpickled
    forged = tuple.__new__(FlipLocation, t)
    for remake in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        with pytest.raises(FingerprintError):
            remake(forged)


@FEW
@given(fields)
def test_location_copies_and_is_immutable(t):
    loc = FlipLocation(*t)
    for remake in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        got = remake(loc)
        assert got == loc and type(got) is FlipLocation
    for name in ("bank", "row", "column", "bit", "other"):
        with pytest.raises(AttributeError):
            setattr(loc, name, 1)
    # no namedtuple-style constructors that would skip the checks
    assert not hasattr(loc, "_make") and not hasattr(loc, "_replace")


def test_wrong_arity_rejected():
    with pytest.raises(TypeError):
        FlipLocation(0, 0, 0)
    with pytest.raises(TypeError):
        FlipLocation(0, 0, 0, 0, 0)


# --- jaccard --------------------------------------------------------------------

@FEW
@given(location_sets, st.frozensets(locations, max_size=40))
def test_jaccard_is_plain_set_arithmetic(a, b):
    expected = len(a & b) / len(a | b)
    assert jaccard(Fingerprint(a, H), Fingerprint(b, H)) == expected
    assert jaccard(Fingerprint(b, H), Fingerprint(a, H)) == expected


# --- _pairing_values --------------------------------------------------------------

def brute_pairing_values(new_qs, db_qs, d_size, rng, max_cases, exclude_self):
    """One fresh union per case, straight from the definition."""
    cases = [(combo, i)
             for combo in itertools.combinations(range(len(db_qs)), d_size)
             for i in range(len(new_qs))
             if not (exclude_self and i in combo)]
    if len(cases) > max_cases:
        cases = rng.sample(cases, max_cases)
    out = []
    for combo, i in cases:
        db = frozenset().union(*(db_qs[k].locations for k in combo))
        new = new_qs[i].locations
        out.append((combo, i, len(new & db) / len(new)))
    return out


@st.composite
def pairing_inputs(draw):
    exclude_self = draw(st.booleans())
    n_new = draw(st.integers(2, 6))
    new_qs = [Fingerprint(s, H) for s in draw(st.lists(location_sets,
                                                       min_size=n_new, max_size=n_new))]
    if exclude_self:
        db_qs = new_qs
    else:
        db_qs = [Fingerprint(s, H) for s in draw(st.lists(location_sets,
                                                          min_size=1, max_size=6))]
    d_size = draw(st.integers(1, len(db_qs) - (1 if exclude_self else 0)))
    # small limits force the sampled path, large ones keep every case
    max_cases = draw(st.sampled_from([1, 3, 10, 25000]))
    seed = draw(st.integers(0, 2**32))
    return new_qs, db_qs, d_size, seed, max_cases, exclude_self


@FEW
@given(pairing_inputs())
def test_pairing_values_match_brute_force(args):
    new_qs, db_qs, d_size, seed, max_cases, exclude_self = args
    got = _pairing_values(new_qs, db_qs, d_size, random.Random(seed),
                          max_cases, exclude_self)
    want = brute_pairing_values(new_qs, db_qs, d_size, random.Random(seed),
                                max_cases, exclude_self)
    assert got == want


def test_unsampled_pairings_build_one_union_per_combination(monkeypatch):
    calls = []
    real = evalharness.union_of

    def counted(fps):
        calls.append(fps)
        return real(fps)

    monkeypatch.setattr(evalharness, "union_of", counted)
    rng = random.Random(3)
    qs = [Fingerprint({FlipLocation(0, 0, rng.randrange(50), 0) for _ in range(20)}, H)
          for _ in range(7)]
    out = _pairing_values(qs, qs, 3, random.Random(0), 25000, exclude_self=True)
    assert len(out) == 35 * 4
    assert len(calls) == 35


def set_pairing_values(new_queries, db_queries, d_size, rng, max_cases, exclude_self):
    """The set-based ``_pairing_values``: a ``union_of`` per combination
    and a ``jaccard_prime`` per case, with the same argument checks."""
    if d_size < 1:
        raise ExperimentError("d_size must be at least 1")
    if max_cases < 1:
        raise ExperimentError("max_cases must be at least 1")
    n_db = len(db_queries)
    if d_size > n_db - (1 if exclude_self else 0):
        raise ExperimentError("insufficient queries for the requested database size")
    combos = list(itertools.combinations(range(n_db), d_size))
    cases = []
    for combo in combos:
        in_combo = set(combo)
        for i in range(len(new_queries)):
            if exclude_self and i in in_combo:
                continue
            cases.append((combo, i))
    if len(cases) > max_cases:
        cases = rng.sample(cases, max_cases)
    out = []
    db_combo = db = None
    for combo, i in cases:
        if combo != db_combo:
            db_combo, db = combo, union_of([db_queries[k] for k in combo])
        out.append((combo, i, jaccard_prime(new_queries[i], db)))
    return out


OTHER = "b" * 64


@st.composite
def faulty_pairing_inputs(draw):
    """Pools where a query may be empty or carry another challenge."""
    def query():
        empty, foreign = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        return Fingerprint(frozenset() if empty == 0 else draw(location_sets),
                           OTHER if foreign == 0 else H)

    exclude_self = draw(st.booleans())
    new_qs = [query() for _ in range(draw(st.integers(1, 6)))]
    db_qs = new_qs if exclude_self else [query() for _ in range(draw(st.integers(1, 6)))]
    d_size = draw(st.integers(1, len(db_qs)))
    max_cases = draw(st.sampled_from([1, 3, 10, 25000]))
    seed = draw(st.integers(0, 2**32))
    return new_qs, db_qs, d_size, seed, max_cases, exclude_self


def outcome(pairings, args):
    new_qs, db_qs, d_size, seed, max_cases, exclude_self = args
    try:
        return pairings(new_qs, db_qs, d_size, random.Random(seed), max_cases, exclude_self)
    except (FingerprintError, ExperimentError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(faulty_pairing_inputs())
def test_pairing_values_fail_exactly_like_the_set_formula(args):
    assert outcome(_pairing_values, args) == outcome(set_pairing_values, args)
