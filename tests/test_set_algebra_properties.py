"""Property tests for flip locations and the set algebra built on them.

``FlipLocation`` is a validated 4-tuple; ``jaccard`` and
``_pairing_values`` must give exactly what plain set arithmetic gives,
and ``_pairing_values`` checks both pools once, through ``union_of``
and ``jaccard_prime``, before it scores any case. A report's CSV and
table must be the text of rendering each cell on its own, and a report
column holding any kind but float, int or str, or a mix of kinds, is
refused.
"""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from hammerprint import evalharness
from hammerprint.evalharness import ExperimentError, ExperimentReport, _pairing_values
from hammerprint.fingerprint import (
    ChallengeMismatchError,
    Fingerprint,
    FingerprintError,
    FlipLocation,
    jaccard,
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
        out.append(("+".join(map(str, combo)), i, len(new), len(new & db) / len(new)))
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


@FEW
@given(pairing_inputs())
def test_pairing_values_same_list_shortcut_changes_nothing(args):
    # one list as both pools makes its bitmasks once; an equal copy makes them twice
    qs, _, d_size, seed, max_cases, exclude_self = args
    d_size = min(d_size, len(qs) - 1)
    same = _pairing_values(qs, qs, d_size, random.Random(seed), max_cases, exclude_self)
    copied = _pairing_values(qs, list(qs), d_size, random.Random(seed), max_cases, exclude_self)
    assert same == copied


def seven_queries():
    rng = random.Random(3)
    return [Fingerprint({FlipLocation(0, 0, rng.randrange(50), 0) for _ in range(20)}, H)
            for _ in range(7)]


def test_sampled_combination_split_into_separate_runs_keeps_its_label():
    qs = seven_queries()
    new_qs = qs[:4]
    got = _pairing_values(new_qs, qs, 3, random.Random(5), 30, exclude_self=False)
    # the sample really does bring some combination back after another one
    runs = [label for label, _ in itertools.groupby(row[0] for row in got)]
    assert len(runs) > len(set(runs))
    assert got == brute_pairing_values(new_qs, qs, 3, random.Random(5), 30, exclude_self=False)


@pytest.mark.parametrize("max_cases", [25000, 30, 1])
@pytest.mark.parametrize("exclude_self", [True, False])
def test_pairings_check_each_pool_once_sampled_or_not(monkeypatch, max_cases, exclude_self):
    qs = seven_queries()
    new_qs = qs if exclude_self else qs[:4]
    calls = []

    def recorded(name):
        real = getattr(evalharness, name)

        def call(*args):
            calls.append((name, args))
            return real(*args)
        return call

    for name in ("union_of", "jaccard_prime"):
        monkeypatch.setattr(evalharness, name, recorded(name))
    out = _pairing_values(new_qs, qs, 3, random.Random(0), max_cases, exclude_self)
    assert len(out) == min(max_cases, 35 * 4)
    (first, (pool_arg,)), *rest = calls
    assert first == "union_of" and pool_arg is qs
    assert [name for name, _ in rest] == ["jaccard_prime"] * len(new_qs)
    assert all(args[0] is q for (_, args), q in zip(rest, new_qs))


@pytest.mark.parametrize("n_new", [4, 7])
def test_exclude_self_refuses_pools_of_different_lengths_before_scoring(monkeypatch, n_new):
    # the case count is exact only when the new queries are the database pool
    qs = seven_queries()
    for name in ("union_of", "jaccard_prime"):
        monkeypatch.setattr(evalharness, name, lambda *args: pytest.fail("scored"))
    new_qs, db_qs = qs[:n_new], qs[:11 - n_new]
    with pytest.raises(ExperimentError, match="exclude_self needs one pool"):
        _pairing_values(new_qs, db_qs, 3, random.Random(0), 25000, exclude_self=True)


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


def check_once_error(new_qs, db_qs, d_size, exclude_self):
    """The rule, written out: the argument check, then the database pool's
    mixed challenge, then the first new query of another challenge or empty."""
    if d_size > len(db_qs) - (1 if exclude_self else 0):
        return ExperimentError, "insufficient queries for the requested database size"
    hashes = {q.challenge_hash for q in db_qs}
    if len(hashes) > 1:
        return ChallengeMismatchError, f"mixed challenge hashes: {sorted(hashes)}"
    for q in new_qs:
        if q.challenge_hash not in hashes:
            both = sorted(hashes | {q.challenge_hash})
            return ChallengeMismatchError, f"mixed challenge hashes: {both}"
        if not q.locations:
            return FingerprintError, "empty new-query fingerprint"
    return None


@settings(max_examples=300, deadline=None)
@given(faulty_pairing_inputs())
def test_pairing_values_check_both_pools_before_scoring(args):
    new_qs, db_qs, d_size, seed, max_cases, exclude_self = args
    want = check_once_error(new_qs, db_qs, d_size, exclude_self)
    try:
        _pairing_values(new_qs, db_qs, d_size, random.Random(seed), max_cases, exclude_self)
    except (FingerprintError, ExperimentError) as exc:
        assert (type(exc), str(exc)) == want
    else:
        assert want is None


# --- ExperimentReport.to_delimited and to_table -------------------------------------

def cell(v) -> str:
    """The cell rule, one cell at a time: a float as ``.6g``, anything else by ``str``."""
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def delimited_by_cell(report):
    """The CSV rule before the row template: each cell on its own."""
    lines = [",".join(report.columns)]
    lines += [",".join(map(cell, row)) for row in report.rows]
    return "\n".join(lines) + "\n"


class Ratio(float):
    """A float whose ``str`` differs from its ``.6g`` text."""

    def __str__(self):
        return "ratio"


floats = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"),
                                        1e-7, 1e16, 1 / 3])
# the kinds a report column may hold, and the kinds no column may hold
column_kinds = {
    "float": floats,
    "int": st.integers(-10**20, 10**20),
    "str": st.text(max_size=5),
}
refused_kinds = {"bool": st.booleans(), "Ratio": floats.map(Ratio)}
cell_kinds = {**column_kinds, **refused_kinds}


def report_of(columns: list[list], n: int) -> ExperimentReport:
    """A report of ``n`` rows holding ``columns``, which may be none."""
    rows = list(zip(*columns)) if columns else [()] * n
    return ExperimentReport("t", tuple(f"c{j}" for j in range(len(columns))), rows,
                            [0.0] * n)


@st.composite
def columns_of_one_kind(draw, n, min_columns):
    """Columns of ``n`` cells, each column of floats, of ints or of strs."""
    kinds = draw(st.lists(st.sampled_from(sorted(column_kinds)),
                          min_size=min_columns, max_size=6))
    return [draw(st.lists(column_kinds[k], min_size=n, max_size=n)) for k in kinds]


@st.composite
def reports(draw):
    n = draw(st.integers(0, 8))
    return report_of(draw(columns_of_one_kind(n, 0)), n)


@st.composite
def refused_reports(draw):
    """A report with one column of bools, of Ratios or of at least two kinds,
    among columns of one kind each; returns it and that column's name."""
    n = draw(st.integers(2, 8))
    columns = draw(columns_of_one_kind(n, 0))
    bad = draw(st.sampled_from(["bool", "Ratio", "mixed"]))
    if bad == "mixed":
        a, b = draw(st.lists(st.sampled_from(sorted(cell_kinds)), min_size=2, max_size=2,
                             unique=True))
        rest = draw(st.lists(st.one_of(*cell_kinds.values()), min_size=n - 2, max_size=n - 2))
        cells = draw(st.permutations([draw(cell_kinds[a]), draw(cell_kinds[b]), *rest]))
    else:
        cells = draw(st.lists(refused_kinds[bad], min_size=n, max_size=n))
    j = draw(st.integers(0, len(columns)))
    columns.insert(j, cells)
    return report_of(columns, n), f"c{j}"


@settings(max_examples=200, deadline=None)
@given(reports())
def test_delimited_is_each_cell_rendered_on_its_own(report):
    assert report.to_delimited() == delimited_by_cell(report)
    if report.rows:  # a report of no trials has no mean to print
        # every cell of a str column is printed as it is, so the tables
        # agree exactly where each cell is the text of the cell rule
        as_text = ExperimentReport("t", report.columns,
                                   [tuple(map(cell, row)) for row in report.rows],
                                   report.values)
        assert report.to_table() == as_text.to_table()


def test_a_float_column_holding_a_zero_keeps_the_sign_of_each_zero():
    # 0.0 and -0.0 are one dict key, but their texts differ
    nan = float("nan")
    report = report_of([[0.0, -0.0, nan, nan], [7, 7, 7, 7]], 4)
    assert report.to_delimited() == delimited_by_cell(report) == "c0,c1\n0,7\n-0,7\nnan,7\nnan,7\n"
    report = report_of([[-0.0, 1.5, 0.0], [0.0, 0.0, -0.0]], 3)
    assert report.to_delimited() == delimited_by_cell(report) == "c0,c1\n-0,0\n1.5,0\n0,-0\n"


def test_every_column_is_checked_before_any_is_rendered():
    # str() refuses an int this long (CPython's digit limit); column b is named first
    report = ExperimentReport("t", ("a", "b"), [(10**5000, True)], [0.0])
    for render in (report.to_delimited, report.to_table):
        with pytest.raises(ExperimentError, match="column 'b' holds bool"):
            render()


def test_a_report_of_no_columns_writes_one_empty_line_per_row():
    report = ExperimentReport("t", (), [(), ()], [0.0, 0.0])
    assert report.to_delimited() == delimited_by_cell(report) == "\n\n\n"


@settings(max_examples=200, deadline=None)
@given(refused_reports())
def test_a_column_of_another_kind_or_of_mixed_kinds_is_refused(drawn):
    report, column = drawn
    for render in (report.to_delimited, report.to_table):
        with pytest.raises(ExperimentError, match=f"column '{column}' holds"):
            render()
