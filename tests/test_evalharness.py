import random

import pytest

from conftest import expand_cells, small_challenge
from hammerprint.challenge import default_challenge
from hammerprint.evalharness import (
    DetectionResult,
    ExperimentError,
    ExperimentReport,
    detection_experiment,
    measurements_tradeoff,
    one_dimm_multi_host,
    reliability_experiment,
    uniqueness_experiment,
    _make_queries,
    _pairing_values,
)
from hammerprint.simdevice import deterministic_noise, new_sim_device


class TestExperimentReport:
    def test_summary_invariants(self):
        rep = ExperimentReport("t", ("x", "v"), [(1, 0.5), (2, 0.7)], [0.5, 0.7])
        assert rep.min == 0.5 and rep.max == 0.7
        assert rep.min <= rep.mean <= rep.max
        # constant values whose float mean rounds outside [min, max]
        for values in ([0.1] * 3, [0.7] * 20):
            rep = ExperimentReport("x", ("a",), [(v,) for v in values], values)
            assert rep.min == rep.max == values[0]
            assert rep.mean == pytest.approx(values[0])

    def test_row_value_count_must_agree(self):
        with pytest.raises(ExperimentError):
            ExperimentReport("t", ("x",), [(1,)], [0.5, 0.7])

    @pytest.mark.parametrize("row", [(1,), (1, 0.5, "extra"), ()])
    def test_row_width_must_match_the_columns(self, row):
        # the CSV row template would drop an extra cell without a word
        with pytest.raises(ExperimentError, match="one cell per column"):
            ExperimentReport("t", ("x", "v"), [(2, 0.7), row], [0.7, 0.5])

    def test_delimited_and_table(self):
        rep = ExperimentReport("t", ("x", "v"), [(1, 0.5)], [0.5])
        csv = rep.to_delimited()
        assert csv.splitlines()[0] == "x,v"
        assert "0.5" in csv
        assert "mean=0.5" in rep.to_table()

    def test_empty_report_writes_its_header_and_refuses_a_summary(self):
        rep = ExperimentReport("t", ("a",), [], [])
        assert rep.to_delimited() == "a\n"
        for summary in (lambda: rep.mean, lambda: rep.min, lambda: rep.max, rep.to_table):
            with pytest.raises(ExperimentError, match="report 't' has no rows to summarize"):
                summary()


class TestReliability:
    def test_deterministic_flips_give_exact_one(self, toy_geom, toy_mapping):
        dev = new_sim_device(1, 2, geom=toy_geom, mapping=toy_mapping,
                             noise=deterministic_noise())
        ch = small_challenge(n=18, measurements=2)  # wide enough to evade TRR
        rep = reliability_experiment(dev, ch, n_queries=6, d_size=2, seed=5)
        assert rep.mean == rep.min == rep.max == 1.0

    def test_values_in_range_and_reproducible(self):
        dev = new_sim_device(3, 4)
        ch = default_challenge()
        a = reliability_experiment(dev, ch, n_queries=6, d_size=2, seed=6, max_cases=200)
        b = reliability_experiment(dev, ch, n_queries=6, d_size=2, seed=6, max_cases=200)
        assert a.values == b.values
        assert all(0.0 <= v <= 1.0 for v in a.values)
        assert len(a.rows) == len(a.values) <= 200

    def test_insufficient_queries(self):
        dev = new_sim_device(3, 4)
        with pytest.raises(ExperimentError):
            reliability_experiment(dev, default_challenge(), n_queries=3, d_size=3)

    @pytest.mark.parametrize("kw", [{"d_size": 0}, {"d_size": -1}, {"max_cases": 0}])
    def test_bad_pairing_arguments_rejected(self, kw):
        dev = new_sim_device(3, 4)
        with pytest.raises(ExperimentError):
            reliability_experiment(dev, default_challenge(), n_queries=4, **kw)


class TestUniqueness:
    def test_cross_device_values_all_zero(self):
        ch = default_challenge()
        a = new_sim_device(10, 11)
        b = new_sim_device(12, 13)
        rep = uniqueness_experiment(a, b, ch, n_queries=4, seed=7, max_cases=60)
        assert rep.max == 0.0 and rep.mean == 0.0

    def test_same_device_rejected(self):
        dev = new_sim_device(10, 11)
        twin = new_sim_device(10, 11)
        with pytest.raises(ExperimentError):
            uniqueness_experiment(dev, twin, default_challenge())

    @pytest.mark.parametrize("kw", [{"d_size": 0}, {"d_size": -1}, {"max_cases": 0},
                                    {"max_cases": 1}])
    def test_bad_pairing_arguments_rejected(self, kw):
        # max_cases is split between the two directions, so 1 leaves 0 each
        match = "max_cases must be at least 2" if "max_cases" in kw else "d_size must be at least 1"
        a, b = new_sim_device(10, 11), new_sim_device(12, 13)
        with pytest.raises(ExperimentError, match=match):
            uniqueness_experiment(a, b, default_challenge(), n_queries=4, **kw)

    def test_self_pairing_reproduces_reliability(self):
        # identical machinery scored against the device's own queries
        dev = new_sim_device(14, 15)
        ch = default_challenge()
        queries = _make_queries(dev, ch, seed=8, n=6)
        rng1, rng2 = random.Random("x"), random.Random("x")
        self_vals = [v for _, _, v in _pairing_values(queries, queries, 2, rng1,
                                                      500, exclude_self=True)]
        rep = reliability_experiment(dev, ch, n_queries=6, d_size=2, seed=8, max_cases=500)
        assert self_vals == rep.values

    def test_zero_iff_supports_disjoint_at_toy_scale(self, toy_geom, toy_mapping):
        from hammerprint.challenge import victim_rows

        ch = small_challenge(n=18, measurements=2)  # wide enough to evade TRR
        rng = random.Random(9)
        pairs = [(new_sim_device(rng.getrandbits(64), rng.getrandbits(64),
                                 geom=toy_geom, mapping=toy_mapping),
                  new_sim_device(rng.getrandbits(64), rng.getrandbits(64),
                                 geom=toy_geom, mapping=toy_mapping))
                 for _ in range(20)]
        worst = 0.0
        for a, b in pairs:
            rep = uniqueness_experiment(a, b, ch, n_queries=2, seed=10,
                                        d_size=2, max_cases=8)
            worst = max(worst, rep.max)
            support = {}
            for dev, name in ((a, "a"), (b, "b")):
                cells = set()
                for bank in ch.bank_range:
                    for row in victim_rows(ch.pattern):
                        for location, _, _ in expand_cells(dev, bank, row):
                            cells.add(location)
                support[name] = cells
            if not (support["a"] & support["b"]):
                assert rep.max == 0.0
        assert worst <= 0.01


class TestDetection:
    def test_recovers_permutation_with_witness(self):
        result = detection_experiment(n_devices=8, seed=101)
        assert isinstance(result, DetectionResult)
        assert result.correct == 8
        assert result.new_count == 0
        witness_sims = [row[5] for row in result.rows if row[2] == "dev-1"]
        assert witness_sims == [1.0]
        # diagonal dominance: matched column strictly largest in each row
        for row, sims in zip(result.rows, result.matrix):
            matched = row[3]
            idx = result.enrolled_ids.index(matched)
            assert sims[idx] == max(sims)
            assert sims[idx] > 0.4

    def test_replaced_devices_come_back_new(self):
        result = detection_experiment(n_devices=8, seed=102, replace=2)
        assert result.new_count == 2
        assert result.correct == 8

    def test_wrong_decisions_are_not_counted_correct(self):
        # (position, label, true_id, result_id, decision, similarity)
        rows = [(0, "p1", "dev-1", "dev-1", "matched", 0.9),   # right device
                (1, "p2", "dev-2", "dev-1", "matched", 0.5),   # wrong device
                (2, "p3", "dev-3", "dev-4", "new", None),      # missed
                (3, "p4", None, "dev-2", "matched", 0.6),      # replaced, matched
                (4, "p5", None, "dev-4", "new", None)]         # replaced, new
        result = DetectionResult(["dev-1", "dev-2", "dev-3"], rows, [[0.0] * 3] * 5)
        assert result.correct == 2
        assert result.new_count == 2
        assert result.to_report().values == [1.0, 0.0, 0.0, 0.0, 1.0]

    def test_reproducible(self):
        a = detection_experiment(n_devices=4, seed=103)
        b = detection_experiment(n_devices=4, seed=103)
        assert a.rows == b.rows and a.matrix == b.matrix

    def test_argument_validation(self):
        with pytest.raises(ExperimentError):
            detection_experiment(n_devices=1)
        with pytest.raises(ExperimentError):
            detection_experiment(n_devices=4, replace=5)

    def test_report_and_matrix_render(self):
        result = detection_experiment(n_devices=3, seed=104, replace=1)
        rep = result.to_report()
        assert len(rep.rows) == 3
        # one kind per column: a missing true id or similarity is the text "-"
        assert [len(set(map(type, column))) for column in zip(*rep.rows)] == [1] * 6
        assert ("-", "new", "-") in {(t, d, s) for _, _, t, _, d, s in rep.rows}
        text = result.matrix_delimited()
        assert text.splitlines()[0] == "query,dev-1,dev-2,dev-3"


class TestOneDimmMultiHost:
    def test_identity_patterned_table(self):
        res = one_dimm_multi_host(777, [1, 2, 3], seed=11)
        for i, row in enumerate(res.matrix):
            for j, v in enumerate(row):
                if i == j:
                    assert v > 0.7
                else:
                    assert v == 0.0

    def test_mean_flip_counts_pairwise_distinct(self):
        res = one_dimm_multi_host(778, [4, 5, 6], seed=12)
        assert len(set(res.mean_flips)) == 3

    def test_duplicate_host_overlaps_symmetrically(self):
        res = one_dimm_multi_host(779, [7, 7, 8], seed=13)
        assert res.matrix[0][1] > 0.5
        assert res.matrix[1][0] > 0.5
        assert res.matrix[0][2] == res.matrix[2][0] == 0.0

    def test_needs_two_hosts(self):
        with pytest.raises(ExperimentError):
            one_dimm_multi_host(1, [2], seed=1)


class TestMeasurementsTradeoff:
    def test_linear_work_and_flat_reliability(self):
        dev = new_sim_device(20, 21)
        ch = default_challenge()
        rep = measurements_tradeoff(dev, ch, m_values=(1, 2, 9, 10), seed=14)
        work = {m: w for m, w, *_ in rep.rows}
        assert work[10] == 10 * work[1]
        assert work[2] == 2 * work[1]
        rel = {m: r for m, _, r, *_ in rep.rows}
        assert abs(rel[2] - rel[9]) <= 0.05

    def test_rows_carry_min_max(self):
        dev = new_sim_device(22, 23)
        rep = measurements_tradeoff(dev, default_challenge(), m_values=(2,),
                                    queries_per_m=3, seed=15)
        m, work, mean, lo, hi = rep.rows[0]
        assert lo <= mean <= hi

    def test_argument_validation(self):
        dev = new_sim_device(22, 23)
        with pytest.raises(ExperimentError):
            measurements_tradeoff(dev, default_challenge(), m_values=())
        with pytest.raises(ExperimentError):
            measurements_tradeoff(dev, default_challenge(), queries_per_m=1)
