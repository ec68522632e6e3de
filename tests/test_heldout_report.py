"""Smoke test of ``scripts/heldout_report.py`` at K = 2 on criterion 01.

The full report (K = 20, criterion 07 at K = 5) takes about a minute and stays
out of the unit suite; this checks the report's shape, that the same seeds
give the same bytes twice, the comparison it applies to a stream change, and
that it runs the acceptance suite's own procedures.
"""

import importlib.util
import inspect
import re
import sys
from pathlib import Path

import criteria

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "heldout_report.py"


def load_script():
    spec = importlib.util.spec_from_file_location("heldout_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_has_its_shape_and_repeats_byte_for_byte():
    module = load_script()
    text = module.report(["01"], 2, 5)
    assert load_script().report(["01"], 2, 5) == text
    header, line, means, flips = text.splitlines()
    assert header == "held-out report: K=2, criterion 07 K=5"
    assert re.fullmatch(r"criterion 01 reliability-reproduction: passed [0-2]/2; "
                        r"mean J_intra per device min (\S+) median (\S+) max (\S+)", line)
    # two devices per seed
    assert re.fullmatch(r"samples 01 mean_j_intra:( 0\.\d{6}){4}", means)
    assert re.fullmatch(r"samples 01 mean_flips:( \d+\.\d{4}){4}", flips)

    # a report is within tolerance of itself
    ok, verdict = module.compare(text, text)
    assert ok
    assert verdict.splitlines()[0].startswith("ok criterion 01: passed")
    assert "KS D = 0.0000 (bound 1.151, n = 4, m = 4)" in verdict


def test_ks_distance_and_the_fixed_bound():
    module = load_script()
    assert module.ks_distance([1, 2, 3], [4, 5, 6]) == 1.0
    assert module.ks_distance([1, 2, 3, 4], [1, 2, 3, 4]) == 0.0
    assert module.ks_distance([1, 2], [2, 3]) == 0.5
    assert round(module.KS_C_ALPHA * (80 / 1600) ** 0.5, 3) == 0.364
    assert module.MAX_PASS_DROP == {"07": 0} and module.DEFAULT_PASS_DROP == 1
    assert (module.K, module.K07) == (20, 5)


def test_report_runs_the_shared_procedures_and_keeps_no_copy():
    module = load_script()
    for c, entry in module.CRITERIA.items():
        run = entry[3]
        assert run.__module__ == "criteria" and getattr(criteria, run.__name__) is run, c
    own = [name for name, obj in vars(module).items()
           if inspect.isfunction(obj) and re.fullmatch(r"c(riterion_)?\d\d", name)]
    assert own == []


def test_a_second_load_adds_nothing_to_sys_path(monkeypatch):
    entries = {str(SCRIPT.parent.parent / "src"), str(SCRIPT.parent.parent / "tests")}
    monkeypatch.setattr(sys, "path", [p for p in sys.path if p not in entries])
    before = len(sys.path)
    load_script()
    assert len(sys.path) == before + 2
    load_script()
    assert len(sys.path) == before + 2
