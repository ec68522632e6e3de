"""``scripts/ab.py`` on canned ``perfbench/run.py`` output and a scratch git
repository; starts no workload."""

import importlib.util
import json
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"

BENCH = {
    "command": ["python3", "perfbench/run.py"], "run_seconds": 12,
    "workloads": [{"name": "query"}],
    "end_to_end": [{"name": "latency_norm_ms", "unit": "ms", "better": "lower", "bound": 0.24},
                   {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
    "per_layer": [{"name": "throughput_per_s", "unit": "1/s", "better": "higher"},
                  {"name": "failed_ratio", "unit": "ratio", "better": "lower"}],
}


def load_script():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(latency, throughput, setup=0.05, digest="a8dfe702", source="5eed"):
    """What ``run.py`` prints: a report, then its record and result lines."""
    metrics = {"latency_norm_ms": {"value": latency, "unit": "ms", "samples": 900},
               "throughput_per_s": {"value": throughput, "unit": "1/s"},
               "failed_ratio": {"value": 0.0, "unit": "ratio"},
               "setup_s": {"value": setup, "unit": "s"},
               "query_p50_ms": {"value": latency, "unit": "ms"}}
    record = {"env": {"workload": "query", "seed": 71, "git_sha": None, "source_sha256": source},
              "metrics": metrics, "output_sha256": digest, "digest_ops": 100}
    result = {"correct": True, "attempted": 900, "failed": 0,
              "metrics": {"latency_norm_ms": {"value": latency, "unit": "ms"}}}
    return "\n".join(["hammerprint benchmark: workload=query seed=71",
                      f"  latency_norm_ms {latency} ms", json.dumps(record),
                      json.dumps(result)]) + "\n"


def canned_pairs(ab, change_digest="a8dfe702", change_setup=0.05):
    base = [(3.5, 300.0), (3.6, 290.0), (3.4, 310.0)]
    change = [(2.5, 400.0), (3.7, 280.0), (2.4, 410.0)]
    return [(ab.parse_run(run_output(*b, source="ba5e")),
             ab.parse_run(run_output(*c, setup=change_setup, digest=change_digest)))
            for b, c in zip(base, change)]


def test_parse_run_reads_the_last_two_lines():
    ab = load_script()
    record, result = ab.parse_run(run_output(3.5, 300.0))
    assert record["output_sha256"] == "a8dfe702"
    assert record["metrics"]["latency_norm_ms"]["value"] == 3.5
    assert result["correct"] is True and result["failed"] == 0


def test_summary_statistics_and_wins():
    ab = load_script()
    summary = ab.summarize(canned_pairs(ab), BENCH)
    assert summary["pairs"] == 3
    # only the metrics the benchmark declares are summarized
    assert sorted(summary["metrics"]) == ["failed_ratio", "latency_norm_ms", "setup_s",
                                          "throughput_per_s"]
    lat = summary["metrics"]["latency_norm_ms"]
    assert lat["unit"] == "ms"
    assert lat["base"] == (3.45, 3.5, 3.55)  # q1, median, q3 by the inclusive method
    assert lat["change"] == (2.45, 2.5, 3.1)
    assert round(lat["ratio"], 6) == round(2.5 / 3.5, 6)
    # lower latency wins; higher throughput, as the benchmark declares, wins
    assert (lat["base_wins"], lat["change_wins"]) == (1, 2)
    thr = summary["metrics"]["throughput_per_s"]
    assert (thr["base_wins"], thr["change_wins"]) == (1, 2)
    assert "bound" not in thr
    # a metric that is 0 on the base side has no ratio, and ties win nothing
    zero = summary["metrics"]["failed_ratio"]
    assert zero["ratio"] is None and (zero["base_wins"], zero["change_wins"]) == (0, 0)
    assert all(a["agree"] for a in summary["agreement"].values())
    assert lat["within_bound"] and summary["metrics"]["setup_s"]["within_bound"]


def test_end_to_end_bound_verdict():
    ab = load_script()
    # setup_s bound 0.25: 0.0625 is exactly 25% worse than 0.05, 0.063 is more
    at_bound = ab.summarize(canned_pairs(ab, change_setup=0.0625), BENCH)
    assert at_bound["metrics"]["setup_s"]["within_bound"]
    over = ab.summarize(canned_pairs(ab, change_setup=0.063), BENCH)
    assert not over["metrics"]["setup_s"]["within_bound"]
    text = ab.format_summary("query", over)
    assert "; OUTSIDE bound 0.25" in text
    assert "ratio 0.714; wins 1/2; within bound 0.24" in text


def test_disagreeing_digests_are_reported():
    ab = load_script()
    summary = ab.summarize(canned_pairs(ab, change_digest="0badc0de"), BENCH)
    digest = summary["agreement"]["output_sha256"]
    assert digest == {"base": ["a8dfe702"], "change": ["0badc0de"], "agree": False}
    text = ab.format_summary("query", summary)
    assert "output_sha256: DIFFER; base a8dfe702, change 0badc0de" in text
    assert "correct: agree; base True, change True" in text
    assert text.splitlines()[0].startswith("workload query: 3 pairs;")
    assert "latency_norm_ms          3.5 (3.45-3.55) -> 2.5 (2.45-3.1) ms; " \
           "ratio 0.714; wins 1/2" in text


def test_record_holds_the_change_side_and_both_identities():
    ab = load_script()
    pairs = canned_pairs(ab)
    summary = ab.summarize(pairs, BENCH)
    record = ab.bench_record("b" * 40, None, {"query": pairs}, {"query": summary})
    assert (record["base_sha"], record["change_sha"]) == ("b" * 40, None)
    assert (record["base_source_sha256"], record["change_source_sha256"]) == ("ba5e", "5eed")
    query = record["workloads"]["query"]
    assert query["pairs"] == 3
    assert [r["metrics"]["latency_norm_ms"]["value"] for r in query["records"]] == [2.5, 3.7, 2.4]
    assert [r["failed"] for r in query["results"]] == [0, 0, 0]
    assert json.loads(json.dumps(record))["workloads"]["query"]["summary"]["pairs"] == 3


def test_checkout_of_a_commit_and_of_the_working_tree(tmp_path, monkeypatch):
    ab = load_script()
    for key, value in {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1",
                       "GIT_AUTHOR_NAME": "a", "GIT_AUTHOR_EMAIL": "a@example.org",
                       "GIT_COMMITTER_NAME": "a", "GIT_COMMITTER_EMAIL": "a@example.org"}.items():
        monkeypatch.setenv(key, value)
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    ab.git(repo, "init", "-q")
    (repo / "src" / "m.py").write_text("X = 1\n")
    ab.git(repo, "add", ".")
    ab.git(repo, "commit", "-q", "-m", "one")
    head = ab.git(repo, "rev-parse", "HEAD")
    # a clean working tree is HEAD, recorded without a sha
    assert ab.revision(repo, None) == (head, None)
    assert ab.revision(repo, "HEAD") == (head, head)

    (repo / "src" / "m.py").write_text("X = 2\n")
    (repo / "src" / "new.py").write_text("Y = 3\n")
    ab.git(repo, "add", "src/new.py")
    (repo / "src" / "untracked.py").write_text("Z = 4\n")
    worktree, sha = ab.revision(repo, None)
    assert sha is None and worktree != head
    assert ab.git(repo, "rev-parse", "HEAD") == head  # no ref moved
    assert ab.git(repo, "stash", "list") == ""

    for rev, want in ((head, "X = 1\n"), (worktree, "X = 2\n")):
        dest = tmp_path / rev
        ab.checkout(repo, rev, dest)
        assert (dest / "src" / "m.py").read_text() == want
        assert list((dest / "src" / "__pycache__").glob("m.*.pyc"))
    # staged files are in the working-tree side, untracked ones are not
    assert (tmp_path / worktree / "src" / "new.py").is_file()
    assert not (tmp_path / worktree / "src" / "untracked.py").exists()
    assert not (tmp_path / head / "src" / "new.py").exists()
