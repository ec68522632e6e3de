"""Golden outputs: default-seed CLI files must keep their exact bytes.

Fingerprint files and report CSVs are the reproduction's contract, so a
speed-up or a refactor may not move a single byte of them. The digests
below were taken from the reference implementation; a change that has
to alter them belongs in its own change that says which bytes moved.
"""

import contextlib
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hammerprint import cli
from hammerprint.challenge import default_challenge
from hammerprint.fingerprint import encode_fingerprint
from hammerprint.simdevice import new_sim_device, run_query

GOLDEN = {
    "reliability_device1.csv":
        "95e3cb480deaa14946bf21c0ffd777e4c70d79928f3beed8f2d2be23f74f32d5",
    "reliability_device2.csv":
        "3d4bec98eb2d3477599957081ae8058570b6f9f82b0c36cc4cca8df1ee5979d3",
    "tradeoff.csv":
        "9b0d6403cf145ecc4b40a0de9f3d874ffa89c7d729e3687607df4a5dd4daa278",
    "query.fp":
        "8cd1db6ac248545e4b60d273154e2107e9ae3bf3e14d8f295c92e88a1f203ad2",
    "device.prof":
        "276aca09db286fcdc2839f94e968ff587452d61115a41f639dca3d8e10f959a5",
    "mapping.txt":
        "a9892a9f47e9ce2001056f25f747127b6794955cbde349fa8d4f2457ef5afb1a",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of what each default-seed `eval <name>` prints in table mode:
# the summary table, its truncation line and the closing summary lines
GOLDEN_TABLES = {
    "reliability": "b55caa3617ab0c5bc34a1dd95bea46194ae135549e835ff2ae945d7481a826d8",
    "tradeoff": "1b91f14d8047b1faac762d30a2fac1644b242d1da961379727d1e2a8912f9bc7",
    "detection": "f224a9861e329111440474b053518db5b7fccaeaac5a6d8fd0c8b22af90c4792",
    "one-dimm": "823bbb168a67f864bff66eee8af8e136af7b906ffd7510d2599550910fc960b7",
    "uniqueness": "0644f38f5d5c1191f58a67b75477f19ec42d40c8a7dbf4d82cd2e5f34d39062c",
}


def table_stdout(capsys, names, out_dir) -> dict:
    """Run ``eval <name>`` for each name; return the sha256 of each one's stdout."""
    digests = {}
    for name in names:
        assert cli.main(["eval", name, "--out-dir", str(out_dir)]) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return digests


def test_default_seed_outputs_are_byte_identical(tmp_path, capsys):
    device, query = tmp_path / "device.prof", tmp_path / "query.fp"
    assert cli.main(["simulate", "new-device", "--out", str(device)]) == 0
    assert cli.main(["fingerprint", "--device", str(device), "--out", str(query)]) == 0
    assert cli.main(["reverse-map", "--device", str(device),
                     "--out", str(tmp_path / "mapping.txt")]) == 0
    capsys.readouterr()
    assert table_stdout(capsys, ("reliability", "tradeoff"), tmp_path) == {
        name: GOLDEN_TABLES[name] for name in ("reliability", "tradeoff")}
    assert {name: sha256(tmp_path / name) for name in GOLDEN} == GOLDEN


# run in a fresh interpreter, so the hash seed is the one the test sets;
# the last line printed is the golden dataset layout and transcript
GOLDEN_SEQUENCE = f"""
import json
import sys
from pathlib import Path
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_golden_outputs import golden_dataset_and_transcript
from hammerprint import cli
assert cli.main(["simulate", "new-device", "--out", "device.prof"]) == 0
assert cli.main(["fingerprint", "--device", "device.prof", "--out", "query.fp"]) == 0
assert cli.main(["eval", "reliability", "--out-dir", "."]) == 0
assert cli.main(["eval", "uniqueness", "--out-dir", "."]) == 0
assert cli.main(["eval", "tradeoff", "--out-dir", "."]) == 0
assert cli.main(["reverse-map", "--device", "device.prof", "--out", "mapping.txt"]) == 0
print(json.dumps(golden_dataset_and_transcript(Path("."))))
"""


def run_under_hash_seeds(tmp_path, script, stdin=None):
    """Run ``script`` in fresh interpreters under PYTHONHASHSEED 0 and 4242,
    each in its own directory, both at once; return [(stdout, directory)].

    String hashing and set order change with the hash seed; no output byte
    may follow them.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    children = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen([sys.executable, "-c", script], cwd=out, env=env,
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        children.append((child, out))
    runs = []
    for child, out in children:
        stdout, stderr = child.communicate(stdin, timeout=60)
        assert child.returncode == 0, stderr.decode()
        runs.append((stdout.decode(), out))
    return runs


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    names = ("device.prof", "query.fp", "reliability_device1.csv", "reliability_device2.csv",
             "uniqueness.csv", "tradeoff.csv", "mapping.txt")
    runs = [(stdout, {name: sha256(out / name) for name in names})
            for stdout, out in run_under_hash_seeds(tmp_path, GOLDEN_SEQUENCE)]
    assert runs[0] == runs[1]
    stdout, hashes = runs[0]
    assert hashes == {name: {**GOLDEN, **GOLDEN_REPORTS}[name] for name in names}
    layout, transcript = json.loads(stdout.splitlines()[-1])
    assert layout == GOLDEN_DATASET
    assert [tuple(step) for step in transcript] == GOLDEN_TRANSCRIPT


GOLDEN_REPORTS = {
    "detection.csv":
        "fd5388d93f3058add8bf9a3d85592b245d8ab675f3918d3092c1cae39f47d3b0",
    "detection_matrix.csv":
        "33ae30b28ac525ed4bf642cd980ea8f683b0cc3a74f8946ce861fcfceb2917ec",
    "one_dimm.csv":
        "0f3927bfe9301f2e38c72192c94d124cd0c6044854949109dd8a9ac44aacccbf",
    "one_dimm_matrix.csv":
        "fe014e6ba08811c796122d5fb835af0190dbf3c15262ae43f2edf985878188a6",
    "uniqueness.csv":
        "49aa0f586bbac8c67da4a49a6c4461611d30d557abfd948099b7818c5391aaf4",
}


def test_default_seed_experiment_reports_are_byte_identical(tmp_path, capsys):
    names = ("detection", "one-dimm", "uniqueness")
    assert table_stdout(capsys, names, tmp_path) == {name: GOLDEN_TABLES[name] for name in names}
    assert {name: sha256(tmp_path / name) for name in GOLDEN_REPORTS} == GOLDEN_REPORTS
    # delimited mode echoes exactly the bytes of the report file
    assert cli.main(["--format", "delimited", "eval", "tradeoff",
                     "--out-dir", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN["tradeoff.csv"]


# Dataset layout after three default-seed enrolls: every path relative to
# the dataset directory and the sha256 of its bytes.
GOLDEN_DATASET = {
    "dataset.meta": "a909b353ad1338cba8431da160a9cbcd62d7feb392a7d4b567eef886a6e4a672",
    "dev-1/1.fp": "8cd1db6ac248545e4b60d273154e2107e9ae3bf3e14d8f295c92e88a1f203ad2",
    "dev-1/2.fp": "14f55a0237ee39705cc9fea815befc0f6e2af4fad2b5f21dd119cf873c40b3d3",
    "dev-2/1.fp": "5b88fe8d311bcdbe67ed19a107bf47dbb65f0b5937a11520d2aec615501337e2",
}

# (command and its arguments, exit code, stdout) of each enroll and
# identify, in order: one matched identify (exit 0), one new (exit 3).
GOLDEN_TRANSCRIPT = [
    (["enroll", "a.fp"], 0, "enrolled dev-1 (k=1, 164 flips)\n"),
    (["enroll", "b.fp"], 0, "enrolled dev-2 (k=1, 196 flips)\n"),
    (["enroll", "a2.fp", "--id", "dev-1"], 0, "enrolled dev-1 (k=2, 176 flips)\n"),
    (["identify", "a3.fp"], 0, "matched dev-1 similarity=0.852071\n"),
    (["identify", "c.fp"], 3, "new dev-3\n"),
]


def golden_dataset_and_transcript(workdir: Path):
    """Make the five queries in ``workdir``, then run the enrolls and
    identifies of GOLDEN_TRANSCRIPT; return (dataset layout, transcript)."""
    dataset = workdir / "dataset"
    # three devices; device a is queried under three measurement seeds
    queries = {"a": ([], []), "a2": ([], ["--seed", "2"]), "a3": ([], ["--seed", "3"]),
               "b": (["--dimm-seed", "0xb1", "--host-seed", "0xb2"], []),
               "c": (["--dimm-seed", "0xc1", "--host-seed", "0xc2"], [])}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, (device_seeds, query_seed) in queries.items():
            prof = workdir / f"{name[0]}.prof"
            assert cli.main(["simulate", "new-device", "--out", str(prof), *device_seeds]) == 0
            assert cli.main([*query_seed, "fingerprint", "--device", str(prof),
                             "--out", str(workdir / f"{name}.fp")]) == 0
    transcript = []
    for argv, _, _ in GOLDEN_TRANSCRIPT:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["--dataset", str(dataset), argv[0], str(workdir / argv[1]),
                             *argv[2:]])
        transcript.append((argv, code, out.getvalue()))
    layout = {p.relative_to(dataset).as_posix(): sha256(p)
              for p in sorted(dataset.rglob("*")) if p.is_file()}
    return layout, transcript


def test_default_seed_dataset_and_decisions_are_byte_identical(tmp_path):
    assert golden_dataset_and_transcript(tmp_path) == (GOLDEN_DATASET, GOLDEN_TRANSCRIPT)


# a device pickled in one process answers a query in another with the
# same bytes; its kept rows and layout travel with it
QUERY_PICKLED_DEVICE = """
import pickle
import sys
from hammerprint.challenge import default_challenge
from hammerprint.fingerprint import encode_fingerprint
from hammerprint.simdevice import run_query
dev = pickle.loads(sys.stdin.buffer.read())
sys.stdout.write(encode_fingerprint(run_query(dev, default_challenge(), 2)))
"""


def test_pickled_warm_device_gives_the_same_fingerprint_in_a_child(tmp_path):
    dev = new_sim_device(0xd1, 0xd2)
    run_query(dev, default_challenge(), 1)  # warm: rows drawn and kept
    want = encode_fingerprint(run_query(dev, default_challenge(), 2))
    blob = pickle.dumps(dev)
    for stdout, _ in run_under_hash_seeds(tmp_path, QUERY_PICKLED_DEVICE, blob):
        assert stdout == want


# scripts/golden.py prints these same digests under each interpreter it is
# given; under this one it must give exactly the pinned values above
GOLDEN_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def test_golden_script_gives_every_pinned_digest():
    done = subprocess.run([sys.executable, str(GOLDEN_SCRIPT), "--json"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    (python, digests), = json.loads(done.stdout).items()
    assert python == sys.version.split()[0] + " -O" * sys.flags.optimize
    assert digests == {
        **{f"file {name}": digest for name, digest in {**GOLDEN, **GOLDEN_REPORTS}.items()},
        **{f"stdout eval {name}": digest for name, digest in GOLDEN_TABLES.items()},
        "stdout --format delimited eval tradeoff": GOLDEN["tradeoff.csv"],
        **{f"dataset {path}": digest for path, digest in GOLDEN_DATASET.items()},
        "transcript": hashlib.sha256(json.dumps(GOLDEN_TRANSCRIPT).encode()).hexdigest(),
    }
