"""Golden outputs: default-seed CLI files must keep their exact bytes.

Fingerprint files and report CSVs are the reproduction's contract, so a
speed-up or a refactor may not move a single byte of them. The digests
below were taken from the reference implementation; a change that has
to alter them belongs in its own change that says which bytes moved.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from hammerprint import cli

GOLDEN = {
    "reliability_device1.csv":
        "2500b6dcc93f2eb827b1477cad29d735cdf18ca194480f4327bfe0dd1598e332",
    "reliability_device2.csv":
        "f583283067df797660817af42a2d1c10c4c35af553232e0e9028053c59be4393",
    "tradeoff.csv":
        "b71fd48ca27089f1e053fe7f1930a885bb08e5d9a5b58cbde935ee3cbd6f9dee",
    "query.fp":
        "356f38b63ed6026fc11fbeeb7f8cfcf940186e4059528cd05546d2e734a39c1f",
    "device.prof":
        "276aca09db286fcdc2839f94e968ff587452d61115a41f639dca3d8e10f959a5",
    "mapping.txt":
        "a9892a9f47e9ce2001056f25f747127b6794955cbde349fa8d4f2457ef5afb1a",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_seed_outputs_are_byte_identical(tmp_path, capsys):
    device, query = tmp_path / "device.prof", tmp_path / "query.fp"
    assert cli.main(["simulate", "new-device", "--out", str(device)]) == 0
    assert cli.main(["fingerprint", "--device", str(device), "--out", str(query)]) == 0
    assert cli.main(["reverse-map", "--device", str(device),
                     "--out", str(tmp_path / "mapping.txt")]) == 0
    for name in ("reliability", "tradeoff"):
        assert cli.main(["eval", name, "--out-dir", str(tmp_path)]) == 0
    assert {name: sha256(tmp_path / name) for name in GOLDEN} == GOLDEN


# run in a fresh interpreter, so the hash seed is the one the test sets
GOLDEN_SEQUENCE = """
from hammerprint import cli
assert cli.main(["simulate", "new-device", "--out", "device.prof"]) == 0
assert cli.main(["fingerprint", "--device", "device.prof", "--out", "query.fp"]) == 0
assert cli.main(["eval", "reliability", "--out-dir", "."]) == 0
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # string hashing and set order change with PYTHONHASHSEED; no output
    # byte may follow them
    src = str(Path(cli.__file__).resolve().parents[1])
    names = ("device.prof", "query.fp", "reliability_device1.csv", "reliability_device2.csv")
    runs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", GOLDEN_SEQUENCE], cwd=out, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, {name: sha256(out / name) for name in names}))
    assert runs[0] == runs[1]
    assert runs[0][1] == {name: GOLDEN[name] for name in names}


GOLDEN_REPORTS = {
    "detection.csv":
        "63d68680d82862bc001fefd17c3c5595018024ac60442be0ec45267c355ce3eb",
    "detection_matrix.csv":
        "793f31667898d2539c5ca65984086538a8dbe0bb5265607fbd91a9378ad261e4",
    "one_dimm.csv":
        "442606fc78556fc19733544c6c4963cbf4b5060b142fe78a8af33986c688311a",
    "one_dimm_matrix.csv":
        "c143b6a550b4a8f20661ae750a867d74d7c1ca4d08b983f927168f0d2540d735",
    "uniqueness.csv":
        "49aa0f586bbac8c67da4a49a6c4461611d30d557abfd948099b7818c5391aaf4",
}


def test_default_seed_experiment_reports_are_byte_identical(tmp_path, capsys):
    for name in ("detection", "one-dimm", "uniqueness"):
        assert cli.main(["eval", name, "--out-dir", str(tmp_path)]) == 0
    assert {name: sha256(tmp_path / name) for name in GOLDEN_REPORTS} == GOLDEN_REPORTS
    # delimited mode echoes exactly the bytes of the report file
    capsys.readouterr()
    assert cli.main(["--format", "delimited", "eval", "tradeoff",
                     "--out-dir", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN["tradeoff.csv"]


# Dataset layout after three default-seed enrolls: every path relative to
# the dataset directory and the sha256 of its bytes.
GOLDEN_DATASET = {
    "dataset.meta": "a909b353ad1338cba8431da160a9cbcd62d7feb392a7d4b567eef886a6e4a672",
    "dev-1/1.fp": "356f38b63ed6026fc11fbeeb7f8cfcf940186e4059528cd05546d2e734a39c1f",
    "dev-1/2.fp": "75f4fc018cf8b0d1b33f98fbf988523552f096cf253905d216d3af7211f08b11",
    "dev-2/1.fp": "3beff80246f131a1e8159b366f57dcdbec585d981e9533915fe081e9e0e6f802",
}

# (command and its arguments, exit code, stdout) of each enroll and
# identify, in order: one matched identify (exit 0), one new (exit 3).
GOLDEN_TRANSCRIPT = [
    (["enroll", "a.fp"], 0, "enrolled dev-1 (k=1, 149 flips)\n"),
    (["enroll", "b.fp"], 0, "enrolled dev-2 (k=1, 206 flips)\n"),
    (["enroll", "a2.fp", "--id", "dev-1"], 0, "enrolled dev-1 (k=2, 141 flips)\n"),
    (["identify", "a3.fp"], 0, "matched dev-1 similarity=0.854167\n"),
    (["identify", "c.fp"], 3, "new dev-3\n"),
]


def test_default_seed_dataset_and_decisions_are_byte_identical(tmp_path, capsys):
    dataset = tmp_path / "dataset"
    # three devices; device a is queried under three measurement seeds
    queries = {"a": ([], []), "a2": ([], ["--seed", "2"]), "a3": ([], ["--seed", "3"]),
               "b": (["--dimm-seed", "0xb1", "--host-seed", "0xb2"], []),
               "c": (["--dimm-seed", "0xc1", "--host-seed", "0xc2"], [])}
    for name, (device_seeds, query_seed) in queries.items():
        prof = tmp_path / f"{name[0]}.prof"
        assert cli.main(["simulate", "new-device", "--out", str(prof), *device_seeds]) == 0
        assert cli.main([*query_seed, "fingerprint", "--device", str(prof),
                         "--out", str(tmp_path / f"{name}.fp")]) == 0
    capsys.readouterr()
    transcript = []
    for argv in (["enroll", "a.fp"], ["enroll", "b.fp"], ["enroll", "a2.fp", "--id", "dev-1"],
                 ["identify", "a3.fp"], ["identify", "c.fp"]):
        code = cli.main(["--dataset", str(dataset), argv[0], str(tmp_path / argv[1]),
                         *argv[2:]])
        transcript.append((argv, code, capsys.readouterr().out))
    layout = {p.relative_to(dataset).as_posix(): sha256(p)
              for p in sorted(dataset.rglob("*")) if p.is_file()}
    assert layout == GOLDEN_DATASET
    assert transcript == GOLDEN_TRANSCRIPT
