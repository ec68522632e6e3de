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


# sha256 of what each default-seed `eval <name>` prints in table mode:
# the summary table, its truncation line and the closing summary lines
GOLDEN_TABLES = {
    "reliability": "2e820d0bc3241f965f817250a3ec3ce262bb24b0cdbb43b0f52ac0d72a94ec20",
    "tradeoff": "df6c366bdd49f43775bf94be292c45090b2af01ab2257ceb7e6ab80a3aed4d31",
    "detection": "1750ccb943ca3dec33bcebae1eb5fb1869d0f665d27ce0fbd9b6fde5b881141e",
    "one-dimm": "0e7695d8b1d3522ccdf31e18a31c08cd2336dd2917bda8398e314862ab41534d",
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
