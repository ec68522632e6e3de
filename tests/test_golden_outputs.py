"""Golden outputs: default-seed CLI files must keep their exact bytes.

Fingerprint files and report CSVs are the reproduction's contract, so a
speed-up or a refactor may not move a single byte of them. The digests
below were taken from the reference implementation; a change that has
to alter them belongs in its own change that says which bytes moved.
"""

import hashlib

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
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_seed_outputs_are_byte_identical(tmp_path, capsys):
    device, query = tmp_path / "device.prof", tmp_path / "query.fp"
    assert cli.main(["simulate", "new-device", "--out", str(device)]) == 0
    assert cli.main(["fingerprint", "--device", str(device), "--out", str(query)]) == 0
    for name in ("reliability", "tradeoff"):
        assert cli.main(["eval", name, "--out-dir", str(tmp_path)]) == 0
    assert {name: sha256(tmp_path / name) for name in GOLDEN} == GOLDEN
