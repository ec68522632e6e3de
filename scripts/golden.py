#!/usr/bin/env python3
"""Digests of every output the golden tests pin, per interpreter, standard library only.

    python3 scripts/golden.py
    python3 scripts/golden.py --python python3.10 --python python3.12 --python "python3.11 -O"
    python3 scripts/golden.py --json

``tests/test_golden_outputs.py`` pins the bytes of the default-seed CLI
outputs, but the suite runs on one interpreter. This script runs the same
CLI sessions under each ``--python`` (a command, split like a shell line,
so flags such as ``-O`` may follow it; default: the interpreter running
the script), each in a fresh process and its own temporary directory, and
prints one sha256 per pinned output:

* ``file NAME``: each file that ``simulate new-device``, ``fingerprint``,
  ``reverse-map`` and the five ``eval`` commands write at the default seed;
* ``stdout eval NAME``: what each ``eval NAME`` prints in table mode, and
  ``stdout --format delimited eval tradeoff``;
* ``dataset PATH``: each file of the dataset after three enrolls of three
  simulated devices, and ``transcript``: the sha256 of the JSON list of
  ``[argv, exit code, stdout]`` of those enrolls and two identifies.

The table has one row per output and one column per interpreter (the first
12 hex digits); a row whose interpreters disagree is marked ``*``. It exits
1 when any row disagrees or an interpreter fails, and 0 otherwise.
``--json`` prints ``{interpreter: {output: sha256}}`` instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FILES = ("device.prof", "query.fp", "mapping.txt", "reliability_device1.csv",
         "reliability_device2.csv", "tradeoff.csv", "uniqueness.csv", "detection.csv",
         "detection_matrix.csv", "one_dimm.csv", "one_dimm_matrix.csv")
EVALS = ("reliability", "tradeoff", "detection", "one-dimm", "uniqueness")
# the three-device session: (query name, simulate arguments, fingerprint arguments)
QUERIES = (("a", [], []), ("a2", [], ["--seed", "2"]), ("a3", [], ["--seed", "3"]),
           ("b", ["--dimm-seed", "0xb1", "--host-seed", "0xb2"], []),
           ("c", ["--dimm-seed", "0xc1", "--host-seed", "0xc2"], []))
SESSION = (["enroll", "a.fp"], ["enroll", "b.fp"], ["enroll", "a2.fp", "--id", "dev-1"],
           ["identify", "a3.fp"], ["identify", "c.fp"])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call."""
    from hammerprint import cli

    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def succeed(argv: list[str]) -> str:
    code, stdout = run_cli(argv)
    if code != 0:
        raise SystemExit(f"{shlex.join(argv)} exited {code}")
    return stdout


def digests() -> dict[str, str]:
    """Run every pinned session in the current directory; return its digests."""
    out = {}
    succeed(["simulate", "new-device", "--out", "device.prof"])
    succeed(["fingerprint", "--device", "device.prof", "--out", "query.fp"])
    succeed(["reverse-map", "--device", "device.prof", "--out", "mapping.txt"])
    for name in EVALS:
        out[f"stdout eval {name}"] = sha256(succeed(["eval", name, "--out-dir", "."]).encode())
    out["stdout --format delimited eval tradeoff"] = sha256(succeed(
        ["--format", "delimited", "eval", "tradeoff", "--out-dir", "."]).encode())
    out.update((f"file {name}", sha256(Path(name).read_bytes())) for name in FILES)

    session = Path("session")
    session.mkdir()
    for name, device_args, query_args in QUERIES:
        prof = str(session / f"{name[0]}.prof")
        succeed(["simulate", "new-device", "--out", prof, *device_args])
        succeed([*query_args, "fingerprint", "--device", prof,
                 "--out", str(session / f"{name}.fp")])
    dataset = session / "dataset"
    transcript = [(argv, *run_cli(["--dataset", str(dataset), argv[0],
                                   str(session / argv[1]), *argv[2:]]))
                  for argv in SESSION]
    out.update((f"dataset {p.relative_to(dataset).as_posix()}", sha256(p.read_bytes()))
               for p in sorted(dataset.rglob("*")) if p.is_file())
    out["transcript"] = sha256(json.dumps(transcript).encode())
    return out


def child() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    name = sys.version.split()[0] + (" -O" * sys.flags.optimize)
    print(json.dumps({name: digests()}))


def measure(python: str) -> dict[str, dict[str, str]]:
    """Run this script's sessions under ``python`` in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as workdir:
        done = subprocess.run([*shlex.split(python), str(Path(__file__).resolve()), "--child"],
                              cwd=workdir, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{python} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def table(runs: dict[str, dict[str, str]]) -> tuple[str, bool]:
    """The digest table and whether every row agrees across interpreters."""
    names = list(runs)
    rows = sorted(set().union(*map(set, runs.values())))
    width = max(map(len, rows))
    lines = ["  ".join(["output".ljust(width), *(n.ljust(12) for n in names)])]
    agree = True
    for row in rows:
        cells = [runs[n].get(row, "-") for n in names]
        same = len(set(cells)) == 1
        agree &= same
        lines.append("  ".join([row.ljust(width), *(c[:12].ljust(12) for c in cells)])
                     + ("" if same else "  *"))
    lines.append(f"{len(names)} interpreter(s), {len(rows)} outputs: "
                 + ("all agree" if agree else "DISAGREE (rows marked *)"))
    return "\n".join(lines), agree


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--python", action="append",
                    help="interpreter command, repeatable (default: this interpreter)")
    ap.add_argument("--json", action="store_true", help="print the digests as JSON")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child()
        return 0
    runs = {}
    for python in args.python or [shlex.quote(sys.executable)]:
        runs.update(measure(python))
    if args.json:
        print(json.dumps(runs, indent=1, sort_keys=True))
        return 0
    text, agree = table(runs)
    print(text)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
