"""Command-line front end.

Exit codes: 0 success or matched, 1 query produced zero flips, 2 usage or
unreadable profile, 3 new device, 4 challenge mismatch, 5 mapping
recovery failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import challenge as challenge_mod
from . import evalharness, geometry, gf2, registry, simdevice
from .fingerprint import ChallengeMismatchError, decode_fingerprint, encode_fingerprint

EXIT_OK = 0
EXIT_ZERO_FLIPS = 1
EXIT_USAGE = 2
EXIT_NEW_DEVICE = 3
EXIT_CHALLENGE_MISMATCH = 4
EXIT_RECOVERY_FAILURE = 5

DEFAULT_SEED = 20230901
DATASET_ENV = "HAMMERPRINT_DATASET"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChallengeMismatchError, challenge_mod.ChallengeFitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHALLENGE_MISMATCH
    except geometry.RecoveryError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RECOVERY_FAILURE
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hammerprint",
        description="Rowhammer bit-flip fingerprinting against simulated DRAM",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed; fixed default keeps reruns bit-identical")
    parser.add_argument("--dataset", default=None,
                        help=f"dataset directory (or ${DATASET_ENV})")
    parser.add_argument("--format", choices=("table", "delimited"), default="table",
                        help="report output format")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fingerprint", help="run one fingerprint query on a device")
    p.add_argument("--device", required=True, help="device profile path")
    p.add_argument("--challenge", default=None,
                   help="challenge profile path (default: built-in reference challenge)")
    p.add_argument("--out", required=True, help="fingerprint file to write")
    p.add_argument("--timestamp", default=None, help="optional time= header value")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("identify", help="match a fingerprint against the dataset")
    p.add_argument("fingerprint", help="fingerprint file")
    p.add_argument("--threshold", type=float, default=registry.DEFAULT_THRESHOLD,
                   help="stage-1 Jaccard a candidate must exceed (default: %(default)s)")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("enroll", help="add a fingerprint to the dataset")
    p.add_argument("fingerprint", help="fingerprint file")
    p.add_argument("--id", default=None, help="device id (default: mint a new one)")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("eval", help="run an experiment and write its report")
    p.add_argument("name", choices=_EXPERIMENTS, help="experiment to run")
    p.add_argument("--out-dir", default=".", help="directory for report files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reverse-map", help="recover bank functions from timing")
    p.add_argument("--device", required=True, help="device profile path")
    p.add_argument("--out", required=True, help="mapping file to write")
    p.add_argument("--bases", type=int, default=geometry.ProbeConfig.num_bases,
                   help="random base addresses to time (default: %(default)s)")
    p.add_argument("--partners", type=int, default=geometry.ProbeConfig.partners_per_base,
                   help="random partners timed per base (default: %(default)s)")
    p.set_defaults(func=cmd_reverse_map)

    p = sub.add_parser("simulate", help="simulator utilities")
    sim_sub = p.add_subparsers(dest="sim_command", required=True)
    q = sim_sub.add_parser("new-device", help="write a fresh device profile")
    q.add_argument("--out", required=True, help="device profile path to write")
    q.add_argument("--dimm-seed", type=_seed_literal, default=None)
    q.add_argument("--host-seed", type=_seed_literal, default=None)
    q.set_defaults(func=cmd_new_device)

    return parser


def _seed_literal(text: str) -> int:
    # an integer literal in any base Python reads: 7, 0x1F, 0o17, 0b101
    try:
        return int(text, 0)
    except ValueError:
        # past 640 characters, the lowest digit limit CPython allows, int()
        # may refuse a well-formed literal too; either way it is no seed
        if len(text) > 640:
            raise argparse.ArgumentTypeError(
                f"a seed of {len(text)} characters is too long") from None
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dataset_dir(args) -> str:
    path = args.dataset or os.environ.get(DATASET_ENV)
    if not path:
        raise registry.DatasetError(
            f"no dataset directory given (use --dataset or ${DATASET_ENV})"
        )
    return path


def cmd_fingerprint(args) -> int:
    dev = simdevice.parse_device(_read_text(args.device))
    ch = (challenge_mod.default_challenge() if args.challenge is None
          else challenge_mod.parse_challenge(_read_text(args.challenge)))
    fp = simdevice.run_query(dev, ch, args.seed, query_time=args.timestamp)
    _write_text(args.out, encode_fingerprint(fp))  # encoded first: a refused header writes nothing
    print(f"wrote {args.out}: {len(fp.locations)} bit flips")
    if not fp.locations:
        cause = ("TRR neutralized the pattern" if simdevice.trr_neutralizes(dev, ch)
                 else "no eligible active cell flipped")
        print(f"warning: query produced zero flips ({cause})", file=sys.stderr)
        return EXIT_ZERO_FLIPS
    return EXIT_OK


def cmd_identify(args) -> int:
    dataset = registry.load_dataset(_dataset_dir(args))
    fp = decode_fingerprint(_read_text(args.fingerprint))
    result = registry.identify(dataset, fp, args.threshold)
    if result.decision == "matched":
        print(f"matched {result.device_id} similarity={result.similarity:.6g}")
        return EXIT_OK
    print(f"new {result.device_id}")
    return EXIT_NEW_DEVICE


def cmd_enroll(args) -> int:
    directory = _dataset_dir(args)
    fp = decode_fingerprint(_read_text(args.fingerprint))
    dataset = registry.open_dataset(directory, fp.challenge_hash)
    dev_id = args.id if args.id is not None else registry.generate_new_id(dataset)
    registry.enroll(dataset, dev_id, fp)
    registry.save_dataset(dataset, directory)
    print(f"enrolled {dev_id} "
          f"(k={len(dataset.records[dev_id].fingerprints)}, {len(fp.locations)} flips)")
    return EXIT_OK


def cmd_eval(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    _EXPERIMENTS[args.name](args)
    return EXIT_OK


def _write_report(args, report: evalharness.ExperimentReport, filename: str) -> None:
    text = report.to_delimited()
    _write_text(os.path.join(args.out_dir, filename), text)
    if args.format == "table":
        # full data lives in the file; keep the terminal echo short
        print(report.to_table(max_rows=None if args.verbose else 20))
    else:
        print(text, end="")


def _eval_reliability(args) -> None:
    ch = challenge_mod.default_challenge()
    rng_seeds = (args.seed, args.seed + 1)
    for i, s in enumerate(rng_seeds, start=1):
        dev = simdevice.new_sim_device(s, s + 1000)
        report = evalharness.reliability_experiment(dev, ch, seed=args.seed + i)
        _write_report(args, report, f"reliability_device{i}.csv")
        print(f"device {i}: mean J_intra = {report.mean:.4f}")


def _eval_uniqueness(args) -> None:
    ch = challenge_mod.default_challenge()
    dev_a = simdevice.new_sim_device(args.seed, args.seed + 1000)
    dev_b = simdevice.new_sim_device(args.seed + 1, args.seed + 1001)
    report = evalharness.uniqueness_experiment(dev_a, dev_b, ch,
                                               n_queries=10, seed=args.seed)
    _write_report(args, report, "uniqueness.csv")
    print(f"mean J_inter = {report.mean:.6g}, max = {report.max:.6g}")


def _eval_detection(args) -> None:
    result = evalharness.detection_experiment(seed=args.seed)
    _write_report(args, result.to_report(), "detection.csv")
    _write_text(os.path.join(args.out_dir, "detection_matrix.csv"), result.matrix_delimited())
    print(f"correct decisions: {result.correct}/{len(result.rows)}")


def _eval_one_dimm(args) -> None:
    hosts = [args.seed + 7001, args.seed + 7002, args.seed + 7003]
    result = evalharness.one_dimm_multi_host(args.seed, hosts, seed=args.seed)
    _write_report(args, result.to_report(), "one_dimm.csv")
    _write_text(os.path.join(args.out_dir, "one_dimm_matrix.csv"), result.matrix_delimited())
    flips = ", ".join(f"{v:.1f}" for v in result.mean_flips)
    print(f"per-host mean flips: {flips}")


def _eval_tradeoff(args) -> None:
    ch = challenge_mod.default_challenge()
    dev = simdevice.new_sim_device(args.seed, args.seed + 1000)
    report = evalharness.measurements_tradeoff(dev, ch, seed=args.seed)
    _write_report(args, report, "tradeoff.csv")


_EXPERIMENTS = {
    "reliability": _eval_reliability,
    "uniqueness": _eval_uniqueness,
    "detection": _eval_detection,
    "one-dimm": _eval_one_dimm,
    "tradeoff": _eval_tradeoff,
}


def cmd_reverse_map(args) -> int:
    dev = simdevice.parse_device(_read_text(args.device))
    oracle = simdevice.make_timing_oracle(dev, args.seed)
    cfg = geometry.ProbeConfig(num_bases=args.bases,
                               partners_per_base=args.partners,
                               seed=args.seed)
    funcs = geometry.recover_bank_functions(oracle, dev.geom, cfg)
    recovered = geometry.AddressMapping(tuple(funcs),
                                        dev.mapping.row_bits,
                                        dev.mapping.column_bits)
    _write_text(args.out, geometry.encode_mapping(recovered))
    match = gf2.row_space_equal(list(funcs), list(dev.mapping.bank_functions))
    print(f"wrote {args.out}: {len(funcs)} bank functions, "
          f"row space {'matches' if match else 'DIFFERS from'} the device profile")
    return EXIT_OK


def cmd_new_device(args) -> int:
    rng = random.Random(args.seed)
    dimm = args.dimm_seed if args.dimm_seed is not None else rng.getrandbits(64)
    host = args.host_seed if args.host_seed is not None else rng.getrandbits(64)
    dev = simdevice.new_sim_device(dimm, host)
    dev.device_key  # refuses a seed the PRF cannot encode before --out is opened
    _write_text(args.out, simdevice.encode_device(dev))
    print(f"wrote {args.out}: dimm_seed={dimm:#x} host_seed={host:#x}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
