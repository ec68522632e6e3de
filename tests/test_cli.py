import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tree
from hammerprint import cli, gf2
from hammerprint.challenge import (
    DataPattern,
    DramChallenge,
    PatternKind,
    build_pattern,
    default_challenge,
    encode_challenge,
)
from hammerprint.fingerprint import decode_fingerprint, encode_fingerprint
from hammerprint.geometry import parse_mapping
from hammerprint.simdevice import (
    NoiseConfig,
    encode_device,
    new_sim_device,
    parse_device,
    run_query,
)


@pytest.fixture
def device_profile(tmp_path):
    path = tmp_path / "device.prof"
    assert cli.main(["simulate", "new-device", "--out", str(path)]) == 0
    return path


def write_fingerprint(tmp_path, device_profile, name, seed):
    out = tmp_path / name
    rc = cli.main(["--seed", str(seed), "fingerprint",
                   "--device", str(device_profile), "--out", str(out)])
    assert rc == 0
    return out


class TestSimulateNewDevice:
    def test_writes_parseable_profile(self, tmp_path, device_profile):
        dev = parse_device(device_profile.read_text())
        assert dev.geom.banks == 16

    def test_seed_pins_profile(self, tmp_path):
        a, b = tmp_path / "a.prof", tmp_path / "b.prof"
        assert cli.main(["--seed", "5", "simulate", "new-device", "--out", str(a)]) == 0
        assert cli.main(["--seed", "5", "simulate", "new-device", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_explicit_seeds(self, tmp_path):
        p = tmp_path / "c.prof"
        cli.main(["simulate", "new-device", "--out", str(p),
                  "--dimm-seed", "0x10", "--host-seed", "32"])
        dev = parse_device(p.read_text())
        assert dev.dimm_seed == 0x10 and dev.host_seed == 32

    @pytest.mark.parametrize("flag", ["--dimm-seed", "--host-seed"])
    def test_seed_that_is_not_an_integer_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "d.prof"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "new-device", "--out", str(out), flag, "xyz"])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument {flag}: not an integer: 'xyz'\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dimm-seed", "--host-seed"])
    def test_seed_of_5000_digits_is_usage_error_without_echo(self, tmp_path, capsys, flag):
        out = tmp_path / "d.prof"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "new-device", "--out", str(out), flag, "9" * 5000])
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument {flag}: a seed of 5000 characters is too long\n")
        assert len(err) < 300
        assert not out.exists()

    def test_seed_beyond_prf_encoding_is_usage_error(self, tmp_path, device_profile, capsys):
        big = tmp_path / "big.prof"
        too_big = ["simulate", "new-device", "--out", str(big), "--dimm-seed", "0x" + "f" * 40]
        assert cli.main(too_big) == cli.EXIT_USAGE
        assert not big.exists()
        big.write_text(encode_device(new_sim_device(2**160 - 1, 1)))
        for argv in (["fingerprint", "--device", str(big), "--out", str(tmp_path / "a.fp")],
                     ["--seed", str(10**45), "fingerprint", "--device", str(device_profile),
                      "--out", str(tmp_path / "b.fp")],
                     ["--seed", str(10**45), "eval", "tradeoff", "--out-dir", str(tmp_path)]):
            capsys.readouterr()
            assert cli.main(argv) == cli.EXIT_USAGE
            assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.prof", "device.prof"]
        edge = tmp_path / "edge.prof"
        assert cli.main(["simulate", "new-device", "--out", str(edge),
                         "--dimm-seed", hex(2**135 - 1)]) == 0
        write_fingerprint(tmp_path, edge, "edge.fp", 2**135 - 1)


class TestFingerprintCommand:
    def test_writes_canonical_file_with_flip_count(self, tmp_path, device_profile, capsys):
        out = write_fingerprint(tmp_path, device_profile, "q.fp", 7)
        text = out.read_text()
        assert text.splitlines()[0].startswith("challenge=")
        fp = decode_fingerprint(text)
        from hammerprint.fingerprint import encode_fingerprint
        assert encode_fingerprint(fp) == text  # file is already canonical
        assert 50 <= len(fp.locations) <= 2500
        assert f"{len(fp.locations)} bit flips" in capsys.readouterr().out

    def test_rerun_is_bit_identical(self, tmp_path, device_profile):
        a = write_fingerprint(tmp_path, device_profile, "a.fp", 7)
        b = write_fingerprint(tmp_path, device_profile, "b.fp", 7)
        assert a.read_text() == b.read_text()

    def test_trr_suppressed_pattern_warns_zero_flips(self, tmp_path, device_profile, capsys):
        ch = DramChallenge((0,), build_pattern(PatternKind.DOUBLE_SIDED, 2, 1),
                           DataPattern(), 2)
        ch_path = tmp_path / "double.ch"
        ch_path.write_text(encode_challenge(ch))
        rc = cli.main(["fingerprint", "--device", str(device_profile),
                       "--challenge", str(ch_path), "--out", str(tmp_path / "z.fp")])
        assert rc == cli.EXIT_ZERO_FLIPS
        assert "zero flips" in capsys.readouterr().err

    def test_zero_flips_names_trr_when_it_neutralizes_the_pattern(self, tmp_path,
                                                                  device_profile, capsys):
        ch = DramChallenge((0,), build_pattern(PatternKind.DOUBLE_SIDED, 2, 1),
                           DataPattern(), 2)
        ch_path = tmp_path / "double.ch"
        ch_path.write_text(encode_challenge(ch))
        out = tmp_path / "z.fp"
        rc = cli.main(["fingerprint", "--device", str(device_profile),
                       "--challenge", str(ch_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_ZERO_FLIPS
        assert captured.out == f"wrote {out}: 0 bit flips\n"
        assert captured.err == ("warning: query produced zero flips "
                                "(TRR neutralized the pattern)\n")

    def test_zero_flips_without_trr_says_no_cell_flipped(self, tmp_path, capsys):
        # the default 22-sided pattern is wider than the 16-row TRR sampler,
        # so it gets through; with p_flip = 0 no eligible active cell flips
        prof = tmp_path / "dud.prof"
        prof.write_text(encode_device(new_sim_device(
            1, 2, noise=NoiseConfig(p_flip_given_susceptible=0.0))))
        out = tmp_path / "z.fp"
        rc = cli.main(["fingerprint", "--device", str(prof), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_ZERO_FLIPS
        assert captured.out == f"wrote {out}: 0 bit flips\n"
        assert captured.err == ("warning: query produced zero flips "
                                "(no eligible active cell flipped)\n")

    def test_unreadable_profile_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.prof"
        bad.write_text("not a profile\n")
        rc = cli.main(["fingerprint", "--device", str(bad),
                       "--out", str(tmp_path / "x.fp")])
        assert rc == cli.EXIT_USAGE

    def test_non_finite_temporal_challenge_is_usage_error(self, tmp_path, device_profile,
                                                         capsys):
        ch = DramChallenge((0,), build_pattern(PatternKind.NON_UNIFORM, 1, 1),
                           DataPattern(), 2)
        ch_path = tmp_path / "nan.ch"
        ch_path.write_text(re.sub(r"(?m)^temporal=.*$", "temporal=nan,0.5,inf",
                                  encode_challenge(ch)))
        out = tmp_path / "x.fp"
        rc = cli.main(["fingerprint", "--device", str(device_profile),
                       "--challenge", str(ch_path), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_temporal_challenge_is_usage_error(self, tmp_path, device_profile,
                                                        capsys):
        ch = DramChallenge((0,), build_pattern(PatternKind.NON_UNIFORM, 1, 1),
                           DataPattern(), 2)
        for name, triple in (("freq", "-1.0,0.5,1.0"), ("amp", "1.0,0.5,-2.5")):
            ch_path = tmp_path / f"{name}.ch"
            ch_path.write_text(re.sub(r"(?m)^temporal=.*$", f"temporal={triple}",
                                      encode_challenge(ch)))
            out = tmp_path / f"{name}.fp"
            rc = cli.main(["fingerprint", "--device", str(device_profile),
                           "--challenge", str(ch_path), "--out", str(out)])
            assert rc == cli.EXIT_USAGE
            assert "nonnegative" in capsys.readouterr().err
            assert not out.exists()

    def test_repeated_profile_key_is_usage_error(self, tmp_path, device_profile, capsys):
        twice = tmp_path / "twice.prof"
        twice.write_text(device_profile.read_text() + "banks=16\n")
        out = tmp_path / "x.fp"
        rc = cli.main(["fingerprint", "--device", str(twice), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--device", "--challenge"])
    def test_unknown_profile_key_is_usage_error(self, tmp_path, device_profile, option,
                                               capsys):
        ch_path = tmp_path / "default.ch"
        ch_path.write_text(encode_challenge(default_challenge()))
        bad = {"--device": device_profile, "--challenge": ch_path}[option]
        bad.write_text(bad.read_text() + "owner=me\n")
        out = tmp_path / "x.fp"
        rc = cli.main(["fingerprint", "--device", str(device_profile),
                       "--challenge", str(ch_path), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert "'owner=me'" in capsys.readouterr().err
        assert not out.exists()

    def test_multiline_timestamp_is_usage_error_and_writes_nothing(self, tmp_path,
                                                                   device_profile, capsys):
        out = tmp_path / "a.fp"
        rc = cli.main(["fingerprint", "--device", str(device_profile), "--out", str(out),
                       "--timestamp", "2024\nb9:r9:c9:i1"])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()
        assert "bit flips" not in capsys.readouterr().out

    def test_disagreeing_derived_challenge_line_is_usage_error(self, tmp_path, device_profile):
        text = encode_challenge(default_challenge())
        ch_path = tmp_path / "off9.ch"
        ch_path.write_text(text.replace("first_aggressor_offset=1\n",
                                        "first_aggressor_offset=9\n"))
        assert ch_path.read_text() != text
        out = tmp_path / "x.fp"
        rc = cli.main(["fingerprint", "--device", str(device_profile),
                       "--challenge", str(ch_path), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_challenge_geometry_mismatch_is_distinct_exit(self, tmp_path, device_profile):
        # well-formed challenge whose rows exceed the device geometry
        ch = DramChallenge((0,), build_pattern(PatternKind.N_SIDED, 3000, 1),
                           DataPattern(), 2)
        ch_path = tmp_path / "tall.ch"
        ch_path.write_text(encode_challenge(ch))
        rc = cli.main(["fingerprint", "--device", str(device_profile),
                       "--challenge", str(ch_path), "--out", str(tmp_path / "x.fp")])
        assert rc == cli.EXIT_CHALLENGE_MISMATCH

    @pytest.mark.parametrize("banks, rows, message", [
        ((0,), 3000, "pattern rows exceed rows_per_bank"),
        ((99,), 3, "bank_range outside geometry banks"),
    ])
    def test_challenge_that_does_not_fit_exits_4_and_writes_nothing(
            self, tmp_path, device_profile, capsys, banks, rows, message):
        ch = DramChallenge(banks, build_pattern(PatternKind.N_SIDED, rows, 1), DataPattern(), 2)
        ch_path = tmp_path / "unfit.ch"
        ch_path.write_text(encode_challenge(ch))
        out = tmp_path / "x.fp"
        capsys.readouterr()
        rc = cli.main(["fingerprint", "--device", str(device_profile),
                       "--challenge", str(ch_path), "--out", str(out)])
        assert rc == cli.EXIT_CHALLENGE_MISMATCH
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestEnrollIdentify:
    def test_enroll_then_identify_same_fingerprint(self, tmp_path, device_profile, capsys):
        ds = str(tmp_path / "ds")
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 11)
        assert cli.main(["--dataset", ds, "enroll", str(fp_path)]) == 0
        rc = cli.main(["--dataset", ds, "identify", str(fp_path)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "matched dev-1 similarity=1" in out

    def test_first_enroll_leaves_the_files_already_there(self, tmp_path, device_profile):
        # a directory without dataset.meta holds no file a save wrote
        ds = tmp_path / "runs"
        (ds / "other").mkdir(parents=True)
        captures = [write_fingerprint(ds / "other", device_profile, f"{k}.fp", 30 + k)
                    for k in (1, 2)]
        before = [p.read_bytes() for p in captures]
        assert cli.main(["--dataset", str(ds), "enroll", str(captures[0])]) == 0
        assert [p.read_bytes() for p in captures] == before
        assert sorted(p.name for p in (ds / "other").iterdir()) == ["1.fp", "2.fp"]

    def test_second_detection_matches_with_high_similarity(self, tmp_path, device_profile, capsys):
        ds = str(tmp_path / "ds")
        for i, seed in enumerate((21, 22, 23)):
            fp_path = write_fingerprint(tmp_path, device_profile, f"e{i}.fp", seed)
            assert cli.main(["--dataset", ds, "enroll", str(fp_path), "--id", "dev-1"]) == 0
        fresh = write_fingerprint(tmp_path, device_profile, "fresh.fp", 99)
        capsys.readouterr()
        rc = cli.main(["--dataset", ds, "identify", str(fresh)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        sim = float(out.split("similarity=")[1])
        assert sim >= 0.8

    def test_fresh_device_is_new_with_exit_3(self, tmp_path, device_profile, capsys):
        ds = str(tmp_path / "ds")
        enrolled = write_fingerprint(tmp_path, device_profile, "e.fp", 31)
        assert cli.main(["--dataset", ds, "enroll", str(enrolled)]) == 0
        other_prof = tmp_path / "other.prof"
        cli.main(["--seed", "777", "simulate", "new-device", "--out", str(other_prof)])
        other_fp = write_fingerprint(tmp_path, other_prof, "o.fp", 32)
        rc = cli.main(["--dataset", ds, "identify", str(other_fp)])
        assert rc == cli.EXIT_NEW_DEVICE
        assert "new dev-2" in capsys.readouterr().out

    def test_challenge_mismatch_exit_4(self, tmp_path, device_profile):
        ds = str(tmp_path / "ds")
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 41)
        assert cli.main(["--dataset", ds, "enroll", str(fp_path)]) == 0
        ch = DramChallenge((0, 1), build_pattern(PatternKind.N_SIDED, 20, 1),
                           DataPattern(), 2)
        ch_path = tmp_path / "other.ch"
        ch_path.write_text(encode_challenge(ch))
        other = tmp_path / "other.fp"
        assert cli.main(["fingerprint", "--device", str(device_profile),
                         "--challenge", str(ch_path), "--out", str(other)]) == 0
        assert cli.main(["--dataset", ds, "identify", str(other)]) == cli.EXIT_CHALLENGE_MISMATCH
        assert cli.main(["--dataset", ds, "enroll", str(other),
                         "--id", "dev-1"]) == cli.EXIT_CHALLENGE_MISMATCH

    def test_id_that_is_a_path_is_usage_error(self, tmp_path, device_profile, capsys):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 12)
        # on a fresh dataset "dataset.meta" would take the meta file's name,
        # and an empty id must be refused, not replaced by a minted one
        for bad in ("dataset.meta", ""):
            assert cli.main(["--dataset", str(ds), "enroll", str(fp_path),
                             "--id", bad]) == cli.EXIT_USAGE
            assert not ds.exists() or not any(ds.iterdir())
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        for bad in ("../escaped", "a/b", "..", ".", "dataset.meta", ""):
            rc = cli.main(["--dataset", str(ds), "enroll", str(fp_path), "--id", bad])
            assert rc == cli.EXIT_USAGE
        assert not (tmp_path / "escaped").exists()
        assert sorted(p.name for p in ds.iterdir()) == ["dataset.meta", "dev-1"]
        capsys.readouterr()
        assert cli.main(["--dataset", str(ds), "identify", str(fp_path)]) == cli.EXIT_OK
        assert "matched dev-1" in capsys.readouterr().out

    def test_stray_fp_name_in_dataset_is_usage_error(self, tmp_path, device_profile, capsys):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 14)
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        (ds / "dev-1" / "notes.fp").write_text(fp_path.read_text())
        capsys.readouterr()
        assert cli.main(["--dataset", str(ds), "identify", str(fp_path)]) == cli.EXIT_USAGE
        assert "notes.fp" in capsys.readouterr().err
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path),
                         "--id", "dev-1"]) == cli.EXIT_USAGE
        assert sorted(p.name for p in (ds / "dev-1").iterdir()) == ["1.fp", "notes.fp"]

    def test_empty_fingerprint_enroll_is_usage_error(self, tmp_path, device_profile, capsys):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 13)
        empty = tmp_path / "empty.fp"
        empty.write_text(fp_path.read_text().splitlines()[0] + "\n")
        assert cli.main(["--dataset", str(ds), "enroll", str(empty)]) == cli.EXIT_USAGE
        assert not ds.exists()
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        assert cli.main(["--dataset", str(ds), "enroll", str(empty),
                         "--id", "dev-1"]) == cli.EXIT_USAGE
        assert cli.main(["--dataset", str(ds), "identify", str(empty)]) == cli.EXIT_USAGE
        capsys.readouterr()
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        assert "enrolled dev-2 (k=1" in capsys.readouterr().out

    def test_empty_challenge_header_enroll_is_usage_error(self, tmp_path, device_profile,
                                                          capsys):
        # the fingerprint decodes, but a dataset.meta with `challenge=` would
        # make every later identify and enroll on the dataset exit 2
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 13)
        blank = tmp_path / "blank.fp"
        blank.write_text(re.sub(r"(?m)^challenge=.*$", "challenge=", fp_path.read_text()))
        assert decode_fingerprint(blank.read_text()).challenge_hash == ""
        assert cli.main(["--dataset", str(ds), "enroll", str(blank)]) == cli.EXIT_USAGE
        assert "challenge hash" in capsys.readouterr().err
        assert not ds.exists()  # so no dataset.meta either

    def test_threshold_outside_unit_interval_is_usage_error(self, tmp_path, device_profile,
                                                             capsys):
        ds = str(tmp_path / "ds")
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 14)
        assert cli.main(["--dataset", ds, "enroll", str(fp_path)]) == 0
        for threshold in ("0", "1.5"):
            capsys.readouterr()
            rc = cli.main(["--dataset", ds, "identify", str(fp_path), "--threshold", threshold])
            assert rc == cli.EXIT_USAGE
            # the message names the option the caller passed
            assert capsys.readouterr().err == "error: threshold must lie in (0, 1)\n"

    def test_repeated_challenge_header_is_usage_error(self, tmp_path, device_profile, capsys):
        ds = str(tmp_path / "ds")
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 14)
        assert cli.main(["--dataset", ds, "enroll", str(fp_path)]) == 0
        twice = tmp_path / "twice.fp"
        twice.write_text("challenge=other\n" + fp_path.read_text())
        capsys.readouterr()
        for command in ("identify", "enroll"):
            assert cli.main(["--dataset", ds, command, str(twice)]) == cli.EXIT_USAGE
            assert capsys.readouterr().err.startswith("error: ")

    def test_repeated_meta_challenge_is_usage_error(self, tmp_path, device_profile, capsys):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 15)
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        meta = ds / "dataset.meta"
        meta.write_text(meta.read_text() + "challenge=other\n")
        capsys.readouterr()
        for command in ("identify", "enroll"):
            assert cli.main(["--dataset", str(ds), command, str(fp_path)]) == cli.EXIT_USAGE
            assert "repeated 'challenge'" in capsys.readouterr().err

    def test_unknown_meta_key_is_usage_error(self, tmp_path, device_profile, capsys):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 16)
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        meta = ds / "dataset.meta"
        meta.write_text(meta.read_text() + "owner=me\n")
        capsys.readouterr()
        for command in ("identify", "enroll"):
            assert cli.main(["--dataset", str(ds), command, str(fp_path)]) == cli.EXIT_USAGE
            assert "'owner=me'" in capsys.readouterr().err

    def test_stored_fingerprint_of_another_challenge_exits_4(self, tmp_path, device_profile,
                                                             capsys):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 17)
        for _ in range(2):
            assert cli.main(["--dataset", str(ds), "enroll", str(fp_path), "--id", "dev-1"]) == 0
        stored = ds / "dev-1" / "2.fp"
        header = fp_path.read_text().splitlines()[0]
        stored.write_text(stored.read_text().replace(header, "challenge=" + "0" * 64))
        capsys.readouterr()
        for command in ("identify", "enroll"):
            rc = cli.main(["--dataset", str(ds), command, str(fp_path)])
            assert rc == cli.EXIT_CHALLENGE_MISMATCH
            assert capsys.readouterr().err == (
                "error: fingerprint under 'dev-1' does not match the dataset challenge\n")

    def test_enroll_into_an_aliased_device_directory_is_usage_error(self, tmp_path,
                                                                    device_profile, capsys):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 19)
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        os.symlink(ds / "dev-1", ds / "dev-2")
        before = {p: p.read_bytes() for p in (ds / "dataset.meta", ds / "dev-1" / "1.fp")}
        capsys.readouterr()
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path),
                         "--id", "dev-2"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == ("error: 'dev-2' is a symlink; "
                                           "a device needs a directory of its own\n")
        assert {p: p.read_bytes() for p in before} == before
        assert sorted(os.listdir(ds / "dev-1")) == ["1.fp"]

    @pytest.mark.parametrize("link", ["dev-2", "captures"])
    def test_symlinked_device_directory_is_usage_error(self, tmp_path, device_profile, capsys,
                                                       link):
        # "dev-2" links to dev-1; "captures" to the user's own commented 1.fp
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 19)
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        captures = tmp_path / "captures"
        captures.mkdir()
        (captures / "1.fp").write_text("# my capture\n" + fp_path.read_text())
        os.symlink(ds / "dev-1" if link == "dev-2" else captures, ds / link)
        files = [ds / "dataset.meta", ds / "dev-1" / "1.fp", captures / "1.fp"]
        before = {p: p.read_bytes() for p in files}
        capsys.readouterr()
        for command in ("identify", "enroll"):
            assert cli.main(["--dataset", str(ds), command, str(fp_path)]) == cli.EXIT_USAGE
            assert capsys.readouterr().err == (f"error: {link!r} is a symlink; "
                                               "a device needs a directory of its own\n")
        assert {p: p.read_bytes() for p in files} == before
        assert sorted(os.listdir(ds)) == sorted(["dataset.meta", "dev-1", link])
        assert os.listdir(ds / "dev-1") == os.listdir(captures) == ["1.fp"]

    @pytest.mark.parametrize("kind", ["file", "dangling"])
    def test_new_ids_pass_a_file_or_dangling_symlink_named_dev_n(self, tmp_path, device_profile,
                                                               capsys, kind):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 19)
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        if kind == "file":
            (ds / "dev-2").write_text("mine\n")
        else:
            os.symlink(tmp_path / "gone", ds / "dev-2")
        other_prof = tmp_path / "other.prof"
        cli.main(["--seed", "777", "simulate", "new-device", "--out", str(other_prof)])
        other_fp = write_fingerprint(tmp_path, other_prof, "o.fp", 32)
        before = tree(ds)
        capsys.readouterr()
        assert cli.main(["--dataset", str(ds), "identify", str(other_fp)]) == cli.EXIT_NEW_DEVICE
        assert capsys.readouterr().out == "new dev-3\n"
        assert cli.main(["--dataset", str(ds), "enroll", str(other_fp),
                         "--id", "dev-2"]) == cli.EXIT_USAGE
        assert tree(ds) == before
        assert cli.main(["--dataset", str(ds), "enroll", str(other_fp)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("enrolled dev-3 (k=1, ")
        after = tree(ds)
        assert after.pop(str(ds / "dataset.meta")).endswith(b"\nid_counter=4\n")
        assert after.pop(str(ds / "dev-3")) is None and after.pop(str(ds / "dev-3" / "1.fp"))
        del before[str(ds / "dataset.meta")]
        assert after == before

    def test_first_enroll_mints_past_a_file_named_dev_1(self, tmp_path, device_profile, capsys):
        ds = tmp_path / "runs"
        ds.mkdir()
        (ds / "dev-1").write_text("mine\n")
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 19)
        capsys.readouterr()
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("enrolled dev-2 (k=1, ")
        assert (ds / "dev-1").read_text() == "mine\n"
        assert sorted(os.listdir(ds)) == ["dataset.meta", "dev-1", "dev-2"]

    def test_meta_without_challenge_is_usage_error(self, tmp_path, device_profile, capsys):
        ds = tmp_path / "ds"
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 18)
        assert cli.main(["--dataset", str(ds), "enroll", str(fp_path)]) == 0
        meta = ds / "dataset.meta"
        meta.write_text(re.sub(r"(?m)^challenge=.*$", "challenge=", meta.read_text()))
        capsys.readouterr()
        for command in ("identify", "enroll"):
            assert cli.main(["--dataset", str(ds), command, str(fp_path)]) == cli.EXIT_USAGE
            assert capsys.readouterr().err == "error: dataset.meta lacks a challenge hash\n"

    def test_dataset_env_var(self, tmp_path, device_profile, monkeypatch):
        ds = tmp_path / "envds"
        monkeypatch.setenv(cli.DATASET_ENV, str(ds))
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 51)
        assert cli.main(["enroll", str(fp_path)]) == 0
        assert (ds / "dataset.meta").exists()

    def test_missing_dataset_argument(self, tmp_path, device_profile, monkeypatch):
        monkeypatch.delenv(cli.DATASET_ENV, raising=False)
        fp_path = write_fingerprint(tmp_path, device_profile, "q.fp", 52)
        assert cli.main(["identify", str(fp_path)]) == cli.EXIT_USAGE


class TestEval:
    def test_unknown_experiment_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "nonsense", "--out-dir", str(tmp_path)])
        assert exc.value.code == cli.EXIT_USAGE
        assert "invalid choice: 'nonsense'" in capsys.readouterr().err

    def test_tradeoff_writes_report(self, tmp_path, capsys):
        rc = cli.main(["eval", "tradeoff", "--out-dir", str(tmp_path)])
        assert rc == 0
        csv = (tmp_path / "tradeoff.csv").read_text()
        assert csv.splitlines()[0].startswith("measurements,work_units")
        assert len(csv.splitlines()) == 11

    def test_one_dimm_writes_matrix(self, tmp_path, capsys):
        rc = cli.main(["eval", "one-dimm", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "one_dimm_matrix.csv").exists()
        assert "per-host mean flips" in capsys.readouterr().out

    def test_delimited_format_echoes_rows(self, tmp_path, capsys):
        rc = cli.main(["--format", "delimited", "eval", "tradeoff",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("measurements,")


class TestReverseMap:
    def test_noiseless_profile_recovers_exactly(self, tmp_path, capsys):
        dev = new_sim_device(61, 62, noise=NoiseConfig(timing_sigma=0.0))
        prof = tmp_path / "dev.prof"
        prof.write_text(encode_device(dev))
        out = tmp_path / "map.txt"
        rc = cli.main(["reverse-map", "--device", str(prof), "--out", str(out)])
        assert rc == 0
        assert "row space matches" in capsys.readouterr().out
        recovered = parse_mapping(out.read_text())
        assert gf2.row_space_equal(list(recovered.bank_functions),
                                   list(dev.mapping.bank_functions))

    def test_noisy_profile_still_recovers(self, tmp_path, capsys):
        dev = new_sim_device(63, 64)  # default sigma = gap / 10
        prof = tmp_path / "dev.prof"
        prof.write_text(encode_device(dev))
        out = tmp_path / "map.txt"
        assert cli.main(["reverse-map", "--device", str(prof), "--out", str(out)]) == 0
        assert "row space matches" in capsys.readouterr().out

    def test_zero_gap_profile_exit_5(self, tmp_path):
        dev = new_sim_device(65, 66,
                             noise=NoiseConfig(timing_conflict_gap=0.0, timing_sigma=3.0))
        prof = tmp_path / "dev.prof"
        prof.write_text(encode_device(dev))
        rc = cli.main(["reverse-map", "--device", str(prof),
                       "--out", str(tmp_path / "map.txt")])
        assert rc == cli.EXIT_RECOVERY_FAILURE

    @pytest.mark.parametrize("field", ["timing_conflict_gap", "timing_sigma",
                                       "susceptibility_density"])
    def test_non_finite_noise_is_usage_error(self, tmp_path, device_profile, capsys, field):
        for bad in ("nan", "inf"):
            prof = tmp_path / f"{bad}.prof"
            prof.write_text(re.sub(rf"(?m)^{field}=.*$", f"{field}={bad}",
                                   device_profile.read_text()))
            for command in (["reverse-map", "--out", str(tmp_path / "map.txt")],
                            ["fingerprint", "--out", str(tmp_path / "q.fp")]):
                capsys.readouterr()
                assert cli.main([*command, "--device", str(prof)]) == cli.EXIT_USAGE
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["device.prof", "inf.prof",
                                                              "nan.prof"]

    def test_probe_address_too_wide_for_the_prf_is_named(self, tmp_path, device_profile,
                                                         capsys):
        wide = tmp_path / "wide.prof"
        wide.write_text(device_profile.read_text().replace("address_bits=36",
                                                           "address_bits=100000"))
        out = tmp_path / "map.txt"
        rc = cli.main(["reverse-map", "--device", str(wide), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: probe address of 100000 bits (address_bits=100000) does not fit "
            "the PRF's 17-byte signed encoding\n")
        assert not out.exists()
        write_fingerprint(tmp_path, wide, "q.fp", 19)

    def test_impossible_probe_plan_is_usage_error(self, tmp_path, device_profile, capsys):
        out = tmp_path / "map.txt"
        for plan in (["--bases", "-3"], ["--bases", "3"], ["--partners", "1"]):
            capsys.readouterr()
            rc = cli.main(["reverse-map", "--device", str(device_profile),
                           "--out", str(out), *plan])
            assert rc == cli.EXIT_USAGE
            assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestUsage:
    def test_argparse_usage_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, defaults", [("identify", ["0.4"]),
                                                   ("reverse-map", ["16", "512"])])
    def test_help_shows_the_library_defaults(self, capsys, command, defaults):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        shown = " ".join(capsys.readouterr().out.split())  # whatever the wrap width
        assert all(f"(default: {d})" in shown for d in defaults)


def test_exit_codes_match_readme_and_docstring():
    codes = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    assert sorted(int(c) for c in re.findall(r"`(\d+)`", listed)) == codes
    documented = cli.__doc__.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    assert sorted(int(c) for c in re.findall(r"\b(\d+) [a-z]", documented)) == codes


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # enroll and identify a fingerprint whose header is not ASCII, once
    # under the C locale with UTF-8 mode off and once in UTF-8 mode; a text
    # open that leaves its encoding to the locale raises EncodingWarning,
    # made an error here, and cannot decode the header under the C locale
    fp_path = tmp_path / "q.fp"
    fp = run_query(new_sim_device(1, 2), default_challenge(), 3, device_hint="café")
    fp_path.write_bytes(encode_fingerprint(fp).encode("utf-8"))
    assert b"hint=caf\xc3\xa9\n" in fp_path.read_bytes()
    src = str(Path(cli.__file__).resolve().parents[1])
    datasets = []
    for mode in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
                 {"PYTHONUTF8": "1"}):
        ds = tmp_path / f"ds-{len(datasets)}"
        env = dict(os.environ, PYTHONWARNDEFAULTENCODING="1", **mode,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for command in ("enroll", "identify"):
            child = subprocess.run(
                [sys.executable, "-W", "error::EncodingWarning", "-m", "hammerprint.cli",
                 "--dataset", str(ds), command, str(fp_path)],
                env=env, capture_output=True, timeout=60)
            assert child.returncode == cli.EXIT_OK, child.stderr.decode()
        datasets.append({str(path.relative_to(ds)): path.read_bytes()
                         for path in ds.rglob("*") if path.is_file()})
    assert datasets[0] == datasets[1]
    assert datasets[0]["dev-1/1.fp"] == fp_path.read_bytes()
