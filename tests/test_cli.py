import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beltrami_lab.cli import (
    ConfigError,
    dump_field,
    main,
    parse_config,
    read_field,
    write_csv,
)
from beltrami_lab.numerics import ComplexField, GridSpec
from beltrami_lab.radial import Example2Profile
from beltrami_lab.solver import SolveConfig


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestParseConfig:
    def test_solve_defaults(self):
        cfg = parse_config(["solve"])
        assert cfg.command == "solve"
        assert cfg.mu == "const:0.3"
        assert cfg.grid_n == 512
        assert cfg.half_width == 2.0
        assert cfg.out_dir == "out"
        assert cfg.dump_fields is True
        # the solver defaults live in SolveConfig alone
        for cmd in ("solve", "truncate"):
            cfg = parse_config([cmd])
            assert cfg.fix_tol == SolveConfig().fix_tol
            assert cfg.max_iter == SolveConfig().max_iter

    def test_all_errors_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(
                ["solve", "--grid", "4", "--half-width", "1.0", "--tol", "-1"]
            )
        msg = str(exc.value)
        assert msg.startswith("invalid configuration:")
        assert "--grid" in msg
        assert "--half-width" in msg
        assert "--tol" in msg

    def test_overlarge_constant_dilatation_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["solve", "--mu", "const:1.2"])

    def test_unknown_dilatation_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(["solve", "--mu", "slab"])
        assert "unknown dilatation" in str(exc.value)

    def test_truncate_schedule_must_increase(self):
        with pytest.raises(ConfigError):
            parse_config(["truncate", "--k", "8,4"])
        with pytest.raises(ConfigError):
            parse_config(["truncate", "--k", "0.5,2"])
        with pytest.raises(ConfigError):
            parse_config(["truncate", "--k", "a,b"])

    def test_truncate_order_range(self):
        with pytest.raises(ConfigError):
            parse_config(["truncate", "--p", "2.5"])
        with pytest.raises(ConfigError):
            parse_config(["truncate", "--p", "1.0"])
        cfg = parse_config(["truncate", "--p", "2.0"])
        assert cfg.order_p == 2.0

    def test_truncate_bound_forms(self):
        assert parse_config(["truncate"]).bound == "auto"
        assert parse_config(["truncate", "--bound", "none"]).bound == "none"
        assert parse_config(["truncate", "--bound", "17.5"]).bound == "17.5"
        with pytest.raises(ConfigError):
            parse_config(["truncate", "--bound", "tight"])

    def test_holder_validation(self):
        cfg = parse_config(["holder", "--scales", "4:9", "--pairs", "10"])
        assert cfg.scale_range == (4, 9)
        with pytest.raises(ConfigError):
            parse_config(["holder", "--scales", "9:4"])
        with pytest.raises(ConfigError):
            parse_config(["holder", "--alpha", "2.5"])
        with pytest.raises(ConfigError):
            parse_config(["holder", "--k", "0.5"])
        with pytest.raises(ConfigError):
            parse_config(["holder", "--map", "example2", "--m", "0.5"])
        with pytest.raises(ConfigError):
            parse_config(["holder", "--weight", "mystery"])
        with pytest.raises(ConfigError):
            parse_config(["holder", "--compact-radius", "1.5"])

    def test_radial_validation(self):
        with pytest.raises(ConfigError):
            parse_config(["radial", "--n", "1"])
        with pytest.raises(ConfigError):
            parse_config(["radial", "--profile", "numeric", "--weight", "mystery"])
        with pytest.raises(ConfigError):
            parse_config(["radial", "--pairs", "0"])

    @pytest.mark.parametrize("profile", ["identity", "example2", "example4-limit"])
    def test_radial_weight_refused_where_the_profile_fixes_it(self, profile):
        # the closed-form profiles check their own weight, so a --weight
        # there would be ignored: it is refused instead
        with pytest.raises(ConfigError, match="--weight"):
            parse_config(["radial", "--profile", profile, "--weight", "example1"])
        assert parse_config(["radial", "--profile", "numeric"]).objects["weight"].q(0.5) == 4.0

    def test_dilatation_scan_radii(self):
        cfg = parse_config(["dilatation", "--scan-radii", "0.5,0.25"])
        assert cfg.scan_radii == (0.5, 0.25)
        with pytest.raises(ConfigError):
            parse_config(["dilatation", "--scan-radii", "0.5,-0.1"])
        with pytest.raises(ConfigError):
            parse_config(["dilatation", "--scan-radii", "a,b"])
        for radii in ("nan,0.5", "inf,0.5", "0.5,nan"):
            with pytest.raises(ConfigError):
                parse_config(["dilatation", "--scan-radii", radii])

    @pytest.mark.parametrize(
        "argv",
        [
            ["truncate", "--bound", "nan"],
            ["radial", "--profile", "example2", "--m", "nan"],
            ["holder", "--map", "example2", "--m", "nan"],
            ["solve", "--mu", "const:nan"],
            ["dilatation", "--mu", "const:nan"],
            ["solve", "--half-width", "inf"],
        ],
    )
    def test_nan_flags_are_config_errors(self, capsys, argv):
        # a NaN threshold would turn its check into a FAIL with a null
        # threshold; a NaN m would pass the m >= 1 rule unnoticed
        assert main(argv) == 2
        assert argv[-2] in capsys.readouterr().err

    def test_weight_overflowing_at_a_profile_node_exits_2(self, capsys):
        # q(t) = t^-103 overflows at the profile's 1e-3 node while the
        # profile is built from --weight, which is then the flag to blame
        assert main(["radial", "--profile", "numeric", "--n", "103", "--pairs", "1"]) == 2
        err = capsys.readouterr().err
        assert "--weight" in err
        assert "Traceback" not in err

    def test_image_weight_checks_alpha(self):
        with pytest.raises(ConfigError, match="--weight"):
            parse_config(["radial", "--profile", "numeric", "--weight", "example3-image",
                          "--alpha", "2.5"])

    def test_tol_below_round_off_floor_exits_2(self, capsys):
        assert main(["solve", "--tol", "1e-14"]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_seed_and_out_propagate(self):
        cfg = parse_config(["holder", "--seed", "7", "--out", "elsewhere"])
        assert cfg.seed == 7
        assert cfg.out_dir == "elsewhere"

    def test_missing_command_exits_with_usage(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestConfigFile:
    def test_file_values_yield_to_explicit_flags(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"mu": "const:0.1", "grid": 64}))
        cfg = parse_config(
            ["solve", "--config", str(cfile), "--grid", "32"]
        )
        assert cfg.mu == "const:0.1"
        assert cfg.grid_n == 32

    def test_file_booleans_and_lists(self, tmp_path):
        cfile = tmp_path / "run.json"
        cfile.write_text(json.dumps({"no_dump": True}))
        cfg = parse_config(["solve", "--config", str(cfile)])
        assert cfg.dump_fields is False

        tfile = tmp_path / "trunc.json"
        tfile.write_text(json.dumps({"k": [2, 4, 8]}))
        cfg = parse_config(["truncate", "--config", str(tfile)])
        assert cfg.k_schedule == (2.0, 4.0, 8.0)

    def test_bad_config_files(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(["solve", "--config", str(tmp_path / "missing.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            parse_config(["solve", "--config", str(bad)])
        with pytest.raises(ConfigError):
            parse_config(["solve", "--config"])


class TestFieldIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        g = GridSpec.square(16, 2.0)
        rng = np.random.default_rng(3)
        data = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        path = str(tmp_path / "field.cfld")
        dump_field(ComplexField(g, data), path)
        back = read_field(path)
        assert back.grid.nx == 16 and back.grid.ny == 16
        assert back.grid.x_min == g.x_min and back.grid.dx == g.dx
        assert np.array_equal(back.data, data)

    def test_layout_and_header(self, tmp_path):
        g = GridSpec.square(8, 2.0)
        path = str(tmp_path / "zero.cfld")
        dump_field(ComplexField(g, np.zeros((8, 8))), path)
        with open(path, "rb") as fh:
            assert fh.readline() == b"CFLD1\n"
            parts = fh.readline().split()
            payload = fh.read()
        assert parts[0] == b"8" and parts[1] == b"8"
        assert float(parts[2]) == -2.0 and float(parts[3]) == -2.0
        assert float(parts[4]) == 4.0 / 7.0
        assert len(payload) == 8 * 8 * 2 * 8
        assert payload == b"\x00" * len(payload)

    def test_malformed_files_rejected(self, tmp_path):
        bad_magic = tmp_path / "a.cfld"
        bad_magic.write_bytes(b"NOPE\n1 1 0 0 1 1\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a CFLD"):
            read_field(str(bad_magic))

        bad_header = tmp_path / "b.cfld"
        bad_header.write_bytes(b"CFLD1\n8 8 0 0\n")
        with pytest.raises(ValueError, match="header"):
            read_field(str(bad_header))

        short = tmp_path / "c.cfld"
        short.write_bytes(b"CFLD1\n8 8 -2 -2 0.5 0.5\n" + b"\x00" * 64)
        with pytest.raises(ValueError, match="payload size"):
            read_field(str(short))

        payload = b"\x00" * (8 * 8 * 2 * 8)
        for header in (b"nan -2 0.5 0.5", b"-inf -2 0.5 0.5", b"-2 -2 inf 0.5"):
            not_finite = tmp_path / "d.cfld"
            not_finite.write_bytes(b"CFLD1\n8 8 " + header + b"\n" + payload)
            with pytest.raises(ValueError, match="finite"):
                read_field(str(not_finite))

    def test_missing_file_reports_path(self, tmp_path):
        target = str(tmp_path / "absent.cfld")
        with pytest.raises(OSError, match="absent.cfld"):
            read_field(target)


class TestWriteCsv:
    def test_value_formatting(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(
            path,
            ("a", "b", "c", "d"),
            [(0.1, True, 1.5 - 2.0j, 3), (2.0, False, 1j, "txt")],
        )
        lines = open(path, newline="").read().split("\n")
        assert lines[0] == "a,b,c,d"
        assert lines[1] == "0.10000000000000001,true,1.5-2j,3"
        assert lines[2] == "2,false,0+1j,txt"
        assert lines[3] == ""


class TestSolveCommand:
    def test_zero_dilatation_is_identity(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["solve", "--mu", "const:0.0", "--grid", "64", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS residual_below_tol" in printed
        assert "summary:" in printed
        doc = _read_json(os.path.join(out, "solve.summary.json"))
        assert doc["checks"]["residual_below_tol"]["passed"] is True
        assert doc["results"]["iterations"] == 1
        f = read_field(os.path.join(out, "f.cfld"))
        zz = f.grid.zz()
        assert np.max(np.abs(f.data - zz)) <= 1e-13
        mu = read_field(os.path.join(out, "mu.cfld"))
        assert np.max(np.abs(mu.data)) == 0.0

    def test_no_dump_skips_field_files(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["solve", "--mu", "const:0.0", "--grid", "64", "--out", out, "--no-dump"]
        )
        assert code == 0
        assert not os.path.exists(os.path.join(out, "f.cfld"))
        assert not os.path.exists(os.path.join(out, "mu.cfld"))

    def test_runtime_failure_reports_and_exits_2(self, tmp_path, capsys):
        # a dilatation of modulus one cannot be iterated; the error is
        # recorded in the summary and the exit status is 2
        g = GridSpec.square(64, 2.0)
        zz = g.zz()
        data = np.where(np.abs(zz) < 0.8, 1.0 + 0.0j, 0.0j)
        src = str(tmp_path / "mu_in.cfld")
        dump_field(ComplexField(g, data), src)
        out = str(tmp_path / "run")
        code = main(["solve", "--mu", f"grid:{src}", "--grid", "64", "--out", out])
        assert code == 2
        assert "ContractionError" in capsys.readouterr().err
        doc = _read_json(os.path.join(out, "solve.summary.json"))
        assert doc["error"].startswith("ContractionError")

    def test_grid_mu_smaller_than_the_disk_exits_2(self, tmp_path, capsys):
        g = GridSpec(nx=16, ny=16, x_min=-0.5, y_min=-0.5, dx=1.0 / 15, dy=1.0 / 15)
        src = str(tmp_path / "mu_in.cfld")
        dump_field(ComplexField(g, np.full((16, 16), 0.5 + 0.0j)), src)
        code = main(["solve", "--mu", f"grid:{src}", "--grid", "64",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "--mu/--alpha" in capsys.readouterr().err

    def test_truncated_grid_mu_solves(self, tmp_path):
        g = GridSpec.square(64, 2.0)
        zz = g.zz()
        data = np.where(np.abs(zz) < 0.8, 0.9 + 0.0j, 0.0j)
        src = str(tmp_path / "mu_in.cfld")
        dump_field(ComplexField(g, data), src)
        out = str(tmp_path / "run")
        code = main(
            ["solve", "--mu", f"grid:{src}", "--k", "4", "--grid", "64",
             "--out", out, "--no-dump"]
        )
        assert code == 0
        doc = _read_json(os.path.join(out, "solve.summary.json"))
        assert doc["results"]["sup_mu_sampled"] <= 3.0 / 5.0 + 1e-12

    def test_metrics_block_beside_results(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["solve", "--mu", "const:0.6", "--grid", "64", "--out", out,
                     "--no-dump"]) == 0
        doc = _read_json(os.path.join(out, "solve.summary.json"))
        res, met = doc["results"], doc["metrics"]
        assert len(met["updates"]) == res["iterations"]
        assert met["updates"][-1] == res["final_update_l2"]
        assert 0.0 < met["observed_ratio"] < met["sup_mu"] == res["sup_mu_sampled"]
        assert met["torus_side"] >= 1 and met["threads"] >= 1
        assert not set(met) & set(res)

    def test_metrics_record_the_precision_hand_over(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["solve", "--mu", "example4", "--k", "16", "--grid", "64",
                     "--out", out, "--no-dump"]) == 0
        doc = _read_json(os.path.join(out, "solve.summary.json"))
        single = doc["metrics"]["complex64_iterations"]
        assert 0 < single < doc["results"]["iterations"]
        out = str(tmp_path / "levels")
        assert main(["truncate", "--mu", "example4", "--k", "4,16", "--grid", "64",
                     "--out", out]) == 0
        doc = _read_json(os.path.join(out, "truncate.summary.json"))
        levels = doc["metrics"]["levels"]
        assert levels[1]["complex64_iterations"] == single
        assert all(0 < m["complex64_iterations"] < len(m["updates"]) for m in levels)
        assert "complex64_iterations" not in json.dumps(doc["results"])

    def test_fft_pairs_live_in_metrics(self, tmp_path):
        # one pair per update, in its precision, and the Cauchy step's
        def pairs(met):
            single = met["complex64_iterations"]
            return {"complex64": single, "complex128": len(met["updates"]) - single + 1}

        out = str(tmp_path / "run")
        assert main(["solve", "--mu", "example4", "--k", "16", "--grid", "64",
                     "--out", out, "--no-dump"]) == 0
        doc = _read_json(os.path.join(out, "solve.summary.json"))
        assert doc["metrics"]["fft_pairs"] == pairs(doc["metrics"])
        assert doc["metrics"]["fft_pairs"]["complex64"] > 0
        assert "fft_pairs" not in json.dumps(doc["results"])
        out = str(tmp_path / "levels")
        assert main(["truncate", "--mu", "example4", "--k", "4,16", "--grid", "64",
                     "--out", out]) == 0
        doc = _read_json(os.path.join(out, "truncate.summary.json"))
        for level in doc["metrics"]["levels"]:
            assert level["fft_pairs"] == pairs(level)
        assert "fft_pairs" not in json.dumps(doc["results"])

    def test_phase_seconds_live_in_metrics(self, tmp_path):
        # the summary's keys are sorted
        phases = ["cauchy", "fixed_point", "residual", "sample_mu"]
        out = str(tmp_path / "run")
        assert main(["solve", "--mu", "example4", "--k", "4", "--grid", "64",
                     "--out", out, "--no-dump"]) == 0
        doc = _read_json(os.path.join(out, "solve.summary.json"))
        assert list(doc["metrics"]["phase_seconds"]) == phases
        assert "phase_seconds" not in json.dumps(doc["results"])
        out = str(tmp_path / "levels")
        assert main(["truncate", "--mu", "example4", "--k", "4,16", "--grid", "64",
                     "--out", out]) == 0
        doc = _read_json(os.path.join(out, "truncate.summary.json"))
        for level in doc["metrics"]["levels"]:
            assert list(level["phase_seconds"]) == phases
            assert all(t > 0.0 for t in level["phase_seconds"].values())
        assert "phase_seconds" not in json.dumps(doc["results"])

    def test_results_keys(self, tmp_path):
        # the Cauchy step's padded-torus mean is not a property of f
        out = str(tmp_path / "run")
        assert main(["solve", "--mu", "const:0.3", "--grid", "64", "--out", out,
                     "--no-dump"]) == 0
        doc = _read_json(os.path.join(out, "solve.summary.json"))
        assert set(doc["results"]) == {
            "iterations", "final_update_l2", "residual_linf", "residual_l2",
            "worst_point", "sup_mu_sampled",
        }

    def test_timing_lives_in_metrics_so_results_rerun_equal(self, tmp_path):
        docs = []
        for run in ("a", "b"):
            out = str(tmp_path / run)
            assert main(["solve", "--mu", "const:0.3", "--grid", "64", "--out", out,
                         "--no-dump"]) == 0
            docs.append(_read_json(os.path.join(out, "solve.summary.json")))
        for doc in docs:
            assert doc["metrics"]["solve_seconds"] > 0.0
            assert "solve_seconds" not in doc["results"]
        assert docs[0]["results"] == docs[1]["results"]

    def test_out_dir_collision_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        code = main(
            ["solve", "--mu", "const:0.0", "--grid", "64", "--out", str(blocker)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTruncateCommand:
    def test_small_schedule(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["truncate", "--mu", "const:0.5", "--k", "2,3", "--grid", "64",
             "--out", out]
        )
        assert code == 0
        doc = _read_json(os.path.join(out, "truncate.summary.json"))
        assert doc["results"]["k_schedule"] == [2.0, 3.0]
        check = doc["checks"]["kip_below_bound"]
        assert check["passed"] is True
        assert check["threshold"] == pytest.approx(5.0 * math.pi, rel=1e-12)
        lines = open(os.path.join(out, "truncate.csv")).read().strip().split("\n")
        assert lines[0].startswith("k,iterations,residual_linf,kip_integral")
        assert len(lines) == 3
        levels = doc["metrics"]["levels"]
        assert [len(m["updates"]) for m in levels] == [
            int(line.split(",")[1]) for line in lines[1:]]

    def test_bound_none_skips_check(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["truncate", "--mu", "const:0.3", "--k", "2,4", "--grid", "64",
             "--bound", "none", "--out", out]
        )
        assert code == 0
        doc = _read_json(os.path.join(out, "truncate.summary.json"))
        assert doc["checks"] == {}
        assert doc["results"]["bound_M"] is None


    def test_order_two_runs_without_auto_bound(self, tmp_path):
        # pi + 2 pi/(2 - p) has no finite value at p = 2: 'auto' means no check
        out = str(tmp_path / "run")
        code = main(
            ["truncate", "--mu", "const:0.3", "--k", "2,4", "--grid", "64",
             "--p", "2", "--out", out]
        )
        assert code == 0
        doc = _read_json(os.path.join(out, "truncate.summary.json"))
        assert doc["checks"] == {}
        assert doc["results"]["bound_M"] is None


class TestHolderCommand:
    ARGS = ["holder", "--map", "identity", "--pairs", "50", "--scales", "3:8"]

    def test_identity_map_bounded(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(self.ARGS + ["--out", out])
        assert code == 0
        doc = _read_json(os.path.join(out, "holder.summary.json"))
        assert doc["results"]["bounded"] is True
        assert len(doc["results"]["per_scale_max_product"]) == 6

    def test_runs_are_byte_identical(self, tmp_path):
        out1 = str(tmp_path / "one")
        out2 = str(tmp_path / "two")
        assert main(self.ARGS + ["--out", out1]) == 0
        assert main(self.ARGS + ["--out", out2]) == 0
        csv1 = open(os.path.join(out1, "holder.csv"), "rb").read()
        csv2 = open(os.path.join(out2, "holder.csv"), "rb").read()
        assert csv1 == csv2

    def test_example2_map(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["holder", "--map", "example2", "--m", "4", "--pairs", "40",
             "--scales", "3:8", "--out", out]
        )
        assert code == 0

    def test_example3_weight_mass_near_the_alpha_limit(self, tmp_path):
        # the image weight's shell terms shrink by 2^-0.5 per shell
        out = str(tmp_path / "run")
        code = main(["holder", "--map", "example3", "--alpha", "1.5", "--pairs", "50",
                     "--scales", "3:8", "--out", out])
        assert code == 0
        doc = _read_json(os.path.join(out, "holder.summary.json"))
        assert doc["results"]["q_l1"] == pytest.approx(2.0 * math.pi / 1.5 * 2.5, rel=1e-12)


class TestRadialCommand:
    def test_example2_profile_run(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["radial", "--profile", "example2", "--m", "4", "--pairs", "5",
             "--out", out]
        )
        assert code == 0
        doc = _read_json(os.path.join(out, "radial.summary.json"))
        assert doc["results"]["rho_at_half"] == pytest.approx(
            Example2Profile(2, 4).value(0.5), rel=1e-12
        )
        assert doc["checks"]["modulus_inequality"]["passed"] is True
        profile_lines = open(os.path.join(out, "profile.csv")).read().strip().split("\n")
        assert len(profile_lines) == 101
        poletsky_lines = open(os.path.join(out, "poletsky.csv")).read().strip().split("\n")
        assert len(poletsky_lines) == 6
        assert all(line.endswith("true") for line in poletsky_lines[1:])

    @pytest.mark.parametrize(
        "args",
        [
            ["--profile", "example4-limit"],
            ["--profile", "numeric", "--weight", "power"],
            ["--profile", "identity"],
        ],
    )
    def test_profiles_with_range_floor_run(self, tmp_path, args):
        # profiles that compress the origin only take image radii above
        # rho(0+); the radius draws must respect that floor
        out = str(tmp_path / "run")
        code = main(["radial", *args, "--pairs", "4", "--out", out])
        assert code == 0
        doc = _read_json(os.path.join(out, "radial.summary.json"))
        assert doc["checks"]["modulus_inequality"]["passed"] is True

    def test_example2_at_m_inf_is_the_limit_stretch(self, tmp_path):
        outs = [str(tmp_path / name) for name in ("inf", "limit")]
        assert main(["radial", "--profile", "example2", "--m", "inf", "--pairs", "4",
                     "--out", outs[0]]) == 0
        assert main(["radial", "--profile", "example4-limit", "--pairs", "4",
                     "--out", outs[1]]) == 0
        for name in ("profile.csv", "poletsky.csv"):
            texts = [open(os.path.join(out, name)).read() for out in outs]
            assert texts[0] == texts[1]
        assert main(["holder", "--map", "example2", "--m", "inf", "--pairs", "40",
                     "--scales", "3:8", "--out", str(tmp_path / "holder")]) == 0

    @pytest.mark.parametrize("alpha", ["0.01", "0.001"])
    def test_flat_numeric_profile_draws_resolvable_radii(self, tmp_path, alpha):
        # rho = (1 + r^alpha)/2 is nearly flat: rho(0.05) + 0.02 > 1, and
        # the profile resolves values only down to about 0.906 (alpha 0.01)
        # or 0.990 (alpha 0.001), so the radii come from that range
        out = str(tmp_path / "run")
        code = main(["radial", "--profile", "numeric", "--weight", "example3-image",
                     "--alpha", alpha, "--pairs", "6", "--out", out])
        assert code in (0, 1)
        rows = open(os.path.join(out, "poletsky.csv")).read().strip().split("\n")[1:]
        assert len(rows) == 6
        a = float(alpha)
        floor = (1.0 + (1e-3 * 0.25**10) ** a) / 2.0
        for row in rows:
            r1, r2 = (float(v) for v in row.split(",")[:2])
            assert floor * (1.0 - 1e-9) <= r1 < r2 <= 1.0


class TestDilatationCommand:
    def test_example3_truncated_report(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["dilatation", "--mu", "example3", "--k", "10", "--out", out])
        assert code == 0
        doc = _read_json(os.path.join(out, "dilatation.summary.json"))
        res = doc["results"]
        assert res["kind"] == "example3"
        assert res["k_cap"] == 10.0
        assert res["ess_sup_mu"] <= 9.0 / 11.0 + 1e-9
        assert "l1_value" in res

    def test_constant_with_scan(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(
            ["dilatation", "--mu", "const:0.4", "--weight", "unit",
             "--scan-radii", "0.5,0.25,0.125", "--out", out]
        )
        assert code == 0
        scan_lines = open(os.path.join(out, "scan.csv")).read().strip().split("\n")
        assert scan_lines[0] == "radius,spherical_mean,finite"
        assert len(scan_lines) == 4

    def test_scan_radius_past_the_float_range(self, tmp_path):
        # the power weight's mean overflows a float at 1e-200
        out = str(tmp_path / "run")
        assert main(["dilatation", "--mu", "example4", "--weight", "power",
                     "--scan-radii", "0.5,1e-200", "--out", out]) == 0
        scan_lines = open(os.path.join(out, "scan.csv")).read().strip().split("\n")
        assert scan_lines[1] == "9.9999999999999998e-201,inf,false"


class TestReportCommand:
    def test_merges_checks_from_prior_runs(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["solve", "--mu", "const:0.0", "--grid", "64", "--out", out,
                     "--no-dump"]) == 0
        assert main(["holder", "--map", "identity", "--pairs", "30",
                     "--scales", "3:8", "--out", out]) == 0
        code = main(["report", "--out", out])
        assert code == 0
        doc = _read_json(os.path.join(out, "report.json"))
        assert "solve.residual_below_tol" in doc["checks"]
        assert "holder.products_bounded" in doc["checks"]
        assert "updates" not in json.dumps(doc)
        merged = _read_json(os.path.join(out, "report.summary.json"))
        assert merged["results"]["merged_commands"] == ["holder", "solve"]

    def test_failed_ingested_check_fails_report(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["truncate", "--mu", "const:0.3", "--k", "2", "--grid", "64", "--out", out,
              "--bound", "1"])
        code = main(["report", "--out", out])
        assert code == 1
        assert "FAIL truncate.kip_below_bound" in capsys.readouterr().out

    def test_empty_directory_is_fine(self, tmp_path):
        out = str(tmp_path / "empty")
        assert main(["report", "--out", out]) == 0


class TestProvenance:
    def test_summary_echoes_configuration(self, tmp_path):
        out = str(tmp_path / "run")
        main(["holder", "--map", "identity", "--pairs", "20", "--scales", "3:8",
              "--seed", "11", "--out", out])
        doc = _read_json(os.path.join(out, "holder.summary.json"))
        prov = doc["provenance"]
        assert prov["package"] == "beltrami-lab"
        assert prov["config_echo"]["seed"] == 11
        assert prov["config_echo"]["pairs"] == 20
        assert prov["checks_run"] == ["products_bounded"]


def _read_strict_json(path):
    def reject(constant):
        raise ValueError(f"{path} holds the non-JSON constant {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


class TestStrictJson:
    def test_non_finite_values_are_null_and_flagged(self, tmp_path):
        out = str(tmp_path / "run")
        # the example2 map has no weight, so its mass and constant are NaN;
        # the uncapped example4 field has k_cap = inf and a divergent mass
        assert main(["holder", "--map", "example2", "--pairs", "20",
                     "--scales", "3:8", "--out", out]) == 0
        assert main(["dilatation", "--mu", "example4", "--out", out]) == 0
        holder = _read_strict_json(os.path.join(out, "holder.summary.json"))
        assert holder["results"]["empirical_C"] is None
        assert holder["non_finite"] == {"/results/empirical_C": "nan",
                                        "/results/q_l1": "nan"}
        dil = _read_strict_json(os.path.join(out, "dilatation.summary.json"))
        assert dil["results"]["k_cap"] is None
        assert dil["non_finite"] == {"/results/k_cap": "inf",
                                     "/results/l1_value": "inf"}

        assert main(["report", "--out", out]) == 0
        report = _read_strict_json(os.path.join(out, "report.json"))
        assert report["merged"]["holder"]["q_l1"] is None
        assert report["non_finite"] == {
            "/merged/holder/empirical_C": "nan",
            "/merged/holder/q_l1": "nan",
            "/merged/dilatation/k_cap": "inf",
            "/merged/dilatation/l1_value": "inf",
        }
        _read_strict_json(os.path.join(out, "report.summary.json"))


class TestReadmeCommands:
    def test_every_readme_command_parses(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## Command line", 1)[1]
        lines = [line for line in block.splitlines() if line.startswith("beltrami-lab ")]
        assert len(lines) >= 6
        for line in lines:
            cfg = parse_config(shlex.split(line)[1:])
            assert cfg.command == shlex.split(line)[1]

    def test_python_session_runs(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})


def test_cli_import_leaves_scipy_quadrature_out():
    # the CLI needs neither module; loading both on top of what it imports
    # costs about 0.3 s and 25 MiB of RSS
    code = ("import sys, beltrami_lab.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
