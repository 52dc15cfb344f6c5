import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twohopsec import cli
from twohopsec.bounds_equal import EavesTolerance, max_eaves_equal
from twohopsec.cli import (
    CSV_HEADER,
    RunConfig,
    SweepSpec,
    main,
    parse_config_comment,
)
from twohopsec.montecarlo import BATCH_SIZE

HEADER_COLUMNS = CSV_HEADER.split(",")


def run_cli(args):
    return main(args)


def read_rows(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == CSV_HEADER
    return lines[0], [dict(zip(HEADER_COLUMNS, row.split(","))) for row in lines[2:]]


class TestCsvSchema:
    def test_header_is_pinned(self):
        assert CSV_HEADER == (
            "case,n,m,k,r,tau,gamma_r,gamma_e,alpha,d0,delta,trials,seed,"
            "p_t_hat,p_t_lo,p_t_hi,p_s_hat,p_s_lo,p_s_hi,bound_t,bound_s,"
            "tau_min,tau_max,max_m,jain,entropy,no_candidate_rate,feasible"
        )

    def test_bounds_row_reproduces_worked_example(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        row = rows[0]
        assert row["case"] == "equal" and row["r"] == "inf"
        assert float(row["tau_min"]) == pytest.approx(0.8571879103462934)
        assert float(row["tau_max"]) == pytest.approx(0.11476090125660518)
        assert float(row["max_m"]) == pytest.approx(0.1582559708835933)
        assert row["feasible"] == "false"
        assert row["p_t_hat"] == ""  # no simulation columns in a bounds row

    def test_simulate_row_fills_estimates(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(
            ["simulate", "--trials", "2000", "--seed", "9", "--m", "0", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_rows(out)
        row = rows[0]
        assert row["trials"] == "2000" and row["seed"] == "9"
        assert row["p_s_hat"] == "0.0"  # no eavesdroppers
        assert row["bound_t"] == "" and row["feasible"] == ""
        assert 0.0 <= float(row["jain"]) <= 1.0

    def test_single_trial_row_valid(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli(["simulate", "--trials", "1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert rows[0]["p_t_hat"] in ("0.0", "1.0")


class TestDeterminism:
    def test_fixed_seed_byte_identical(self, tmp_path):
        out = tmp_path / "a.csv"
        args = ["simulate", "--case", "general", "--r", "0.4", "--n", "8", "--m", "3",
                "--trials", "5000", "--seed", "4", "--out", str(out)]
        assert run_cli(args) == 0
        first = out.read_bytes()
        assert run_cli(args) == 0
        assert out.read_bytes() == first

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        out = tmp_path / "w.csv"
        args = ["simulate", "--case", "general", "--r", "0.4", "--n", "8", "--m", "3",
                "--trials", "9000", "--seed", "4", "--out", str(out)]
        assert run_cli(args + ["--workers", "1"]) == 0
        first = out.read_bytes()
        assert run_cli(args + ["--workers", "3"]) == 0
        assert out.read_bytes() == first


class TestConfigHandling:
    def test_yaml_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("case: equal\nn: 6\nk: 2\ntau: 0.3\ngamma_e: 1.0\n")
        out = tmp_path / "out.csv"
        assert run_cli(["bounds", "--config", str(cfg), "--k", "3", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert rows[0]["n"] == "6" and rows[0]["k"] == "3"

    def test_round_trip_of_config_comment(self, tmp_path):
        out = tmp_path / "rt.csv"
        assert run_cli(["bounds", "--n", "7", "--k", "2", "--gamma-e", "1.0",
                        "--out", str(out)]) == 0
        comment, _ = read_rows(out)
        cfg = parse_config_comment(comment)
        assert cfg == RunConfig(n=7, k=2, gamma_e=1.0, out=str(out))

    def test_inf_radius_round_trips(self):
        cfg = RunConfig(case="general", r=math.inf)
        data = json.loads(json.dumps(cfg.to_dict()))
        assert data["r"] == "inf"
        assert RunConfig.from_dict(data) == cfg

    def test_unknown_field_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("bogus_knob: 3\n")
        assert run_cli(["bounds", "--config", str(cfg)]) == 2

    def test_missing_sweep_field_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("sweep:\n  param: k\n  to: 5\n")
        assert run_cli(["sweep", "--config", str(cfg)]) == 2
        assert "sweep.from" in capsys.readouterr().err

    def test_bad_case_value(self):
        with pytest.raises(ValueError, match="case"):
            RunConfig.from_dict({"case": "weird"})

    def test_missing_config_file(self):
        assert run_cli(["bounds", "--config", "/nonexistent/conf.yaml"]) == 2

    def test_n1_reports_bounds_without_window(self, tmp_path):
        for case in ("equal", "general"):
            out = tmp_path / f"{case}.csv"
            assert run_cli(["bounds", "--case", case, "--n", "1", "--k", "1", "--r", "0.3",
                            "--out", str(out)]) == 0
            (row,) = read_rows(out)[1]
            assert float(row["bound_t"]) < 1.0 and row["bound_s"] == "1.0"
            assert (row["tau_min"], row["tau_max"], row["max_m"], row["feasible"]) == (
                "", "", "", "false")
            assert run_cli(["bounds", "--case", case, "--n", "1", "--eps-s", "1"]) == 2


class TestConfigRoundTrip:
    """Every RunConfig field, set through its flag, reparses from the CSV comment."""

    # One non-default value per field; the flag is the field name with dashes.
    VALUES = {
        "case": "general", "n": 7, "m": 3, "k": 2, "r": 0.3, "tau": 0.7, "gamma_r": 0.5,
        "gamma_e": 2.5, "alpha": 3.5, "d0": 0.02, "es": 2.0, "n0": 1e-3, "delta": 0.04,
        "eps_t": 0.1, "eps_s": 0.05, "trials": 123, "seed": 42,
        "sweep": SweepSpec(param="k", start=1.0, stop=3.0, steps=3, scale="log"),
        "out": None,
    }
    # sweep needs a grid whenever the field under test is not the grid itself
    GRID = ["--sweep-param", "tau", "--sweep-from", "0.1", "--sweep-to", "0.1"]

    def test_every_field_has_a_value(self):
        assert list(self.VALUES) == [f.name for f in dataclasses.fields(RunConfig)]

    @pytest.mark.parametrize("name", list(VALUES))
    def test_flag_round_trips(self, tmp_path, name):
        out = tmp_path / "rt.csv"
        value = self.VALUES[name]
        argv = ["sweep", "--no-bounds", "--no-sim", "--out", str(out)]
        expected = {"out": str(out), "sweep": SweepSpec(param="tau", start=0.1, stop=0.1,
                                                         steps=1)}
        if name == "sweep":
            cfg = tmp_path / "sweep.yaml"
            cfg.write_text(f"sweep: {json.dumps(value.to_dict())}\n")
            argv += ["--config", str(cfg)]
            expected["sweep"] = value
        else:
            argv += self.GRID
            if value is not None:
                argv += ["--" + name.replace("_", "-"), str(value)]
            if name != "out":
                expected[name] = value
        assert run_cli(argv) == 0
        comment, _ = read_rows(out)
        assert parse_config_comment(comment) == RunConfig(**expected)


class TestCheckedInput:
    """Values outside a field's type or range exit 2; nothing is coerced into range."""

    @pytest.mark.parametrize("via_yaml", [False, True])
    def test_zero_sweep_steps(self, tmp_path, via_yaml, capsys):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--trials", "100", "--no-bounds", "--out", str(out)]
        if via_yaml:
            cfg = tmp_path / "sweep.yaml"
            cfg.write_text("sweep: {param: gamma_e, from: 1, to: 2, steps: 0}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--sweep-param", "gamma_e", "--sweep-from", "1", "--sweep-to", "2",
                     "--sweep-steps", "0"]
        assert run_cli(argv) == 2
        assert "sweep.steps must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_workers_below_one(self, command, workers, capsys):
        argv = [command, "--trials", "100", "--workers", workers]
        if command == "sweep":
            argv += ["--sweep-param", "gamma_e", "--sweep-from", "1", "--sweep-to", "2"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert "configuration error: --workers must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["n", "k", "trials", "tau", "n0", "eps_s"])
    def test_numbers_reject_bools(self, tmp_path, name, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{name}: true\n")
        assert run_cli(["bounds", "--config", str(cfg)]) == 2
        assert f"field {name!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["out: 2", "out: true", "case: 1"])
    def test_strings_take_only_strings(self, tmp_path, text, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{text}\n")
        assert run_cli(["bounds", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "must be a string" in captured.err and captured.out == ""

    def test_sweep_steps_reject_bools(self):
        with pytest.raises(ValueError, match="'sweep.steps' must be an integer"):
            RunConfig.from_dict({"sweep": {"param": "k", "from": 1, "to": 3, "steps": True}})


class TestSweep:
    @pytest.mark.parametrize("command, skip", [("simulate", "--no-bounds"),
                                               ("bounds", "--no-sim")],
                             ids=["simulate", "bounds"])
    def test_single_step_matches_single_point_command(self, command, skip, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        single_out = tmp_path / "single.csv"
        base = ["--case", "equal", "--n", "5", "--k", "2", "--trials", "3000",
                "--seed", "2", "--gamma-e", "1.0"]
        assert run_cli(["sweep", *base, "--sweep-param", "tau", "--sweep-from", "0.3",
                        "--sweep-to", "0.3", "--sweep-steps", "1", skip,
                        "--out", str(sweep_out)]) == 0
        assert run_cli([command, *base, "--tau", "0.3", "--out", str(single_out)]) == 0
        assert read_rows(sweep_out)[1] == read_rows(single_out)[1]

    def test_k_sweep_integer_grid(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run_cli(["sweep", "--sweep-param", "k", "--sweep-from", "1",
                        "--sweep-to", "5", "--sweep-steps", "5", "--no-sim",
                        "--gamma-e", "1.0", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r["k"] for r in rows] == ["1", "2", "3", "4", "5"]
        assert all(r["bound_t"] != "" for r in rows)

    def test_radius_sweep_past_the_inscribed_disc_has_full_rows(self, tmp_path):
        # past r = 1/sqrt(pi) the region is the disc clipped to the square, so
        # every radius the engine samples has bounds and an estimate
        out = tmp_path / "r.csv"
        assert run_cli(["sweep", "--case", "general", "--sweep-param", "r",
                        "--sweep-from", "0.2", "--sweep-to", "0.8", "--sweep-steps", "4",
                        "--trials", "200", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r["r"] for r in rows] == ["0.2", "0.4", "0.6000000000000001", "0.8"]
        assert all(r["feasible"] in ("true", "false") for r in rows)
        assert all(r["bound_t"] != "" and r["p_t_hat"] != "" for r in rows)

    def test_sweep_requires_spec(self):
        assert run_cli(["sweep", "--trials", "10"]) == 2


def csv_lines(path: Path):
    return path.read_text().splitlines()[2:]


class TestThresholdSweepMatchesSimulate:
    """gamma_r / gamma_e sweeps run one simulation for the whole grid; every
    row must still be byte-identical to a separate simulate at that value."""

    SCENARIOS = {
        "equal": ["--case", "equal", "--n", "6", "--m", "3", "--k", "2", "--tau", "0.3"],
        "general": ["--case", "general", "--n", "8", "--m", "3", "--k", "2", "--r", "0.35",
                    "--tau", "0.4"],
    }
    # spans three batches, the last one partial
    TRIALS = str(2 * BATCH_SIZE + 321)

    def _simulate_row(self, tmp_path, base, param, value):
        out = tmp_path / "sim.csv"
        flag = "--" + param.replace("_", "-")
        assert run_cli(["simulate", *base, flag, value, "--out", str(out)]) == 0
        return csv_lines(out)[0]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("param", ["gamma_r", "gamma_e"])
    @pytest.mark.parametrize("case", ["equal", "general"])
    def test_rows_byte_identical(self, tmp_path, case, param, workers):
        base = [*self.SCENARIOS[case], "--trials", self.TRIALS, "--seed", "6",
                "--workers", workers]
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", *base, "--sweep-param", param, "--sweep-from", "0.1",
                        "--sweep-to", "10", "--sweep-steps", "4", "--sweep-scale", "log",
                        "--no-bounds", "--out", str(out)]) == 0
        rows = csv_lines(out)
        assert len(rows) == 4
        for row in rows:
            value = dict(zip(HEADER_COLUMNS, row.split(",")))[param]
            assert row == self._simulate_row(tmp_path, base, param, value)

    def test_invalid_point_keeps_its_error_row(self, tmp_path):
        base = [*self.SCENARIOS["general"], "--trials", "3000", "--seed", "3"]
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", *base, "--sweep-param", "gamma_e", "--sweep-from", "0",
                        "--sweep-to", "1.5", "--sweep-steps", "4", "--no-bounds",
                        "--out", str(out)]) == 0
        first, *rest = csv_lines(out)
        assert first == "general,8,3,2,0.35,0.4,1.0,0.0,2.0,0.05,0.05," + "," * 16 + "error"
        assert len(rest) == 3
        for row in rest:
            value = dict(zip(HEADER_COLUMNS, row.split(",")))["gamma_e"]
            assert row == self._simulate_row(tmp_path, base, "gamma_e", value)

    def test_error_row_derives_its_cells_as_the_model_does(self, tmp_path):
        # equal case: r is forced to inf and delta defaults to d0, as on the valid row
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--case", "equal", "--r", "0.4", "--d0", "0.1",
                        "--sweep-param", "gamma_e", "--sweep-from", "0", "--sweep-to", "1",
                        "--sweep-steps", "2", "--trials", "100", "--out", str(out)]) == 0
        error, valid = (dict(zip(HEADER_COLUMNS, row.split(","))) for row in csv_lines(out))
        assert error["feasible"] == "error" and valid["feasible"] != "error"
        assert [error[c] for c in ("r", "delta")] == [valid[c] for c in ("r", "delta")]
        assert [error[c] for c in ("r", "delta")] == ["inf", "0.1"]

    def test_rows_with_bounds_and_report(self, tmp_path, capsys):
        base = [*self.SCENARIOS["general"], "--trials", "2000", "--seed", "4",
                "--sweep-param", "gamma_r", "--sweep-from", "0.5", "--sweep-to", "2",
                "--sweep-steps", "3"]
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", *base, "--out", str(out)]) == 0
        rows = [dict(zip(HEADER_COLUMNS, r.split(","))) for r in csv_lines(out)]
        assert all(r["bound_t"] and r["p_t_hat"] for r in rows)
        capsys.readouterr()
        assert run_cli(["sweep", *base, "--report"]) == 0
        report = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in report] == [
            "gamma_r=0.5", "gamma_r=1.25", "gamma_r=2"]
        assert all(f"p_t_hat={float(r['p_t_hat']):.6g}" in line
                   for r, line in zip(rows, report))


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", [
        ["simulate", "--gamma-r", "nan", "--trials", "1000"],
        ["simulate", "--gamma-e", "inf"],
        ["simulate", "--alpha", "inf", "--case", "general"],
        ["simulate", "--d0", "nan", "--case", "general"],
        ["bounds", "--es", "inf"],
        ["bounds", "--n0", "nan"],
        ["sweep", "--sweep-param", "gamma_e", "--sweep-from", "nan", "--sweep-to", "1",
         "--sweep-steps", "3"],
        ["sweep", "--sweep-param", "tau", "--sweep-from", "0", "--sweep-to", "inf",
         "--sweep-steps", "3"],
        ["sweep", "--sweep-param", "k", "--sweep-from", "1", "--sweep-to", "inf"],
    ])
    def test_exit_2(self, args, capsys):
        assert run_cli(args) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_infinite_radius_and_tau_still_run(self, tmp_path):
        out = tmp_path / "inf.csv"
        assert run_cli(["simulate", "--case", "general", "--r", "inf", "--tau", "inf",
                        "--trials", "500", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert rows[0]["r"] == "inf" and rows[0]["tau"] == "inf"


class TestGoldenCounts:
    """Estimate cells of nine fixed-seed runs, pinned so that any change to the
    geometry, the draws, the relay selection or the comparisons of the engine
    shows up here.  The last two run k up to n, where the relay is picked
    among every in-region relay.  The two small-clamp runs (d0 = delta = 0.001; d0 = 0,
    delta = 1e-4) are where the Gram-form jammer distances carry their largest
    error relative to the clamp; the two huge-alpha runs are where an
    attenuation overflows to +inf.  Each row is (p_t_hat, p_t_lo, p_t_hi), (p_s_hat, p_s_lo,
    p_s_hi), (jain, entropy, no_candidate_rate): the load-balance cells come
    from the selection histogram, so a wrong relay index shows even when the
    outage counts are right."""

    COLUMNS = ("p_t_hat", "p_t_lo", "p_t_hi", "p_s_hat", "p_s_lo", "p_s_hi",
               "jain", "entropy", "no_candidate_rate")
    RUNS = {
        "criterion-8 gamma_e sweep": (
            ["sweep", "--case", "general", "--n", "20", "--m", "10", "--k", "3", "--r", "0.4",
             "--tau", "0.5", "--sweep-param", "gamma_e", "--sweep-from", "0.25",
             "--sweep-to", "4", "--sweep-steps", "16", "--sweep-scale", "log",
             "--trials", "4096", "--seed", "12", "--no-bounds"],
            [(("0.97900390625", "0.9741435999816663", "0.9829665808419419"), p_s,
              ("0.9967997300232665", "0.9994607769193974", "0.0")) for p_s in (
                ("0.967529296875", "0.9616480425458757", "0.972534422427218"),
                ("0.946533203125", "0.9392159931236856", "0.9530136300803813"),
                ("0.9208984375", "0.9122330806334249", "0.9287750497131095"),
                ("0.887939453125", "0.8779134489616865", "0.8972384762823059"),
                ("0.84619140625", "0.8348192165226498", "0.8569148489247898"),
                ("0.7978515625", "0.7852762321354745", "0.8098687324949037"),
                ("0.740966796875", "0.7273287184125798", "0.754153314448226"),
                ("0.686767578125", "0.672394299195718", "0.7007908630520191"),
                ("0.628662109375", "0.613751416646233", "0.6433316951244303"),
                ("0.57421875", "0.5590135580755022", "0.5892848593405919"),
                ("0.512939453125", "0.49762740688777457", "0.5282272514117419"),
                ("0.45947265625", "0.4442558977090919", "0.47476536120185664"),
                ("0.404296875", "0.3893642121537994", "0.4194088811780791"),
                ("0.35791015625", "0.3433686549692131", "0.37271792747760646"),
                ("0.314208984375", "0.3001727958569711", "0.328593336861293"),
                ("0.281494140625", "0.2679311431329104", "0.2954666082243122"))],
        ),
        "general n=100 m=50": (
            ["simulate", "--case", "general", "--n", "100", "--m", "50", "--k", "3",
             "--r", "0.3", "--tau", "0.1", "--gamma-r", "0.3", "--gamma-e", "2.0",
             "--alpha", "3.5", "--trials", "1500", "--seed", "5"],
            [(("0.6466666666666666", "0.6221300756908744", "0.6704539579645389"),
              ("0.952", "0.9399798382607142", "0.9617109563682417"),
              ("0.9512937595129376", "0.9943084301226675", "0.0"))],
        ),
        "general d0 = delta = 0.001": (
            ["simulate", "--case", "general", "--n", "40", "--m", "20", "--k", "3", "--r", "0.4",
             "--tau", "0.5", "--gamma-r", "0.5", "--gamma-e", "1.0", "--d0", "0.001",
             "--trials", "4096", "--seed", "21"],
            [(("0.99072265625", "0.987292434466316", "0.993233285949307"),
              ("0.5126953125", "0.49738330356080873", "0.5279835309972073"),
              ("0.9863751810810303", "0.9981249461579964", "0.0"))],
        ),
        "general d0 = 0 delta = 1e-4": (
            ["simulate", "--case", "general", "--n", "40", "--m", "20", "--k", "3", "--r", "0.4",
             "--tau", "0.5", "--gamma-r", "0.5", "--gamma-e", "1.0", "--d0", "0", "--delta",
             "1e-4", "--alpha", "3", "--trials", "4096", "--seed", "21"],
            [(("0.998291015625", "0.9964763422189936", "0.9991719141831389"),
              ("0.69775390625", "0.6835102840792282", "0.7116269465360228"),
              ("0.9863751810810303", "0.9981249461579964", "0.0"))],
        ),
        # an attenuation max(d, delta)^alpha past the float range is +inf: a path loss of 0
        "general alpha = 3000": (
            ["simulate", "--case", "general", "--n", "10", "--m", "5", "--k", "2", "--r", "0.5",
             "--tau", "0.3", "--alpha", "3000", "--delta", "0.9"],
            [(("0.2004", "0.19266997911549708", "0.20836011270821234"),
              ("0.7429", "0.7342421350804194", "0.751371318511106"),
              ("0.9994213350470078", "0.9998749089396874", "0.0"))],
        ),
        "equal alpha = 1100": (
            ["simulate", "--case", "equal", "--n", "10", "--m", "5", "--k", "2", "--tau", "0.3",
             "--alpha", "1100", "--delta", "2"],
            [(("1.0", "0.9996160016293234", "1.0"),
              ("0.0", "0.0", "0.00038399837067659573"),
              ("0.9993498230051528", "0.9998590718436359", "0.0"))],
        ),
        "equal": (
            ["simulate", "--case", "equal", "--n", "6", "--m", "3", "--k", "2", "--tau", "0.3",
             "--trials", "10000", "--seed", "9"],
            [(("0.055", "0.05070013939854093", "0.059641619151361236"),
              ("0.8295", "0.8220029364122559", "0.8367440086614684"),
              ("0.999824270886149", "0.9999510803821307", "0.0"))],
        ),
        # random selection: every relay is a candidate, so the pick is uniform over all n
        "equal k = n = 20": (
            ["simulate", "--case", "equal", "--n", "20", "--m", "5", "--k", "20"],
            [(("0.4672", "0.4574357536064821", "0.47698943668663424"),
              ("0.4819", "0.4721154316287316", "0.49169846911228676"),
              ("0.9981458442796661", "0.9996923102211941", "0.0"))],
        ),
        # k = 1, 5, 8, 12: from optimal to random selection, with trials that
        # have no candidate or fewer in-region relays than k
        "general k sweep to k = n": (
            ["sweep", "--case", "general", "--n", "12", "--m", "4", "--r", "0.25", "--tau", "0.5",
             "--sweep-param", "k", "--sweep-from", "1", "--sweep-to", "12", "--sweep-steps", "4",
             "--trials", "5000", "--seed", "7", "--no-bounds"],
            [(("0.8904", "0.8814395616410272", "0.8987610166802723"),
              ("0.4768", "0.46297900309234924", "0.49065661827790147"),
              ("0.9978253939296777", "0.9995637659835561", "0.0692")),
             (("0.9336", "0.9263605009399495", "0.9401737479332971"),
              ("0.4878", "0.47395976996860933", "0.5016589619588502"),
              ("0.9983110530983077", "0.9996575289545816", "0.0692"))] + 2 * [
             (("0.9336", "0.9263605009399495", "0.9401737479332971"),
              ("0.4884", "0.4745589138770173", "0.5022588968081081"),
              ("0.9980030462069489", "0.9995932143836073", "0.0692"))],
        ),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_outage_cells(self, tmp_path, name):
        argv, cells = self.RUNS[name]
        out = tmp_path / "golden.csv"
        assert run_cli([*argv, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        expected = [sum(groups, ()) for groups in cells]
        assert [tuple(r[c] for c in self.COLUMNS) for r in rows] == expected


class TestNumericFailure:
    """An input that would make the engine count a NaN or overflowed SINR
    exits cleanly instead of printing a result."""

    GENERAL = ["simulate", "--case", "general", "--n", "10", "--m", "5", "--trials", "2000",
               "--seed", "1"]

    def test_overflowing_path_loss_is_a_configuration_error(self, capsys):
        # max(d, delta)^-alpha overflows: it used to give p_t_hat = 0.0 (0.355 at alpha = 3)
        assert run_cli([*self.GENERAL, "--alpha", "300"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "configuration error" in err

    @pytest.mark.parametrize("es", ["1e305", "1e306"])
    def test_overflowing_power_is_a_numeric_failure(self, es, capsys):
        # es * gain * path loss overflows; this used to count NaN SINRs (1e306)
        # or +inf signals over finite interference (1e305)
        assert run_cli([*self.GENERAL, "--es", es]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "numeric failure" in err


class TestLargeAndLimitInputs:
    def test_general_bounds_past_a_thousand_relays(self, tmp_path):
        out = tmp_path / "big.csv"
        assert run_cli(["bounds", "--case", "general", "--n", "1500", "--m", "10", "--k", "3",
                        "--r", "0.3", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert 0.0 <= float(rows[0]["bound_t"]) <= 1.0

    def test_equal_bounds_take_the_infinite_tau_limit(self, tmp_path):
        out = tmp_path / "inf.csv"
        assert run_cli(["bounds", "--case", "equal", "--n", "5", "--m", "2", "--tau", "inf",
                        "--gamma-e", "1.5", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        x = 2 * (1 / (1 + 1.5)) ** 4  # all n - 1 = 4 other relays jam
        assert float(rows[0]["bound_t"]) == 1.0
        assert float(rows[0]["bound_s"]) == pytest.approx(2 * x - x * x)

    def test_equal_tolerance_past_the_float_range_is_unbounded(self, tmp_path):
        def max_m(n, gamma_r, gamma_e):
            out = tmp_path / "tol.csv"
            assert run_cli(["bounds", "--case", "equal", "--n", n, "--m", "1", "--k", "1",
                            "--gamma-r", gamma_r, "--gamma-e", gamma_e, "--out", str(out)]) == 0
            return read_rows(out)[1][0]["max_m"]

        # (1 + gamma_e) ** exponent passes the largest float here, the tolerance does not;
        # 60-digit mpmath at the same float inputs gives 2.49685885251188156e307
        assert max_m("572", "0.001", "59") == "2.496858852511831e+307"
        assert max_m("600", "0.001", "59") == "inf"
        # a nonzero subnormal factor 2^-exponent whose quotient passes the largest float;
        # the exponent is (n-1) * tau_max = (n-1) * sqrt(-log(target) / (2 gamma_r (n-1))),
        # target 0.9 at k = 1
        exponent = 571 * math.sqrt(-math.log(0.9) / (2 * 2.728e-5 * 571))
        assert 0.0 < 0.5**exponent < 2.2250738585072014e-308
        assert max_eaves_equal(572, 1, 2.728e-5, 1.0, 0.19, 0.19) == EavesTolerance(
            bound=math.inf, count=None)
        assert max_m("572", "2.728e-5", "1") == "inf"

    @pytest.mark.parametrize("case", [["--case", "equal"], ["--case", "general", "--r", "0.4"]])
    def test_subnormal_noise_prints_no_warning(self, case, capsys):
        assert run_cli(["simulate", *case, "--n0", "1e-320", "--tau", "0.01", "--n", "20",
                        "--m", "10", "--k", "3", "--trials", "2000"]) == 0
        assert capsys.readouterr().err == ""


class TestBoundsAliases:
    @pytest.mark.parametrize("flags", [
        [],
        ["--report"],
        ["--case", "general", "--n", "40", "--m", "5", "--k", "2", "--r", "0.3"],
    ])
    def test_same_stdout_as_bounds(self, flags, capsys):
        outputs = []
        for command in ("bounds", "tau-range", "max-eaves"):
            assert run_cli([command, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestParserReuse:
    CALLS = [
        ["sweep", "--sweep-param", "gamma_e", "--sweep-from", "0.5", "--sweep-to", "2",
         "--sweep-steps", "3", "--trials", "300", "--no-bounds", "--report"],
        ["bounds", "--case", "general", "--r", "0.4", "--d0", "0.1"],
        ["bounds", "--case", "general", "--r", "0.4"],
        ["simulate", "--trials", "300"],
    ]

    def test_no_flag_carries_to_the_next_call(self, capsys):
        reused = []
        for argv in self.CALLS:
            assert run_cli(argv) == 0
            reused.append(capsys.readouterr().out)
        for argv, out in zip(self.CALLS, reused):
            cli.build_parser.cache_clear()
            assert run_cli(argv) == 0
            assert capsys.readouterr().out == out
        assert reused[1] != reused[2]  # --d0 changes the general bounds


def _parse_counted(argv, monkeypatch) -> tuple:
    """(what ``_parse_args`` returns, the parsers whose ``parse_known_args`` it called)."""
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    try:
        args = cli._parse_args(argv)
    except SystemExit:
        args = None
    finally:
        monkeypatch.undo()
    return args, calls


class TestParseDispatch:
    """A well-formed call that opens with a command name never reaches the top-level parser."""

    def top_level_parses(self, argv, monkeypatch, capsys) -> int:
        _, calls = _parse_counted(argv, monkeypatch)
        capsys.readouterr()
        return sum(parser is cli.build_parser() for parser in calls)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--n", "7"], ["tau-range"], ["max-eaves", "--n", "7", "--report"],
        ["simulate", "--trials", "50"],
        ["sweep", "--sweep-param", "k", "--sweep-from", "1", "--sweep-to", "2", "--no-sim"],
        ["bounds", "--case", "general", "--r", "inf"], ["sweep", "--no-sim", "--n", "7"],
    ])
    def test_a_command_never_reaches_the_top_level_parser(self, argv, monkeypatch, capsys):
        assert self.top_level_parses(argv, monkeypatch, capsys) == 0

    @pytest.mark.parametrize("argv", [
        [], ["foo"], ["--bogus", "bounds"], ["-h"], ["bounds", "--bogus"],
        ["--seed", "-h", "bounds"], ["--case", "general", "simulate", "--he"],
        ["max-eaves", "--n=7", "--report"], ["bounds", "--n", "x"], ["sweep", "-h"],
    ])
    def test_every_other_call_goes_to_the_top_level_parser(self, argv, monkeypatch, capsys):
        assert self.top_level_parses(argv, monkeypatch, capsys) == 1

    @pytest.mark.parametrize("argv, call", [
        (["--case", "general", "bounds"], "twohopsec bounds --case general"),
        (["--sweep-param", "n", "sweep", "--no-sim"], "twohopsec sweep --sweep-param n --no-sim"),
        (["--n", "5", "--out", "a b", "max-eaves"], "twohopsec max-eaves --n 5 --out 'a b'"),
    ], ids=["case", "sweep-flag", "quoted-value"])
    def test_a_flag_before_its_command_is_named(self, argv, call, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"twohopsec: error: {argv[0]} must come after the command: {call}")
        assert self.top_level_parses(argv, monkeypatch, capsys) == 0

    def run_module(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "twohopsec", *argv], env=env,
                              capture_output=True, text=True)

    def test_argv_none_reads_the_command_line(self, capsys):
        argv = ["bounds", "--n", "7", "--k", "2"]
        proc = self.run_module(*argv)
        assert run_cli(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    def test_no_command_exits_2(self):
        proc = self.run_module()
        assert proc.returncode == 2
        assert "the following arguments are required: command" in proc.stderr


def _commands() -> dict:
    """Each command name and alias, mapped to its parser."""
    return next(a.choices for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


def _flag_values(action) -> tuple:
    """Two values of a store flag that its parser accepts, the second a corner case."""
    if action.choices is not None:
        return action.choices[0], action.choices[-1]
    return {int: ("7", "3"), float: ("0.5", "inf"), None: ("run.csv", "")}[action.type]


class TestTableParse:
    """A well-formed call is read off its command parser's flag table, as argparse reads it."""

    @staticmethod
    def well_formed(name, command) -> list:
        """Every store flag and switch, each flag twice in either order, inf, nan and ""."""
        stores = [a for a in command._actions if type(a) is argparse._StoreAction]
        switches = [a.option_strings[0] for a in command._actions
                    if type(a) is argparse._StoreTrueAction]

        def flags(values, actions=stores):
            return [t for a in actions for v in values(a) for t in (a.option_strings[0], v)]

        return [
            [name],
            [name, *flags(lambda a: _flag_values(a)[:1]), *switches],
            [name, *switches, *flags(_flag_values), *switches],
            [name, *flags(lambda a: _flag_values(a)[::-1], stores[::-1])],
            [name, *flags(lambda a: ["nan"], [a for a in stores if a.type is float])],
        ]

    def test_well_formed_calls_match_argparse(self, monkeypatch):
        checked = 0
        for name, command in _commands().items():
            for argv in self.well_formed(name, command):
                args, calls = _parse_counted(argv, monkeypatch)
                expected, extra = command.parse_known_args(
                    argv[1:], argparse.Namespace(command=name))
                assert extra == [] and calls == [], argv
                assert [(k, repr(v)) for k, v in vars(args).items()] == [
                    (k, repr(v)) for k, v in vars(expected).items()], argv
                checked += 1
        assert checked == 5 * 5

    @pytest.mark.parametrize("tail", [
        ["--n=7"], ["--ca", "general"], ["--tau", "-1"], ["--n", "x"], ["--case", "foo"],
        ["--report=1"], ["--", "--n", "7"], ["--n", "7", "extra"], ["-h"], ["--n"],
    ])
    def test_irregular_calls_reach_the_command_parser(self, tail, monkeypatch, capsys):
        # through the top-level parser, which hands the command's tokens on
        command = _commands()["bounds"]
        _, calls = _parse_counted(["bounds", *tail], monkeypatch)
        capsys.readouterr()
        assert calls[:2] == [cli.build_parser(), command]

    def test_every_command_parser_is_one_the_table_reproduces(self):
        for name, command in _commands().items():
            assert (command.prefix_chars, command.fromfile_prefix_chars) == ("-", None), name
            assert command._mutually_exclusive_groups == [] and command._defaults == {}, name
            for action in command._actions:
                where = (name, action.dest)
                assert action.option_strings and not action.required, where
                if type(action) is argparse._StoreAction:
                    assert action.nargs is None and action.type in (None, int, float), where
                    # argparse converts a string default through the flag's type
                    assert not (isinstance(action.default, str) and action.type), where
                else:
                    assert type(action) in (argparse._StoreTrueAction,
                                            argparse._HelpAction), where


class TestSetupImports:
    """What a run imports, seen from a fresh interpreter."""

    def loaded(self, argvs):
        script = (
            "import contextlib, io, sys\n"
            "from twohopsec import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(argv) for argv in {argvs!r}]\n"
            "assert codes == [0] * len(codes), codes\n"
            "print(' '.join(m for m in ('scipy', 'yaml', 'concurrent.futures.process',"
            " 'twohopsec.protocol', 'numpy.polynomial') if m in sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        return proc.stdout.split()

    def test_bounds_and_simulate_load_no_optional_module(self):
        assert self.loaded([["bounds"], ["simulate", "--trials", "200"]]) == []

    def test_config_run_loads_yaml(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("n: 6\n")
        assert self.loaded([["bounds", "--config", str(cfg)]]) == ["yaml"]

    def test_readme_quick_start_imports(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        line = "from twohopsec import (Case, ProtocolParams, estimate, evaluate_bounds, compare)"
        assert line in readme
        names = {}
        exec(line, names)
        assert callable(names["estimate"]) and callable(names["compare"])


class TestHelpText:
    """--help prints the pinned bytes: the parser's flag list fixes their order."""

    @pytest.mark.parametrize("argv, golden", [
        (["--help"], "help_twohopsec.txt"),
        (["bounds", "--help"], "help_bounds.txt"),
        (["sweep", "--help"], "help_sweep.txt"),
    ])
    def test_golden(self, argv, golden, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "golden" / golden).read_text()


def test_memory_error_is_numeric_failure(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "estimate", out_of_memory)
    assert run_cli(["simulate", "--trials", "10"]) == 3
    assert "numeric failure: out of memory" in capsys.readouterr().err


class TestSweepSpec:
    def test_log_scale_needs_positive(self):
        with pytest.raises(ValueError):
            SweepSpec(param="tau", start=0.0, stop=1.0, steps=3, scale="log")

    def test_nan_endpoint_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            SweepSpec(param="gamma_e", start=math.nan, stop=1.0, steps=3)

    def test_infinite_endpoint_only_for_a_single_real_point(self):
        assert SweepSpec(param="r", start=math.inf, stop=math.inf, steps=1).values() == [math.inf]
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(param="tau", start=0.0, stop=math.inf, steps=2)
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(param="n", start=math.inf, stop=math.inf, steps=1)

    def test_invalid_param(self):
        with pytest.raises(ValueError, match="sweep.param"):
            SweepSpec(param="alpha", start=2, stop=3, steps=2)

    def test_values_linear(self):
        s = SweepSpec(param="tau", start=0.1, stop=0.3, steps=3)
        assert s.values() == pytest.approx([0.1, 0.2, 0.3])

    def test_integer_dedup(self):
        s = SweepSpec(param="k", start=1, stop=2, steps=5)
        assert s.values() == [1, 2]
