import json
import math
from pathlib import Path

import pytest

from twohopsec import cli
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

    def test_n1_is_config_error(self):
        assert run_cli(["bounds", "--n", "1", "--k", "1"]) == 2


class TestSweep:
    def test_single_step_matches_simulate(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        sim_out = tmp_path / "sim.csv"
        base = ["--case", "equal", "--n", "5", "--k", "2", "--trials", "3000",
                "--seed", "2", "--gamma-e", "1.0"]
        assert run_cli(["sweep", *base, "--sweep-param", "tau", "--sweep-from", "0.3",
                        "--sweep-to", "0.3", "--sweep-steps", "1", "--no-bounds",
                        "--out", str(sweep_out)]) == 0
        assert run_cli(["simulate", *base, "--tau", "0.3", "--out", str(sim_out)]) == 0
        assert read_rows(sweep_out)[1] == read_rows(sim_out)[1]

    def test_k_sweep_integer_grid(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run_cli(["sweep", "--sweep-param", "k", "--sweep-from", "1",
                        "--sweep-to", "5", "--sweep-steps", "5", "--no-sim",
                        "--gamma-e", "1.0", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r["k"] for r in rows] == ["1", "2", "3", "4", "5"]
        assert all(r["bound_t"] != "" for r in rows)

    def test_radius_sweep_beyond_probability_cap_has_error_cells(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["sweep", "--case", "general", "--sweep-param", "r",
                        "--sweep-from", "0.2", "--sweep-to", "0.8", "--sweep-steps", "4",
                        "--no-sim", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert rows[0]["feasible"] in ("true", "false")
        assert rows[-1]["feasible"] == "error"  # pi r^2 > 1 without the override
        assert rows[-1]["bound_t"] == ""

    def test_exact_region_override_rescues_large_radius(self, tmp_path):
        out = tmp_path / "r2.csv"
        assert run_cli(["sweep", "--case", "general", "--sweep-param", "r",
                        "--sweep-from", "0.6", "--sweep-to", "0.7", "--sweep-steps", "2",
                        "--no-sim", "--exact-region", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert all(r["feasible"] != "error" for r in rows)
        assert all(r["bound_t"] != "" for r in rows)

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
        assert first == "general,8,3,2,0.35,0.4,1.0,0.0,2.0,0.05,," + "," * 16 + "error"
        assert len(rest) == 3
        for row in rest:
            value = dict(zip(HEADER_COLUMNS, row.split(",")))["gamma_e"]
            assert row == self._simulate_row(tmp_path, base, "gamma_e", value)

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
    """Outage cells of three fixed-seed runs, pinned so that any change to the
    geometry, the draws or the comparisons of the engine shows up here."""

    RUNS = {
        "criterion-8 gamma_e sweep": (
            ["sweep", "--case", "general", "--n", "20", "--m", "10", "--k", "3", "--r", "0.4",
             "--tau", "0.5", "--sweep-param", "gamma_e", "--sweep-from", "0.25",
             "--sweep-to", "4", "--sweep-steps", "16", "--sweep-scale", "log",
             "--trials", "4096", "--seed", "12", "--no-bounds"],
            [("0.97900390625", p_s) for p_s in (
                "0.967529296875", "0.946533203125", "0.9208984375", "0.887939453125",
                "0.84619140625", "0.7978515625", "0.740966796875", "0.686767578125",
                "0.628662109375", "0.57421875", "0.512939453125", "0.45947265625",
                "0.404296875", "0.35791015625", "0.314208984375", "0.281494140625")],
        ),
        "general n=100 m=50": (
            ["simulate", "--case", "general", "--n", "100", "--m", "50", "--k", "3",
             "--r", "0.3", "--tau", "0.1", "--gamma-r", "0.3", "--gamma-e", "2.0",
             "--alpha", "3.5", "--trials", "1500", "--seed", "5"],
            [("0.6466666666666666", "0.952")],
        ),
        "equal": (
            ["simulate", "--case", "equal", "--n", "6", "--m", "3", "--k", "2", "--tau", "0.3",
             "--trials", "10000", "--seed", "9"],
            [("0.055", "0.8295")],
        ),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_outage_cells(self, tmp_path, name):
        argv, cells = self.RUNS[name]
        out = tmp_path / "golden.csv"
        assert run_cli([*argv, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [(r["p_t_hat"], r["p_s_hat"]) for r in rows] == cells


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

    @pytest.mark.parametrize("case", [["--case", "equal"], ["--case", "general", "--r", "0.4"]])
    def test_subnormal_noise_prints_no_warning(self, case, capsys):
        assert run_cli(["simulate", *case, "--n0", "1e-320", "--tau", "0.01", "--n", "20",
                        "--m", "10", "--k", "3", "--trials", "2000"]) == 0
        assert capsys.readouterr().err == ""


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
