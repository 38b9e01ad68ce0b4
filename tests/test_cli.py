import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dqps
from dqps import (
    CalibrationReport,
    CalibSetup2,
    CalibSetup3,
    ChannelModel,
    RateInputs,
    SourceDistribution,
    TagParams,
    channel_q,
    key_rate,
    optimize_mu,
    rtag_bruteforce,
    rtag_coherent,
    rtag_general,
    run_simulation,
    simulate_three_detector,
    simulate_two_detector,
)
from dqps.cli import main
from test_cli_parity import (
    GOLDEN_2DET, GOLDEN_3DET, GOLDEN_3DET_LOG, GOLDEN_SIMULATE, INFEASIBLE, KEYRATE, OPTIMIZED,
    RTAG,
)
from test_cli_parity import _golden as _parity_golden
from test_cli_parity import _key as _parity_key


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return [json.loads(line) for line in out.splitlines()]


# --- keyrate ------------------------------------------------------------------

def test_keyrate_optimize_matches_library(capsys):
    (record,) = run_json(
        capsys, "keyrate", "--L", "2", "--eta-db", "20",
        "--error-rate", "0.03", "--optimize",
    )
    mu, rate = optimize_mu(2, 0.01, 0.03)
    assert record["record"] == "keyrate"
    assert record["optimized"] is True
    assert record["feasible"] is True
    assert record["mu"] == pytest.approx(mu, rel=1e-9)
    assert record["rate_per_pulse"] == pytest.approx(rate, rel=1e-9)
    assert record["eta"] == pytest.approx(0.01, rel=1e-12)
    assert record["eta_db"] == pytest.approx(20.0, rel=1e-12)


def test_keyrate_infeasible_channel_reports_zero(capsys):
    (record,) = run_json(
        capsys, "keyrate", "--L", "2", "--eta", "1e-4",
        "--error-rate", "0.25", "--optimize",
    )
    assert record["feasible"] is False
    assert record["rate_per_pulse"] == 0.0
    assert record["mu"] is None and record["Q"] is None


def test_keyrate_fixed_mu_matches_library(capsys):
    (record,) = run_json(
        capsys, "keyrate", "--L", "3", "--eta", "0.05",
        "--error-rate", "0.02", "--mu", "0.01",
    )
    Q = channel_q(3, 0.01, 0.05)
    report = key_rate(RateInputs.from_error_rates(3, 0.01, 1.0, Q, 0.02, 0.02))
    assert record["Q"] == pytest.approx(Q, rel=1e-12)
    assert record["rate_per_pulse"] == pytest.approx(report.rate_per_pulse, rel=1e-12)


def test_keyrate_csv_round_trips(capsys):
    args = ("keyrate", "--L", "2", "--eta-db", "20", "--error-rate", "0.03",
            "--mu", "0.002")
    (record,) = run_json(capsys, *args)
    code, out, err = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    parsed = dict(zip(header.split(","), row.split(",")))
    assert parsed["record"] == "keyrate"
    assert int(parsed["L"]) == 2
    assert parsed["feasible"] == "true"
    assert float(parsed["rate_per_pulse"]) == record["rate_per_pulse"]


def test_keyrate_missing_parameter_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "keyrate", "--eta-db", "20", "--error-rate", "0.03", "--optimize"
    )
    assert code == 2
    assert "parameter 'L': required" in err


def test_keyrate_rejects_bad_block_length(capsys):
    code, out, err = run_cli(
        capsys, "keyrate", "--L", "1", "--eta", "0.1",
        "--error-rate", "0.03", "--mu", "0.01",
    )
    assert code == 2
    assert "'L'" in err


def test_keyrate_rejects_eta_given_both_ways(capsys):
    code, out, err = run_cli(
        capsys, "keyrate", "--L", "2", "--eta", "0.1", "--eta-db", "10",
        "--error-rate", "0.03", "--optimize",
    )
    assert code == 2


def test_keyrate_rejects_mu_with_optimize(capsys):
    code, out, err = run_cli(
        capsys, "keyrate", "--L", "2", "--eta", "0.1",
        "--error-rate", "0.03", "--mu", "0.01", "--optimize",
    )
    assert code == 2
    assert "'mu'" in err


def test_keyrate_rejects_non_finite_eta_db(capsys):
    # 10^(-inf/10) would pass as eta = 0 and print eta_db as Infinity, not JSON
    for value in ("inf", "nan"):
        code, out, err = run_cli(
            capsys, "keyrate", "--L", "2", "--eta-db", value,
            "--mu", "0.1", "--error-rate", "0.03",
        )
        assert code == 2 and out == ""
        assert "parameter 'eta_db': must be finite" in err


def test_keyrate_optimize_refuses_ec_inefficiency(capsys, tmp_path):
    base = ("keyrate", "--L", "2", "--eta-db", "20", "--error-rate", "0.03",
            "--optimize")
    cfg = tmp_path / "optimize.cfg"
    for value in ("1.2", "1"):  # 1 is the default, but given
        code, out, err = run_cli(capsys, *base, "--ec-inefficiency", value)
        assert code == 2 and out == ""
        assert "parameter 'ec_inefficiency'" in err
        cfg.write_text(f"ec-inefficiency = {value}\n")
        code, out, err = run_cli(capsys, *base, "--config", str(cfg))
        assert code == 2 and out == ""
        assert "parameter 'ec_inefficiency'" in err


@pytest.mark.parametrize("flag, value, param", [
    ("--mu-lo", "1e-7", "mu_lo"),
    ("--mu-hi", "0.5", "mu_hi"),
    ("--tol", "nan", "tol"),
    ("--tol", "1e-9", "tol"),  # the default value, but given
])
def test_keyrate_fixed_mu_refuses_optimizer_flags(capsys, tmp_path, flag, value, param):
    base = ("keyrate", "--L", "2", "--eta-db", "20", "--error-rate", "0.03",
            "--mu", "0.005")
    code, out, err = run_cli(capsys, *base, flag, value)
    assert code == 2 and out == ""
    assert f"parameter '{param}': applies only with --optimize" in err
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    code, out, err = run_cli(capsys, *base, "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"parameter '{param}': applies only with --optimize" in err


# --- config files ---------------------------------------------------------------

def test_config_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep point\nL = 2\nerror-rate = 0.03\neta_db = 20\nmu = 0.002\n"
    )
    (from_cfg,) = run_json(capsys, "keyrate", "--config", str(cfg))
    assert from_cfg["L"] == 2
    assert from_cfg["mu"] == 0.002

    (overridden,) = run_json(
        capsys, "keyrate", "--config", str(cfg), "--L", "3"
    )
    assert overridden["L"] == 3
    assert overridden["mu"] == 0.002


def test_config_booleans(capsys, tmp_path):
    cfg = tmp_path / "opt.cfg"
    cfg.write_text("L = 2\neta-db = 20\nerror-rate = 0.03\noptimize = yes\n")
    _, from_cfg, _ = run_cli(capsys, "keyrate", "--config", str(cfg))
    _, from_flag, _ = run_cli(
        capsys, "keyrate", "--L", "2", "--eta-db", "20", "--error-rate", "0.03",
        "--optimize",
    )
    assert json.loads(from_cfg)["optimized"] is True
    assert from_cfg == from_flag

    cfg.write_text("L = 2\noptimize = maybe\n")
    code, out, err = run_cli(capsys, "keyrate", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "parameter 'optimize': invalid value 'maybe'" in err


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("L = 2\nbogus = 1\n")
    code, out, err = run_cli(capsys, "keyrate", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_config_values_obey_the_option_choices(capsys, tmp_path):
    cfg = tmp_path / "simulate.cfg"
    cfg.write_text("format = xml\n")
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg), "--L", "2", "--mu", "0.1",
        "--eta", "0.5", "--blocks", "1000",
    )
    assert code == 2 and out == ""
    assert "parameter 'format': invalid value 'xml'" in err
    cfg = tmp_path / "calibrate.cfg"
    cfg.write_text("mode = 4det\n")
    code, out, err = run_cli(
        capsys, "calibrate", "--config", str(cfg), "--mu", "0.02",
        "--n-trains", "20000",
    )
    assert code == 2 and out == ""
    assert "parameter 'mode': invalid value '4det'" in err


def test_config_given_twice_exits_2(capsys, tmp_path):
    first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("L = 3\neta = 0.05\nerror-rate = 0.02\nmu = 0.01\n")
    second.write_text("L = 2\n")
    for files in ((first, second), (first, first)):
        code, out, err = run_cli(
            capsys, "keyrate", "--config", str(files[0]), "--config", str(files[1])
        )
        assert code == 2 and out == ""
        assert "parameter 'config'" in err


# --- sweep ---------------------------------------------------------------------

def test_sweep_grid_shape_and_round_trip(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--L-list", "2,3", "--eta-db-range", "0:10:5",
        "--error-rate", "0.03",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "L,eta_db,eta,mu_opt,Q,rtag,rate"
    assert len(lines) == 1 + 2 * 3
    # rows are L-major with eta ascending, so the dB column counts down
    expected_heads = [
        f"{L},{db}" for L, db in itertools.product((2, 3), (10, 5, 0))
    ]
    for line, head in zip(lines[1:], expected_heads):
        assert line.startswith(head + ",")
        L_s, db_s, eta_s, mu_s, Q_s, rtag_s, rate_s = line.split(",")
        L, eta, mu_opt = int(L_s), float(eta_s), float(mu_s)
        assert eta == pytest.approx(10 ** (-float(db_s) / 10), rel=1e-12)
        Q = channel_q(L, mu_opt, eta)
        assert Q == pytest.approx(float(Q_s), rel=1e-12)
        report = key_rate(
            RateInputs.from_error_rates(L, mu_opt, 1.0, Q, 0.03, 0.03)
        )
        assert report.rate_per_pulse == pytest.approx(float(rate_s), rel=1e-12)
        assert report.rtag == pytest.approx(float(rtag_s), rel=1e-12)


def test_sweep_is_reproducible(capsys):
    args = ("sweep", "--L-list", "2,4", "--eta-db-range", "10:30:10",
            "--error-rate", "0.03")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_marks_dead_rows_as_nan(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--L-list", "2", "--eta-db-range", "0:40:40",
        "--error-rate", "0.11",
    )
    assert code == 0
    dead, alive = out.splitlines()[1:]  # eta ascending: 40 dB row first
    assert float(alive.split(",")[6]) > 0.0
    cells = dead.split(",")
    assert cells[3] == "nan" and math.isnan(float(cells[3]))
    assert cells[6] == "0"


def test_sweep_mu_lo_reaches_past_the_default_bracket(capsys):
    # the default mu_lo = 1e-6 sits above the optimum from about 57 dB on
    code, out, err = run_cli(
        capsys, "sweep", "--L-list", "20", "--eta-db-range", "58:60:2",
        "--error-rate", "0.03", "--mu-lo", "1e-8",
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(row[1]) for row in rows] == [60.0, 58.0]
    for row in rows:
        assert float(row[3]) >= 1e-8
        assert float(row[6]) > 0.0


def test_sweep_mu_hi_at_the_largest_float_prints_no_warning(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--L-list", "2,20", "--eta-db-range", "0:20:20",
        "--error-rate", "0.03", "--mu-hi", "1e308",
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 5


def test_sweep_labels_grid_points_that_round_to_one_eta(capsys):
    # 0, 1e-17 and 2e-17 dB all give eta = 1; each row keeps its own dB
    code, out, err = run_cli(
        capsys, "sweep", "--L-list", "2,3", "--eta-db-range", "0:2e-17:1e-17",
        "--error-rate", "0.03",
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[0], float(row[1]), row[2]) for row in rows] == [
        (L, db, "1") for L in ("2", "3") for db in (2e-17, 1e-17, 0.0)
    ]


def test_sweep_rejects_malformed_grid(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--L-list", "2", "--eta-db-range", "10:0:5",
        "--error-rate", "0.03",
    )
    assert code == 2
    assert "eta_db_range" in err


def test_sweep_refuses_a_grid_of_unbounded_size(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--L-list", "2", "--eta-db-range", "0:1e308:1e-300",
        "--error-rate", "0.03",
    )
    assert code == 2 and out == ""
    assert "parameter 'eta_db_range'" in err


# --- simulate --------------------------------------------------------------------

def test_simulate_emits_stats_then_rate(capsys):
    stats, rate = run_json(
        capsys, "simulate", "--L", "3", "--mu", "0.05", "--eta", "0.3",
        "--blocks", "20000", "--seed", "11",
    )
    assert stats["record"] == "observed_stats"
    assert rate["record"] == "keyrate"
    assert stats["n_rep"] == 20000
    assert stats["errors_data"] == 0 and stats["errors_check"] == 0
    assert stats["E0_hat"] == 0.0
    assert sum(stats["j_hist_d0"]) + sum(stats["j_hist_d1"]) == 20000
    assert rate["Q"] == stats["Q_hat"]
    assert rate["feasible"] is True


@pytest.mark.parametrize("argv", [
    ("--L", "4", "--mu", "50", "--eta", "1", "--blocks", "20000", "--seed", "19"),
    ("--L", "2", "--mu", "700", "--eta", "1", "--blocks", "1000"),
    ("--L", "2", "--mu", "0.1", "--eta", "1", "--blocks", "1000", "--p-dark", "0.999999"),
    ("--L", "100000", "--mu", "0.1", "--eta", "0.1", "--blocks", "10", "--seed", "1"),
])
def test_simulate_rates_a_yield_estimate_above_1_at_1(capsys, argv):
    # every block clicks, so Q_hat is a binomial estimate of 1 and noise lifts it
    stats, rate = run_json(capsys, "simulate", *argv)
    assert stats["Q_hat"] > 1.0 and rate["Q"] == 1.0
    L, mu = int(argv[1]), float(argv[3])
    direct = key_rate(RateInputs(L=L, mu=mu, p0=0.5, Q=1.0, E0=stats["E0_hat"],
                                 E1=stats["E1_hat"]))
    assert (rate["rtag"], rate["f_pa"], rate["f_ec"], rate["rate_per_pulse"],
            rate["feasible"]) == (direct.rtag, direct.f_pa, direct.f_ec,
                                  direct.rate_per_pulse, direct.feasible)


def test_simulate_reproducible_across_jobs(capsys):
    # three batches of about 4,096 expected clicks
    base = ("simulate", "--L", "2", "--mu", "0.1", "--eta", "0.5",
            "--blocks", "200000", "--seed", "7", "--p-dark", "1e-4")
    _, serial, _ = run_cli(capsys, *base, "--jobs", "1")
    _, parallel, _ = run_cli(capsys, *base, "--jobs", "4")
    _, again, _ = run_cli(capsys, *base, "--jobs", "4")
    assert serial == parallel == again


def test_simulate_rejects_csv(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--L", "2", "--mu", "0.1", "--eta", "0.5",
        "--blocks", "1000", "--format", "csv",
    )
    assert code == 2
    assert "json-lines" in err


# --- rtag ---------------------------------------------------------------------

def test_rtag_closed_form_and_oracle(capsys):
    (record,) = run_json(
        capsys, "rtag", "--L", "4", "--mu", "0.3", "--oracle"
    )
    assert record["value"] == pytest.approx(
        rtag_coherent(TagParams(4, 0.3)), rel=1e-12
    )
    assert abs(record["value"] - record["oracle_value"]) <= (
        record["truncation_bound"] + 1e-12
    )


def test_rtag_work_limit_exits_4(capsys):
    code, out, err = run_cli(
        capsys, "rtag", "--L", "9", "--mu", "0.1", "--oracle",
        "--cap", "10", "--work-limit", "1e8",
    )
    assert code == 4
    assert "work" in err


def test_rtag_oracle_far_above_the_cap_sees_nothing(capsys):
    (record,) = run_json(capsys, "rtag", "--L", "2", "--mu", "800", "--oracle")
    assert (record["oracle_value"], record["truncation_bound"]) == (0.0, 1.0)


@pytest.mark.parametrize("L, cap", [(8, 6), (7, 9)])
def test_rtag_largest_default_oracles(capsys, L, cap):
    # the largest grids the default meter admits at L = 8 and 7; one more
    # photon per pulse exits 4
    argv = ("rtag", "--L", str(L), "--mu", "0.2", "--oracle", "--cap")
    (record,) = run_json(capsys, *argv, str(cap))
    assert abs(record["oracle_value"] - record["value"]) <= (
        record["truncation_bound"] + 1e-12
    )
    code, out, err = run_cli(capsys, *argv, str(cap + 1))
    assert code == 4 and out == ""


@pytest.mark.parametrize("cap_and_mu", [
    ("--L", "2", "--mu", "0.1", "--cap", "200"),  # 1/200! once overflowed
    # weights that underflowed where mass lies were once refused (exit 2)
    ("--L", "2", "--mu", "100", "--cap", "150"),
    ("--L", "3", "--mu", "150", "--cap", "170"),
    ("--L", "3", "--mu", "40", "--cap", "120"),
])
def test_rtag_oracle_answers_within_its_bound(capsys, cap_and_mu):
    code, out, err = run_cli(capsys, "rtag", "--oracle", *cap_and_mu)
    assert code == 0, err
    (record,) = map(json.loads, out.splitlines())
    assert abs(record["oracle_value"] - record["value"]) <= (
        record["truncation_bound"] + 1e-12
    )


@pytest.mark.parametrize("flag, value, param", [
    ("--cap", "3", "cap"),
    ("--work-limit", "nan", "work_limit"),
    ("--cap", "8", "cap"),  # the default value, but given
])
def test_rtag_without_oracle_refuses_oracle_flags(capsys, tmp_path, flag, value, param):
    base = ("rtag", "--L", "4", "--mu", "0.1")
    code, out, err = run_cli(capsys, *base, flag, value)
    assert code == 2 and out == ""
    assert f"parameter '{param}': applies only with --oracle" in err
    cfg = tmp_path / "closed.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    code, out, err = run_cli(capsys, *base, "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"parameter '{param}': applies only with --oracle" in err


@pytest.mark.parametrize("argv, param", [
    # a NaN limit would switch the oracle's work meter off; keep L small
    (("rtag", "--L", "3", "--mu", "0.3", "--oracle", "--cap", "3",
      "--work-limit", "nan"), "work_limit"),
    # an infinite tolerance would skip the zoom rounds
    (("keyrate", "--L", "20", "--eta-db", "20", "--error-rate", "0.03",
      "--optimize", "--tol", "inf"), "tolerance"),
    (("sweep", "--L-list", "2", "--eta-db-range", "0:10:10", "--error-rate", "0.03",
      "--tol", "inf"), "tolerance"),
])
def test_meter_and_search_limits_refuse_non_finite(capsys, argv, param):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"parameter '{param}'" in err


def test_rtag_source_file(capsys, tmp_path):
    path = tmp_path / "uniform3.txt"
    lines = [
        " ".join(str(b) for b in bits) + " 0.125"
        for bits in itertools.product((0, 1), repeat=3)
    ]
    path.write_text("# uniform occupation\n" + "\n".join(lines) + "\n")
    (record,) = run_json(capsys, "rtag", "--source", str(path))
    assert record["L"] == 3
    assert record["mu"] is None
    assert record["value"] == pytest.approx(0.375, rel=1e-12)

    code, _, err = run_cli(capsys, "rtag", "--source", str(path), "--mu", "0.1")
    assert code == 2 and "'mu'" in err
    code, _, err = run_cli(capsys, "rtag", "--source", str(path), "--oracle")
    assert code == 2 and "'oracle'" in err
    code, _, err = run_cli(capsys, "rtag", "--source", str(path), "--L", "4")
    assert code == 2 and "'L'" in err


# --- calibrate -------------------------------------------------------------------

def test_calibrate_two_detector_dark_source(capsys):
    (record,) = run_json(capsys, "calibrate", "--mode", "2det", "--mu", "0")
    assert record["record"] == "calibration"
    assert record["mode"] == "2det"
    assert record["n_double"] == 0
    assert record["bound"] == 0.0
    assert record["true_rtag"] == 0.0
    assert record["n_triple"] is None


def test_calibrate_two_detector_bound(capsys):
    (record,) = run_json(
        capsys, "calibrate", "--mode", "2det", "--mu", "0.02",
        "--n-trains", "200000", "--seed", "5",
    )
    assert record["bound"] >= record["true_rtag"] - 3 * record["sigma"]
    assert record["true_rtag"] == pytest.approx(
        rtag_coherent(TagParams(10, 0.02)), rel=1e-12
    )


def test_calibrate_three_detector_with_event_log(capsys, tmp_path):
    log = tmp_path / "events.csv"
    (record,) = run_json(
        capsys, "calibrate", "--mode", "3det", "--mu", "0.05",
        "--n-trains", "30000", "--seed", "3", "--eta-abs", "0.5",
        "--dead-time", "2", "--event-log", str(log),
    )
    assert record["mode"] == "3det"
    assert record["bound"] >= record["true_rtag"] - 3 * record["sigma"]
    lines = log.read_text().splitlines()
    assert lines[0] == "train,double,triple"
    assert len(lines) == 1 + 30000
    doubles = sum(int(line.split(",")[1]) for line in lines[1:])
    assert doubles == record["n_double"]


@pytest.mark.parametrize("mode, simulate, events, text", [
    ("2det", "simulate_two_detector", [[0], [1], [0]],
     "train,double\n0,0\n1,1\n2,0\n"),
    ("3det", "simulate_three_detector", [[0, 0], [1, 0], [1, 1]],
     "train,double,triple\n0,0,0\n1,1,0\n2,1,1\n"),
])
def test_calibrate_event_log_text(capsys, tmp_path, monkeypatch, mode, simulate,
                                  events, text):
    def fake(setup, seed, collect_events, n_jobs=1):
        return CalibrationReport(
            mode=mode, n_test=3, n_double=2, n_triple=1, bound=0.0, true_rtag=0.0,
            slack=0.0, sigma=0.0, events=np.array(events, dtype=bool),
        )

    monkeypatch.setattr(f"dqps.cli.{simulate}", fake)
    log = tmp_path / "events.csv"
    run_json(capsys, "calibrate", "--mode", mode, "--mu", "0.02",
             "--event-log", str(log))
    assert log.read_bytes() == text.encode()


def _percent_template_rows(start, events):
    """The event-log rows as the earlier writer built them, one % template per cell."""
    row = ",".join(["%d"] * (1 + events.shape[1])) + "\n"
    trains = np.arange(start, start + len(events))
    cells = np.column_stack([trains, events]).ravel().tolist()
    return ((row * len(events)) % tuple(cells)).encode()


def _f_string_rows(start, events):
    """The event-log rows one f-string each."""
    return "".join(
        f"{start + i}" + "".join(f",{int(flag)}" for flag in row) + "\n"
        for i, row in enumerate(events.tolist())
    ).encode()


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("density", [0.0005, 0.5, 1.0])
@pytest.mark.parametrize("start", [0, 7, 995, 99_990, 10**6 - 3])
def test_event_rows_match_an_f_string_per_row(start, density, columns):
    # 70,000 rows: every window crosses a tile of 10, 100 or 1000 rows, and
    # from 99,990 on a chunk and the 5-to-6-digit boundary
    events = np.random.default_rng(start).random((70_000, columns)) < density
    assert b"".join(dqps.cli._event_rows(start, events)) == _f_string_rows(start, events)


def _flags(fill, rows, columns):
    if fill == "mixed":
        return np.random.default_rng(columns).random((rows, columns)) < 0.5
    return np.full((rows, columns), fill == "true")


@pytest.mark.parametrize("columns", [1, 2])
@pytest.mark.parametrize("fill", ["false", "true", "mixed"])
def test_event_rows_match_the_percent_template(capsys, tmp_path, monkeypatch,
                                               columns, fill):
    # windows across 9|10, 99|100, ..., 999999|1000000, a 1000-row tile and a
    # 65,000-row buffer
    windows = [(0, 1), (0, 10), (0, 1000)]
    windows += [(10**d - back, 2 * back) for d in range(1, 7) for back in (1, 3)]
    windows += [((1 << 16) - 3, 7), (3, (1 << 16) + 99_999)]
    for start, length in windows:
        events = _flags(fill, length, columns)
        expected = _percent_template_rows(start, events)
        parts = list(dqps.cli._event_rows(start, events))
        # each buffer holds up to a chunk of rows, every one of the same width
        for part in parts:
            rows = part.splitlines()
            assert len(rows) <= dqps.cli._EVENT_LOG_CHUNK and len(set(map(len, rows))) == 1
        assert b"".join(parts) == expected, (start, length)

    # the whole log through calibrate: two chunks, the second crossing 99999|100000
    events = _flags(fill, 100_001, columns)
    mode, simulate = [("2det", "simulate_two_detector"),
                      ("3det", "simulate_three_detector")][columns - 1]

    def fake(setup, seed, collect_events, n_jobs=1):
        return CalibrationReport(
            mode=mode, n_test=len(events), n_double=0, n_triple=0, bound=0.0,
            true_rtag=0.0, slack=0.0, sigma=0.0, events=events,
        )

    monkeypatch.setattr(f"dqps.cli.{simulate}", fake)
    log = tmp_path / "events.csv"
    run_json(capsys, "calibrate", "--mode", mode, "--mu", "0.02", "--event-log", str(log))
    header = ",".join(["train", "double", "triple"][:1 + columns]) + "\n"
    assert log.read_bytes() == header.encode() + _percent_template_rows(0, events)


def test_calibrate_two_detector_source_file(capsys, tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("0 0 0.5\n1 0 0.2\n0 1 0.2\n1 1 0.05\n2 0 0.05\n")
    (record,) = run_json(
        capsys, "calibrate", "--mode", "2det", "--L", "2", "--mu", "0.5",
        "--n-trains", "40000", "--seed", "9", "--source", str(path),
    )
    dist = SourceDistribution.from_file(str(path))
    report = simulate_two_detector(
        CalibSetup2(2, 0.5, n_test=40000, source=dist), seed=9
    )
    assert record["true_rtag"] == rtag_general(dist)
    for name in ("mode", "n_test", "n_double", "n_triple", "bound", "true_rtag",
                 "slack", "sigma"):
        assert record[name] == getattr(report, name), name


def test_calibrate_three_detector_source_file(capsys, tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("0 0 0.5\n1 0 0.2\n0 1 0.2\n1 1 0.05\n2 0 0.05\n")
    (record,) = run_json(
        capsys, "calibrate", "--mode", "3det", "--L", "2", "--mu", "0.5",
        "--n-trains", "40000", "--seed", "9", "--eta-abs", "0.8", "--source", str(path),
    )
    dist = SourceDistribution.from_file(str(path))
    report = simulate_three_detector(
        CalibSetup3(2, 0.5, eta_abs=0.8, n_test=40000, source=dist), seed=9
    )
    assert record["true_rtag"] == rtag_general(dist) and report.n_double > 0
    for name in ("mode", "n_test", "n_double", "n_triple", "bound", "true_rtag",
                 "slack", "sigma"):
        assert record[name] == getattr(report, name), name


def test_calibrate_unwritable_event_log_exits_3_with_empty_stdout(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "calibrate", "--mode", "2det", "--mu", "0.02",
        "--n-trains", "20000", "--event-log", str(tmp_path / "missing" / "ev.csv"),
    )
    assert code == 3 and out == ""


def test_calibrate_rejects_foreign_mode_flags(capsys):
    code, _, err = run_cli(
        capsys, "calibrate", "--mode", "2det", "--mu", "0.01",
        "--dead-time", "3",
    )
    assert code == 2 and "dead_time" in err
    code, _, err = run_cli(
        capsys, "calibrate", "--mode", "3det", "--mu", "0.01",
        "--true-T", "0.4",
    )
    assert code == 2 and "true_T" in err
    code, _, err = run_cli(
        capsys, "calibrate", "--mode", "2det", "--mu", "0.01", "--eta3", "0.2",
    )
    assert code == 2 and "'eta3': not valid for mode 2det" in err


# calibrate's 15 bench flags, each with the modes whose setup owns its field
BENCH_FLAGS = {
    "--eta1": ("2det", "3det"), "--eta2": ("2det", "3det"), "--eta3": ("3det",),
    "--eta-abs": ("3det",), "--true-T": ("2det",), "--true-R": ("2det",),
    "--true-T1": ("3det",), "--true-R1": ("3det",), "--true-T2": ("3det",),
    "--true-R2": ("3det",), "--true-eff1": ("2det", "3det"),
    "--true-eff2": ("2det", "3det"), "--true-eff3": ("3det",),
    "--true-eta-abs": ("3det",), "--dead-time": ("3det",),
}


def test_calibrate_bench_flags_are_the_setups_fields(capsys):
    code, out, _ = run_cli(capsys, "calibrate", "--help")
    other = {"--help", "--config", "--output", "--mode", "--L", "--mu", "--n-trains",
             "--seed", "--jobs", "--source", "--event-log", "--format"}
    assert code == 0 and set(re.findall(r"--[\w-]+", out)) - other == set(BENCH_FLAGS)
    for flag, modes in BENCH_FLAGS.items():
        name = flag[2:].replace("-", "_")
        for mode in ("2det", "3det"):
            _, _, err = run_cli(capsys, "calibrate", "--mode", mode, "--mu", "0", flag, "1")
            refused = f"parameter '{name}': not valid for mode {mode}" in err
            assert refused == (mode not in modes), (flag, mode)
    # the type follows the field: dead_time is an int
    code, _, err = run_cli(
        capsys, "calibrate", "--mode", "3det", "--mu", "0", "--dead-time", "1.5"
    )
    assert code == 2 and "invalid int value" in err


def test_calibrate_reads_an_empty_source_path(capsys):
    # an empty path is a file name like any other, as for rtag --source
    for argv in (("calibrate", "--mode", "2det", "--mu", "0.02"), ("rtag",)):
        code, out, err = run_cli(capsys, *argv, "--source", "")
        assert code == 3 and out == "" and "No such file" in err


def test_calibrate_dead_time_beyond_the_train_counts_as_L(capsys):
    base = ("calibrate", "--mode", "3det", "--mu", "0.3", "--n-trains", "20000",
            "--seed", "1")
    code, at_L, err = run_cli(capsys, *base, "--dead-time", "10")
    assert code == 0, err
    for dead in ("9223372036854775807", "100000000000000000000"):
        code, out, err = run_cli(capsys, *base, "--dead-time", dead)
        assert code == 0 and out == at_L, err


def test_calibrate_refuses_a_source_table_beyond_int64(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("0 " * 10 + "0.5\n99999999999999999999" + " 0" * 9 + " 0.5\n")
    calibrate = ("calibrate", "--mode", "2det", "--mu", "0.02", "--n-trains", "1000")
    # rtag refuses the same table
    for argv in (calibrate + ("--source", str(path)), ("rtag", "--source", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: parameter 'support': photons per train must fit in int64"]


@pytest.mark.parametrize("argv", [
    ("simulate", "--L", "2", "--mu", "1e308", "--eta", "1", "--blocks", "10"),
    ("calibrate", "--mode", "2det", "--mu", "1e308", "--n-trains", "10"),
    ("calibrate", "--mode", "3det", "--mu", "1e308", "--n-trains", "10"),
])
def test_mu_beyond_the_poisson_ceiling_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "parameter 'mu': mu * L must be at most" in err


@pytest.mark.parametrize("argv, param", [
    (("simulate", "--L", "2", "--mu", "0.1", "--eta", "1", "--blocks"), "n_blocks"),
    (("calibrate", "--mode", "2det", "--mu", "0.1", "--n-trains"), "n_test"),
    (("calibrate", "--mode", "3det", "--mu", "0.1", "--n-trains"), "n_test"),
])
def test_a_count_beyond_int64_batches_exits_2(capsys, argv, param):
    # one batch may hold every item, so its draws and counts must fit int64
    code, out, err = run_cli(capsys, *argv, str(2**62 + 1))
    assert code == 2 and out == ""
    assert f"parameter '{param}': must be an integer in [1, {2**62}]" in err


def test_calibrate_two_detector_zero_transmission_arm_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "calibrate", "--mode", "2det", "--mu", "0.02", "--true-T", "0",
    )
    assert code == 2 and out == ""
    assert "parameter 'true_T'" in err and "Traceback" not in err


def test_calibrate_three_detector_zero_transmission_arm_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "calibrate", "--mode", "3det", "--mu", "0.02", "--true-R1", "0",
    )
    assert code == 2 and out == ""
    assert "parameter 'true_R1'" in err and "Traceback" not in err


@pytest.mark.parametrize("declared, name", [
    (("--mode", "2det", "--eta1", "1e-200", "--eta2", "1e-200"), "eta1"),
    (("--mode", "2det", "--eta1", "1e-160", "--eta2", "1e-160"), "eta1"),
    (("--mode", "3det", "--eta1", "1e-120", "--eta2", "1e-120", "--eta3", "1e-120"),
     "eta1"),
    (("--mode", "3det", "--eta1", "1e-52", "--eta2", "1e-52", "--eta3", "1e-52"),
     "eta1"),
    (("--mode", "3det", "--eta-abs", "1e-170"), "eta_abs"),
])
def test_calibrate_refuses_efficiencies_that_overflow_the_bound(capsys, declared, name):
    code, out, err = run_cli(
        capsys, "calibrate", "--mu", "0.02", "--n-trains", "20000", *declared,
    )
    assert code == 2 and out == ""
    assert f"parameter '{name}': declared efficiencies so small" in err


# --- library defaults ---------------------------------------------------------------

def _default(func, name):
    return str(inspect.signature(func).parameters[name].default)


def _setup_defaults(setup):
    """Every set default of a calibration setup as its flag and value."""
    argv = []
    for field in dataclasses.fields(setup):
        if field.name not in ("L", "mu") and field.default is not None:
            flag = "n-trains" if field.name == "n_test" else field.name.replace("_", "-")
            argv += ["--" + flag, str(field.default)]
    return argv


def _channel_defaults():
    flags = {"p_dark": "--p-dark", "e_mis": "--delta", "p_flip": "--bitflip"}
    defaults = {field.name: field.default for field in dataclasses.fields(ChannelModel)}
    return [arg for name, flag in flags.items() for arg in (flag, str(defaults[name]))]


KEYRATE_20DB = ("keyrate", "--L", "20", "--eta-db", "20", "--error-rate", "0.03")
MU_LO, MU_HI = inspect.signature(optimize_mu).parameters["mu_bounds"].default
OPTIMIZER_DEFAULTS = (
    "--mu-lo", str(MU_LO), "--mu-hi", str(MU_HI),
    "--tol", _default(optimize_mu, "tolerance"),
)


@pytest.mark.parametrize("argv, defaults", [
    (("simulate", "--L", "4", "--mu", "0.1", "--eta", "0.3", "--blocks", "5000",
      "--seed", "17"),
     _channel_defaults() + ["--jobs", _default(run_simulation, "n_jobs")]),
    (("calibrate", "--mode", "2det", "--mu", "0.02", "--seed", "11"),
     _setup_defaults(CalibSetup2) + ["--jobs", _default(simulate_two_detector, "n_jobs")]),
    (("calibrate", "--mode", "3det", "--mu", "0.05", "--seed", "13"),
     _setup_defaults(CalibSetup3)
     + ["--jobs", _default(simulate_three_detector, "n_jobs")]),
    (("rtag", "--L", "4", "--mu", "0.3", "--oracle"),
     ["--cap", _default(rtag_bruteforce, "photon_cap"),
      "--work-limit", _default(rtag_bruteforce, "work_limit")]),
    (KEYRATE_20DB + ("--mu", "0.005"),
     ["--ec-inefficiency", _default(key_rate, "ec_inefficiency")]),
    (KEYRATE_20DB + ("--optimize",), OPTIMIZER_DEFAULTS),
    (("sweep", "--L-list", "2,4", "--eta-db-range", "0:20:10", "--error-rate", "0.03"),
     OPTIMIZER_DEFAULTS),
])
def test_left_out_flags_take_the_library_defaults(capsys, argv, defaults):
    code, left_out, err = run_cli(capsys, *argv)
    assert code == 0, err
    code, explicit, err = run_cli(capsys, *argv, *defaults)
    assert code == 0 and explicit == left_out, err


# --- golden outputs ---------------------------------------------------------------

# Exact stdout of small deterministic runs.  A change to these bytes has to
# be deliberate and logged.  Every pin but the sweep dead row is a TEXT_CASE
# of the CLI parity matrix, in tests/cli_parity.json, so one re-record moves
# them all.
def _pinned(argv) -> dict:
    return _parity_golden()[_parity_key(argv)]


def _pinned_text(*cases) -> list:
    # named by the call alone, so that a re-record keeps every test id
    return [pytest.param(argv, _pinned(argv)["text"], id=_parity_key(argv))
            for argv in cases]


@pytest.mark.parametrize("argv, golden", _pinned_text(
    KEYRATE, KEYRATE + ("--format", "csv"), OPTIMIZED,
    INFEASIBLE, INFEASIBLE + ("--format", "csv"),
))
def test_golden_keyrate_outputs(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == golden, err


GOLDEN_SWEEP_DEAD_ROW = (
    "L,eta_db,eta,mu_opt,Q,rtag,rate\n"
    "2,40,0.0001,nan,nan,nan,0\n"
    "2,0,1,5.051669976251535e-05,5.0515423815523536e-05,"
    "5.1035301483287491e-09,2.1226766331622511e-09\n"
)


GOLDEN_SWEEP = ("sweep", "--L-list", "2", "--eta-db-range", "0:40:40", "--error-rate", "0.11")


@pytest.mark.parametrize("argv, golden", [
    pytest.param(GOLDEN_SWEEP, GOLDEN_SWEEP_DEAD_ROW, id=_parity_key(GOLDEN_SWEEP)),
    *_pinned_text(RTAG, RTAG + ("--format", "csv"), GOLDEN_2DET + ("--format", "csv"),
                  GOLDEN_3DET + ("--format", "csv")),
])
def test_golden_record_outputs(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == golden, err


def test_golden_outputs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *GOLDEN_2DET)
    assert code == 0 and out == _pinned(GOLDEN_2DET)["text"], err

    golden = _pinned(GOLDEN_3DET_LOG)
    code, out, err = run_cli(capsys, *GOLDEN_3DET_LOG)
    assert code == 0 and out == golden["text"], err
    log = (tmp_path / "events.csv").read_bytes()
    assert hashlib.sha256(log).hexdigest() == golden["files"]["events.csv"]

    code, out, err = run_cli(capsys, *GOLDEN_SIMULATE)
    assert code == 0 and out == _pinned(GOLDEN_SIMULATE)["text"], err


def test_event_log_chunks_join_to_the_golden_bytes(capsys, tmp_path, monkeypatch):
    # 50000 rows in buffers of at most four 1000-row tiles, not 65
    monkeypatch.setattr("dqps.cli._EVENT_LOG_CHUNK", 4096)
    monkeypatch.chdir(tmp_path)
    # at one job, against the bytes pinned at two
    golden = _pinned(GOLDEN_3DET_LOG)
    code, out, err = run_cli(capsys, *GOLDEN_3DET, "--event-log", "events.csv")
    assert code == 0 and out == golden["text"], err
    log = (tmp_path / "events.csv").read_bytes()
    assert hashlib.sha256(log).hexdigest() == golden["files"]["events.csv"]


# --- output plumbing ----------------------------------------------------------

def test_output_file_and_env_redirect(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DQPS_OUTPUT_DIR", str(tmp_path))
    code, out, err = run_cli(
        capsys, "rtag", "--L", "2", "--mu", "0.1", "--output", "tag.json"
    )
    assert code == 0 and out == ""
    record = json.loads((tmp_path / "tag.json").read_text())
    assert record["value"] == pytest.approx(
        rtag_coherent(TagParams(2, 0.1)), rel=1e-12
    )


def test_unwritable_output_exits_3(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(
        capsys, "rtag", "--L", "2", "--mu", "0.1", "--output", str(target)
    )
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("rtag", "--source", "table.txt"),
    ("calibrate", "--mode", "2det", "--L", "2", "--mu", "0.1", "--n-trains", "1000",
     "--source", "table.txt"),
    ("rtag", "--config", "rtag.cfg"),
])
def test_input_files_that_are_not_utf8_exit_2(capsys, tmp_path, monkeypatch, argv):
    # a latin-1 mu sign (0xb5) in a comment line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.txt").write_bytes(b"# \xb5 = 0.1\n0 0 0.5\n1 1 0.5\n")
    (tmp_path / "rtag.cfg").write_bytes(b"# \xb5 = 0.1\nL = 2\nmu = 0.1\n")
    code, out, err = run_cli(capsys, *argv)
    param = "config" if "--config" in argv else "source"
    assert code == 2 and out == ""
    assert err == f"error: parameter '{param}': not UTF-8 text: invalid start byte at offset 2\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "--L", str(10**16), "--mu", "1e-10", "--eta", "0.5", "--blocks", "10"),
    ("calibrate", "--mode", "2det", "--L", str(10**16), "--mu", "0.1", "--n-trains", "1000"),
    ("calibrate", "--mode", "3det", "--L", str(10**16), "--mu", "0.1", "--n-trains", "1000"),
])
def test_an_array_numpy_cannot_allocate_exits_4(capsys, argv):
    # every guard passes, then one array asks for over 100 PiB, more than any
    # 64-bit host can map
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "keyrate", "--frobnicate", "1")
    assert code == 2


# --- entry points ----------------------------------------------------------------

def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(dqps.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )


def run_module(*argv):
    return run_python("-m", "dqps", *argv)


def test_module_entry_prints_one_record():
    proc = run_module("rtag", "--L", "2", "--mu", "0.1")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["value"] == rtag_coherent(TagParams(2, 0.1))


def test_module_entry_passes_on_the_exit_code():
    proc = run_module("rtag", "--L", "1", "--mu", "0.1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "parameter 'L'" in proc.stderr


# --- one process, many calls ------------------------------------------------------

def test_config_applies_to_its_own_call_only(capsys, tmp_path):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("error-rate = 0.05\n")
    argv = ("keyrate", "--L", "20", "--eta-db", "20", "--mu", "0.005")
    (record,) = run_json(capsys, *argv, "--config", str(cfg))
    assert record["error_rate"] == 0.05
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "parameter 'error_rate': required" in err
    (again,) = run_json(capsys, *argv, "--config", str(cfg))
    assert again == record


# every subcommand in turn, with help and argparse errors in between
IN_PROCESS_SEQUENCE = (
    KEYRATE,
    ("--help",),
    ("sweep", "--L-list", "2", "--eta-db-range", "0:40:40", "--error-rate", "0.11"),
    ("keyrate", "--L", "x"),
    ("simulate", "--L", "4", "--mu", "0.1", "--eta", "0.3", "--blocks", "50000"),
    ("sweep", "--help"),
    RTAG + ("--format", "csv"),
    ("calibrate", "--mode", "4det"),
    ("calibrate", "--mode", "2det", "--mu", "0.02", "--n-trains", "20000"),
)


def test_in_process_calls_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # help text wraps at the same width
    for argv in IN_PROCESS_SEQUENCE:
        code, out, _ = run_cli(capsys, *argv)
        proc = run_module(*argv)
        assert (code, out) == (proc.returncode, proc.stdout), argv


def test_parser_is_built_once_per_process(tmp_path):
    cfg = tmp_path / "rtag.cfg"
    cfg.write_text("L = 2\nmu = 0.1\n")
    script = (
        "import sys, dqps.cli as cli\n"
        "builds = []\n"
        "build = cli._build_parser\n"
        "cli._build_parser = lambda: builds.append(1) or build()\n"
        "counts = []\n"
        "for extra in ([], [], [], ['--config', sys.argv[1]], []):\n"
        "    assert cli.main(['rtag', '--L', '2', '--mu', '0.1', *extra]) == 0\n"
        "    counts.append(len(builds))\n"
        "print(*counts)\n"
    )
    proc = run_python("-c", script, str(cfg))
    assert proc.returncode == 0, proc.stderr
    # import built nothing and the first call built the parser that every
    # call shares, the --config call too
    assert proc.stdout.splitlines()[-1] == "1 1 1 1 1"
