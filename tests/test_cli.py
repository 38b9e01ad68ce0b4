import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dqps
from dqps import (
    CalibrationReport,
    CalibSetup2,
    RateInputs,
    SourceDistribution,
    TagParams,
    channel_q,
    key_rate,
    optimize_mu,
    rtag_coherent,
    rtag_general,
    simulate_two_detector,
)
from dqps.cli import main


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


def test_keyrate_optimize_refuses_ec_inefficiency(capsys):
    code, out, err = run_cli(
        capsys, "keyrate", "--L", "2", "--eta-db", "20", "--error-rate", "0.03",
        "--optimize", "--ec-inefficiency", "1.2",
    )
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


def test_sweep_rejects_malformed_grid(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--L-list", "2", "--eta-db-range", "10:0:5",
        "--error-rate", "0.03",
    )
    assert code == 2
    assert "eta_db_range" in err


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


def test_simulate_reproducible_across_jobs(capsys):
    base = ("simulate", "--L", "2", "--mu", "0.1", "--eta", "0.5",
            "--blocks", "40000", "--seed", "7", "--p-dark", "1e-4")
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
    def fake(setup, seed, n_jobs, collect_events):
        return CalibrationReport(
            mode=mode, n_test=3, n_double=2, n_triple=1, bound=0.0, true_rtag=0.0,
            slack=0.0, sigma=0.0, events=np.array(events, dtype=bool),
        )

    monkeypatch.setattr(f"dqps.cli.{simulate}", fake)
    log = tmp_path / "events.csv"
    run_json(capsys, "calibrate", "--mode", mode, "--mu", "0.02",
             "--event-log", str(log))
    assert log.read_bytes() == text.encode()


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
        capsys, "calibrate", "--mode", "3det", "--mu", "0.01",
        "--source", "photon_table.txt",
    )
    assert code == 2 and "'source': not valid for mode 3det" in err
    code, _, err = run_cli(
        capsys, "calibrate", "--mode", "2det", "--mu", "0.01", "--eta3", "0.2",
    )
    assert code == 2 and "'eta3': not valid for mode 2det" in err


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


# --- golden outputs ---------------------------------------------------------------

# Exact stdout of small fixed-seed runs.  A change to these bytes changes
# what a seed means, so it has to be deliberate and logged.
GOLDEN_2DET = (
    '{"L": 10, "bound": 0.00336, "eta1": 0.25, "eta2": 0.25, "eta3": null, '
    '"eta_abs": null, "mode": "2det", "mu": 0.02, "n_double": 21, '
    '"n_test": 50000, "n_triple": null, "record": "calibration", "seed": 11, '
    '"sigma": 0.0007332121111929343, "slack": -0.002001981472872197, '
    '"true_rtag": 0.005361981472872197}\n'
)
GOLDEN_3DET = (
    '{"L": 10, "bound": 0.12650666666666666, "eta1": 0.25, "eta2": 0.25, '
    '"eta3": 0.25, "eta_abs": 0.5, "mode": "3det", "mu": 0.05, "n_double": 59, '
    '"n_test": 50000, "n_triple": 13, "record": "calibration", "seed": 13, '
    '"sigma": 0.025100006197431725, "slack": 0.09526994605454132, '
    '"true_rtag": 0.031236720612125332}\n'
)
GOLDEN_3DET_LOG_SHA256 = (
    "54e7b5115c3750cbd5204ea7109a9d0949d4db24e739935a09b72ce803723140"
)
GOLDEN_SIMULATE = (
    '{"Delta_hat": 0.05540661304736372, "E0_hat": 0.00376, "E1_hat": 0.00432, '
    '"Q_hat": 0.08952, "errors_check": 54, "errors_data": 47, '
    '"j_hist_d0": [22789, 751, 763, 689], "j_hist_d1": [22762, 797, 752, 697], '
    '"n_rep": 50000, "record": "observed_stats", "sifted_check": 1133, '
    '"sifted_data": 1119, "tagged_data": 62}\n'
    '{"L": 4, "Q": 0.08952, "f_ec": 0.2513962081975012, '
    '"f_pa": 0.6970894075767153, "feasible": true, "mu": 0.1, "p0": 0.5, '
    '"rate_per_pulse": 0.00028822297974325883, "record": "keyrate", '
    '"rtag": 0.041442334169035804}\n'
)


GOLDEN_KEYRATE_ARGS = (
    "keyrate", "--L", "3", "--eta", "0.05", "--error-rate", "0.02", "--mu", "0.01",
)
GOLDEN_KEYRATE = (
    '{"L": 3, "Q": 0.0009995001666250085, "error_rate": 0.02, "eta": 0.05, '
    '"eta_db": 13.010299956639813, "f_ec": 0.14144054254182067, '
    '"f_pa": 0.47333975783878124, "feasible": true, "mu": 0.01, '
    '"optimized": false, "p0": 1.0, "rate_per_pulse": 0.0001283423846522747, '
    '"record": "keyrate", "rtag": 0.0003440558916817269}\n'
)
GOLDEN_KEYRATE_CSV = (
    "record,L,eta,eta_db,error_rate,p0,optimized,mu,Q,rtag,f_pa,f_ec,"
    "rate_per_pulse,feasible\n"
    "keyrate,3,0.050000000000000003,13.010299956639813,0.02,1,false,0.01,"
    "0.00099950016662500845,0.00034405589168172689,0.47333975783878124,"
    "0.14144054254182067,0.0001283423846522747,true\n"
)
GOLDEN_KEYRATE_OPTIMIZED = (
    '{"L": 2, "Q": 1.6299262925916723e-05, "error_rate": 0.03, "eta": 0.01, '
    '"eta_db": 20.0, "f_ec": 0.1943918578315762, "f_pa": 0.5023244865578753, '
    '"feasible": true, "mu": 0.001629939576034609, "optimized": true, '
    '"p0": 1.0, "rate_per_pulse": 2.4716500219647547e-06, "record": "keyrate", '
    '"rtag": 5.301872772535996e-06}\n'
)
GOLDEN_KEYRATE_INFEASIBLE_ARGS = (
    "keyrate", "--L", "2", "--eta", "1e-4", "--error-rate", "0.25", "--optimize",
)
GOLDEN_KEYRATE_INFEASIBLE = (
    '{"L": 2, "Q": null, "error_rate": 0.25, "eta": 0.0001, "eta_db": 40.0, '
    '"f_ec": null, "f_pa": null, "feasible": false, "mu": null, '
    '"optimized": true, "p0": 1.0, "rate_per_pulse": 0.0, "record": "keyrate", '
    '"rtag": null}\n'
)
GOLDEN_KEYRATE_INFEASIBLE_CSV = (
    "record,L,eta,eta_db,error_rate,p0,optimized,mu,Q,rtag,f_pa,f_ec,"
    "rate_per_pulse,feasible\n"
    "keyrate,2,0.0001,40,0.25,1,true,,,,,,0,false\n"
)


@pytest.mark.parametrize("argv, golden", [
    (GOLDEN_KEYRATE_ARGS, GOLDEN_KEYRATE),
    (GOLDEN_KEYRATE_ARGS + ("--format", "csv"), GOLDEN_KEYRATE_CSV),
    (("keyrate", "--L", "2", "--eta-db", "20", "--error-rate", "0.03",
      "--optimize"), GOLDEN_KEYRATE_OPTIMIZED),
    (GOLDEN_KEYRATE_INFEASIBLE_ARGS, GOLDEN_KEYRATE_INFEASIBLE),
    (GOLDEN_KEYRATE_INFEASIBLE_ARGS + ("--format", "csv"),
     GOLDEN_KEYRATE_INFEASIBLE_CSV),
])
def test_golden_keyrate_outputs(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == golden, err


GOLDEN_SWEEP_DEAD_ROW = (
    "L,eta_db,eta,mu_opt,Q,rtag,rate\n"
    "2,40,0.0001,nan,nan,nan,0\n"
    "2,0,1,5.051673070041216e-05,5.0515454751857502e-05,"
    "5.1035363992208579e-09,2.1226766331622511e-09\n"
)
GOLDEN_RTAG_ORACLE_ARGS = ("rtag", "--L", "5", "--mu", "0.2", "--oracle", "--cap", "6")
GOLDEN_RTAG_ORACLE = (
    '{"L": 5, "mu": 0.2, "oracle_value": 0.17300700558420867, "record": "rtag", '
    '"source": null, "truncation_bound": 1.0662389259330613e-08, '
    '"value": 0.17300701624659764}\n'
)
GOLDEN_RTAG_ORACLE_CSV = (
    "record,source,oracle_value,truncation_bound,L,mu,value\n"
    "rtag,,0.17300700558420867,1.0662389259330613e-08,5,0.20000000000000001,"
    "0.17300701624659764\n"
)
GOLDEN_2DET_CSV = (
    "record,mode,L,mu,seed,n_test,n_double,n_triple,bound,true_rtag,slack,sigma,"
    "eta1,eta2,eta3,eta_abs\n"
    "calibration,2det,10,0.02,11,50000,21,,0.0033600000000000001,"
    "0.0053619814728721972,-0.002001981472872197,0.00073321211119293432,"
    "0.25,0.25,,\n"
)
GOLDEN_3DET_CSV = (
    "record,mode,L,mu,seed,n_test,n_double,n_triple,bound,true_rtag,slack,sigma,"
    "eta1,eta2,eta3,eta_abs\n"
    "calibration,3det,10,0.050000000000000003,13,50000,59,13,0.12650666666666666,"
    "0.031236720612125332,0.095269946054541324,0.025100006197431725,"
    "0.25,0.25,0.25,0.5\n"
)


@pytest.mark.parametrize("argv, golden", [
    (("sweep", "--L-list", "2", "--eta-db-range", "0:40:40", "--error-rate", "0.11"),
     GOLDEN_SWEEP_DEAD_ROW),
    (GOLDEN_RTAG_ORACLE_ARGS, GOLDEN_RTAG_ORACLE),
    (GOLDEN_RTAG_ORACLE_ARGS + ("--format", "csv"), GOLDEN_RTAG_ORACLE_CSV),
    (("calibrate", "--mode", "2det", "--mu", "0.02", "--n-trains", "50000",
      "--seed", "11", "--format", "csv"), GOLDEN_2DET_CSV),
    (("calibrate", "--mode", "3det", "--mu", "0.05", "--n-trains", "50000",
      "--seed", "13", "--eta-abs", "0.5", "--dead-time", "2", "--format", "csv"),
     GOLDEN_3DET_CSV),
])
def test_golden_record_outputs(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == golden, err


def test_golden_rtag_source_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.txt").write_text(
        "# two-pulse table\n0 0 0.5\n1 0 0.2\n0 1 0.2\n1 1 0.1\n"
    )
    code, out, err = run_cli(capsys, "rtag", "--source", "pairs.txt")
    assert code == 0 and out == (
        '{"L": 2, "mu": null, "oracle_value": null, "record": "rtag", '
        '"source": "pairs.txt", "truncation_bound": null, "value": 0.1}\n'
    ), err


def test_golden_outputs(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "calibrate", "--mode", "2det", "--mu", "0.02",
        "--n-trains", "50000", "--seed", "11",
    )
    assert code == 0 and out == GOLDEN_2DET, err

    log = tmp_path / "events.csv"
    code, out, err = run_cli(
        capsys, "calibrate", "--mode", "3det", "--mu", "0.05",
        "--n-trains", "50000", "--seed", "13", "--eta-abs", "0.5",
        "--dead-time", "2", "--event-log", str(log), "--jobs", "2",
    )
    assert code == 0 and out == GOLDEN_3DET, err
    assert hashlib.sha256(log.read_bytes()).hexdigest() == GOLDEN_3DET_LOG_SHA256

    code, out, err = run_cli(
        capsys, "simulate", "--L", "4", "--mu", "0.1", "--eta", "0.3",
        "--blocks", "50000", "--seed", "17", "--p-dark", "1e-3",
        "--delta", "0.2", "--bitflip", "0.01", "--jobs", "2",
    )
    assert code == 0 and out == GOLDEN_SIMULATE, err


def test_event_log_chunks_join_to_the_golden_bytes(capsys, tmp_path, monkeypatch):
    # 50000 rows in chunks of 4096: twelve full chunks and a partial one
    monkeypatch.setattr("dqps.cli._EVENT_LOG_CHUNK", 4096)
    log = tmp_path / "events.csv"
    code, out, err = run_cli(
        capsys, "calibrate", "--mode", "3det", "--mu", "0.05",
        "--n-trains", "50000", "--seed", "13", "--eta-abs", "0.5",
        "--dead-time", "2", "--event-log", str(log),
    )
    assert code == 0 and out == GOLDEN_3DET, err
    assert hashlib.sha256(log.read_bytes()).hexdigest() == GOLDEN_3DET_LOG_SHA256


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


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "keyrate", "--frobnicate", "1")
    assert code == 2


# --- entry points ----------------------------------------------------------------

def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(dqps.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "dqps", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_prints_one_record():
    proc = run_module("rtag", "--L", "2", "--mu", "0.1")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["value"] == rtag_coherent(TagParams(2, 0.1))


def test_module_entry_passes_on_the_exit_code():
    proc = run_module("rtag", "--L", "1", "--mu", "0.1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "parameter 'L'" in proc.stderr
