"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantities, then asserts.  Statistical checks use fixed
seeds and explicit 3-sigma tolerances; runtime budgets are asserted too.
"""

import itertools
import math
import subprocess
import sys
import time
import warnings

import numpy as np
from scipy.stats import chi2_contingency

from dqps import (
    CalibSetup2,
    CalibSetup3,
    ChannelModel,
    ProtocolParams,
    TagParams,
    ThinStatisticsWarning,
    channel_q,
    count_untagged_configs,
    optimize_mu,
    relative_slack_limit,
    rtag_bruteforce,
    rtag_coherent,
    run_simulation,
    simulate_three_detector,
    simulate_two_detector,
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_bruteforce_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for L in range(2, 9):
        for mu in (0.01, 0.05, 0.1, 0.3, 0.5):
            closed = rtag_coherent(TagParams(L, mu))
            oracle = rtag_bruteforce(TagParams(L, mu), photon_cap=10, work_limit=10**10)
            gap = abs(closed - oracle.value) - oracle.truncation_bound
            worst = max(worst, gap)
            assert abs(closed - oracle.value) <= oracle.truncation_bound + 1e-12, (
                f"L={L} mu={mu}: closed {closed!r} vs oracle {oracle.value!r} "
                f"beyond truncation bound {oracle.truncation_bound!r}"
            )
    elapsed = time.monotonic() - t0
    _report(1, True, f"35 grid points, worst excess {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_2_combinatorial_identity():
    def enumerate_untagged(L, m):
        total = 0
        for positions in itertools.combinations(range(L), m):
            if all(b - a >= 2 for a, b in zip(positions, positions[1:])):
                total += 1
        return total

    t0 = time.monotonic()
    checked = 0
    for L in range(2, 17):
        for m in range((L + 1) // 2 + 1):
            assert count_untagged_configs(L, m) == enumerate_untagged(L, m), (L, m)
            checked += 1
    elapsed = time.monotonic() - t0
    _report(2, True, f"{checked} (L, m) pairs against enumeration, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_3_lossless_error_free_asymptotics():
    t0 = time.monotonic()
    eta = 1e-4
    for L in (2, 4, 20, 100):
        mu_opt, rate = optimize_mu(L, eta, 0.0)
        mu_limit = (L - 1) * eta / (3 * L - 2)
        rate_limit = (L - 1) ** 2 * eta**2 / (2 * L * (3 * L - 2))
        assert abs(mu_opt / mu_limit - 1) < 0.05, (L, mu_opt, mu_limit)
        assert abs(rate / rate_limit - 1) < 0.05, (L, rate, rate_limit)
    _, r_long = optimize_mu(1000, eta, 0.0)
    _, r_two = optimize_mu(2, eta, 0.0)
    ratio = r_long / r_two
    assert 8 / 3 * 0.98 <= ratio <= 8 / 3 * 1.02, ratio
    elapsed = time.monotonic() - t0
    _report(3, True, f"rate(1000)/rate(2) = {ratio:.4f} vs 8/3, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_4_rate_curve_anchors():
    t0 = time.monotonic()
    # (b) quadratic scaling in the deep-loss region
    for L in (2, 4, 20):
        _, r_lo = optimize_mu(L, 1e-4, 0.03)
        _, r_hi = optimize_mu(L, 1e-3, 0.03)
        slope = math.log10(r_hi / r_lo)
        assert abs(slope - 2.0) <= 0.05, (L, slope)
    # (c) longer blocks win at unit transmission
    _, r4 = optimize_mu(4, 1.0, 0.03)
    _, r2_unit = optimize_mu(2, 1.0, 0.03)
    assert r4 > r2_unit, (r4, r2_unit)
    # (a) block-length gain R20/R2 against its small-eta closed form.
    # For small mu, Q ~ (L-1) mu eta and rtag ~ (3L-2) mu^2 / 2 (L mu^2/2
    # from two photons in one pulse, (L-1) mu^2 from adjacent pulses).  With
    # mu = c (L-1) eta / ((3L-2)/2), rtag/Q = c and
    # R = (L-1)^2 eta^2 / (L (3L-2)/2) * F(c, e), F independent of L, so the
    # optimized ratio is R_L/R_2 = 8 (L-1)^2 / (L (3L-2)) at any error rate:
    # 2888/1160 ~ 2.49 at L = 20, reaching 8/3 only as L -> infinity
    # (criterion 3).  At 20 dB the finite-eta excess is about +0.2%
    # (40-digit mpmath optimum: 2.494927111); at 40 dB it is ~2e-5.
    L = 20
    reference = 8 * (L - 1) ** 2 / (L * (3 * L - 2))
    gaps = {}
    for loss_db, eta, rel_tol in ((20, 1e-2, 5e-3), (40, 1e-4, 1e-4)):
        _, r2 = optimize_mu(2, eta, 0.03)
        _, rL = optimize_mu(L, eta, 0.03)
        ratio = rL / r2
        gaps[loss_db] = (ratio, ratio / reference - 1, rel_tol)
    elapsed = time.monotonic() - t0
    ok = all(abs(gap) <= rel_tol for _, gap, rel_tol in gaps.values())
    detail = ", ".join(
        f"R20/R2 at {loss_db} dB = {ratio:.6f} vs {reference:.6f} ({gap:+.2e})"
        for loss_db, (ratio, gap, _) in gaps.items()
    )
    _report(4, ok, f"{detail}, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert ok, (
        f"{detail}; reference 8(L-1)^2/(L(3L-2)) at L = {L}, relative "
        f"tolerance {gaps[20][2]:g} at 20 dB and {gaps[40][2]:g} at 40 dB"
    )


def test_criterion_5_simulator_consistency():
    t0 = time.monotonic()
    params = ProtocolParams(L=20, mu=0.005, n_blocks=10**6, seed=2025, p1=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinStatisticsWarning)
        stats = run_simulation(params, ChannelModel(eta=0.01), n_jobs=1)

    Q = channel_q(20, 0.005, 0.01)
    p_cell = params.p0**2 * Q
    sigma_q = math.sqrt(p_cell * (1 - p_cell) / params.n_blocks) / params.p0**2
    assert abs(stats.Q_hat - Q) <= 3 * sigma_q, (stats.Q_hat, Q, sigma_q)

    assert stats.E0_hat == 0.0 and stats.E1_hat == 0.0

    rtag = rtag_coherent(TagParams(20, 0.005))
    sigma_tag = math.sqrt(max(stats.tagged_data, 1)) / (
        params.n_blocks * params.p0**2
    )
    assert stats.Delta_hat * stats.Q_hat <= rtag + 3 * sigma_tag

    table = np.array([stats.j_hist_d0, stats.j_hist_d1])
    table = table[:, table.sum(axis=0) > 0]
    p_value = chi2_contingency(table).pvalue
    assert p_value > 0.001, p_value

    elapsed = time.monotonic() - t0
    _report(
        5,
        True,
        f"Q_hat dev {(stats.Q_hat - Q) / sigma_q:+.2f} sigma, "
        f"chi2 p = {p_value:.3f}, {elapsed:.1f}s",
    )
    assert elapsed < 120.0


def test_criterion_6_calibration_soundness():
    t0 = time.monotonic()
    details = []
    for mu in (0.005, 0.02):
        setup2 = CalibSetup2(
            L=10, mu=mu, eta1=0.25, eta2=0.25, true_T=0.5, true_R=0.5,
            true_eff1=0.5, true_eff2=0.5, n_test=10**6,
        )
        r2 = simulate_two_detector(setup2, seed=42)
        assert r2.bound >= r2.true_rtag - 3 * r2.sigma, (mu, r2)
        rel_slack = r2.slack / r2.true_rtag
        rel_sigma = r2.sigma / r2.true_rtag
        limit = relative_slack_limit(10, mu)
        assert rel_slack <= limit + 3 * rel_sigma, (mu, rel_slack, limit, rel_sigma)
        details.append(f"2det mu={mu}: slack {rel_slack:+.3f} <= {limit:.3f}+3sig")
        for dead in (1, 5):
            setup3 = CalibSetup3(
                L=10, mu=mu, eta1=0.25, eta2=0.25, eta3=0.25, eta_abs=0.5,
                true_T1=0.5, true_R1=0.5, true_T2=0.5, true_R2=0.5,
                true_eff1=1.0, true_eff2=1.0, true_eff3=0.5, true_eta_abs=0.5,
                dead_time=dead, n_test=10**6,
            )
            r3 = simulate_three_detector(setup3, seed=42)
            assert r3.bound >= r3.true_rtag - 3 * r3.sigma, (mu, dead, r3)
    elapsed = time.monotonic() - t0
    _report(6, True, "; ".join(details) + f", {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_7_byte_identical_cli_runs():
    def run(extra):
        proc = subprocess.run(
            [sys.executable, "-m", "dqps", *extra],
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    # three batches each, cut by expected clicks and kept trains
    sim = ("simulate", "--L", "2", "--mu", "0.1", "--eta", "0.5",
           "--blocks", "200000", "--seed", "123", "--p-dark", "1e-4")
    cal = ("calibrate", "--mode", "3det", "--mu", "0.02", "--n-trains", "3500000",
           "--seed", "123", "--eta-abs", "0.5", "--dead-time", "1")
    for name, base in (("simulate", sim), ("calibrate", cal)):
        serial_a = run((*base, "--jobs", "1"))
        serial_b = run((*base, "--jobs", "1"))
        threaded = run((*base, "--jobs", "4"))
        assert serial_a == serial_b, f"{name}: reruns differ"
        assert serial_a == threaded, f"{name}: thread count changed the output"
        assert serial_a.strip(), name
    _report(7, True, "simulate and calibrate byte-identical over reruns and jobs 1/4")
