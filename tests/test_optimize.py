import math
import threading

import numpy as np
import pytest

from dqps import (
    ParameterError,
    RateInputs,
    SweepSpec,
    TagParams,
    active_switch_crossover,
    active_switch_optimum,
    asymptotic_optimum,
    channel_q,
    key_rate,
    optimize_mu,
    rtag_coherent,
    sweep,
)
from dqps.keyrate import _entropy, _rate
from dqps.optimize import (
    DEFAULT_GRID_POINTS, DEFAULT_MU_BOUNDS, DEFAULT_TOLERANCE, _SWEEP_CHUNK, _optimize, _rates,
)
from test_tagging import rtag_mpmath


def rate_at(L, eta, error_rate, mu):
    Q = channel_q(L, mu, eta)
    inputs = RateInputs.from_error_rates(L, mu, 1.0, Q, error_rate, error_rate)
    return key_rate(inputs).rate_per_pulse


def test_optimize_mu_tracks_small_loss_limit():
    mu_opt, rate = optimize_mu(2, 1e-4, 0.0)
    ref_mu, ref_rate = asymptotic_optimum(2, 1e-4)
    assert mu_opt == pytest.approx(ref_mu, rel=0.05)
    assert rate == pytest.approx(ref_rate, rel=0.05)


def test_optimize_mu_result_is_self_consistent():
    mu_opt, rate = optimize_mu(4, 0.05, 0.02)
    assert mu_opt is not None
    assert rate == pytest.approx(rate_at(4, 0.05, 0.02, mu_opt), rel=1e-12)
    # a genuine interior maximum: nearby intensities do worse
    assert rate >= rate_at(4, 0.05, 0.02, mu_opt * 1.01)
    assert rate >= rate_at(4, 0.05, 0.02, mu_opt * 0.99)


def test_grid_rates_equal_key_rate():
    # the grid and key_rate share one rate core, so the numbers are the same
    # wherever its inputs are.  The grid's f_EC is h(error_rate) itself;
    # key_rate's is h(E0 / Q) with E0 = error_rate * Q, which can round an
    # ulp away, and only there does the grid's rate differ, through f_EC alone
    grid = np.geomspace(*DEFAULT_MU_BOUNDS, DEFAULT_GRID_POINTS)
    for L, eta, error_rate in ((2, 0.3, 0.03), (20, 1e-3, 0.03), (1000, 1e-5, 0.05)):
        f_ec = _entropy(error_rate)
        values = _rates(L, eta, error_rate, grid, f_ec)[0]
        for mu, value in zip(grid.tolist(), values.tolist()):
            Q = channel_q(L, mu, eta)
            inputs = RateInputs.from_error_rates(L, mu, 1.0, Q, error_rate, error_rate)
            report = key_rate(inputs)
            if report.f_ec == f_ec:
                assert value == report.rate_per_pulse
            else:
                assert value == _rate(L, 1.0, Q, inputs.E1, report.rtag, f_ec)[1]
        assert 0 < np.count_nonzero(values) < len(grid)


def rate_mpmath(mpmath, L, eta, error_rate, mu):
    """The p0 = 1 rate of the keyrate module docstring at 40 digits."""
    with mpmath.workdps(40):
        mu, eta, e = mpmath.mpf(mu), mpmath.mpf(eta), mpmath.mpf(error_rate)

        def h(x):
            return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)

        rtag = rtag_mpmath(mpmath, L, mu)
        Q = -mpmath.expm1(-(L - 1) * mu * eta)
        kept = Q - rtag
        return (kept * (1 - h(e * Q / kept)) - Q * h(e)) / L


# At 56 dB the L = 2 optimum lies below the default bracket's mu = 1e-6.
@pytest.mark.parametrize("L, max_db", ((2, 52), (20, 56), (1000, 56)))
def test_optimized_rate_matches_mpmath_at_high_loss(L, max_db):
    mpmath = pytest.importorskip("mpmath")
    for db in range(40, max_db + 1, 4):
        eta = 10.0 ** (-db / 10.0)
        mu_opt, rate = optimize_mu(L, eta, 0.03)
        assert mu_opt is not None, db
        exact = rate_mpmath(mpmath, L, eta, 0.03, mu_opt)
        assert abs(rate - exact) <= 1e-9 * exact, (db, rate, exact)


@pytest.mark.parametrize("tolerance", (1e-18, 5e-324))
def test_optimize_mu_ends_at_any_tolerance(tolerance):
    # a stop test on the bracket width never holds once the bracket stops
    # shrinking in floating point; the round count must not depend on it
    result = []
    worker = threading.Thread(
        target=lambda: result.append(optimize_mu(4, 0.1, 0.03, tolerance=tolerance)),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive(), "optimize_mu still running after 1 s"
    mu_opt, rate = result[0]
    assert rate == pytest.approx(optimize_mu(4, 0.1, 0.03).rate, rel=1e-12)


@pytest.mark.parametrize("L, eta, mu_bounds, grid_best", [
    (4, 0.1, DEFAULT_MU_BOUNDS, None),
    (2, 10 ** -5.5, DEFAULT_MU_BOUNDS, 0),  # 55 dB: the grid's best is mu_lo
    (20, 10 ** -5.5, DEFAULT_MU_BOUNDS, 0),
    (4, 1.0, (1e-6, 1e-3), DEFAULT_GRID_POINTS - 1),  # 0 dB: best is mu_hi
])
def test_optimize_mu_stays_in_bounds_and_beats_the_grid(L, eta, mu_bounds, grid_best):
    grid = np.geomspace(*mu_bounds, DEFAULT_GRID_POINTS)
    values = _rates(L, eta, 0.03, grid, _entropy(0.03))[0]
    best = int(np.argmax(values))
    if grid_best is not None:
        assert best == grid_best
    mu_opt, rate = optimize_mu(L, eta, 0.03, mu_bounds=mu_bounds)
    assert mu_bounds[0] <= mu_opt <= mu_bounds[1]
    assert rate >= values[best] > 0.0
    assert rate == rate_at(L, eta, 0.03, mu_opt)


@pytest.mark.parametrize("L", [2, 20, 1000])
@pytest.mark.parametrize("mu_bounds", [(1e-6, 1e308), (1e-300, 1.7e308)])
def test_optimize_mu_brackets_up_to_the_largest_float_quietly(L, mu_bounds):
    # (L-1) * mu overflows to inf at the grid's top, where Q = 1 is right;
    # the suite turns a RuntimeWarning into an error
    mu_opt, rate = optimize_mu(L, 0.01, 0.03, mu_bounds=mu_bounds)
    default = optimize_mu(L, 0.01, 0.03)
    assert mu_opt == pytest.approx(default.mu_opt, rel=1e-3)
    assert rate == pytest.approx(default.rate, rel=1e-9)


def test_optimize_mu_infeasible_everywhere():
    # error rate past the distillation threshold kills every intensity
    result = optimize_mu(2, 0.5, 0.4)
    assert result.mu_opt is None
    assert result.rate == 0.0


def test_optimize_mu_validation():
    with pytest.raises(ParameterError, match="'eta'"):
        optimize_mu(2, 0.0, 0.03)
    with pytest.raises(ParameterError, match="'eta'"):
        optimize_mu(2, 1.5, 0.03)
    with pytest.raises(ParameterError, match="mu_bounds"):
        optimize_mu(2, 0.5, 0.03, mu_bounds=(0.1, 0.1))
    with pytest.raises(ParameterError, match="'tolerance'"):
        optimize_mu(2, 0.5, 0.03, tolerance=math.inf)


def test_asymptotic_optimum_values():
    mu, rate = asymptotic_optimum(2, 1e-2)
    assert mu == pytest.approx(2.5e-3, rel=1e-15)
    assert rate == pytest.approx(1e-4 / 16, rel=1e-15)
    mu20, rate20 = asymptotic_optimum(20, 1e-2)
    assert mu20 == pytest.approx(19e-2 / 58, rel=1e-12)
    assert rate20 == pytest.approx(361e-4 / (40 * 58), rel=1e-12)


def test_active_switch_is_four_times_the_two_pulse_rate():
    eta = 3e-3
    assert active_switch_optimum(eta) == pytest.approx(
        4 * asymptotic_optimum(2, eta)[1], rel=1e-15
    )


def test_active_switch_crossover_balances_long_block_limit():
    # at the crossover switch loss, the active setup ties eta^2 / 6
    loss = active_switch_crossover()
    assert loss == pytest.approx(1 - math.sqrt(2 / 3), rel=1e-15)
    eta = 0.02
    assert active_switch_optimum(eta, switch_loss=loss) == pytest.approx(
        eta**2 / 6, rel=1e-12
    )


def test_sweep_is_L_major_and_eta_ascending():
    spec = SweepSpec(
        L_values=(4, 2),
        eta_values=(0.5, 0.1, 0.9),
        error_rate=0.03,
    )
    rows = sweep(spec)
    assert [(r.L, r.eta) for r in rows] == [
        (4, 0.1), (4, 0.5), (4, 0.9),
        (2, 0.1), (2, 0.5), (2, 0.9),
    ]


def test_sweep_rate_monotone_in_eta():
    spec = SweepSpec(
        L_values=(4,),
        eta_values=tuple(0.01 * k for k in range(1, 11)),
        error_rate=0.03,
    )
    rows = sweep(spec)
    rates = [r.rate for r in rows]
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo * (1 - 1e-9)


def test_sweep_marks_dead_rows_without_aborting():
    spec = SweepSpec(
        L_values=(2,),
        eta_values=(1e-4, 0.8),
        error_rate=0.11,  # hopeless at strong loss, fine near unity
    )
    rows = sweep(spec)
    dead = rows[0]
    assert dead.mu_opt is None
    assert dead.rate == 0.0
    assert math.isnan(dead.Q) and math.isnan(dead.rtag)
    alive = rows[1]
    assert alive.mu_opt is not None and alive.rate > 0.0


def test_sweep_propagates_optimizer_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("optimizer fault")

    monkeypatch.setattr("dqps.optimize._optimize", broken)
    spec = SweepSpec(L_values=(2,), eta_values=(0.1,), error_rate=0.03)
    with pytest.raises(ZeroDivisionError, match="optimizer fault"):
        sweep(spec)


def test_sweep_rows_equal_single_row_optimization():
    # one batched search per L; every row has the bits of its own call
    etas = tuple(10.0 ** (-db / 10.0) for db in range(0, 61, 3))
    for error_rate in (0.0, 0.03, 0.11):
        spec = SweepSpec(L_values=(2, 20, 1000), eta_values=etas, error_rate=error_rate)
        for row in sweep(spec):
            assert (row.mu_opt, row.rate) == optimize_mu(row.L, row.eta, error_rate)
            if row.mu_opt is None:
                continue
            assert row.Q == channel_q(row.L, row.mu_opt, row.eta)
            assert row.rtag == rtag_coherent(TagParams(row.L, row.mu_opt))


def test_sweep_in_chunks_gives_the_rows_of_one_optimizer_call():
    # three chunks, the last of three rows; the zero-rate rows open the first
    etas = np.geomspace(1e-7, 1.0, 2 * _SWEEP_CHUNK + 3)
    rows = sweep(SweepSpec(L_values=(2,), eta_values=tuple(etas), error_rate=0.03))
    mu, rate, Q, rtag = _optimize(2, etas, 0.03, DEFAULT_MU_BOUNDS, DEFAULT_TOLERANCE)
    assert np.isnan(mu[0]) and not np.isnan(mu[-1])
    assert [row.eta for row in rows] == etas.tolist()
    got = [(math.nan if row.mu_opt is None else row.mu_opt, row.rate, row.Q, row.rtag)
           for row in rows]
    np.testing.assert_array_equal(got, np.column_stack([mu, rate, Q, rtag]))


def test_sweep_rows_carry_consistent_Q_and_rtag():
    spec = SweepSpec(L_values=(4,), eta_values=(0.2,), error_rate=0.02)
    row = sweep(spec)[0]
    assert row.Q == pytest.approx(channel_q(4, row.mu_opt, 0.2), rel=1e-15)
    assert row.rate == pytest.approx(rate_at(4, 0.2, 0.02, row.mu_opt), rel=1e-12)


def test_sweep_spec_validation():
    with pytest.raises(ParameterError, match="error_rate"):
        SweepSpec(L_values=(2,), eta_values=(0.1,), error_rate=0.6)
    with pytest.raises(ParameterError, match="eta"):
        SweepSpec(L_values=(2,), eta_values=(0.0,), error_rate=0.03)
    with pytest.raises(ParameterError, match="L_values"):
        SweepSpec(L_values=(1,), eta_values=(0.1,), error_rate=0.03)
    with pytest.raises(ParameterError, match="'L_values': must be non-empty"):
        SweepSpec(L_values=(), eta_values=(0.1,), error_rate=0.03)
    with pytest.raises(ParameterError, match="'eta_values': must be non-empty"):
        SweepSpec(L_values=(2,), eta_values=(), error_rate=0.03)
    with pytest.raises(ParameterError, match="'tolerance'"):
        SweepSpec(L_values=(2,), eta_values=(0.1,), error_rate=0.03, tolerance=math.inf)
