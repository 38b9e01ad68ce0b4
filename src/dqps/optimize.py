"""Pulse-intensity optimization and channel sweeps.

For each channel transmission the mean photon number trades detection rate
against tagging.  The optimizer works on x = log mu and on every
transmission of one block length at once: a log grid locates the best mu,
then a fixed number of zoom rounds, each a finer grid across the bracket
around the last best point, refine it.  Every stage is one array call of
the rate core, so a whole sweep costs a few dozen calls, not a few dozen
per row.  Small-transmission closed forms are provided as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, _block_length, _check_real, _probability
from .keyrate import _channel_q, _entropy, _rate
from .keyrate import channel_q, key_rate  # noqa: F401  perfbench/spans.py wraps these names
from .tagging import _rtag
from .tagging import rtag_coherent  # noqa: F401  perfbench/spans.py wraps this name

DEFAULT_MU_BOUNDS = (1e-6, 1.0)
DEFAULT_GRID_POINTS = 200
DEFAULT_TOLERANCE = 1e-9

# Points of each zoom round, both bracket ends included: the bracket around
# the best of them is 2/32 of the last one, so each round shrinks it 16-fold.
_ZOOM_POINTS = 33
_ZOOM_STEPS = np.linspace(0.0, 1.0, _ZOOM_POINTS)
_ZOOM_SHRINK = (_ZOOM_POINTS - 1) / 2
# The steps with each end repeated: point j of a round is column j + 1 of
# lo + (hi - lo) * _ZOOM_PADDED, and its neighbours, clipped to the
# bracket, are columns j and j + 2.
_ZOOM_PADDED = np.concatenate(([0.0], _ZOOM_STEPS, [1.0]))

# Rows per _optimize call in sweep: its arrays hold DEFAULT_GRID_POINTS
# values a row, so a chunk bounds the memory whatever the grid size.
_SWEEP_CHUNK = 2048


class OptimizeResult(NamedTuple):
    mu_opt: float | None
    rate: float


class SweepRow(NamedTuple):
    L: int
    eta: float
    mu_opt: float | None
    Q: float
    rtag: float
    rate: float


@dataclass(frozen=True)
class SweepSpec:
    """Grid of block lengths and transmissions to optimize over.

    error_rate enters as E0/Q = E1/Q, independent of eta and mu.
    """

    L_values: tuple[int, ...]
    eta_values: tuple[float, ...]
    error_rate: float
    mu_bounds: tuple[float, float] = DEFAULT_MU_BOUNDS
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if not self.L_values:
            raise ParameterError("L_values", "must be non-empty")
        for L in self.L_values:
            _block_length("L_values", L)
        if not self.eta_values:
            raise ParameterError("eta_values", "must be non-empty")
        for eta in self.eta_values:
            _probability("eta_values", eta, interval="(0, 1]")
        _check_mu_bounds(self.mu_bounds)
        _check_real("tolerance", self.tolerance, "(0, inf)")
        _probability("error_rate", self.error_rate, interval="[0, 0.5)")


def _rates(L: int, eta, error_rate, mu, f_ec):
    """key_rate's rate per pulse at p0 = 1, with the Q and rtag it comes from.

    For a float or an array of mu.  E0/Q is error_rate at every mu, so f_EC
    is f_ec = h(error_rate), one scalar per call.  No f_pa is formed.
    """
    Q = _channel_q(L, mu, eta)
    rtag = _rtag(L, mu)
    return _rate(L, 1.0, Q, error_rate * Q, rtag, f_ec)[1], Q, rtag


def optimize_mu(
    L: int,
    eta: float,
    error_rate: float,
    mu_bounds: tuple[float, float] = DEFAULT_MU_BOUNDS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> OptimizeResult:
    """Maximize the key rate over the mean photon number.

    A log-spaced grid localizes the optimum (guarding against a wrong
    bracket if the rate were not unimodal), then zoom rounds in log mu
    refine it until the bracket is at most `tolerance` wide in log mu, a
    relative width of mu.  The result lies in mu_bounds and is never below
    the best grid value.  When the rate is nonpositive on the whole grid,
    returns (None, 0.0).
    """
    _block_length("L", L)
    _probability("eta", eta, interval="(0, 1]")
    _probability("error_rate", error_rate, interval="[0, 0.5)")
    _check_mu_bounds(mu_bounds)
    _check_real("tolerance", tolerance, "(0, inf)")
    mu, rate, _, _ = _optimize(L, [eta], error_rate, mu_bounds, tolerance)
    if math.isnan(mu[0]):
        return OptimizeResult(None, 0.0)
    return OptimizeResult(float(mu[0]), float(rate[0]))


def _check_mu_bounds(mu_bounds) -> None:
    lo, hi = mu_bounds
    if not 0 < lo < hi < math.inf:
        raise ParameterError("mu_bounds", "need 0 < lo < hi")


def _optimize(L: int, etas, error_rate: float, mu_bounds, tolerance: float):
    """Optimal mu and rate for every eta of one L (no validation), with Q and rtag.

    Returns four arrays shaped like etas: mu (NaN where the rate is
    nonpositive on the whole grid), rate (0 there), and the Q and rtag the
    best rate was computed from (NaN there).  Each row is computed element
    by element, so it has the same bits whatever other rows share the call.

    The first stage evaluates the log grid of DEFAULT_GRID_POINTS points.
    Each zoom round then evaluates _ZOOM_POINTS points evenly spaced in
    x = log mu across the bracket between the neighbours of the last
    round's best point.  The round count follows from the first bracket's
    widest log width w0 (none once w0 <= tolerance), so the search always
    ends; it is taken as a difference of logs because w0 / tolerance
    overflows for a subnormal tolerance.  A running best, which carries
    the Q and rtag of its point, keeps the result at or above the best grid
    value, and every mu evaluated is clipped to mu_bounds first.
    """
    mu_lo, mu_hi = mu_bounds
    grid = np.geomspace(mu_lo, mu_hi, DEFAULT_GRID_POINTS)
    # the stages' scalars as 0-d arrays, as in the rate cores
    f_ec, e = np.array(_entropy(error_rate)), np.array(error_rate)
    with _quiet_overflow(L, mu_hi):
        etas = np.asarray(etas, dtype=np.float64)[:, None]
        values, Q, rtag = _rates(L, etas, e, grid, f_ec)
        best = values.argmax(axis=1)
        rate = values.max(axis=1)
        dead = rate <= 0.0
        mu = np.where(dead, np.nan, grid[best])
        Q = np.where(dead, np.nan, np.take_along_axis(Q, best[:, None], axis=1)[:, 0])
        rtag = np.where(dead, np.nan, rtag[best])

        live = np.flatnonzero(~dead)
        if not len(live):
            return mu, rate, Q, rtag
        # the search's rows as columns: etas, best rate, mu, Q and rtag, bracket ends
        etas, best = etas[live], best[live, None]
        best_rate, best_mu = rate[live, None], mu[live, None]
        best_Q, best_rtag = Q[live, None], rtag[live, None]
        x = np.log(grid)
        lo = x[np.maximum(best - 1, 0)]
        hi = x[np.minimum(best + 1, DEFAULT_GRID_POINTS - 1)]
        w0 = 2.0 * (math.log(mu_hi) - math.log(mu_lo)) / (DEFAULT_GRID_POINTS - 1)
        rounds = math.ceil(
            (math.log(max(w0, tolerance)) - math.log(tolerance)) / math.log(_ZOOM_SHRINK)
        )
        # each row's first flat index among the points and the padded points
        start = np.arange(0, len(live) * _ZOOM_POINTS, _ZOOM_POINTS)[:, None]
        padded_start = np.arange(0, len(live) * _ZOOM_PADDED.size, _ZOOM_PADDED.size)[:, None]
        clip_lo, clip_hi = np.array(mu_lo), np.array(mu_hi)
        for _ in range(rounds):
            xs = lo + (hi - lo) * _ZOOM_PADDED
            mus = np.minimum(np.maximum(np.exp(xs[:, 1:-1]), clip_lo), clip_hi)
            values, Qs, rtags = _rates(L, etas, e, mus, f_ec)
            k = values.argmax(axis=1, keepdims=True)
            point, padded = start + k, padded_start + k
            top = values.take(point)
            better = top > best_rate
            best_mu = np.where(better, mus.take(point), best_mu)
            best_Q = np.where(better, Qs.take(point), best_Q)
            best_rtag = np.where(better, rtags.take(point), best_rtag)
            best_rate = np.maximum(best_rate, top)  # rates hold no NaN and no -0
            lo, hi = xs.take(padded), xs.take(padded + 2)
    rate[live], mu[live] = best_rate[:, 0], best_mu[:, 0]
    Q[live], rtag[live] = best_Q[:, 0], best_rtag[:, 0]
    return mu, rate, Q, rtag


def _quiet_overflow(L: int, mu_hi: float):
    """np.errstate that silences overflow only where (L-1) mu can overflow.

    That is for some mu <= mu_hi exactly when (L-1) mu_hi overflows, and
    Q = 1 there is right.  Below that every warning stays as it was.
    """
    return np.errstate(over="ignore" if math.isinf((L - 1) * mu_hi) else None)


def asymptotic_optimum(L: int, eta: float) -> tuple[float, float]:
    """Zero-error small-eta optimum: mu and rate in closed form.

    mu_opt = (L-1) eta / (3L-2), rate_opt = (L-1)^2 eta^2 / (2L(3L-2)).
    Valid while L*eta^2 << 1; the rate tends to eta^2/6 for large L.
    """
    _block_length("L", L)
    _probability("eta", eta)
    mu_opt = (L - 1) * eta / (3 * L - 2)
    rate_opt = (L - 1) ** 2 * eta ** 2 / (2 * L * (3 * L - 2))
    return mu_opt, rate_opt


def active_switch_optimum(eta: float, switch_loss: float = 0.0) -> float:
    """Small-eta optimal rate of the two-pulse protocol with an active switch.

    An ideal switch removes the factor-2 splitting loss on both encoder and
    decoder, quadrupling the passive L=2 rate; a lossy switch scales the
    effective transmission by (1 - switch_loss).
    """
    _probability("eta", eta)
    _probability("switch_loss", switch_loss, interval="[0, 1)")
    _, passive = asymptotic_optimum(2, (1.0 - switch_loss) * eta)
    return 4.0 * passive


def active_switch_crossover() -> float:
    """Switch loss above which large-L passive blocks beat the active two-pulse rate.

    Solves (1-loss)^2 eta^2/4 = eta^2/6, i.e. loss = 1 - sqrt(2/3) (about 18%).
    """
    return 1.0 - math.sqrt(2.0 / 3.0)


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Optimize every (L, eta) pair of the spec.

    One optimizer call covers up to _SWEEP_CHUNK transmissions of one L.
    Rows are ordered L-major with eta ascending.  A pair whose rate is
    nonpositive on the whole grid is recorded as rate 0 with mu_opt None
    and NaN Q/rtag.  An error raised by the optimizer propagates.
    """
    etas = np.array(sorted(spec.eta_values), dtype=np.float64)
    eta_list = etas.tolist()
    rows = []
    for L in spec.L_values:
        mu, rate, Q, rtag = map(np.concatenate, zip(*(
            _optimize(L, etas[i:i + _SWEEP_CHUNK], spec.error_rate, spec.mu_bounds,
                      spec.tolerance)
            for i in range(0, etas.size, _SWEEP_CHUNK)
        )))
        mu_opt = [None if math.isnan(m) else m for m in mu.tolist()]
        rows += map(SweepRow, repeat(L), eta_list, mu_opt, Q.tolist(), rtag.tolist(),
                    rate.tolist())
    return rows
