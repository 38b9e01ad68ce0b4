"""Pulse-intensity optimization and channel sweeps.

For each channel transmission the mean photon number trades detection rate
against tagging: the optimizer locates the best mu on a log grid and then
refines it with golden-section search.  Small-transmission closed forms are
provided as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, _block_length, _check_real, _probability
from .keyrate import _channel_q, _rate, channel_q
from .keyrate import key_rate  # noqa: F401  perfbench/spans.py wraps this name
from .tagging import TagParams, _rtag, rtag_coherent

DEFAULT_MU_BOUNDS = (1e-6, 1.0)
DEFAULT_GRID_POINTS = 200
DEFAULT_TOLERANCE = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
        lo, hi = self.mu_bounds
        if not 0 < lo < hi < math.inf:
            raise ParameterError("mu_bounds", "need 0 < lo < hi")
        _check_real("tolerance", self.tolerance, "(0, inf)")
        _probability("error_rate", self.error_rate, interval="[0, 0.5)")


def _rates(L: int, eta: float, error_rate: float, mu):
    """key_rate's rate per pulse at p0 = 1, for a float or an array of mu."""
    Q = _channel_q(L, mu, eta)
    E = error_rate * Q
    return _rate(L, 1.0, Q, E, E, _rtag(L, mu))[2]


def optimize_mu(
    L: int,
    eta: float,
    error_rate: float,
    mu_bounds: tuple[float, float] = DEFAULT_MU_BOUNDS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> OptimizeResult:
    """Maximize the key rate over the mean photon number.

    A log-spaced grid, evaluated in one array call, localizes the optimum
    (guarding against a wrong bracket if the rate were not unimodal), then
    golden-section search refines the bracket around the best grid point.
    The result is never below the best grid value.  When the rate is nonpositive on the whole
    grid, returns (None, 0.0).
    """
    _block_length("L", L)
    _probability("eta", eta, interval="(0, 1]")
    _probability("error_rate", error_rate, interval="[0, 0.5)")
    mu_lo, mu_hi = mu_bounds
    if not 0 < mu_lo < mu_hi < math.inf:
        raise ParameterError("mu_bounds", "need 0 < lo < hi")
    _check_real("tolerance", tolerance, "(0, inf)")

    grid = np.geomspace(mu_lo, mu_hi, DEFAULT_GRID_POINTS)
    values = _rates(L, eta, error_rate, grid)
    best = int(np.argmax(values))
    if values[best] <= 0.0:
        return OptimizeResult(None, 0.0)

    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])

    def rate_at(mu: float) -> float:
        return float(_rates(L, eta, error_rate, mu))

    mu_refined = _golden_section(rate_at, lo, hi, tolerance)
    candidates = [
        (float(values[best]), float(grid[best])),
        (rate_at(mu_refined), mu_refined),
    ]
    rate, mu_opt = max(candidates)
    return OptimizeResult(mu_opt, rate)


def _golden_section(f, lo: float, hi: float, tolerance: float) -> float:
    """Maximize f on [lo, hi] by golden-section search.

    Stops once hi - lo <= tolerance * max(1, |hi|): a relative width above
    |hi| = 1 but an absolute width of tolerance below it, so a bracket that
    lies far below 1 ends relatively coarser.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tolerance * max(1.0, abs(hi)):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


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

    Rows are ordered L-major with eta ascending.  A pair whose rate is
    nonpositive on the whole grid is recorded as rate 0 with mu_opt None
    and NaN Q/rtag.  An error raised by the optimizer propagates.
    """
    rows = []
    for L in spec.L_values:
        for eta in sorted(spec.eta_values):
            mu_opt, rate = optimize_mu(
                L, eta, spec.error_rate, spec.mu_bounds, spec.tolerance
            )
            if mu_opt is None:
                rows.append(SweepRow(L, eta, None, math.nan, math.nan, 0.0))
            else:
                rows.append(
                    SweepRow(
                        L,
                        eta,
                        mu_opt,
                        channel_q(L, mu_opt, eta),
                        rtag_coherent(TagParams(L, mu_opt)),
                        rate,
                    )
                )
    return rows
