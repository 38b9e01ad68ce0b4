"""Closed-form secure key rate for L-pulse phase-encoded blocks.

The asymptotic rate per pulse is

    R = (p0^2 / L) * [ (Q - rtag) * (1 - h(E1 / (Q - rtag))) - Q * f_EC(E0/Q) ]

where Q, E0, E1 are the sifted-key yield and error weights, rtag is the
tagging probability of the source, h is the binary entropy, and f_EC the
error-correction cost.  The privacy-amplification fraction is feasible only
while rtag <= Q - 2*E1; beyond that the whole key is sacrificed.  A block
length is at most 2^62, so L and L - 1 enter the formulas as floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterError, _block_length, _check_real, _mean_photon_number, _probability,
)
from .tagging import TagParams, rtag_coherent


@dataclass(frozen=True)
class RateInputs:
    """Observed (or modeled) per-block quantities feeding the rate formula.

    Q = 0 is accepted so that zero-transmission points evaluate to a
    rate-0 report instead of an error.
    """

    L: int
    mu: float
    p0: float
    Q: float
    E0: float
    E1: float

    def __post_init__(self):
        _block_length("L", self.L)
        _mean_photon_number("mu", self.mu, interval="(0, inf)")
        _probability("p0", self.p0, interval="(0, 1]")
        _probability("Q", self.Q)
        if not 0 <= self.E0 <= self.Q:
            raise ParameterError("E0", "error weight must be in [0, Q]")
        if not 0 <= self.E1 <= self.Q:
            raise ParameterError("E1", "error weight must be in [0, Q]")

    @classmethod
    def from_error_rates(
        cls, L: int, mu: float, p0: float, Q: float, e0: float, e1: float
    ) -> "RateInputs":
        """Build from bit error rates e0 = E0/Q, e1 = E1/Q instead of weights."""
        _probability("e0", e0)
        _probability("e1", e1)
        return cls(L=L, mu=mu, p0=p0, Q=Q, E0=e0 * Q, E1=e1 * Q)


@dataclass(frozen=True)
class KeyRateReport:
    rtag: float
    f_pa: float
    f_ec: float
    rate_per_pulse: float
    feasible: bool
    mu_used: float


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    _probability("x", x)
    return float(_entropy(x))


def privacy_amp_fraction(Q: float, E1: float, rtag: float) -> tuple[float, bool]:
    """Privacy-amplification fraction and its feasibility.

    Returns (f_pa, feasible).  Feasible means rtag <= Q - 2*E1 and
    rtag < Q, which keeps the entropy argument E1/(Q - rtag) defined and at
    or below 1/2.  Infeasible points report (1.0, False): 1.0 is the
    continuous limit at the boundary, where the entire key is consumed.
    """
    _probability("Q", Q, interval="(0, 1]")
    _check_real("E1", E1, "[0, inf)")
    _check_real("rtag", rtag, "[0, inf)")
    f_pa, feasible, _, _ = _privacy_amp(Q, E1, rtag)
    return float(f_pa), bool(feasible)


def key_rate(
    inputs: RateInputs,
    ec_inefficiency: float = 1.0,
    rtag_override: float | None = None,
) -> KeyRateReport:
    """Secure key rate per pulse for the given observations.

    The error-correction cost per sifted bit is ec_inefficiency times the
    binary entropy of the bit error rate E0/Q.
    rtag_override replaces the coherent-source tagging probability, e.g.
    to evaluate an ideal single-photon reference.
    """
    _check_real("ec_inefficiency", ec_inefficiency, "[1, inf)")
    if rtag_override is None:
        rtag = rtag_coherent(TagParams(inputs.L, inputs.mu))
    else:
        _probability("rtag_override", rtag_override)
        rtag = rtag_override
    # Q = 0 forces E0 = 0, and f_ec = 0 there
    f_ec = ec_inefficiency * _entropy(inputs.E0 / inputs.Q if inputs.Q > 0 else 0.0)
    f_pa, rate, feasible = _rate(inputs.L, inputs.p0, inputs.Q, inputs.E1, rtag, f_ec)
    return KeyRateReport(
        rtag, float(f_pa), float(f_ec), float(rate), bool(feasible), inputs.mu
    )


# Array cores: every argument may be a float or a numpy array, and the
# results broadcast element by element.  No validation; the public
# functions above validate and convert back to Python scalars.

def _entropy(x):
    """h(x) for x in [0, 1]; at x = 0 and x = 1 both log arguments are 1."""
    return (
        0.0
        - x * np.log2(x + (x == 0.0))
        - (1.0 - x) * np.log2(1.0 - x + (x == 1.0))
    )


def _privacy_amp(Q, E1, rtag):
    """(f_pa, feasible, Q - rtag, h(E1 / (Q - rtag))).

    Where infeasible, f_pa is 1 and the last two are finite placeholders.
    rtag >= Q also covers Q = 0.
    """
    feasible = (rtag <= Q - 2.0 * E1) & (rtag < Q)
    untagged = np.where(feasible, Q - rtag, 1.0)
    h1 = _entropy(np.where(feasible, E1 / untagged, 0.0))
    tagged_fraction = rtag / np.where(feasible, Q, 1.0)
    f_pa = np.where(feasible, tagged_fraction + (1.0 - tagged_fraction) * h1, 1.0)
    return f_pa, feasible, untagged, h1


def _rate(L: int, p0, Q, E1, rtag, f_ec):
    """The rate formula of the module docstring: (f_pa, rate, feasible).

    f_ec is the error-correction cost per sifted bit, f_EC(E0/Q) in full.
    An infeasible privacy amplification or a nonpositive rate gives rate 0
    and feasible False.
    """
    f_pa, feasible, untagged, h1 = _privacy_amp(Q, E1, rtag)
    rate = p0 ** 2 / L * (untagged * (1.0 - h1) - Q * f_ec)
    feasible = feasible & (rate > 0.0)
    return f_pa, np.where(feasible, rate, 0.0), feasible


def channel_q(L: int, mu: float, eta: float) -> float:
    """Expected sifted fraction 1 - e^{-(L-1) mu eta} of a lossy channel.

    One L-pulse block offers L-1 interference timings, each with mean
    photon number mu*eta at the receiver.
    """
    _block_length("L", L)
    _mean_photon_number("mu", mu)
    _probability("eta", eta)
    return float(_channel_q(L, mu, eta))


def _channel_q(L: int, mu, eta):
    # a huge mu overflows (L-1)*mu to inf, and Q = 1 there is right
    with np.errstate(over="ignore"):
        return -np.expm1(-(L - 1) * mu * eta)
