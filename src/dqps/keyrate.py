"""Closed-form secure key rate for L-pulse phase-encoded blocks.

The asymptotic rate per pulse is

    R = (p0^2 / L) * [ (Q - rtag) * (1 - h(E1 / (Q - rtag))) - Q * f_EC(E0/Q) ]

where Q, E0, E1 are the sifted-key yield and error weights, rtag is the
tagging probability of the source, h is the binary entropy, and f_EC the
error-correction cost.  The privacy-amplification fraction is feasible only
while rtag <= Q - 2*E1; beyond that the whole key is sacrificed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
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
        if not isinstance(self.L, int) or self.L < 2:
            raise ParameterError("L", "block length must be an integer >= 2")
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ParameterError("mu", "mean photon number must be finite and > 0")
        if not 0 < self.p0 <= 1:
            raise ParameterError("p0", "data-basis probability must be in (0, 1]")
        if not 0 <= self.Q <= 1:
            raise ParameterError("Q", "sifted fraction must be in [0, 1]")
        if not 0 <= self.E0 <= self.Q:
            raise ParameterError("E0", "error weight must be in [0, Q]")
        if not 0 <= self.E1 <= self.Q:
            raise ParameterError("E1", "error weight must be in [0, Q]")

    @classmethod
    def from_error_rates(
        cls, L: int, mu: float, p0: float, Q: float, e0: float, e1: float
    ) -> "RateInputs":
        """Build from bit error rates e0 = E0/Q, e1 = E1/Q instead of weights."""
        if not 0 <= e0 <= 1:
            raise ParameterError("e0", "bit error rate must be in [0, 1]")
        if not 0 <= e1 <= 1:
            raise ParameterError("e1", "bit error rate must be in [0, 1]")
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
    if not 0 <= x <= 1:
        raise ParameterError("x", "entropy argument must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def privacy_amp_fraction(Q: float, E1: float, rtag: float) -> tuple[float, bool]:
    """Privacy-amplification fraction and its feasibility.

    Returns (f_pa, feasible).  Feasible means rtag <= Q - 2*E1 and
    rtag < Q, which keeps the entropy argument E1/(Q - rtag) defined and at
    or below 1/2.  Infeasible points report (1.0, False): 1.0 is the
    continuous limit at the boundary, where the entire key is consumed.
    """
    if not 0 < Q <= 1:
        raise ParameterError("Q", "sifted fraction must be in (0, 1]")
    if E1 < 0:
        raise ParameterError("E1", "error weight must be >= 0")
    if rtag < 0:
        raise ParameterError("rtag", "tagging probability must be >= 0")
    if rtag > Q - 2.0 * E1 or rtag >= Q:
        return 1.0, False
    tagged_fraction = rtag / Q
    return (
        tagged_fraction
        + (1.0 - tagged_fraction) * binary_entropy(E1 / (Q - rtag)),
        True,
    )


def key_rate(
    inputs: RateInputs,
    ec_inefficiency: float = 1.0,
    rtag_override: float | None = None,
) -> KeyRateReport:
    """Secure key rate per pulse for the given observations.

    The error-correction cost per sifted bit is ec_inefficiency times the
    binary entropy of the bit error rate E0/Q.
    rtag_override replaces the closed-form coherent-source tagging
    probability, e.g. to evaluate an ideal single-photon reference.
    """
    if not math.isfinite(ec_inefficiency) or ec_inefficiency < 1.0:
        raise ParameterError("ec_inefficiency", "must be a finite factor >= 1")
    if rtag_override is None:
        rtag = rtag_coherent(TagParams(inputs.L, inputs.mu))
    else:
        if not 0 <= rtag_override <= 1:
            raise ParameterError("rtag_override", "must be in [0, 1]")
        rtag = rtag_override

    Q, E0, E1 = inputs.Q, inputs.E0, inputs.E1
    if Q == 0.0:
        return KeyRateReport(rtag, 1.0, 0.0, 0.0, False, inputs.mu)

    ec_cost = ec_inefficiency * binary_entropy(E0 / Q)
    f_pa, pa_feasible = privacy_amp_fraction(Q, E1, rtag)
    if not pa_feasible:
        return KeyRateReport(rtag, f_pa, ec_cost, 0.0, False, inputs.mu)

    scale = inputs.p0 ** 2 / inputs.L
    rate = scale * (
        (Q - rtag) * (1.0 - binary_entropy(E1 / (Q - rtag))) - Q * ec_cost
    )
    if rate <= 0.0:
        return KeyRateReport(rtag, f_pa, ec_cost, 0.0, False, inputs.mu)
    return KeyRateReport(rtag, f_pa, ec_cost, rate, True, inputs.mu)


def channel_q(L: int, mu: float, eta: float) -> float:
    """Expected sifted fraction 1 - e^{-(L-1) mu eta} of a lossy channel.

    One L-pulse block offers L-1 interference timings, each with mean
    photon number mu*eta at the receiver.
    """
    if not isinstance(L, int) or L < 2:
        raise ParameterError("L", "block length must be an integer >= 2")
    if not math.isfinite(mu) or mu < 0:
        raise ParameterError("mu", "mean photon number must be finite and >= 0")
    if not 0 <= eta <= 1:
        raise ParameterError("eta", "transmission must be in [0, 1]")
    return -math.expm1(-(L - 1) * mu * eta)
