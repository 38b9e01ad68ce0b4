"""Photon-configuration combinatorics and the tagging probability.

A block of L weak pulses is *tagged* when it carries two or more photons in
the same pulse or in two neighboring pulses; such blocks are conceded to an
eavesdropper during privacy amplification.  This module computes the
probability of that event for phase-randomized coherent light, for
arbitrary finite photon-number distributions, and by brute-force
enumeration as an independent oracle.

The coherent case walks the block pulse by pulse as a three-state Markov
chain (untagged with the last pulse empty, untagged with one photon in
the last pulse, tagged) and raises its transition matrix to the L-th
power by repeated squaring.  All entries are nonnegative, so nothing
cancels: the result keeps its relative precision at every mu, where the
complement 1 - P(untagged) would lose it like eps / mu^2.  The same code
takes a float or a numpy array of mu.  count_untagged_configs, the
pattern count of the closed form e^{-mu L} sum_m C(L+1-m, m) mu^m for the
untagged mass, stays as an independent combinatorial check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ParameterError, WorkLimitError, _block_length, _check_int, _check_real,
    _mean_photon_number,
)

# A photon configuration is the per-pulse photon count tuple (k_0 .. k_{L-1}).
PhotonConfig = Sequence[int]

DEFAULT_PHOTON_CAP = 8
DEFAULT_WORK_LIMIT = 10**8

# Suffix tables for the brute-force enumerator are capped at (cap+1)^6 rows;
# longer blocks iterate the remaining leading pulses in Python.
_SUFFIX_DIGITS = 6


def _validate_counts(counts: PhotonConfig) -> tuple[int, ...]:
    try:
        t = tuple(int(k) for k in counts)
    except (TypeError, ValueError):
        raise ParameterError("counts", "must be a sequence of integers") from None
    if len(t) < 2:
        raise ParameterError("counts", "needs at least 2 pulses")
    if any(k < 0 for k in t):
        raise ParameterError("counts", "photon counts must be nonnegative")
    if any(k != c for k, c in zip(t, counts)):
        raise ParameterError("counts", "photon counts must be integers")
    return t


@dataclass(frozen=True)
class TagParams:
    """Block length and mean photon number per pulse.

    mu = 0 is allowed and gives a tagging probability of exactly 0.
    """

    L: int
    mu: float

    def __post_init__(self):
        _block_length("L", self.L)
        _mean_photon_number("mu", self.mu)


@dataclass(frozen=True)
class SourceDistribution:
    """Finite photon-number distribution of an L-pulse source.

    `support` maps configurations to probabilities; probabilities must sum
    to 1 within 1e-12 and all configurations must share one block length.
    """

    support: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if not self.support:
            raise ParameterError("support", "must be non-empty")
        configs = []
        probs = []
        for config, p in self.support:
            configs.append(_validate_counts(config))
            if not math.isfinite(p) or p < 0 or p > 1:
                raise ParameterError("support", f"probability {p!r} outside [0, 1]")
            probs.append(float(p))
        L = len(configs[0])
        if any(len(c) != L for c in configs):
            raise ParameterError("support", "all configurations must share one block length")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError("support", f"probabilities sum to {total!r}, not 1")
        object.__setattr__(
            self, "support", tuple((c, p) for c, p in zip(configs, probs))
        )

    @property
    def L(self) -> int:
        return len(self.support[0][0])

    @classmethod
    def from_file(cls, path) -> "SourceDistribution":
        """Load from text: one `k_0 k_1 ... k_{L-1} probability` record per line.

        Blank lines and `#` comments are skipped.
        """
        pairs = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                fields = line.split()
                if len(fields) < 3:
                    raise ParameterError(
                        "source", f"line {lineno}: need at least 2 counts and a probability"
                    )
                try:
                    counts = tuple(int(f) for f in fields[:-1])
                    prob = float(fields[-1])
                except ValueError:
                    raise ParameterError(
                        "source", f"line {lineno}: malformed record {line!r}"
                    ) from None
                pairs.append((counts, prob))
        if not pairs:
            raise ParameterError("source", "file contains no records")
        return cls(tuple(pairs))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Configurations as an (n, L) int array plus the probability vector."""
        configs = np.array([c for c, _ in self.support], dtype=np.int64)
        probs = np.array([p for _, p in self.support], dtype=np.float64)
        return configs, probs


class BruteForceResult(NamedTuple):
    value: float
    truncation_bound: float


def is_untagged_config(counts: PhotonConfig) -> bool:
    """True iff no pulse holds 2+ photons and no neighboring pair sums to 2+."""
    t = _validate_counts(counts)
    if any(k > 1 for k in t):
        return False
    return all(t[i] + t[i + 1] <= 1 for i in range(len(t) - 1))


def count_untagged_configs(L: int, m: int) -> int:
    """Number of ways to place m single photons in L pulses, none adjacent.

    Equals C(L+1-m, m): choosing m non-adjacent slots out of L leaves
    L-m empty ones and m photons to interleave.
    """
    _block_length("L", L)
    _check_int("m", m, 0, (L + 1) // 2)
    return math.comb(L + 1 - m, m)


def rtag_coherent(p: TagParams) -> float:
    """Tagging probability of a phase-randomized coherent L-pulse block.

    Walks the block pulse by pulse as a three-state chain (see `_rtag`)
    and returns the mass absorbed in the tagged state, capped at 1.  No
    term is ever subtracted from another, so the result
    keeps its relative precision for every mu, also where it is as small
    as (3L-2) mu^2 / 2: within 6e-14 of a 60-digit reference for
    mu in [1e-12, 50] and L up to 1000.  mu = 0 gives exactly 0.
    """
    return float(_rtag(p.L, p.mu))


# Horner coefficients of sum_j mu^j / (j+2)!, highest order first; 15 terms
# reach 1e-17 relative at mu = _P2_SERIES_MAX.
_P2_SERIES = tuple(1.0 / math.factorial(j + 2) for j in reversed(range(15)))
_P2_SERIES_MAX = 0.5


def _where(cond, a, b):
    """np.where(cond, a, b) for finite a and b, floats or arrays.

    a * True + b * False is a + (+-0.0), so the chosen value comes through
    bit for bit; on scalars this costs a quarter of np.where.  (b becomes
    a numpy float first: a Python float times a numpy bool is slow.)
    """
    return a * cond + np.float64(b) * np.logical_not(cond)


def _rtag(L: int, mu):
    """Tagging probability for a float or a numpy array of mu (no validation).

    The block is scanned pulse by pulse, each pulse Poisson(mu), through
    the states A (untagged, last pulse empty), B (untagged, last pulse one
    photon) and T (tagged, absorbing):

        A -> A  e^-mu          A -> B  mu e^-mu        A -> T  P(X >= 2)
        B -> A  e^-mu          B -> T  P(X >= 1)

    rtag is the A -> T entry of M^L, computed by repeated squaring of the
    2x2 untagged block U and the absorption column c (M^2 has U^2 and
    U c + c).  Every entry is a sum of products of nonnegative numbers,
    so the relative error stays near L/2 ulps at worst (the rounding of
    e^-mu, compounded over the pulses).  P(X >= 2) comes from its positive
    series e^-mu mu^2 sum mu^j/(j+2)! up to _P2_SERIES_MAX and from
    P(X >= 1) - P(X = 1) above it, where that difference is at least 0.09.
    Floats give numpy scalars, arrays give arrays, element for element
    the same bits.
    """
    mu = np.asarray(mu, dtype=np.float64)[()]  # a 0-d array becomes a scalar
    stay = np.exp(-mu)  # P(X = 0)
    one = mu * stay  # P(X = 1)
    small = mu <= _P2_SERIES_MAX
    x = _where(small, mu, _P2_SERIES_MAX)
    series = 0.0
    for coeff in _P2_SERIES:
        series = series * x + coeff
    any_ = -np.expm1(-mu)  # P(X >= 1)
    two = _where(small, one * mu * series, any_ - one)  # P(X >= 2)

    # chain state after the pulses consumed so far: untagged (a, b), tagged t
    a, b, t = 1.0, 0.0, 0.0
    # M^(2^k): untagged block [[aa, ab], [ba, bb]], absorption column (ca, cb)
    aa, ab, ba, bb, ca, cb = stay, one, stay, 0.0, two, any_
    n = L
    while True:
        if n & 1:
            a, b, t = a * aa + b * ba, a * ab + b * bb, t + a * ca + b * cb
        n >>= 1
        if not n:
            # rows of M sum to 1 only up to rounding, which can carry t a
            # few ulps past 1 once mu L is large
            return _where(t < 1.0, t, 1.0)
        aa, ab, ba, bb, ca, cb = (
            aa * aa + ab * ba,
            aa * ab + ab * bb,
            ba * aa + bb * ba,
            ba * ab + bb * bb,
            aa * ca + ab * cb + ca,
            ba * ca + bb * cb + cb,
        )


def rtag_bruteforce(
    p: TagParams,
    photon_cap: int = DEFAULT_PHOTON_CAP,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> BruteForceResult:
    """Tagging probability by explicit enumeration, with its truncation bound.

    Every configuration with per-pulse counts up to photon_cap is tested
    against is_untagged_config and weighted by its product-Poisson(mu)
    probability.  truncation_bound = 1 - P(all pulses <= cap) bounds the
    mass the enumeration cannot see.  Work is metered as L*(cap+1)^L and
    refused above work_limit.
    """
    _check_int("photon_cap", photon_cap, 2)
    _check_real("work_limit", work_limit, "[-inf, inf]")  # NaN would pass the meter
    L, mu = p.L, p.mu
    work = L * (photon_cap + 1) ** L
    if work > work_limit:
        raise WorkLimitError(work, work_limit)
    if mu == 0.0:
        return BruteForceResult(0.0, 0.0)

    hist = _tagged_weight_histogram(L, photon_cap)
    log_mu = math.log(mu)
    value = math.fsum(
        w * math.exp(-mu * L + n * log_mu) for n, w in enumerate(hist) if w > 0.0
    )

    # P(X <= cap) for one Poisson(mu) pulse, then the L-pulse complement.
    cdf = math.fsum(
        math.exp(-mu + k * log_mu - math.lgamma(k + 1)) for k in range(photon_cap + 1)
    )
    trunc = -math.expm1(L * math.log(cdf)) if cdf < 1.0 else 0.0
    return BruteForceResult(value, max(trunc, 0.0))


def rtag_general(src: SourceDistribution) -> float:
    """Tagged probability mass of an explicit finite source distribution."""
    return math.fsum(p for config, p in src.support if not is_untagged_config(config))


@lru_cache(maxsize=16)
def _tagged_weight_histogram(L: int, cap: int) -> tuple[float, ...]:
    """W[n] = sum over tagged configs with n photons of prod_l 1/k_l!.

    The enumeration is split into a leading prefix of L-s pulses iterated in
    Python and a suffix of s = min(L, 6) pulses tabulated once with numpy;
    adjacency across the boundary is the prefix's last count plus the
    suffix's first.  The split covers the full (cap+1)^L grid exactly.
    """
    base = cap + 1
    s = min(L, _SUFFIX_DIGITS)
    prefix_len = L - s

    digits = np.indices((base,) * s, dtype=np.int16).reshape(s, -1)
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(base)])
    n_suffix = digits.sum(axis=0, dtype=np.int64)
    w_suffix = inv_fact[digits].prod(axis=0)
    tagged_suffix = (digits >= 2).any(axis=0)
    if s >= 2:
        tagged_suffix |= ((digits[:-1] + digits[1:]) >= 2).any(axis=0)
    first_suffix = digits[0].astype(np.int64)

    max_n = L * cap
    partial: list[list[float]] = [[] for _ in range(max_n + 1)]
    for prefix in itertools.product(range(base), repeat=prefix_len):
        n_prefix = sum(prefix)
        w_prefix = 1.0
        tagged_prefix = False
        for i, k in enumerate(prefix):
            w_prefix *= inv_fact[k]
            if k >= 2 or (i > 0 and prefix[i - 1] + k >= 2):
                tagged_prefix = True
        if prefix_len:
            tagged = tagged_prefix | tagged_suffix | (prefix[-1] + first_suffix >= 2)
        else:
            tagged = tagged_suffix
        weights = np.where(tagged, w_suffix * w_prefix, 0.0)
        chunk = np.bincount(n_suffix + n_prefix, weights=weights, minlength=max_n + 1)
        for n in np.nonzero(chunk)[0]:
            partial[n].append(chunk[n])
    return tuple(math.fsum(parts) for parts in partial)
