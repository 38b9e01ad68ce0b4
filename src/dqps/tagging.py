"""Photon-configuration combinatorics and the tagging probability.

A block of L weak pulses is *tagged* when it carries two or more photons in
the same pulse or in two neighboring pulses; such blocks are conceded to an
eavesdropper during privacy amplification.  This module computes the
probability of that event for phase-randomized coherent light (closed form),
for arbitrary finite photon-number distributions, and by brute-force
enumeration as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, WorkLimitError

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
        if not isinstance(self.L, int) or self.L < 2:
            raise ParameterError("L", "block length must be an integer >= 2")
        if not math.isfinite(self.mu) or self.mu < 0:
            raise ParameterError("mu", "mean photon number must be finite and >= 0")


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
    if not isinstance(L, int) or L < 2:
        raise ParameterError("L", "block length must be an integer >= 2")
    m_max = (L + 1) // 2
    if not isinstance(m, int) or m < 0 or m > m_max:
        raise ParameterError("m", f"photon number must be an integer in [0, {m_max}]")
    return math.comb(L + 1 - m, m)


def rtag_coherent(p: TagParams) -> float:
    """Tagging probability of a phase-randomized coherent L-pulse block.

    Sums the untagged mass e^{-mu L} mu^m |Gamma^(m)| over the photon
    number m in log space (stable for mu*L up to ~50 and beyond) and
    returns its complement, clamped to [0, 1].
    """
    L, mu = p.L, p.mu
    if mu == 0.0:
        return 0.0
    m_max = (L + 1) // 2
    log_mu = math.log(mu)
    terms = []
    for m in range(m_max + 1):
        log_term = (
            -mu * L
            + m * log_mu
            + math.lgamma(L + 2 - m)
            - math.lgamma(m + 1)
            - math.lgamma(L + 2 - 2 * m)
        )
        terms.append(math.exp(log_term))
    untagged = math.fsum(terms)
    r = 1.0 - untagged
    if -1e-12 < r < 0.0:  # float residue of the subtraction, not a logic error
        return 0.0
    return min(max(r, 0.0), 1.0)


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
    if not isinstance(photon_cap, int) or photon_cap < 2:
        raise ParameterError("photon_cap", "must be an integer >= 2")
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
