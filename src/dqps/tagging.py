"""Photon-configuration combinatorics and the tagging probability.

A block of L weak pulses is *tagged* when it carries two or more photons in
the same pulse or in two neighboring pulses; such blocks are conceded to an
eavesdropper during privacy amplification.  This module computes the
probability of that event for phase-randomized coherent light, for
arbitrary finite photon-number distributions, and by an independent oracle
that joins two half-block tables of every configuration up to a photon cap.
Every pulse has a neighbor, so a pulse with two photons already puts two in
a neighboring pair: the rule is the single test "some neighboring pair
holds two or more photons", written once as _tagged.

The coherent case walks the block pulse by pulse as a three-state Markov
chain (untagged with the last pulse empty, untagged with one photon in
the last pulse, tagged) and sums the chain's absorption in closed form,
from the two eigenvalues of its untagged block: a fixed amount of work at
any L.  Every term of the sum is nonnegative, so nothing cancels: the
result keeps its relative precision at every mu, where the complement
1 - P(untagged) would lose it like eps / mu^2.  The same code takes a
float or a numpy array of mu.  count_untagged_configs, the pattern count
of the closed form e^{-mu L} sum_m C(L+1-m, m) mu^m for the
untagged mass, stays as an independent combinatorial check.
"""

from __future__ import annotations

import io
import math
import re
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ParameterError, WorkLimitError, _block_length, _check_int, _check_real,
    _mean_photon_number, _read_text,
)

# A photon configuration is the per-pulse photon count tuple (k_0 .. k_{L-1}).
PhotonConfig = Sequence[int]

DEFAULT_PHOTON_CAP = 8
DEFAULT_WORK_LIMIT = 10**8
# the most photons one configuration of the oracle may hold
_PHOTONS_MAX = np.iinfo(np.int16).max


def _validate_counts(counts: PhotonConfig) -> tuple[int, ...]:
    try:
        given = tuple(counts)  # read once, so a one-shot iterator works too
        t = tuple(map(int, given))
    except (TypeError, ValueError):
        raise ParameterError("counts", "must be a sequence of integers") from None
    if len(t) < 2:
        raise ParameterError("counts", "needs at least 2 pulses")
    if min(t) < 0:
        raise ParameterError("counts", "photon counts must be nonnegative")
    if t != given:
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


_INT64_MAX = 2**63 - 1


def _plain_arrays(support):
    """The table as int64 (n, L) counts and float64 (n,) probabilities, or None.

    None unless numpy reads the rows as one int64 table and one float64
    vector that _plain admits.
    """
    try:
        counts = np.array([c for c, _ in support])
        weights = np.array([p for _, p in support])
    except (TypeError, ValueError, OverflowError):  # a bad pair, ragged rows, a huge number
        return None
    return (counts, weights) if _plain(counts, weights) else None


def _plain(counts: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the arrays pass every row-by-row check of _checked_rows.

    That is an int64 table of two or more pulses, every count nonnegative
    and small enough that a train's photons fit in int64, and float64
    probabilities in [0, 1]; the rows then give the same values.
    """
    if (counts.dtype != np.int64 or counts.ndim != 2 or counts.shape[1] < 2
            or weights.dtype != np.float64 or weights.ndim != 1):
        return False
    if counts.min() < 0 or counts.max() > _INT64_MAX // counts.shape[1]:
        return False
    return bool(((weights >= 0.0) & (weights <= 1.0)).all())  # NaN fails too


# Text that numpy's reader takes as int() and float() take it: no comment,
# no letter but an exponent's, ASCII digits and blanks
_PLAIN_TEXT = re.compile(r"[0-9 \t\n.eE+-]*")
_FIRST_RECORD = re.compile(r"\S[^\n]*")


def _bulk_arrays(text: str):
    """from_file's table read at once, as _plain arrays, or None.

    None unless _PLAIN_TEXT holds the whole text and numpy reads every
    record as the first one's count of fields, its L >= 2 counts as int64
    and its last field as a float64; every other text goes row by row.
    """
    first = _FIRST_RECORD.search(text)
    if not _PLAIN_TEXT.fullmatch(text) or first is None:
        return None
    pulses = len(first.group().split()) - 1
    if pulses < 2:
        return None
    record = np.dtype([("counts", np.int64, (pulses,)), ("prob", np.float64)])
    with warnings.catch_warnings():
        # the numpy versions from 1.23 that still take it read a count such as
        # "2.7" or "1e3" through a float, as 2 or 1000, and only warn so
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(io.StringIO(text), dtype=record, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):  # no numbers, too many or too few fields
            return None
    counts, weights = np.ascontiguousarray(rows["counts"]), rows["prob"].copy()
    return (counts, weights) if _plain(counts, weights) else None


@dataclass(frozen=True)
class SourceDistribution:
    """Finite photon-number distribution of an L-pulse source.

    `support` maps configurations to probabilities; probabilities must sum
    to 1 within 1e-12, all configurations must share one block length, and
    no train may hold more photons than int64 does (2^63 - 1).
    """

    support: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        """Validate once and keep the table as int64 _counts and float64 _probs."""
        if not self.support:
            raise ParameterError("support", "must be non-empty")
        support = tuple(self.support)
        plain = _plain_arrays(support)
        if plain is not None:
            self._hold(*plain)
            return
        configs, probs = _checked_rows(support)
        if max(map(sum, configs)) > _INT64_MAX:
            raise ParameterError("support", "photons per train must fit in int64")
        self._hold(np.array(configs, dtype=np.int64), np.array(probs), configs, probs)

    def _hold(self, counts, weights, configs=None, probs=None) -> None:
        """Check that the rows sum to 1, then keep them as support and as arrays.

        configs and probs are the rows as tuples and floats, made from the
        _plain arrays where not given.
        """
        if configs is None:
            configs, probs = list(map(tuple, counts.tolist())), weights.tolist()
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ParameterError("support", f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "support", tuple(zip(configs, probs)))
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_probs", weights)

    @property
    def L(self) -> int:
        return len(self.support[0][0])

    @classmethod
    def from_file(cls, path) -> "SourceDistribution":
        """Load from text: one `k_0 k_1 ... k_{L-1} probability` record per line.

        Blank lines and `#` comments are skipped.  Plain text (_bulk_arrays)
        is read at once and validated as arrays; any other text goes line by
        line, which names the line of a malformed record.
        """
        text = _read_text("source", path)
        plain = _bulk_arrays(text)
        if plain is None:
            return cls(_records(text))
        table = cls.__new__(cls)
        table._hold(*plain)
        return table

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Configurations as an (n, L) int array plus the probability vector."""
        return self._counts.copy(), self._probs.copy()


def _records(text: str) -> tuple:
    """from_file's records, line by line, as (counts, probability) pairs."""
    pairs = []
    # the read made "\r\n" and "\r" into "\n"; splitlines would also split at "\f"
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ParameterError(
                "source", f"line {lineno}: need at least 2 counts and a probability"
            )
        try:
            counts = tuple(map(int, fields[:-1]))
            prob = float(fields[-1])
        except ValueError:
            raise ParameterError(
                "source", f"line {lineno}: malformed record {line!r}"
            ) from None
        pairs.append((counts, prob))
    if not pairs:
        raise ParameterError("source", "file contains no records")
    return tuple(pairs)


def _checked_rows(support) -> tuple[list, list]:
    """Check row by row, in order: the counts, then the probability; then the lengths."""
    configs = []
    probs = []
    for config, p in support:
        configs.append(_validate_counts(config))
        if not math.isfinite(p) or p < 0 or p > 1:
            raise ParameterError("support", f"probability {p!r} outside [0, 1]")
        probs.append(float(p))
    L = len(configs[0])
    if any(len(c) != L for c in configs):
        raise ParameterError("support", "all configurations must share one block length")
    return configs, probs


class BruteForceResult(NamedTuple):
    value: float
    truncation_bound: float


def _tagged(counts: np.ndarray) -> np.ndarray:
    """Whether each row of photon counts is tagged (pulses on the last axis, 2+)."""
    return (counts[..., :-1] + counts[..., 1:] >= 2).any(axis=-1)


def _capped(configs) -> np.ndarray:
    """Counts as int8 capped at 2 (the rule sees no more), with no int64 overflow."""
    return np.minimum(np.array(configs, dtype=object), 2).astype(np.int8)


def is_untagged_config(counts: PhotonConfig) -> bool:
    """True iff no pulse holds 2+ photons and no neighboring pair sums to 2+."""
    return not _tagged(_capped(_validate_counts(counts)))


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

    Sums the mass the three-state chain of `_rtag` absorbs in the tagged
    state, in closed form, capped at 1.  No term is ever subtracted from
    another, so the result keeps its relative precision for every mu, also
    where it is as small as (3L-2) mu^2 / 2: within 1e-15 of a reference
    that does not cancel for any L up to 2^62 and mu in [1e-100, 50].
    mu = 0 gives exactly 0.
    """
    return float(_rtag(p.L, p.mu))


# The array cores below take their constants as 0-d float64 arrays: numpy
# combines two arrays faster than an array and a Python float, with the same
# bits.
_QUARTER, _HALF, _ONE, _TWO = map(np.array, (0.25, 0.5, 1.0, 2.0))

# Horner coefficients of sum_j mu^j / (j+2)!, highest order first; 15 terms
# reach 1e-17 relative at mu = _P2_SERIES_MAX.
_P2_SERIES = tuple(np.array(1.0 / math.factorial(j + 2)) for j in reversed(range(15)))
_P2_SERIES_MAX = _HALF


def _poisson_head(mu):
    """P(X = 0), P(X = 1), P(X >= 1) and P(X >= 2) for X ~ Poisson(mu).

    A float or a numpy array of mu, unvalidated.  P(X >= 2) comes from its
    positive series e^-mu mu^2 sum mu^j/(j+2)! up to _P2_SERIES_MAX and from
    P(X >= 1) - P(X = 1) above it, where that difference is at least 0.09,
    so it keeps its relative precision at every mu.
    """
    mu = np.asarray(mu, dtype=np.float64)[()]  # a 0-d array becomes a scalar
    minus_mu = -mu
    stay = np.exp(minus_mu)
    one = mu * stay
    small = mu <= _P2_SERIES_MAX
    x = np.fmin(mu, _P2_SERIES_MAX)  # mu where small, also for NaN
    series = _P2_SERIES[0]
    for coeff in _P2_SERIES[1:]:
        series = series * x + coeff
    any_ = -np.expm1(minus_mu)
    return stay, one, any_, np.where(small, one * mu * series, any_ - one)


# With s = x / (2 + x), log1p(x) - x = 2 s^3 sum_k s^(2k) / (2k+3) - x s, a
# sum of two terms of one sign.  Its Horner coefficients, highest order
# first, of which _log1p_gap takes the last few
_LOG_SERIES = tuple(np.array(2.0 / (2 * k + 3)) for k in reversed(range(18)))
# _rtag's x >= 0 takes six terms below this, where they reach 1e-17
# relative and above which log1p(x) - x loses at most a few ulps
_LOG_SERIES_MAX = np.array(0.1)
# Past this mu every term of rtag but P(X >= 2) is below 1e-300 of it, so
# the eigenvalue sums are taken here, where e^-log(l1) is still finite
_CHAIN_MU_MAX = np.array(700.0)
_TINY = np.array(5e-324)  # the smallest subnormal


def _log1p_gap(x, terms: int, below):
    """log1p(x) - x for a float or an array of x >= -1, without cancelling.

    Where |x| < below, from the first `terms` terms of the _LOG_SERIES sum
    in s = x / (2 + x); elsewhere as log1p(x) - x, -inf at x = -1 (with
    numpy's divide warning).  A float gives a 0-d array, an array an array,
    element for element the same bits.
    """
    s = x / (_TWO + x)
    s2 = s * s
    coeffs = _LOG_SERIES[-terms:]
    series = coeffs[0]
    for coeff in coeffs[1:]:
        series = series * s2 + coeff
    return np.where(np.abs(x) < below, s * (s2 * series - x), np.log1p(x) - x)


def _rtag(L: int, mu):
    """Tagging probability for a float or a numpy array of mu (no validation).

    The block is scanned pulse by pulse, each pulse Poisson(mu), through
    the states A (untagged, last pulse empty), B (untagged, last pulse one
    photon) and T (tagged, absorbing):

        A -> A  e^-mu          A -> B  mu e^-mu        A -> T  P(X >= 2)
        B -> A  e^-mu          B -> T  P(X >= 1)

    rtag is the A -> T entry of M^L, the sum over the first L pulses of
    (row A of U^k) times the absorption column (P(X >= 2), P(X >= 1)),
    where U = e^-mu [[1, mu], [1, 0]] is the untagged block.  With
    x = 2 mu / (1 + sqrt(1 + 4 mu)) its eigenvalues are l1 = e^-mu (1 + x)
    and l2 = -e^-mu x, and

        rtag = [P2 ((1+x) S1 + x S2) + mu P1 (S1 - S2)] / (1 + 2x),

    S_i = sum_{k<L} l_i^k.  Written with S_i = 1 + l_i T_i, where
    T_i = sum_{k<L-1} l_i^k, this is P(X >= 2) plus two nonnegative terms:

        rtag = P2 + [l1 T1 (P2 (1+x) + mu P1) + e^-mu x^2 T2 (P(X=1) + x P1)] / (1 + 2x).

    l1 T1 = -expm1(-(L-1) g) / expm1(g) with g = -log l1 = x^2 - (log1p(x) - x),
    taken from _log1p_gap's series at small x so that it does not cancel, and
    T2 = (1 - l2^(L-1)) / (1 - l2).  x gets one Newton step, in which
    mu - x is exact, because g ~ 3 x^2 / 2 doubles its relative error and
    rtag near 1 inherits that of g.  L - 1 enters as a float, and the work
    is the same at every L; the result is within 1e-15 of a reference that
    does not cancel for every L up to 2^62, the longest block, and mu in
    [1e-100, 50].  The entries of M come from
    _poisson_head.  Floats give numpy scalars, arrays give arrays, element
    for element the same bits.
    """
    stay, one, any_, two = _poisson_head(mu)
    m = np.minimum(mu, _CHAIN_MU_MAX)
    r = np.sqrt(m + _QUARTER)
    x = m / (_HALF + r)
    q = r + r  # 1 + 2x
    x = x + ((m - x) - x * x) / q
    h = _ONE + x
    log_gap = _log1p_gap(x, 6, _LOG_SERIES_MAX)
    # g = -log l1 > 0 strictly, so l1 T1 is L - 1 where g underflows to 0
    g = np.maximum(x * x - log_gap, _TINY)
    n = float(L - 1)
    a1 = np.expm1(-n * g) / np.expm1(g)  # -l1 T1
    y = stay * x  # -l2
    e2 = np.expm1(n * np.log(np.maximum(y, _TINY)))  # y^(L-1) - 1
    t2 = (_TWO + e2 if L % 2 == 0 else -e2) / (_ONE + y)
    rest = y * x * t2 * (one + x * any_) - a1 * (two * h + m * any_)
    # rounding can carry the sum a few ulps past 1 once mu L is large; a
    # NaN mu stays NaN
    return np.minimum(two + rest / q, _ONE)


def rtag_bruteforce(
    p: TagParams,
    photon_cap: int = DEFAULT_PHOTON_CAP,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> BruteForceResult:
    """Tagging probability by explicit enumeration, with its truncation bound.

    Every configuration with per-pulse counts up to photon_cap is tested
    by the tagging rule and weighted by its product-Poisson(mu)
    probability, the chance P[n] that its n photons fall so when placed
    uniformly over the L pulses, times Poisson(n; mu L).  truncation_bound
    = 1 - P(all pulses <= cap) bounds the mass the enumeration cannot see.
    Work is metered as L*(cap+1)^L, the grid the enumeration covers (from
    tables of (cap+1)^ceil(L/2) rows), and refused above work_limit or past
    the float range, at any limit.  Work the meter admits is refused too,
    at any limit, where the head's table, 2 bytes a cell, holds more bytes
    than np.intp counts, so that numpy cannot build it, and where a
    configuration holds more photons, L * cap, than the int16 tables count
    (32767).  Every call that passes these is answered.
    """
    _check_int("photon_cap", photon_cap, 2)
    _check_real("work_limit", work_limit, "[-inf, inf]")  # NaN would pass the meter
    L, mu = p.L, p.mu
    # (cap+1)^L above 2^1030 is past the float range, so it is not formed
    fits = L * math.log2(photon_cap + 1) < 1030
    work = L * (photon_cap + 1) ** L if fits else math.inf
    if work > min(work_limit, sys.float_info.max):
        raise WorkLimitError(work, work_limit)
    # the head's table has ceil(L/2) + 1 axes; within the byte limit it has
    # at most 40 (3^40 cells are already too many), so numpy's 64 never binds
    half = (L + 1) // 2
    if 2 * half * (photon_cap + 1) ** half > np.iinfo(np.intp).max:
        raise WorkLimitError(work, work_limit)
    # the tables count photons in int16, and the histogram keeps L cap + 1
    # exact factorials, whose bits grow as (L cap)^2 log(L cap)
    if L * photon_cap > _PHOTONS_MAX:
        raise WorkLimitError(work, work_limit, f"configurations of more photons than "
                             f"its int16 tables count (L * cap above {_PHOTONS_MAX})")
    if mu == 0.0:
        return BruteForceResult(0.0, 0.0)

    hist = _tagged_weight_histogram(L, photon_cap)
    log_mu = math.log(mu)
    log_mean = log_mu + math.log(L)  # not log(mu L): mu L overflows near float max
    value = math.fsum(
        w * math.exp(-mu * L + n * log_mean - math.lgamma(n + 1))
        for n, w in enumerate(hist) if w > 0.0
    )

    # P(X <= cap) for one Poisson(mu) pulse, then the L-pulse complement.
    cdf = math.fsum(
        math.exp(-mu + k * log_mu - math.lgamma(k + 1)) for k in range(photon_cap + 1)
    )
    # far above the cap (mu > ~788 at cap 8) the cdf underflows to 0: nothing is seen
    log_cdf = math.log(cdf) if cdf > 0.0 else -math.inf
    trunc = -math.expm1(L * log_cdf) if cdf < 1.0 else 0.0
    return BruteForceResult(value, max(trunc, 0.0))


def rtag_general(src: SourceDistribution) -> float:
    """Tagged probability mass of an explicit finite source distribution."""
    return math.fsum(src._probs[_tagged(src._counts)])


def _count_table(pulses: int, base: int) -> np.ndarray:
    """Every configuration of `pulses` pulses with counts below base, one per row."""
    return np.indices((base,) * pulses, dtype=np.int16).reshape(pulses, -1).T


def _binary(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Each num/den of positive integers as m 2^e: m in [1/2, 2] correctly rounded."""
    shifts = [num.bit_length() - den.bit_length() for num, den in pairs]
    mantissas = [num / (den << e) if e >= 0 else (num << -e) / den
                 for (num, den), e in zip(pairs, shifts)]
    return np.array(mantissas), np.array(shifts, dtype=np.int32)  # np.ldexp casts int64 slowly


@lru_cache(maxsize=16)
def _tagged_weight_histogram(L: int, cap: int) -> tuple[float, ...]:
    """P[n]: the chance that n photons, each placed in one of the L pulses
    uniformly at random, form a tagged configuration with no pulse above cap.

    P[n] = W[n] n!/L^n, W[n] the sum over those configurations of prod_l
    1/k_l!.  Joins the head (first h = ceil(L/2) pulses) and tail (last t =
    floor(L/2)) of the (cap+1)^L grid meet-in-the-middle.  Each 1/k! and
    n!/L^n is a correctly rounded mantissa times an exact power of two, and
    each half-table row of a photons is scaled by a power of two near
    a!/h^a (or a!/t^a), so every partial sum stays near 1 and nothing leaves
    the float range.  Each side is one bincount by tag, photon count and
    seam-pulse count; math.fsum adds each anti-diagonal a + b = n of the
    join, so every P[n] lands within a few ulps of exact (no term is negative).
    """
    base = cap + 1
    fact = list(accumulate(range(1, L * cap + 1), mul, initial=1))
    fact_bits = np.array([f.bit_length() for f in fact], dtype=np.int32)
    inv_m, inv_e = _binary([(1, fact[k]) for k in range(base)])

    def by_class(pulses: int, seam: int) -> tuple[np.ndarray, np.ndarray]:
        """Weights by class (untagged, 0, 1, 2+ in the seam pulse; tagged) and total."""
        rows, bins = _count_table(pulses, base), pulses * cap + 1
        scale = fact_bits[:bins] - (np.arange(bins) * math.log2(pulses)).astype(np.int32)
        total = rows.sum(axis=1)
        # prod_l 1/k_l! times 2^scale[a], in C order as rows
        weight = np.ldexp(reduce(np.multiply.outer, (inv_m,) * pulses).ravel(),
                          reduce(np.add.outer, (inv_e,) * pulses).ravel() + scale[total])
        key = (_tagged(rows) * bins + total) * base + rows[:, seam]
        untagged, tagged = np.bincount(key, weight, 2 * bins * base).reshape(2, bins, base)
        classes = [untagged[:, 0], untagged[:, 1], untagged[:, 2:].sum(1), tagged.sum(1)]
        return np.array(classes), scale

    (head, head_scale), (tail, tail_scale) = by_class((L + 1) // 2, -1), by_class(L // 2, 0)
    # an untagged head ending in 0, 1, 2+ photons joins the tails that are
    # tagged or start with 2+, 1+, any; a tagged head joins every tail
    joint = head.T @ np.cumsum(tail[::-1], axis=0)[[1, 2, 3, 3]]
    rows, cols = joint.shape
    norm_m, norm_e = _binary(list(zip(fact, accumulate(repeat(L, L * cap), mul, initial=1))))
    n = np.add.outer(np.arange(rows), np.arange(cols))
    joint = np.ldexp(joint * norm_m[n], norm_e[n] - np.add.outer(head_scale, tail_scale))
    # anti-diagonal n = a + b of the join is diagonal cols - 1 - n of a flipped view
    flipped = joint[:, ::-1]
    return tuple(math.fsum(flipped.diagonal(k).tolist()) for k in range(cols - 1, -rows, -1))
