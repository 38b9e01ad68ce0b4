import functools
import io
import itertools
import math
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqps import (
    BruteForceResult,
    CalibSetup2,
    ParameterError,
    SourceDistribution,
    TagParams,
    WorkLimitError,
    count_untagged_configs,
    is_untagged_config,
    rtag_bruteforce,
    rtag_coherent,
    rtag_general,
)
from dqps import tagging
from dqps.tagging import _P2_SERIES, _poisson_head, _rtag, _tagged_weight_histogram


def enumerate_untagged(L, m):
    """Count m-photon single-occupancy patterns with no adjacent pair."""
    total = 0
    for positions in itertools.combinations(range(L), m):
        if all(b - a >= 2 for a, b in zip(positions, positions[1:])):
            total += 1
    return total


# --- parameter validation -------------------------------------------------

def test_tag_params_rejects_short_blocks():
    with pytest.raises(ParameterError, match="'L'"):
        TagParams(1, 0.1)


def test_tag_params_rejects_negative_mu():
    with pytest.raises(ParameterError, match="'mu'"):
        TagParams(4, -0.01)


def test_tag_params_rejects_non_integer_L():
    with pytest.raises(ParameterError):
        TagParams(2.0, 0.1)


def test_mu_zero_is_allowed_and_gives_zero():
    p = TagParams(5, 0.0)
    assert rtag_coherent(p) == 0.0
    result = rtag_bruteforce(p)
    assert result.value == 0.0


# --- tagged/untagged classification ---------------------------------------

def test_is_untagged_config_hand_cases():
    assert is_untagged_config((0, 0, 0))
    assert is_untagged_config((1, 0, 1))
    assert not is_untagged_config((0, 2, 0))  # two photons in one pulse
    assert not is_untagged_config((1, 1, 0))  # adjacent pair
    assert is_untagged_config((1, 0, 0, 1))
    # counts past int64 must neither overflow nor wrap round
    assert not is_untagged_config((2**63 - 1, 1))
    assert not is_untagged_config((0, 2**70))


def paper_tagged(counts):
    """The paper's two clauses: a pulse with 2+ photons or a neighboring pair with 2+."""
    return any(k >= 2 for k in counts) or any(
        a + b >= 2 for a, b in zip(counts, counts[1:])
    )


@pytest.mark.parametrize("L", range(2, 7))
def test_tagging_rule_equals_the_two_clause_definition(L):
    configs = list(itertools.product(range(4), repeat=L))
    for c in configs:
        assert is_untagged_config(c) == (not paper_tagged(c)), c
    weights = np.random.default_rng(L).random(len(configs))
    probs = (weights / math.fsum(weights)).tolist()
    dist = SourceDistribution(tuple(zip(configs, probs)))
    expected = math.fsum(p for c, p in zip(configs, probs) if paper_tagged(c))
    assert rtag_general(dist) == expected


def test_count_untagged_configs_matches_enumeration_small():
    for L in range(2, 9):
        for m in range(0, (L + 1) // 2 + 1):
            assert count_untagged_configs(L, m) == enumerate_untagged(L, m)


def test_count_untagged_configs_domain():
    with pytest.raises(ParameterError, match="'m'"):
        count_untagged_configs(4, -1)
    with pytest.raises(ParameterError, match="'m'"):
        count_untagged_configs(4, 3)  # max is ceil(4/2) = 2
    with pytest.raises(ParameterError, match="'m'"):
        count_untagged_configs(4, True)


# --- closed form ----------------------------------------------------------

def test_rtag_closed_form_L2_hand_formula():
    # only configs (), (1), and the two single-photon placements are safe
    for mu in (0.01, 0.1, 0.4):
        expected = 1.0 - math.exp(-2 * mu) * (1 + 2 * mu)
        assert rtag_coherent(TagParams(2, mu)) == pytest.approx(expected, rel=1e-14)


def test_rtag_closed_form_L3_hand_formula():
    for mu in (0.01, 0.1, 0.4):
        expected = 1.0 - math.exp(-3 * mu) * (1 + 3 * mu + mu**2)
        assert rtag_coherent(TagParams(3, mu)) == pytest.approx(expected, rel=1e-14)


def test_rtag_small_mu_expansion():
    # quartic expansion; its quartic coefficient is wrong at L = 2, so
    # start from L = 3 (checked by hand against the closed form)
    for L in (3, 4, 5, 10, 20):
        for mu in (1e-3, 5e-3):
            r = rtag_coherent(TagParams(L, mu))
            poly = (
                (3 * L - 2) * mu**2 / 2
                - (10 * L - 12) * mu**3 / 3
                + (-9 * L**2 + 82 * L - 120) * mu**4 / 8
            )
            assert abs(r - poly) <= 10 * (L**2 * mu**5 + L**3 * mu**6)


@given(
    L=st.integers(min_value=2, max_value=30),
    mu=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
def test_rtag_is_a_probability(L, mu):
    r = rtag_coherent(TagParams(L, mu))
    assert 0.0 <= r <= 1.0


@given(
    L=st.integers(min_value=2, max_value=20),
    mu=st.floats(min_value=1e-6, max_value=1.0),
    bump=st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=200)
def test_rtag_monotone_in_mu(L, mu, bump):
    lo = rtag_coherent(TagParams(L, mu))
    hi = rtag_coherent(TagParams(L, mu + bump))
    assert hi >= lo - 1e-15


def rtag_mpmath(mpmath, L, mu):
    """1 - e^{-mu L} sum_m C(L+1-m, m) mu^m, an mpf good to 60 digits."""
    with mpmath.workdps(60):
        mu = mpmath.mpf(mu)
        untagged = mpmath.fsum(
            mpmath.binomial(L + 1 - m, m) * mu**m for m in range((L + 1) // 2 + 1)
        )
        return 1 - mpmath.exp(-mu * L) * untagged


PRECISION_L = (2, 3, 4, 5, 20, 137, 1000)
PRECISION_MU = tuple(np.geomspace(1e-12, 50.0, 31)) + (0.4999, 0.5, 0.5001)


def test_rtag_relative_error_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for L in PRECISION_L:
        for mu in PRECISION_MU:
            exact = rtag_mpmath(mpmath, L, float(mu))
            r = rtag_coherent(TagParams(L, float(mu)))
            worst = max(worst, float(abs(r - exact) / exact))
    assert worst <= 1e-15


def rtag_chain_mpmath(mpmath, L, mu):
    """The A -> T entry of the chain's 3x3 matrix to the L-th power, by squaring.

    Every entry is a sum of products of nonnegative numbers, so nothing
    cancels but P(X >= 2) = P(X >= 1) - P(X = 1), which loses about
    2 log10(1/mu) digits, and the squaring rounds about L times: the
    working precision covers both.
    """
    digits = 40 + len(str(L)) + 2 * max(0, math.ceil(math.log10(1 / mu)))
    with mpmath.workdps(digits):
        mu = mpmath.mpf(mu)
        stay, at_least_one = mpmath.exp(-mu), -mpmath.expm1(-mu)
        step = mpmath.matrix([
            [stay, mu * stay, at_least_one - mu * stay],
            [stay, 0, at_least_one],
            [0, 0, 1],
        ])
        power = mpmath.eye(3)
        while L:
            if L & 1:
                power = power * step
            step = step * step
            L >>= 1
        return power[0, 2]


CHAIN_L = (2, 3, 4, 5, 20, 137, 1000, 10**6, 10**12, 2**62)
CHAIN_MU = tuple(np.geomspace(1e-100, 50.0, 41)) + (0.4999, 0.5, 0.5001)


def test_rtag_relative_error_at_any_block_length():
    # the reference does not cancel, so the check holds down to mu = 1e-100;
    # L runs to 2^62 so that any error growing with L shows
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for L in CHAIN_L:
        values = _rtag(L, np.array(CHAIN_MU))
        for mu, r in zip(CHAIN_MU, values.tolist()):
            exact = rtag_chain_mpmath(mpmath, L, float(mu))
            worst = max(worst, float(abs(r - exact) / exact))
    assert worst <= 1e-15


def inline_head(mu):
    """The chain's entries as _rtag computed them inline before _poisson_head."""
    mu = np.asarray(mu, dtype=np.float64)[()]
    stay = np.exp(-mu)
    one = mu * stay
    small = mu <= 0.5
    x = np.where(small, mu, 0.5)
    series = 0.0
    for coeff in _P2_SERIES:
        series = series * x + coeff
    any_ = -np.expm1(-mu)
    two = np.where(small, one * mu * series, any_ - one)
    return stay, one, any_, two


def test_poisson_head_keeps_the_bits_rtag_used():
    # _rtag reads nothing else of mu, so its values keep their bits too
    mu = np.array(PRECISION_MU + (0.0, 1e300))
    for got, inline in zip(_poisson_head(mu), inline_head(mu)):
        assert got.tobytes() == inline.tobytes()
    for m in mu:
        assert [v.tobytes() for v in _poisson_head(float(m))] == [
            v.tobytes() for v in inline_head(float(m))]


def test_poisson_head_two_or_more_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(60):
        for mu in PRECISION_MU:
            m = mpmath.mpf(float(mu))
            exact = 1 - mpmath.exp(-m) * (1 + m)
            worst = max(worst, float(abs(_poisson_head(float(mu))[3] - exact) / exact))
    assert worst <= 1e-14


def test_rtag_array_call_matches_scalar_calls_bitwise():
    # from mu = 0 to the largest float and at every L up to 2^62, without a
    # RuntimeWarning, which the suite turns into an error
    top = sys.float_info.max
    mu = np.concatenate([
        np.geomspace(1e-12, 50.0, 97), [0.0, 0.5, 1e300],
        np.geomspace(1e-300, 1e300, 31), [5e-324, 746.0, math.nextafter(top, 0.0), top],
    ])
    for L in PRECISION_L + (2**62,):
        values = _rtag(L, mu)
        assert isinstance(values, np.ndarray) and values.shape == mu.shape
        assert ((0.0 <= values) & (values <= 1.0)).all()
        scalars = [rtag_coherent(TagParams(L, float(m))) for m in mu]
        assert values.tolist() == scalars
        assert all(type(r) is float for r in scalars)
    for L in (2**62 + 1, 10**400):
        with pytest.raises(ParameterError, match="'L'"):
            TagParams(L, 0.1)


def test_rtag_stays_at_most_one_at_large_mu():
    # the chain's row sums round a little above 1; the kernel caps the result
    mu = np.linspace(1.0, 60.0, 5001)
    for L in (20, 30, 137, 1000):
        assert _rtag(L, mu).max() <= 1.0


# --- brute-force oracle ---------------------------------------------------

def test_bruteforce_agrees_with_closed_form():
    for L, mu in ((2, 0.05), (3, 0.2), (5, 0.1)):
        p = TagParams(L, mu)
        result = rtag_bruteforce(p, photon_cap=8)
        diff = abs(result.value - rtag_coherent(p))
        assert diff <= result.truncation_bound + 1e-12


def test_bruteforce_sees_nothing_far_above_the_cap():
    # P(X <= 8) underflows to 0 above mu ~ 787.9; the bound then covers everything
    # (at 1e308, mu L overflows to inf, so log(mu L) would give inf - inf)
    for mu in (787.0, 800.0, 1e6, 1e308):
        assert rtag_bruteforce(TagParams(2, mu)) == (0.0, 1.0)


def test_bruteforce_truncation_shrinks_with_cap():
    p = TagParams(4, 0.3)
    loose = rtag_bruteforce(p, photon_cap=4)
    tight = rtag_bruteforce(p, photon_cap=9)
    assert tight.truncation_bound < loose.truncation_bound
    assert isinstance(loose, BruteForceResult)


def test_bruteforce_work_limit():
    with pytest.raises(WorkLimitError) as excinfo:
        rtag_bruteforce(TagParams(9, 0.1), photon_cap=10)
    assert excinfo.value.limit == 10**8
    assert excinfo.value.required > excinfo.value.limit


def test_bruteforce_refuses_work_past_the_float_range_at_once():
    # L (cap+1)^L is not formed there, so the refusal neither waits on it
    # nor prints its digits, and no limit admits it
    message = "enumeration needs more units of work than a float holds; no limit admits it"
    for L, limit in ((2**62, 10**8), (2000, 10**8), (324, math.inf), (2**62, 10**400)):
        start = time.perf_counter()
        with pytest.raises(WorkLimitError) as excinfo:
            rtag_bruteforce(TagParams(L, 0.1), work_limit=limit)
        assert time.perf_counter() - start < 0.5
        assert str(excinfo.value) == message
    # below the float range the meter compares and reports the exact work
    with pytest.raises(WorkLimitError, match="enumeration needs 21221529219 units of work"):
        rtag_bruteforce(TagParams(9, 0.1), photon_cap=10, work_limit=1e8)


def test_bruteforce_refuses_tables_numpy_cannot_hold():
    # the meter admits this work at the limits given, but the head's table
    # of ceil(L/2) + 1 axes needs more bytes than np.intp counts (from L = 71
    # at cap 2) or more axes than numpy's 64 (from L = 127)
    message = ("enumeration needs a half-block table larger than numpy can hold "
               "(2^63 - 1 bytes); no limit admits it")
    for L, cap, limit in ((71, 2, math.inf), (72, 2, math.inf), (129, 2, 1e300),
                          (127, 3, math.inf), (3, 2**61, math.inf)):
        start = time.perf_counter()
        with pytest.raises(WorkLimitError) as excinfo:
            rtag_bruteforce(TagParams(L, 0.1), photon_cap=cap, work_limit=limit)
        assert time.perf_counter() - start < 0.5
        assert str(excinfo.value) == message
        assert excinfo.value.required == L * (cap + 1) ** L <= excinfo.value.limit
    # above the limit the meter's own message still comes first
    with pytest.raises(WorkLimitError, match="above the limit 100000000"):
        rtag_bruteforce(TagParams(72, 0.1), photon_cap=2)


def test_bruteforce_refuses_configurations_past_int16():
    # admitted work whose configurations hold more than 32767 photons: the
    # int16 tables would wrap from cap 32768 on, and the exact factorials up
    # to L cap would take about 5.6 GB at L cap = 80,000
    message = ("enumeration needs configurations of more photons than its int16 "
               "tables count (L * cap above 32767); no limit admits it")
    for L, cap in ((2, 16384), (2, 40000), (3, 10923), (4, 8192)):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(WorkLimitError) as excinfo:
                rtag_bruteforce(TagParams(L, 0.1), photon_cap=cap, work_limit=math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.5 and peak < 10**5
        assert str(excinfo.value) == message
        assert excinfo.value.required == L * (cap + 1) ** L
    # above the limit the meter's own message still comes first
    with pytest.raises(WorkLimitError, match="above the limit 100000000"):
        rtag_bruteforce(TagParams(2, 0.1), photon_cap=16384)


def test_bruteforce_work_limit_override():
    value = rtag_bruteforce(TagParams(3, 0.1), photon_cap=3, work_limit=10**3)
    assert 0.0 < value.value < 1.0


def test_bruteforce_rejects_tiny_cap():
    with pytest.raises(ParameterError, match="photon_cap"):
        rtag_bruteforce(TagParams(3, 0.1), photon_cap=1)


@functools.lru_cache(maxsize=None)
def exact_tagged_weights(L, cap):
    """W[n] as Fractions, by a pulse-by-pulse walk over the states untagged
    with the last pulse empty, untagged with one photon in it, and tagged."""
    size = L * cap + 1
    empty, single, tagged = [Fraction(0)] * size, [Fraction(0)] * size, [Fraction(0)] * size
    empty[0] = Fraction(1)
    for _ in range(L):
        nxt = [[Fraction(0)] * size for _ in range(3)]
        for n, k in itertools.product(range(size), range(cap + 1)):
            if n + k >= size:
                continue
            w = Fraction(1, math.factorial(k))
            nxt[min(k, 2)][n + k] += empty[n] * w
            nxt[0 if k == 0 else 2][n + k] += single[n] * w
            nxt[2][n + k] += tagged[n] * w
        empty, single, tagged = nxt
    return tagged


@pytest.mark.parametrize("L, cap", [(2, 8), (3, 8), (5, 6), (6, 8), (7, 8), (8, 6),
                                    (4, 60), (3, 80)])
def test_oracle_histogram_matches_exact_rationals(L, cap):
    exact = exact_tagged_weights(L, cap)
    # with every count up to cap on the grid, tagged + untagged = L^n / n!
    for n in range(cap + 1):
        untagged = math.comb(L + 1 - n, n) if 2 * n <= L + 1 else 0
        assert exact[n] + untagged == Fraction(L**n, math.factorial(n)), n
    _tagged_weight_histogram.cache_clear()
    hist = _tagged_weight_histogram(L, cap)
    assert len(hist) == len(exact)
    # the histogram holds placement chances, W[n] n! / L^n
    for n, (w, weight) in enumerate(zip(hist, exact)):
        ref = weight * Fraction(math.factorial(n), L**n)
        if ref == 0:
            assert w == 0.0, n
        else:
            assert abs(Fraction(w) - ref) <= 8 * Fraction(math.ulp(float(ref))), n


def test_oracle_histogram_is_a_clearable_cache():
    # perfbench/run.py clears it before every timed call to time a cold oracle
    _tagged_weight_histogram.cache_clear()
    first = _tagged_weight_histogram(4, 3)
    assert _tagged_weight_histogram(4, 3) is first
    assert _tagged_weight_histogram.cache_info().hits == 1
    _tagged_weight_histogram.cache_clear()
    assert _tagged_weight_histogram.cache_info().currsize == 0


def test_oracle_histogram_memory_stays_small():
    # the tables hold (cap+1)^ceil(L/2) rows, 6,561 here
    _tagged_weight_histogram.cache_clear()
    tracemalloc.start()
    try:
        _tagged_weight_histogram(7, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_oracle_join_memory_per_grid_point():
    # at L = 2 the (cap+1)^2 join dominates: it and its few same-sized
    # temporaries take about 40 bytes a grid point; a skewed copy of the join
    # and a Python list of it took about 100
    cap = 300
    _tagged_weight_histogram(2, 4)  # first-call set-up
    _tagged_weight_histogram.cache_clear()
    tracemalloc.start()
    try:
        _tagged_weight_histogram(2, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _tagged_weight_histogram.cache_clear()
    assert peak < 64 * (cap + 1) ** 2


@pytest.mark.parametrize("L, mu, cap", [(4, 100.0, 60), (3, 150.0, 80)])
def test_bruteforce_far_above_the_cap_against_mpmath(L, mu, cap):
    # W[n] = sum prod 1/k! is subnormal or 0 here, so only scaled weights see
    # the mass; a wrong value would hide inside the truncation bound of 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        exact = mpmath.exp(-mpmath.mpf(mu) * L) * mpmath.fsum(
            mpmath.mpf(w.numerator) / w.denominator * mpmath.mpf(mu) ** n
            for n, w in enumerate(exact_tagged_weights(L, cap)) if w
        )
    result = rtag_bruteforce(TagParams(L, mu), photon_cap=cap, work_limit=math.inf)
    assert abs(result.value - exact) <= 1e-12 * exact


# caps above 170 once overflowed 1/cap!, and high mu at high caps once
# overflowed e^{-mu L} mu^n or let the weights underflow to a wrong value
ORACLE_SCAN_CAPS = {2: (8, 85, 86, 120, 150, 171, 200, 300), 3: (8, 56, 57, 80, 120, 170),
                    4: (8, 42, 43, 60)}
ORACLE_SCAN_MU = (0.1, 1, 5, 10, 20, 30, 40, 50, 60, 80, 100, 120, 150, 200, 300, 500)


def oracle_excess(L, cap, mu):
    """The oracle's distance from the closed form beyond its bound."""
    p = TagParams(L, mu)
    result = rtag_bruteforce(p, photon_cap=cap, work_limit=math.inf)
    return abs(result.value - rtag_coherent(p)) - result.truncation_bound


def test_bruteforce_answers_within_its_bound():
    for L, caps in ORACLE_SCAN_CAPS.items():
        for cap, mu in itertools.product(caps, ORACLE_SCAN_MU):
            assert oracle_excess(L, cap, mu) <= 1e-12, (L, cap, mu)


# --- general source distributions -----------------------------------------

def test_rtag_general_uniform_binary_L3():
    configs = list(itertools.product((0, 1), repeat=3))
    dist = SourceDistribution(tuple((c, 1 / 8) for c in configs))
    # tagged members: 011, 110, 111
    assert rtag_general(dist) == pytest.approx(0.375, abs=1e-15)


def test_rtag_general_single_tagged_config():
    dist = SourceDistribution((((2, 0, 0), 0.25), ((0, 1, 0), 0.75)))
    assert rtag_general(dist) == pytest.approx(0.25, abs=1e-15)
    dist = SourceDistribution((((2**63 - 1, 0, 0), 0.25), ((0, 1, 0), 0.75)))
    assert rtag_general(dist) == 0.25
    with pytest.raises(ParameterError, match="'support': photons per train must fit in int64"):
        SourceDistribution((((2**70, 0, 0), 0.25), ((0, 1, 0), 0.75)))


def test_source_distribution_rejects_bad_probabilities():
    with pytest.raises(ParameterError):
        SourceDistribution((((0, 0), 0.5), ((1, 0), 0.6)))
    with pytest.raises(ParameterError):
        SourceDistribution((((0, 0), -0.1), ((1, 0), 1.1)))


@pytest.mark.parametrize("p", [1.5, math.inf, -0.5, math.nan])
def test_source_probability_outside_the_unit_interval_is_named(p):
    # before the sum: the row's own check names the probability
    with pytest.raises(ParameterError, match=rf"'support': probability {p!r} outside \[0, 1\]"):
        SourceDistribution((((0, 1), p), ((1, 1), 0.5)))


def test_source_distribution_rejects_ragged_support():
    with pytest.raises(ParameterError):
        SourceDistribution((((0, 0), 0.5), ((1, 0, 0), 0.5)))
    with pytest.raises(ParameterError, match="'support': must be non-empty"):
        SourceDistribution(())


@pytest.mark.parametrize("counts, message", [
    (5, "must be a sequence of integers"),
    (("a", 1), "must be a sequence of integers"),
    ((float("nan"), 1), "must be a sequence of integers"),
    ((1,), "needs at least 2 pulses"),
    ((-1, 1.5), "must be nonnegative"),  # the sign is checked before the type
    ((-0.5, 1), "must be integers"),
    ((1.5, 0), "must be integers"),
    (("1", 0), "must be integers"),
    ((0, -1), "must be nonnegative"),
])
def test_photon_counts_are_refused_in_check_order(counts, message):
    with pytest.raises(ParameterError, match=f"'counts': .*{message}"):
        is_untagged_config(counts)
    with pytest.raises(ParameterError, match=f"'counts': .*{message}"):
        SourceDistribution(((counts, 1.0),))


def test_photon_counts_accept_any_integer_valued_iterable():
    for counts in (iter([1, 0, 1]), (np.int64(1), 0.0, True), [1, 0, 1], range(2)):
        assert is_untagged_config(counts)
    # a one-shot iterator is read once, and its values are still checked
    with pytest.raises(ParameterError, match="must be integers"):
        is_untagged_config(iter([1.5, 0]))
    dist = SourceDistribution(((iter([1, 0, 1]), 0.5), ((np.int64(2), 0.0, 0), 0.5)))
    assert dist.support == (((1, 0, 1), 0.5), ((2, 0, 0), 0.5))


@pytest.mark.parametrize("form", [tuple, list, iter, "int64"])
def test_source_table_holds_trains_of_up_to_int64_photons(form):
    # a train may hold 2^63 - 1 photons in one pulse or across two, not one more
    shapes = [lambda n: (n - 2**62, 2**62)]
    if form != "int64":  # 2^63 in one pulse is past int64 itself
        shapes.append(lambda n: (n, 0))
    for shape in shapes:
        for n in (2**63 - 1, 2**63):
            config = np.array(shape(n), dtype=np.int64) if form == "int64" else form(shape(n))
            rows = (((0, 0), 0.5), (config, 0.5))
            if n < 2**63:
                assert SourceDistribution(rows).support[1] == (shape(n), 0.5)
            else:
                with pytest.raises(ParameterError,
                                   match="'support': photons per train must fit in int64"):
                    SourceDistribution(rows)


# counts on both sides of int64 and of a train total that fits in int64
_COUNTS = st.sampled_from([0, 0, 1, 1, 2, 3, 7, 2**40, 2**61, 2**62, 2**63, 2**70])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(2, 6).flatmap(lambda L: st.lists(
        st.tuples(st.lists(_COUNTS, min_size=L, max_size=L), st.floats(0.01, 1.0)),
        min_size=1, max_size=12)),
    form=st.sampled_from([tuple, list, "numpy"]),
)
def test_source_table_keeps_what_the_rows_give(rows, form):
    # one validating pass, whichever rows numpy reads as a plain int64 table;
    # a table is built exactly when every train's photons fit in int64
    total = math.fsum(w for _, w in rows)
    probs = [w / total for _, w in rows]
    configs = [[int(k) for k in c] for c, _ in rows]
    if form == "numpy":
        given = [np.array(c, dtype=object if max(c) >= 2**63 else np.int64) for c in configs]
    else:
        given = list(map(form, configs))
    if max(map(sum, configs)) >= 2**63:
        with pytest.raises(ParameterError, match="'support': photons per train must fit"):
            SourceDistribution(tuple(zip(given, probs)))
        return
    dist = SourceDistribution(tuple(zip(given, probs)))
    assert dist.support == tuple((tuple(c), p) for c, p in zip(configs, probs))
    assert rtag_general(dist) == math.fsum(
        p for c, p in zip(configs, probs) if paper_tagged(c))
    counts, weights = dist.as_arrays()
    assert counts.dtype == np.int64 and (counts == np.array(configs)).all()
    assert weights.tolist() == probs
    CalibSetup2(len(configs[0]), 0.1, source=dist)


def test_source_distribution_from_file(tmp_path):
    path = tmp_path / "source.txt"
    path.write_text(
        "# three-pulse test source\n"
        "0 0 0 0.5\n"
        "1 0 1 0.25\n"
        "0 1 1 0.25   # tagged\n"
    )
    dist = SourceDistribution.from_file(path)
    assert dist.L == 3
    assert rtag_general(dist) == pytest.approx(0.25, abs=1e-15)


# edits that plain text does not hold, or that int() and float() read
# otherwise than a plain decimal: comments, signs, blanks but space and tab,
# non-ASCII digits, underscores, words, huge and tiny numbers
_TEXT_NOISE = ["#", " # a note", "\t", "+", "-", "--", "1_0", "\u0663", "\uff11", "inf", "nan",
               "1e500", "1e-400", "0x1p-3", ".", "e5", "1.0", "1e3", "9223372036854775808",
               "-0.0", "\xa0", "\f", "\v", "\r", "\u2003", "\n", "\n\n  \n", " 3", " 0.5"]


@st.composite
def table_texts(draw, count_spellings=None):
    """A table's text that sums to 1, its probabilities in several spellings, with edits.

    count_spellings, if given, are formats a count is written in besides str.
    """
    pulses = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 100), min_size=1, max_size=6))
    lines = []
    for w in weights:
        counts = draw(st.lists(st.integers(0, 12), min_size=pulses, max_size=pulses))
        if count_spellings:
            counts = [draw(st.sampled_from(["{}", *count_spellings])).format(c) for c in counts]
        prob = w / sum(weights)
        spelling = draw(st.sampled_from(["{!r}", "{:.17e}", "{:.17g}", "{:.20f}", "{:.3f}"]))
        blank = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        lines.append(blank.join([*map(str, counts), spelling.format(prob)]))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_TEXT_NOISE)) + text[at:]
    return text


def _read_outcome(read):
    """What read() gives: the table's rows and arrays, or its error."""
    try:
        table = read()
    except ParameterError as exc:
        return "error", str(exc)
    counts, probs = table.as_arrays()
    return table.support, counts.dtype, counts.tolist(), probs.dtype, probs.tolist()


def _float_parsing_loadtxt(real):
    """np.loadtxt as the numpy versions that read an int field through a float.

    Where an int64 field is no integer but a finite float, they only warn
    with a DeprecationWarning, and truncate it toward zero.
    """
    def loadtxt(fname, dtype, **kwargs):
        text = fname.read()
        try:
            return real(io.StringIO(text), dtype=dtype, **kwargs)
        except ValueError:
            floats = np.dtype([(name, np.float64, dtype[name].shape) for name in dtype.names])
            rows = real(io.StringIO(text), dtype=floats, **kwargs)
            counts = rows["counts"]
            if not (np.isfinite(counts).all() and (np.abs(counts) < 2.0**63).all()):
                raise
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return rows.astype(dtype)

    return loadtxt


# this numpy's reader, and one that reads a count through a float and only
# warns, with DeprecationWarning at its default filter as a program runs
_LOADTXTS = [
    pytest.param(False, id="numpy"),
    pytest.param(True, id="float-parsing",
                 marks=pytest.mark.filterwarnings("default::DeprecationWarning")),
]


@pytest.mark.parametrize("float_parsing", _LOADTXTS)
@settings(max_examples=400, deadline=None)
@given(text=table_texts(["{}.0", "{}.7", "{}e0", "{}E1", "{}.", "-0.{}", "+{}"])
       | st.text(alphabet="0123456789 .eE+-#x\t\n", max_size=60))
def test_bulk_table_read_equals_the_line_by_line_read(tmp_path_factory, float_parsing, text):
    path = tmp_path_factory.mktemp("bulk") / "table.txt"
    path.write_text(text, encoding="utf-8")
    by_lines = _read_outcome(lambda: SourceDistribution(tagging._records(path.read_text())))
    with pytest.MonkeyPatch.context() as patch:
        if float_parsing:
            patch.setattr(np, "loadtxt", _float_parsing_loadtxt(np.loadtxt))
        assert _read_outcome(lambda: SourceDistribution.from_file(path)) == by_lines


@pytest.mark.filterwarnings("default::DeprecationWarning")
def test_bulk_table_read_refuses_counts_numpy_reads_through_a_float(tmp_path):
    path = tmp_path / "table.txt"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", _float_parsing_loadtxt(np.loadtxt))
        for text, line in [("2.7 0 0.5\n0 0 0.5\n", "2.7 0 0.5"), ("0 0 0.5\n1e0 1 0.5\n", "1e0 1 0.5"),
                           ("1.0 1 1\n", "1.0 1 1")]:
            path.write_text(text)
            with pytest.raises(ParameterError, match=f"malformed record '{line}'"):
                SourceDistribution.from_file(path)


def test_plain_table_text_is_read_at_once(tmp_path, monkeypatch):
    path = tmp_path / "plain.txt"
    path.write_text("0 0 0 0.5\n1 0 1 0.25\n\n\t0  1 1 2.5e-1 \n")

    def refused(text):
        raise AssertionError("read line by line")

    monkeypatch.setattr(tagging, "_records", refused)
    dist = SourceDistribution.from_file(path)
    assert dist.support == (((0, 0, 0), 0.5), ((1, 0, 1), 0.25), ((0, 1, 1), 0.25))
    assert dist._counts.flags.c_contiguous and dist._probs.flags.c_contiguous


def test_source_distribution_from_file_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    for data, message in [
        (b"1 0.5\n", "line 1: need at least 2 counts"),  # two pulses plus probability
        (b"# a table\n0 x 0.5\n", "line 2: malformed record '0 x 0.5'"),
        (b"# no records\n\n", "file contains no records"),
        (b"# 0.5 \xb5W, latin-1\n0 0 1\n", "not UTF-8 text"),
    ]:
        path.write_bytes(data)
        with pytest.raises(ParameterError, match=f"'source': {message}"):
            SourceDistribution.from_file(path)
