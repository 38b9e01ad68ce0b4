import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqps import (
    BruteForceResult,
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
from dqps.tagging import _rtag


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
    assert worst <= 1e-12


def test_rtag_array_call_matches_scalar_calls_bitwise():
    mu = np.concatenate([np.geomspace(1e-12, 50.0, 97), [0.0, 0.5, 1e300]])
    for L in PRECISION_L:
        values = _rtag(L, mu)
        assert isinstance(values, np.ndarray) and values.shape == mu.shape
        scalars = [rtag_coherent(TagParams(L, float(m))) for m in mu]
        assert values.tolist() == scalars
        assert all(type(r) is float for r in scalars)


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


def test_bruteforce_work_limit_override():
    value = rtag_bruteforce(TagParams(3, 0.1), photon_cap=3, work_limit=10**3)
    assert 0.0 < value.value < 1.0


def test_bruteforce_rejects_tiny_cap():
    with pytest.raises(ParameterError, match="photon_cap"):
        rtag_bruteforce(TagParams(3, 0.1), photon_cap=1)


# --- general source distributions -----------------------------------------

def test_rtag_general_uniform_binary_L3():
    configs = list(itertools.product((0, 1), repeat=3))
    dist = SourceDistribution(tuple((c, 1 / 8) for c in configs))
    # tagged members: 011, 110, 111
    assert rtag_general(dist) == pytest.approx(0.375, abs=1e-15)


def test_rtag_general_single_tagged_config():
    dist = SourceDistribution((((2, 0, 0), 0.25), ((0, 1, 0), 0.75)))
    assert rtag_general(dist) == pytest.approx(0.25, abs=1e-15)


def test_source_distribution_rejects_bad_probabilities():
    with pytest.raises(ParameterError):
        SourceDistribution((((0, 0), 0.5), ((1, 0), 0.6)))
    with pytest.raises(ParameterError):
        SourceDistribution((((0, 0), -0.1), ((1, 0), 1.1)))


def test_source_distribution_rejects_ragged_support():
    with pytest.raises(ParameterError):
        SourceDistribution((((0, 0), 0.5), ((1, 0, 0), 0.5)))


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


def test_source_distribution_from_file_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0.5\n")  # needs at least two pulses plus probability
    with pytest.raises(ParameterError, match="source"):
        SourceDistribution.from_file(path)
