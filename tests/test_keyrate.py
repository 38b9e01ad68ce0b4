import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqps import (
    ParameterError,
    RateInputs,
    TagParams,
    binary_entropy,
    channel_q,
    key_rate,
    privacy_amp_fraction,
    rtag_coherent,
)


def test_binary_entropy_reference_points():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    direct = -0.03 * math.log2(0.03) - 0.97 * math.log2(0.97)
    assert binary_entropy(0.03) == pytest.approx(direct, rel=1e-15)
    assert binary_entropy(0.03) == pytest.approx(0.19439, abs=5e-6)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ParameterError):
        binary_entropy(-0.1)
    with pytest.raises(ParameterError):
        binary_entropy(1.1)


def test_rate_inputs_validation_names_fields():
    good = dict(L=4, mu=0.05, p0=0.5, Q=0.1, E0=0.01, E1=0.02)
    for field, bad in (
        ("L", 1),
        ("L", True),
        ("mu", 0.0),
        ("p0", 0.0),
        ("Q", 1.5),
        ("E0", 0.2),
        ("E1", -0.01),
    ):
        with pytest.raises(ParameterError, match=f"'{field}'"):
            RateInputs(**{**good, field: bad})
    RateInputs(**good)


def test_from_error_rates_scales_by_Q():
    inputs = RateInputs.from_error_rates(2, 0.01, 1.0, 0.2, 0.03, 0.05)
    assert inputs.E0 == pytest.approx(0.006)
    assert inputs.E1 == pytest.approx(0.01)
    with pytest.raises(ParameterError):
        RateInputs.from_error_rates(2, 0.01, 1.0, 0.2, 1.5, 0.0)


def test_privacy_amp_fraction_zero_error_zero_tagging():
    f, feasible = privacy_amp_fraction(0.3, 0.0, 0.0)
    assert feasible
    assert f == 0.0


def test_privacy_amp_fraction_infeasible_region():
    f, feasible = privacy_amp_fraction(0.1, 0.02, 0.07)  # rtag > Q - 2 E1
    assert not feasible
    assert f == 1.0
    # rtag == Q with E1 = 0 sits on the boundary but leaves no untagged key
    f, feasible = privacy_amp_fraction(0.1, 0.0, 0.1)
    assert not feasible
    assert f == 1.0


def test_privacy_amp_fraction_boundary_is_one():
    Q, E1 = 0.2, 0.05
    f, feasible = privacy_amp_fraction(Q, E1, Q - 2 * E1)
    assert feasible
    assert f == pytest.approx(1.0, abs=1e-12)


@given(
    Q=st.floats(min_value=1e-6, max_value=1.0),
    e1=st.floats(min_value=0.0, max_value=0.45),
    rfrac=st.floats(min_value=0.0, max_value=0.95),
)
def test_privacy_amp_identity(Q, e1, rfrac):
    # Q * (1 - f) must equal what the untagged part distills
    E1 = e1 * Q
    rtag = rfrac * max(Q - 2 * E1, 0.0)
    f, feasible = privacy_amp_fraction(Q, E1, rtag)
    assert feasible
    lhs = Q * (1.0 - f)
    rhs = (Q - rtag) * (1.0 - binary_entropy(E1 / (Q - rtag)))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_key_rate_matches_direct_expression():
    L, mu, p0 = 2, 0.002, 1.0
    Q = channel_q(L, mu, 0.01)
    inputs = RateInputs.from_error_rates(L, mu, p0, Q, 0.03, 0.03)
    report = key_rate(inputs)
    rtag = rtag_coherent(TagParams(L, mu))
    h = binary_entropy
    direct = (p0**2 / L) * (
        (Q - rtag) * (1.0 - h(0.03 * Q / (Q - rtag))) - Q * h(0.03)
    )
    assert report.rate_per_pulse == pytest.approx(direct, rel=1e-12)
    assert report.feasible
    assert report.rtag == rtag


def test_key_rate_zero_yield():
    inputs = RateInputs(L=2, mu=0.1, p0=1.0, Q=0.0, E0=0.0, E1=0.0)
    report = key_rate(inputs)
    assert report.rate_per_pulse == 0.0
    assert not report.feasible


def test_key_rate_infeasible_when_tagging_swamps_yield():
    # mu so large that rtag exceeds Q - 2 E1
    L, mu = 2, 0.005
    Q = channel_q(L, mu, 0.01)
    inputs = RateInputs.from_error_rates(L, mu, 1.0, Q, 0.03, 0.03)
    report = key_rate(inputs)
    assert report.rtag > Q - 2 * inputs.E1
    assert report.rate_per_pulse == 0.0
    assert not report.feasible
    assert report.f_pa == 1.0
    # every sifted block tagged, no errors: the whole key is consumed
    inputs = RateInputs(L=2, mu=0.1, p0=1.0, Q=0.1, E0=0.0, E1=0.0)
    report = key_rate(inputs, rtag_override=0.1)
    assert report.rate_per_pulse == 0.0
    assert not report.feasible
    assert report.f_pa == 1.0


def test_key_rate_with_tagging_suppressed():
    # forcing rtag to zero isolates the error-correction cost
    L, mu, Q = 4, 0.05, 0.3
    inputs = RateInputs.from_error_rates(L, mu, 1.0, Q, 0.02, 0.02)
    report = key_rate(inputs, rtag_override=0.0)
    h = binary_entropy
    expected = (1.0 / L) * Q * ((1.0 - h(0.02)) - h(0.02))
    assert report.rtag == 0.0
    assert report.rate_per_pulse == pytest.approx(expected, rel=1e-12)


def test_key_rate_override_validation():
    inputs = RateInputs(L=2, mu=0.1, p0=1.0, Q=0.5, E0=0.0, E1=0.0)
    with pytest.raises(ParameterError, match="rtag_override"):
        key_rate(inputs, rtag_override=1.5)


def test_key_rate_ec_inefficiency_costs_rate():
    L, mu, Q = 2, 0.001, 0.01
    inputs = RateInputs.from_error_rates(L, mu, 1.0, Q, 0.03, 0.03)
    ideal = key_rate(inputs)
    lossy = key_rate(inputs, ec_inefficiency=1.2)
    assert lossy.f_ec == pytest.approx(1.2 * binary_entropy(0.03), rel=1e-12)
    assert lossy.rate_per_pulse < ideal.rate_per_pulse
    with pytest.raises(ParameterError, match="ec_inefficiency"):
        key_rate(inputs, ec_inefficiency=0.9)


def test_channel_q_values():
    assert channel_q(2, 0.1, 0.0) == 0.0
    expected = -math.expm1(-19 * 0.005 * 0.01)
    assert channel_q(20, 0.005, 0.01) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ParameterError, match="'eta'"):
        channel_q(2, 0.1, 1.5)


def test_frozen_reference_point_L2():
    # pinned numbers for mu = eta/4 at 20 dB, checked against an
    # independent evaluation of the same closed formulas
    L, mu, eta = 2, 0.0025, 0.01
    Q = channel_q(L, mu, eta)
    inputs = RateInputs.from_error_rates(L, mu, 1.0, Q, 0.03, 0.03)
    report = key_rate(inputs)
    assert Q == pytest.approx(2.4999687502604152e-05, rel=1e-12)
    assert report.rtag == pytest.approx(1.245841135411041e-05, rel=1e-12)
    assert report.rate_per_pulse == pytest.approx(1.7924189360851201e-06, rel=1e-12)


def test_block_lengths_keep_their_bits_up_to_the_float_range():
    # L - 1 and L convert as Python's int arithmetic converts them, up to
    # the longest block, 2^62; from one past it, L is refused
    mu, eta = 1e-300, 1e-5
    for L in (2, 3, 2**53 + 1, 2**62):
        Q = -math.expm1(-(L - 1) * mu * eta)
        assert channel_q(L, mu, eta) == Q
        inputs = RateInputs.from_error_rates(L, mu, 0.9, Q, 0.01, 0.01)
        report = key_rate(inputs)
        untagged = Q - report.rtag
        h1, f_ec = binary_entropy(inputs.E1 / untagged), binary_entropy(inputs.E0 / Q)
        rate = 0.9 ** 2 / L * (untagged * (1 - h1) - Q * f_ec)
        assert report.rate_per_pulse == max(rate, 0.0), L
    for L in (2**62 + 1, int(sys.float_info.max), 10**400):
        with pytest.raises(ParameterError, match=f"'L': must be an integer in \\[2, {2**62}\\]"):
            channel_q(L, mu, eta)
        with pytest.raises(ParameterError, match="'L'"):
            RateInputs.from_error_rates(L, 0.1, 1.0, 1.0, 0.01, 0.01)
