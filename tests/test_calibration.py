import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from dqps import (
    CalibSetup2,
    CalibSetup3,
    ParameterError,
    SourceDistribution,
    TagParams,
    ThinStatisticsWarning,
    q3_bound,
    relative_slack_limit,
    rtag_coherent,
    simulate_three_detector,
    simulate_two_detector,
)
from dqps.calibration import (
    _apply_dead_time,
    _detection_probs,
    _double_coincidence,
    _three_detector_batch,
    _two_detector_batch,
)


def two_det(L=10, mu=0.02, n_test=100000, **overrides):
    fields = dict(
        L=L, mu=mu, eta1=0.25, eta2=0.25,
        true_T=0.5, true_R=0.5, true_eff1=0.5, true_eff2=0.5,
        n_test=n_test,
    )
    fields.update(overrides)
    return CalibSetup2(**fields)


def three_det(L=10, mu=0.02, n_test=100000, dead_time=1, **overrides):
    fields = dict(
        L=L, mu=mu, eta1=0.25, eta2=0.25, eta3=0.25, eta_abs=0.5,
        true_T1=0.5, true_R1=0.5, true_T2=0.5, true_R2=0.5,
        true_eff1=1.0, true_eff2=1.0, true_eff3=0.5, true_eta_abs=0.5,
        dead_time=dead_time, n_test=n_test,
    )
    fields.update(overrides)
    return CalibSetup3(**fields)


def _dense_route(photons, probs, rng):
    """Photons reaching each of a set of exclusive outputs, thinned in order."""
    routed = []
    remaining = 1.0
    for prob in probs:
        if remaining <= 0.0:
            taken = np.zeros_like(photons)
        else:
            taken = rng.binomial(photons, min(1.0, prob / remaining))
        routed.append(taken)
        photons = photons - taken
        remaining -= prob
    return routed


def _dense_counts(setup, source, rng, n):
    if source is None:
        return rng.poisson(setup.mu, size=(n, setup.L))
    configs, probs = source.as_arrays()
    return configs[rng.choice(len(probs), size=n, p=probs / probs.sum())]


def dense_two_detector_batch(setup, probs, rng, n):
    """Statistical reference: every pulse's photons drawn and routed, O(n*L)."""
    n1, n2 = _dense_route(_dense_counts(setup, setup.source, rng, n), probs, rng)
    double = _double_coincidence(n1 >= 1, n2 >= 1)
    return int(double.sum()), 0, double[:, None]


def dense_three_detector_batch(setup, probs, rng, n):
    """Statistical reference: every pulse through absorber and splitters, O(n*L)."""
    p_abs, *arms = probs
    survived = rng.binomial(_dense_counts(setup, None, rng, n), p_abs)
    m1, m2, m3 = (
        _apply_dead_time(photons >= 1, setup.dead_time)
        for photons in _dense_route(survived, arms, rng)
    )
    double = _double_coincidence(m1, m2)
    triple = m1.any(axis=1) & m2.any(axis=1) & m3.any(axis=1)
    return int(double.sum()), int(triple.sum()), np.stack([double, triple], axis=1)


def no_double_probability(L, slot_states):
    """Exact P(no neighboring-slot double) for independent slots.

    slot_states(k) gives (P(no click), P(only detector 1), P(only detector 2))
    for slot k.  A double is a slot where both click or two neighboring
    slots where different detectors click, so the train avoids one exactly
    when its slots walk the states {none, only 1, only 2} without stepping
    between 1 and 2: a 3-state transfer matrix, O(L).
    """
    allowed = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 1]], dtype=float)
    v = np.array(slot_states(0), dtype=float)
    for k in range(1, L):
        v = v @ (allowed * np.array(slot_states(k), dtype=float))
    return float(v.sum())


def poisson_double_rate(L, mu, p1, p2):
    a1, a2 = -math.expm1(-mu * p1), -math.expm1(-mu * p2)
    states = ((1 - a1) * (1 - a2), a1 * (1 - a2), (1 - a1) * a2)
    return 1.0 - no_double_probability(L, lambda k: states)


def table_double_rate(source, p1, p2):
    def states(config):
        def at(k):
            none = (1 - p1 - p2) ** config[k]
            return none, (1 - p2) ** config[k] - none, (1 - p1) ** config[k] - none
        return at

    return 1.0 - math.fsum(
        p * no_double_probability(source.L, states(config))
        for config, p in source.support
    )


def z_score(count, n, rate):
    return (count - n * rate) / math.sqrt(n * rate * (1 - rate))


def assert_same_outcomes(setup, kernel, reference, n):
    """Two-sample chi-square test on the (double, triple) outcome of each train."""
    probs = _detection_probs(setup)
    table = []
    for seed, batch in enumerate((kernel, reference)):
        *_, events = batch(setup, probs, np.random.default_rng(seed), n)
        outcome = events.astype(int) @ (1, 2)[: events.shape[1]]
        table.append(np.bincount(outcome, minlength=4))
    table = np.array(table)
    table = table[:, table.sum(axis=0) > 0]
    assert table[:, 1:].min() >= 100, table
    p_value = chi2_contingency(table).pvalue
    assert p_value > 1e-3, (p_value, table)


def quiet_two(setup, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinStatisticsWarning)
        return simulate_two_detector(setup, **kwargs)


def quiet_three(setup, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinStatisticsWarning)
        return simulate_three_detector(setup, **kwargs)


# --- setup validation -------------------------------------------------------

def test_setup2_rejects_overstated_bounds():
    with pytest.raises(ParameterError, match="'eta1'"):
        two_det(eta1=0.3)  # true_T * true_eff1 is only 0.25
    with pytest.raises(ParameterError, match="'true_T'"):
        two_det(true_T=0.6, true_R=0.6)
    with pytest.raises(ParameterError, match="'n_test'"):
        two_det(n_test=0)
    with pytest.raises(ParameterError, match="'n_test'"):
        two_det(n_test=True)


def test_setup3_rejects_overstated_bounds():
    with pytest.raises(ParameterError, match="'eta3'"):
        three_det(eta3=0.3)  # true_R1 * true_eff3 is only 0.25
    with pytest.raises(ParameterError, match="'eta_abs'"):
        three_det(eta_abs=0.6)
    with pytest.raises(ParameterError, match="'dead_time'"):
        three_det(dead_time=-1)
    with pytest.raises(ParameterError, match="'dead_time'"):
        three_det(dead_time=True)


def test_setups_default_to_exact_declared_bounds():
    # the defaults the command line has always used; unset truths stay None
    # and every arm then detects with exactly its declared efficiency
    two = CalibSetup2(L=10, mu=0.02)
    assert (two.eta1, two.eta2, two.true_T, two.true_R) == (0.25, 0.25, 0.5, 0.5)
    assert two.true_eff1 is None and two.true_eff2 is None
    assert _detection_probs(two) == [0.25, 0.25]
    assert two.n_test == 100000 and two.source is None
    three = CalibSetup3(L=10, mu=0.02)
    assert (three.eta1, three.eta2, three.eta3, three.eta_abs) == (0.25, 0.25, 0.25, 0.1)
    assert (three.true_T1, three.true_R1, three.true_T2, three.true_R2) == (0.5,) * 4
    assert (three.true_eff1, three.true_eff2, three.true_eff3, three.true_eta_abs) == (
        None, None, None, None
    )
    assert _detection_probs(three) == [0.1, 0.25, 0.25, 0.25]
    assert three.dead_time == 1 and three.n_test == 100000
    # an overridden split keeps each arm at its declared bound
    skewed = CalibSetup2(L=10, mu=0.02, true_T=0.6, true_R=0.4, eta1=0.2)
    assert skewed.true_eff1 is None and skewed.true_eff2 is None
    # formed as transmission * (eta / transmission), so a seed keeps its counts
    assert _detection_probs(skewed) == [0.6 * (0.2 / 0.6), 0.4 * (0.25 / 0.4)]
    assert _detection_probs(skewed) == pytest.approx([0.2, 0.25], rel=1e-15)


def test_replace_rederives_unset_truths():
    two = dataclasses.replace(CalibSetup2(L=10, mu=0.02), true_T=0.6, true_R=0.4)
    assert two == CalibSetup2(L=10, mu=0.02, true_T=0.6, true_R=0.4)
    three = dataclasses.replace(
        CalibSetup3(L=10, mu=0.02), true_T1=0.7, true_R1=0.3, true_T2=0.4, true_R2=0.6
    )
    assert three == CalibSetup3(
        L=10, mu=0.02, true_T1=0.7, true_R1=0.3, true_T2=0.4, true_R2=0.6
    )
    assert _detection_probs(three) == pytest.approx([0.1, 0.25, 0.25, 0.25], rel=1e-15)


def test_setups_reject_a_zero_transmission_arm():
    with pytest.raises(ParameterError, match="'true_T'"):
        CalibSetup2(L=10, mu=0.02, true_T=0.0)
    with pytest.raises(ParameterError, match="'true_R1'"):
        CalibSetup3(L=10, mu=0.02, true_R1=0.0)
    with pytest.raises(ParameterError, match="'true_T1'"):
        CalibSetup3(L=10, mu=0.02, true_T1=0.0)
    # an explicit truth behind a dark arm fails on the declared bound instead
    with pytest.raises(ParameterError, match="'eta1'"):
        CalibSetup2(L=10, mu=0.02, true_T=0.0, true_eff1=1.0)


def test_setup2_source_length_must_match():
    dist = SourceDistribution((((0, 0), 1.0),))
    with pytest.raises(ParameterError, match="'source'"):
        two_det(source=dist)


# --- coincidence counting helpers -------------------------------------------

def test_double_coincidence_patterns():
    c1 = np.array([[0, 1, 0, 0]], dtype=bool)
    same = np.array([[0, 1, 0, 0]], dtype=bool)
    adjacent = np.array([[0, 0, 1, 0]], dtype=bool)
    far = np.array([[0, 0, 0, 1]], dtype=bool)
    assert _double_coincidence(c1, same)[0]
    assert _double_coincidence(c1, adjacent)[0]
    assert _double_coincidence(adjacent, c1)[0]
    assert not _double_coincidence(c1, far)[0]
    assert not _double_coincidence(c1, np.zeros((1, 4), bool))[0]


def test_dead_time_masking_patterns():
    raw = np.array([[1, 1, 1, 0, 1]], dtype=bool)
    assert (_apply_dead_time(raw, 0) == raw).all()
    assert (_apply_dead_time(raw, 1) == [[1, 0, 1, 0, 1]]).all()
    assert (_apply_dead_time(raw, 2) == [[1, 0, 0, 0, 1]]).all()
    assert (_apply_dead_time(raw, 9) == [[1, 0, 0, 0, 0]]).all()


def test_dead_time_never_creates_clicks():
    rng = np.random.default_rng(0)
    raw = rng.random((200, 12)) < 0.3
    for dead in (1, 2, 5):
        masked = _apply_dead_time(raw, dead)
        assert not (masked & ~raw).any()
        # first click of every train survives masking
        assert (masked.any(axis=1) == raw.any(axis=1)).all()


# --- two-detector mode -------------------------------------------------------

def test_two_detector_mu_zero():
    report = quiet_two(two_det(mu=0.0), seed=0)
    assert report.n_double == 0
    assert report.bound == 0.0
    assert report.true_rtag == 0.0
    assert report.mode == "2det"
    assert report.n_triple is None


def test_two_detector_bound_holds():
    report = quiet_two(two_det(mu=0.05, n_test=200000), seed=12)
    assert report.bound >= report.true_rtag - 3 * report.sigma
    assert report.bound >= 0.0


def test_two_detector_slack_within_expansion():
    setup = two_det(mu=0.01, n_test=500000)
    report = quiet_two(setup, seed=13)
    rel_slack = report.slack / report.true_rtag
    rel_sigma = report.sigma / report.true_rtag
    assert rel_slack <= relative_slack_limit(setup.L, setup.mu) + 3 * rel_sigma


def test_two_detector_declared_bounds_only_scale_the_bound():
    # the simulation consumes ground truth only; understating efficiency
    # must reproduce identical counts and a larger (safer) bound
    exact = quiet_two(two_det(), seed=5)
    understated = quiet_two(two_det(eta1=0.125), seed=5)
    assert understated.n_double == exact.n_double
    assert understated.bound == pytest.approx(2 * exact.bound, rel=1e-12)


def test_two_detector_general_source_all_tagged():
    # every train carries a two-photon pulse, so r_tag is exactly 1 and
    # doubles happen at rate 2 q1 q2
    dist = SourceDistribution((((2,) + (0,) * 9, 1.0),))
    report = quiet_two(two_det(source=dist, n_test=200000), seed=3)
    assert report.true_rtag == 1.0
    p_double = 2 * (0.5 * 0.5) * (0.5 * 0.5)
    sigma = math.sqrt(p_double / 200000) / (2 * 0.25 * 0.25)
    assert report.bound == pytest.approx(1.0, abs=3 * sigma)


MIXED_TABLE = SourceDistribution((
    ((0, 0, 0, 0), 0.5),
    ((1, 0, 0, 0), 0.1),
    ((1, 1, 0, 0), 0.15),
    ((0, 2, 0, 0), 0.1),
    ((1, 0, 1, 1), 0.1),
    ((0, 0, 3, 0), 0.05),
))


@pytest.mark.parametrize("setup, seed", [
    (two_det(L=5, mu=0.3), 1),
    (CalibSetup2(L=3, mu=1.0, true_T=0.6, true_R=0.35, eta1=0.2, eta2=0.3), 2),
    (two_det(L=50, mu=0.05), 3),
    (two_det(L=4, mu=0.0, source=MIXED_TABLE), 4),
])
def test_two_detector_double_rate_is_exact(setup, seed):
    n = 2_000_000
    p1, p2 = _detection_probs(setup)
    if setup.source is None:
        rate = poisson_double_rate(setup.L, setup.mu, p1, p2)
    else:
        rate = table_double_rate(setup.source, p1, p2)
    report = simulate_two_detector(dataclasses.replace(setup, n_test=n), seed=seed)
    assert abs(z_score(report.n_double, n, rate)) < 4, (report.n_double, n * rate)


def test_two_detector_matches_dense_reference():
    setup = two_det(L=4, mu=0.0, source=MIXED_TABLE)
    assert_same_outcomes(setup, _two_detector_batch, dense_two_detector_batch, 200_000)


def test_two_detector_deterministic():
    a = quiet_two(two_det(), seed=77, n_jobs=1, collect_events=True)
    b = quiet_two(two_det(), seed=77, n_jobs=4, collect_events=True)
    assert a == b
    assert np.array_equal(a.events, b.events)


def test_two_detector_warns_on_thin_statistics():
    with pytest.warns(ThinStatisticsWarning):
        simulate_two_detector(two_det(n_test=5000), seed=0)


def test_two_detector_event_log():
    report = quiet_two(two_det(n_test=20000), seed=8, collect_events=True)
    assert report.events.shape == (20000, 1)
    assert int(report.events.sum()) == report.n_double


# --- three-detector mode ------------------------------------------------------

def test_three_detector_mu_zero():
    report = quiet_three(three_det(mu=0.0), seed=0)
    assert report.bound == 0.0
    assert report.n_double == 0 and report.n_triple == 0


def test_three_detector_bound_holds_across_dead_times():
    for dead in (1, 2, 5):
        report = quiet_three(three_det(mu=0.05, n_test=200000, dead_time=dead), seed=21)
        assert report.bound >= report.true_rtag - 3 * report.sigma


def test_three_detector_masking_monotone_same_seed():
    # dead time is a pure post-processing mask, so one seed gives nested clicks
    doubles = [
        quiet_three(three_det(dead_time=dead), seed=9).n_double
        for dead in (0, 2, 5)
    ]
    assert doubles[0] >= doubles[1] >= doubles[2]


def test_three_detector_triples_unaffected_by_dead_time():
    # the first click of each detector always survives masking
    counts = {
        dead: quiet_three(three_det(mu=0.3, n_test=50000, dead_time=dead), seed=4).n_triple
        for dead in (0, 1, 5)
    }
    assert counts[0] == counts[1] == counts[5]


def test_three_detector_no_dead_time_matches_two_detector_flux():
    # with the absorber folded into the intensity and matched arm
    # efficiencies, mode 3 at dead_time 0 sees the same double rate
    n = 400000
    r3 = quiet_three(three_det(mu=0.08, n_test=n, dead_time=0), seed=31)
    r2 = quiet_two(
        two_det(mu=0.08 * 0.5, n_test=n, true_eff1=0.5, true_eff2=0.5), seed=32
    )
    p3 = r3.n_double / n
    p2 = r2.n_double / n
    sigma = math.sqrt((p3 + p2) / n)
    assert abs(p3 - p2) < 4 * sigma


@pytest.mark.parametrize("L, mu, dead_time", [(10, 0.1, 1), (4, 0.5, 3)])
def test_three_detector_triple_rate_is_exact(L, mu, dead_time):
    # a detector's first click always survives its dead time, so a triple
    # is any train in which every detector receives a photon
    n = 2_000_000
    setup = three_det(L=L, mu=mu, n_test=n, dead_time=dead_time,
                      eta_abs=0.8, true_eta_abs=0.8)
    p_abs, *arms = _detection_probs(setup)
    rate = math.prod(-math.expm1(-mu * L * p_abs * p) for p in arms)
    report = simulate_three_detector(setup, seed=L + dead_time)
    assert abs(z_score(report.n_triple, n, rate)) < 4, (report.n_triple, n * rate)


@pytest.mark.parametrize("dead_time", [0, 1, 3])
def test_three_detector_matches_dense_reference(dead_time):
    # doubles under dead time have no closed form; compare with the direct
    # simulation of every pulse instead
    setup = three_det(L=6, mu=0.5, dead_time=dead_time, eta_abs=0.8, true_eta_abs=0.8)
    assert_same_outcomes(
        setup, _three_detector_batch, dense_three_detector_batch, 200_000
    )


def test_three_detector_deterministic():
    a = quiet_three(three_det(), seed=15, n_jobs=1, collect_events=True)
    b = quiet_three(three_det(), seed=15, n_jobs=4, collect_events=True)
    assert a == b
    assert np.array_equal(a.events, b.events)


def test_three_detector_event_log():
    report = quiet_three(three_det(n_test=20000, mu=0.1), seed=2, collect_events=True)
    assert report.events.shape == (20000, 2)
    assert int(report.events[:, 0].sum()) == report.n_double
    assert int(report.events[:, 1].sum()) == report.n_triple


# --- q3 bound ----------------------------------------------------------------

def test_q3_bound_values():
    assert q3_bound(0, 1000, 0.5, 0.5, 0.5) == 0.0
    assert q3_bound(6, 10**6, 1.0, 1.0, 1.0) == pytest.approx(1e-6, rel=1e-15)
    with pytest.raises(ParameterError, match="'eta2'"):
        q3_bound(1, 1000, 0.5, 0.0, 0.5)
    with pytest.raises(ParameterError, match="'n_triple'"):
        q3_bound(-1, 1000, 0.5, 0.5, 0.5)
    with pytest.raises(ParameterError, match="'n_triple'"):
        q3_bound(True, 1000, 0.5, 0.5, 0.5)


def test_q3_bound_covers_poisson_tail():
    # compare against the exact three-photon tail of the attenuated source
    setup = three_det(L=5, mu=0.3, n_test=200000)
    report = quiet_three(setup, seed=40)
    bound = q3_bound(
        report.n_triple, setup.n_test, setup.eta1, setup.eta2, setup.eta3
    )
    nu = setup.true_eta_abs * setup.L * setup.mu
    tail = 1 - math.exp(-nu) * (1 + nu + nu**2 / 2)
    sigma = math.sqrt(max(report.n_triple, 1)) / setup.n_test
    sigma /= 6 * setup.eta1 * setup.eta2 * setup.eta3
    assert bound + 3 * sigma >= tail


def test_routing_probabilities_never_exceed_one():
    # sequential thinning needs the per-photon outcomes to be exclusive
    _, q1, q2, q3 = _detection_probs(three_det())
    assert q1 + q2 + q3 <= 1.0 + 1e-12


def test_relative_slack_limit_values():
    assert relative_slack_limit(10, 0.0) == 0.0
    assert relative_slack_limit(10, 0.01) == pytest.approx(
        0.01 * (0.075 + 20 / 9), rel=1e-12
    )
    with pytest.raises(ParameterError):
        relative_slack_limit(1, 0.01)
