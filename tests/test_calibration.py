import collections
import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dqps import calibration
from dqps.calibration import (
    _REJECTION_FROM, _apply_dead_time, _cell_finder, _detection_probs, _double_coincidence,
    _occupied, _two_detected, _two_or_more,
)
from dqps.errors import _POISSON_MEAN_MAX
from dqps.protocol import BATCH_BLOCKS, _batch_size, run_batches
from dqps.tagging import _poisson_head
from test_protocol import assert_fits


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


def slot_law(probs, dark):
    """P(S is the set of detectors that click in a slot), for every S.

    probs[i] is the chance that a photon reaches detector i, and dark(m) the
    chance that no photon reaches detectors that one reaches with chance m;
    inclusion-exclusion over the subsets of S gives the law.
    """
    sets = list(itertools.product((False, True), repeat=len(probs)))

    def dark_outside(within):
        return dark(math.fsum(p for p, w in zip(probs, within) if not w))

    return {clicked: math.fsum(
        (-1) ** (sum(clicked) - sum(within)) * dark_outside(within)
        for within in sets if all(c or not w for c, w in zip(clicked, within))
    ) for clicked in sets}


def train_law(slot_laws, dead_time=0):
    """Exact law of a train's outcome double + 2 * triple, its slots independent.

    A slot-by-slot walk; the state holds, for detectors 1 and 2, the blind
    slots left and whether the last slot registered a click, then whether
    each detector ever clicked and whether a double was seen.  A registered
    click blinds its detector for dead_time slots (beyond L it hides what L
    hides); a triple needs a click on each of three detectors, and a first
    click always registers.
    """
    dead = min(dead_time, len(slot_laws))
    detectors = len(next(iter(slot_laws[0])))
    states = {((0, 0), (False, False), (False,) * detectors, False): 1.0}
    for law in slot_laws:
        walked = collections.defaultdict(float)
        for (blind, last, ever, double), p in states.items():
            for clicked, q in law.items():
                now = tuple(c and b == 0 for c, b in zip(clicked, blind))
                walked[(
                    tuple(dead if r else max(b - 1, 0) for r, b in zip(now, blind)),
                    now,
                    tuple(e or c for e, c in zip(ever, clicked)),
                    double or (now[0] and (now[1] or last[1])) or (last[0] and now[1]),
                )] += p * q
        states = walked
    law = np.zeros(4)
    for (_, _, ever, double), p in states.items():
        law[double + 2 * (detectors == 3 and all(ever))] += p
    return law


def bench_probs(setup):
    """The chance that a photon reaches each detector (3det: through the absorber)."""
    probs = _detection_probs(setup)
    if isinstance(setup, CalibSetup3):
        p_abs, *arms = probs
        probs = [p_abs * p for p in arms]
    return probs


def kept_share(setup):
    """The share of trains the bench's kernel draws for.

    Every train is kept with two or more detected photons: for a table,
    sum_c p_c P(Bin(n_c, P) >= 2), n_c the photons of configuration c and P
    the chance that a photon reaches some detector.
    """
    P = sum(bench_probs(setup))
    if setup.source is None:
        m = setup.mu * setup.L * P
        return -math.expm1(-m) - m * math.exp(-m)
    support = setup.source.support
    return (math.fsum(w * binomial_two_or_more(sum(config), min(P, 1.0))
                      for config, w in support)
            / math.fsum(w for _, w in support))


def binomial_two_or_more(n, P):
    """P(Bin(n, P) >= 2), term by term, for the small n of the test tables."""
    return math.fsum(math.comb(n, j) * P**j * (1 - P) ** (n - j) for j in range(2, n + 1))


def batched(setup, batches, extra=5):
    """setup with trains for that many full batches and a last one of extra trains."""
    cut = _batch_size(2**62, kept_share(setup))
    return dataclasses.replace(setup, n_test=batches * cut + extra)


def calibration_law(setup):
    """Exact law of a train's outcome double + 2 * triple on a bench.

    A Poissonian slot sends Poisson(mu * p) photons to a detector reached
    with chance p (3det: through the absorber), independently per detector;
    a table slot holds its fixed count.
    """
    probs = bench_probs(setup)
    dead_time = setup.dead_time if isinstance(setup, CalibSetup3) else 0
    if setup.source is None:
        law = slot_law(probs, lambda m: math.exp(-setup.mu * m))
        return train_law([law] * setup.L, dead_time)
    return sum(weight * train_law([slot_law(probs, lambda m, k=k: (1 - m) ** k)
                                   for k in config], dead_time)
               for config, weight in setup.source.support)


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


def test_setups_refuse_a_train_mean_numpy_cannot_draw():
    # a train's photon total is Poisson(mu * L * sum of arm probabilities) <= mu * L
    too_high = np.nextafter(_POISSON_MEAN_MAX / 2, 1e300)
    for setup in (CalibSetup2, CalibSetup3):
        for L, mu in ((10, 1e308), (2, too_high)):
            with pytest.raises(ParameterError, match="'mu': mu \\* L must be at most"):
                setup(L=L, mu=mu)
        top = setup(L=2, mu=_POISSON_MEAN_MAX / 2)
        np.random.default_rng(0).poisson(top.mu * top.L * sum(_detection_probs(top)))


def test_setup2_refuses_a_source_whose_trains_overflow_int64():
    # the table itself refuses such trains, so no setup ever sees one
    CalibSetup2(L=2, mu=0.1, source=SourceDistribution((((2**63 - 1, 0), 1.0),)))
    for config in ((2**63, 0), (2**62, 2**62), (10**20, 0)):
        with pytest.raises(ParameterError, match="'support': photons per train must fit"):
            SourceDistribution(((config, 1.0),))


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


@pytest.mark.parametrize("setup, declared, name", [
    (CalibSetup2, dict(eta1=1e-200, eta2=1e-200), "eta1"),  # scale underflows to 0
    (CalibSetup2, dict(eta1=1e-160, eta2=1e-160), "eta1"),  # bound and sigma overflow
    (CalibSetup3, dict(eta1=1e-120, eta2=1e-120, eta3=1e-120), "eta1"),
    (CalibSetup3, dict(eta1=1e-52, eta2=1e-52, eta3=1e-52), "eta1"),  # sigma alone, by **
    (CalibSetup3, dict(eta_abs=1e-170), "eta_abs"),
    (CalibSetup3, dict(eta2=1e-300, eta3=1e-20), "eta2"),
])
def test_setups_refuse_efficiencies_that_overflow_the_bound(setup, declared, name):
    with pytest.raises(ParameterError, match=f"'{name}': declared efficiencies so small"):
        setup(L=10, mu=0.02, n_test=20000, **declared)


def test_tiny_efficiencies_with_a_finite_bound_still_run():
    setup = CalibSetup2(L=10, mu=0.02, eta1=1e-150, eta2=1e-150, n_test=20000)
    report = simulate_two_detector(setup, seed=1)
    assert report.bound == 0.0 and report.sigma == 1 / 20000 / (2 * 1e-150 * 1e-150)


def test_setup2_source_length_must_match():
    dist = SourceDistribution((((0, 0), 1.0),))
    with pytest.raises(ParameterError, match="'source'"):
        two_det(source=dist)


def test_setup3_checks_its_source_as_setup2_does():
    CalibSetup3(L=2, mu=0.1, source=SourceDistribution((((2**63 - 1, 0), 1.0),)))
    source = SourceDistribution((((0, 0, 0), 1.0),))
    messages = []
    for setup in (CalibSetup2, CalibSetup3):
        with pytest.raises(ParameterError, match="'source'") as caught:
            setup(L=2, mu=0.1, source=source)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


# --- coincidence counting helpers -------------------------------------------

def slots(*rows):
    """Clicks given one row per train, laid out as (slot, train)."""
    return np.array(rows, dtype=bool).T


def test_double_coincidence_patterns():
    c1 = slots([0, 1, 0, 0])
    same = slots([0, 1, 0, 0])
    adjacent = slots([0, 0, 1, 0])
    far = slots([0, 0, 0, 1])
    assert _double_coincidence(c1, same)[0]
    assert _double_coincidence(c1, adjacent)[0]
    assert _double_coincidence(adjacent, c1)[0]
    assert not _double_coincidence(c1, far)[0]
    assert not _double_coincidence(c1, np.zeros((4, 1), bool))[0]


def test_dead_time_masking_patterns():
    raw = slots([1, 1, 1, 0, 1])
    assert (_apply_dead_time(raw, 0) == raw).all()
    assert (_apply_dead_time(raw, 1) == slots([1, 0, 1, 0, 1])).all()
    assert (_apply_dead_time(raw, 2) == slots([1, 0, 0, 0, 1])).all()
    # a dead time beyond the train hides the same clicks; t + dead_time once overflowed
    for dead in (5, 9, 2**63 - 1, 10**20):
        assert (_apply_dead_time(raw, dead) == slots([1, 0, 0, 0, 0])).all()


def test_dead_time_never_creates_clicks():
    rng = np.random.default_rng(0)
    raw = rng.random((12, 200)) < 0.3
    for dead in (1, 2, 5):
        masked = _apply_dead_time(raw, dead)
        assert not (masked & ~raw).any()
        # first click of every train survives masking
        assert (masked.any(axis=0) == raw.any(axis=0)).all()


def double_by_train(clicks1, clicks2):
    """The double test train by train: a slot where 1 clicked and 2 within one slot."""
    L = len(clicks1)
    return [any(clicks1[t, n] and clicks2[max(t - 1, 0):t + 2, n].any() for t in range(L))
            for n in range(clicks1.shape[1])]


def dead_time_by_train(raw, dead_time):
    """Dead-time masking train by train: a click registers once the detector is ready."""
    masked = np.zeros_like(raw)
    for n in range(raw.shape[1]):
        ready = 0
        for t in range(len(raw)):
            if raw[t, n] and t >= ready:
                masked[t, n], ready = True, t + dead_time + 1
    return masked


@pytest.mark.parametrize("L", range(2, 13))
def test_flags_match_a_train_by_train_loop(L):
    # click densities from sparse to crowded, a different one per train
    rng = np.random.default_rng(L)
    clicks1, clicks2 = rng.random((2, L, 400)) < rng.random(400)
    assert _double_coincidence(clicks1, clicks2).tolist() == double_by_train(clicks1, clicks2)
    for dead_time in (0, 1, 3, L, 10**20):
        assert np.array_equal(_apply_dead_time(clicks1, dead_time),
                              dead_time_by_train(clicks1, dead_time)), dead_time


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

# slots of 5 and 7 photons, more than the 3 (2det) or 4 (3det) cells a table
# slot's photons go to, beside slots of 3 or fewer
CROWDED_TABLE = SourceDistribution((
    ((0, 0, 0, 0), 0.3),
    ((1, 1, 0, 0), 0.2),
    ((0, 5, 0, 0), 0.2),
    ((2, 0, 0, 7), 0.15),
    ((1, 0, 3, 0), 0.15),
))

# dim arms, P <= 0.05 detected per photon: under 1% of the trains of two or
# more photons keep two detected ones; trains of up to 9 photons take three
# bisection steps, and a slot of 7 goes by multinomial
DIM_TABLE = SourceDistribution((
    ((0, 0, 0, 0), 0.2),
    ((1, 0, 0, 0), 0.1),
    ((1, 1, 0, 0), 0.3),
    ((0, 2, 0, 0), 0.15),
    ((1, 0, 1, 1), 0.15),
    ((0, 3, 0, 2), 0.08),
    ((2, 0, 0, 7), 0.02),
))


def test_two_detector_deterministic():
    bench = batched(two_det(), 2)
    a = quiet_two(bench, seed=77, n_jobs=1, collect_events=True)
    b = quiet_two(bench, seed=77, n_jobs=4, collect_events=True)
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


def test_three_detector_deterministic():
    bench = batched(three_det(), 2)
    a = quiet_three(bench, seed=15, n_jobs=1, collect_events=True)
    b = quiet_three(bench, seed=15, n_jobs=4, collect_events=True)
    assert a == b
    assert np.array_equal(a.events, b.events)


def test_three_detector_event_log():
    report = quiet_three(three_det(n_test=20000, mu=0.1), seed=2, collect_events=True)
    assert report.events.shape == (20000, 2)
    assert int(report.events[:, 0].sum()) == report.n_double
    assert int(report.events[:, 1].sum()) == report.n_triple


# --- both benches -------------------------------------------------------------

BENCHES = [(simulate_two_detector, two_det), (simulate_three_detector, three_det)]


@pytest.mark.parametrize("simulate, setup", BENCHES)
@pytest.mark.parametrize("source", [None, MIXED_TABLE], ids=["poissonian", "table"])
def test_a_bench_that_detects_nothing_counts_nothing(simulate, setup, source):
    # declared bounds below the tolerance let every truth be 0; no warning either
    dark = (dict(eta1=1e-13, eta2=1e-13, true_eff1=0.0, true_eff2=0.0) if setup is two_det
            else dict(eta_abs=1e-13, true_eta_abs=0.0))
    bench = setup(L=4, mu=0.0 if source else 0.1, source=source, **dark)
    assert sum(bench_probs(bench)) == 0.0
    report = simulate(bench, seed=2, collect_events=True)
    assert report.n_double == 0 and report.n_triple in (None, 0) and not report.events.any()


@pytest.mark.parametrize("simulate, setup", BENCHES)
def test_report_without_events_equals_report_with_events(simulate, setup):
    # three batches, the last of 5 trains
    bench = batched(setup(mu=0.1), 2)
    with_events = simulate(bench, seed=5, n_jobs=2, collect_events=True)
    without = simulate(bench, seed=5)
    assert without.events is None and with_events.events.shape[0] == bench.n_test
    assert without == with_events
    assert (without.n_triple is None) == (with_events.events.shape[1] == 1)


@pytest.mark.parametrize("simulate, setup", BENCHES)
def test_source_report_without_events_equals_report_with_events(simulate, setup):
    bench = batched(setup(L=4, source=MIXED_TABLE), 2)
    with_events = simulate(bench, seed=5, n_jobs=2, collect_events=True)
    assert simulate(bench, seed=5) == with_events
    assert int(with_events.events[:, 0].sum()) == with_events.n_double > 0


@pytest.mark.parametrize("simulate, setup", BENCHES)
def test_thin_statistics_warning_names_the_caller(simulate, setup):
    with pytest.warns(ThinStatisticsWarning) as caught:
        simulate(setup(n_test=5000), seed=0)
    assert [warning.filename for warning in caught] == [__file__]


# --- exact law of a train's outcome ------------------------------------------

def assert_bench_follows_exact_law(setup, seed, n=2_000_000):
    """One-sample chi-square fit of n trains' outcomes to calibration_law."""
    simulate = (simulate_two_detector if isinstance(setup, CalibSetup2)
                else simulate_three_detector)
    report = simulate(dataclasses.replace(setup, n_test=n), seed=seed, collect_events=True)
    outcome = report.events.astype(int) @ (1, 2)[: report.events.shape[1]]
    assert_fits(np.bincount(outcome, minlength=4), calibration_law(setup))


def bright_three_det(L, mu, dead_time):
    return three_det(L=L, mu=mu, dead_time=dead_time, eta_abs=0.8, true_eta_abs=0.8)


@pytest.mark.parametrize("setup, seed", [
    (two_det(L=5, mu=0.3), 1),
    (CalibSetup2(L=3, mu=1.0, true_T=0.6, true_R=0.35, eta1=0.2, eta2=0.3), 2),
    (two_det(L=50, mu=0.05), 3),
    (two_det(L=4, mu=0.0, source=MIXED_TABLE), 4),
    # a kept train's N >= 2 photons (Poisson mean 4) go to 4 cells, so in every
    # batch some trains go photon by photon and some by multinomial
    (two_det(L=2, mu=4.0), 5),
    (two_det(L=4, mu=0.0, source=CROWDED_TABLE), 6),
    (two_det(L=4, mu=0.0, source=DIM_TABLE, eta1=0.025, eta2=0.025, true_eff1=0.05,
             true_eff2=0.05), 7),
])
def test_two_detector_double_rate_is_exact(setup, seed):
    assert_bench_follows_exact_law(setup, seed)


@pytest.mark.parametrize("L, mu, dead_time", [(10, 0.1, 1), (4, 0.5, 3)])
def test_three_detector_triple_rate_is_exact(L, mu, dead_time):
    # bright enough for triples; the fit is to the joint (double, triple) law
    assert_bench_follows_exact_law(bright_three_det(L, mu, dead_time), seed=L + dead_time)


@pytest.mark.parametrize("dead_time", [0, 1, 3])
def test_three_detector_doubles_under_dead_time_are_exact(dead_time):
    assert_bench_follows_exact_law(bright_three_det(6, 0.5, dead_time), seed=20 + dead_time)


def unequal_three_det(**overrides):
    # three unequal arms (0.25, 0.15, 0.4), so a mix-up of two detectors shows
    setup = three_det(eta2=0.15, eta3=0.4, true_eff2=0.6, true_eff3=0.8,
                      eta_abs=0.8, true_eta_abs=0.8, **overrides)
    assert _detection_probs(setup) == pytest.approx([0.8, 0.25, 0.15, 0.4], rel=1e-15)
    return setup


def test_three_detector_source_table_is_exact():
    assert_bench_follows_exact_law(unequal_three_det(L=4, mu=0.0, source=MIXED_TABLE),
                                   seed=25)


def test_three_detector_crowded_source_table_is_exact():
    # slots beyond the cells go by multinomial, the rest photon by photon
    assert_bench_follows_exact_law(unequal_three_det(L=4, mu=0.0, source=CROWDED_TABLE),
                                   seed=27)


def test_three_detector_dim_source_table_is_exact():
    # the unequal arms behind an absorber of 0.06: P = 0.048
    setup = three_det(L=4, mu=0.0, source=DIM_TABLE, eta2=0.15, eta3=0.4, true_eff2=0.6,
                      true_eff3=0.8, eta_abs=0.06, true_eta_abs=0.06)
    assert sum(bench_probs(setup)) == pytest.approx(0.048, rel=1e-15)
    assert_bench_follows_exact_law(setup, seed=28)


@pytest.mark.parametrize("setup", [two_det, unequal_three_det], ids=["2det", "3det"])
def test_table_past_int64_photons_in_all_is_exact(setup):
    # each train fits int64, but the photons of the table's rows together do not
    table = SourceDistribution((((2**62, 0), 0.5), ((0, 2**62), 0.25), ((1, 1), 0.25)))
    # (nearly every train is kept and routes its 2^62 photons by multinomial,
    # so fewer trains)
    assert_bench_follows_exact_law(setup(L=2, mu=0.0, source=table), seed=29, n=200_000)


def test_three_detector_unequal_arms_are_exact():
    # the Poissonian source through the same three unequal arms
    assert_bench_follows_exact_law(unequal_three_det(L=6, mu=0.5), seed=26)


@pytest.mark.parametrize("mu, bias", [
    (0.02, 0.029357905472602974),   # E[bound] 0.0055194 against 0.0053620
    (0.005, 0.007014345668024058),
])
def test_two_detector_bound_bias_is_exact(mu, bias):
    # criterion 6's bench: E[bound] = P(double) / (2 eta1 eta2) from the train law
    setup = two_det(L=10, mu=mu)
    expected_bound = calibration_law(setup)[1] / (2 * setup.eta1 * setup.eta2)
    relative = expected_bound / rtag_coherent(TagParams(10, mu)) - 1
    assert 0 <= relative <= relative_slack_limit(10, mu)
    assert relative == pytest.approx(bias, rel=1e-9, abs=0)


# --- the count-level kernel ----------------------------------------------------

def switch_mean():
    """The m at which P(N >= 2) reaches _REJECTION_FROM, by bisection."""
    lo, hi = 0.0, 10.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _poisson_head(mid)[3] < _REJECTION_FROM else (lo, mid)
    return hi


def lumped(counts, law, n, least=10.0):
    """Counts and law merged over neighbouring cells until each expects least."""
    starts, mass = [0], 0.0
    for i, p in enumerate(law[:-1]):
        mass += p
        if mass * n >= least:
            starts.append(i + 1)
            mass = 0.0
    if law[starts[-1]:].sum() * n < least and len(starts) > 1:
        starts.pop()
    return np.add.reduceat(counts, starts), np.add.reduceat(law, starts)


@pytest.mark.parametrize("m", [0.01, 0.1, "below", "above", 1.5, 20.0])
def test_two_or_more_sampler_follows_the_truncated_poisson_law(m):
    # m below the switch takes the inverse CDF, from it on rejection
    m = {"below": np.nextafter(switch_mean(), 0), "above": switch_mean()}.get(m, m)
    p2 = float(_poisson_head(m)[3])
    assert (p2 < _REJECTION_FROM) == (m < switch_mean())
    n = 400_000
    draws = _two_or_more(np.random.default_rng(int(m * 1000)), m, p2, n)
    assert draws.shape == (n,) and draws.min() >= 2
    # P(N = j | N >= 2) for j = 2 .. top, past which the law holds no float mass
    top = int(m + 40 * math.sqrt(m) + 40)
    law = np.array([math.exp(-m + j * math.log(m) - math.lgamma(j + 1))
                    for j in range(2, top + 1)])
    law /= math.fsum(law)
    assert draws.max() <= top
    assert_fits(*lumped(np.bincount(draws - 2, minlength=law.size), law, n))


@pytest.mark.parametrize("n", [2, 3, 7, 10**6, 10**12])
def test_two_detected_matches_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    Ps = [*np.geomspace(1e-12, 1.0, 97).tolist(), 0.05, 0.5, 1 / 3, 0.999, 1.0]
    for P in Ps:
        with mpmath.workdps(80):
            x = mpmath.mpf(P)
            want = 1 - (1 - x) ** (n - 1) * (1 + (n - 1) * x)
        value = _two_detected(P)(n)
        assert abs(value - want) <= 1e-15 * want, (n, P, value, want)
    # an array of n gives each element's scalar bits
    ns = np.array([2, 3, 7, 10**6, 10**12])
    q = _two_detected(0.05)
    assert q(ns).tolist() == [q(int(m)) for m in ns]


def test_two_detected_table_changes_no_draw(monkeypatch):
    # trains of more photons than the table holds work q out where the
    # bisection asks, with the same bits
    setup = two_det(L=4, mu=0.0, source=DIM_TABLE, n_test=300000)
    tabulated = simulate_two_detector(setup, seed=8, collect_events=True)
    monkeypatch.setattr(calibration, "_TWO_DETECTED_TABLE", 8)
    worked_out = simulate_two_detector(setup, seed=8, collect_events=True)
    assert worked_out == tabulated and np.array_equal(worked_out.events, tabulated.events)


def _cells(kind, weights, detectors, slots):
    """Cell chances as _source_law makes them, or arbitrary ones with zero widths."""
    weights = np.array(weights)
    if kind == "poissonian":  # a detector times a slot, d * L equal cells per detector
        probs = weights[:detectors] + 1e-3
        return np.repeat(probs / probs.sum() / slots, slots)
    if kind == "table":  # a photon reaches detector i or none; the last cell takes the rest
        return np.array([*weights[:detectors] / len(weights), 0.0])
    weights[::3] = 0.0  # zero-width cells, leading ones too
    return weights / max(weights.sum(), 1.0)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["poissonian", "table", "arbitrary"]),
    weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=40),
    detectors=st.integers(1, 4),
    slots=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_finder_equals_the_binary_search(kind, weights, detectors, slots, seed):
    cells = _cells(kind, weights, detectors, slots)
    edges = np.cumsum(cells[:-1])
    buckets = 1 << (2 * len(cells) - 1).bit_length()
    # every edge and bucket bound with its float neighbours, the ends of [0, 1)
    # and seeded uniforms
    marks = np.concatenate([edges, np.arange(buckets) / buckets])
    u = np.concatenate([
        marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0),
        [0.0, 1.0 - 2.0**-53], np.random.default_rng(seed).random(2000),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    expected = np.searchsorted(edges, u, side="right")
    assert (_cell_finder(cells)(u) == expected).all()


def test_cell_finder_joins_its_blocks(monkeypatch):
    # uniforms are mapped a block at a time; three and a half blocks here
    monkeypatch.setattr(calibration, "_FIND_BLOCK", 64)
    cells = np.repeat([0.3, 0.7], 10) / 10
    u = np.random.default_rng(6).random(3 * 64 + 32)
    expected = np.searchsorted(np.cumsum(cells[:-1]), u, side="right")
    assert (_cell_finder(cells)(u) == expected).all()


def by_group(counts, cells, seed):
    """_occupied's result as reached[group, cell], group i at place i."""
    rng = np.random.default_rng(seed)
    return _occupied(rng, counts, cells, _cell_finder(cells), np.arange(len(counts)),
                     len(counts)).T


@pytest.mark.parametrize("shape", [(7,), (3, 4)])
def test_occupied_reaches_no_cell_from_an_empty_group(shape):
    counts = np.zeros(shape, dtype=np.int64).ravel()
    reached = by_group(counts, [0.2, 0.3, 0.5], seed=1)
    assert reached.shape == (counts.size, 3) and not reached.any()


def test_occupied_sends_a_lone_photon_to_exactly_one_cell():
    reached = by_group(np.ones(2000, dtype=np.int64), [0.2, 0.3, 0.0, 0.5], seed=2)
    assert (reached.sum(axis=-1) == 1).all()
    assert not reached[..., 2].any() and reached[..., [0, 1, 3]].any(axis=0).all()


def test_occupied_puts_each_group_at_its_place():
    counts = np.array([0, 1, 2, 3, 4, 5, 10**12, 0, 3])
    at = np.random.default_rng(3).permutation(20)[:counts.size]
    cells = [0.2, 0.3, 0.5]
    reached = _occupied(np.random.default_rng(4), counts, cells, _cell_finder(cells), at, 20)
    assert (reached[:, at].T == by_group(counts, cells, seed=4)).all()
    assert not np.delete(reached, at, axis=1).any()


@pytest.mark.parametrize("sure", [0, 1, 2])
def test_occupied_sends_every_photon_to_a_sure_cell(sure):
    # groups of 1-3 photons go one uniform each, of 4 and more by multinomial
    cells = np.zeros(3)
    cells[sure] = 1.0
    counts = np.array([0, 1, 2, 3, 4, 5, 10**12, 0, 3])
    reached = by_group(counts, cells, sure)
    assert (reached == np.outer(counts > 0, cells == 1.0)).all()


@pytest.mark.parametrize("simulate, setup", BENCHES)
def test_high_flux_memory_grows_with_the_cells_not_the_photons(simulate, setup):
    # about 5e6 detected photons per train, or a table slot of 1e12 beside
    # slots of 1 and 3: the photons of one batch would need over a terabyte,
    # its (detector, slot) counts take 8 bytes a cell
    table = SourceDistribution((((10**12, 0, 0, 1) + (0,) * 5 + (3,), 1.0),))
    for source in (None, table):
        bench = setup(L=10, mu=1e6, n_test=2 * BATCH_BLOCKS, source=source)
        cells = 3 * bench.L  # three detectors at most
        tracemalloc.start()
        try:
            report = simulate(bench, seed=1, collect_events=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_double == bench.n_test
        assert peak < 2 * BATCH_BLOCKS * cells * 8, source  # two copies of a batch's counts


@pytest.mark.parametrize("simulate, setup", BENCHES)
@pytest.mark.parametrize("overrides", [
    dict(mu=0.02), dict(mu=0.3), dict(L=4, source=MIXED_TABLE), dict(mu=0.0),
])
def test_batch_cut_follows_the_kept_trains_alone(monkeypatch, simulate, setup, overrides):
    # the same cut at one and two jobs, with and without events
    calls = []

    def spy(seed, n, n_jobs, kernel, share):
        sizes = sorted(run_batches(seed, n, n_jobs, lambda rng, size: size, share))
        calls.append((n, share, sizes))
        return run_batches(seed, n, n_jobs, kernel, share)

    monkeypatch.setattr("dqps.calibration.run_batches", spy)
    bench = setup(**overrides)
    if kept_share(bench) > 0:  # else one batch of any size
        bench = batched(bench, 2)
    quiet = quiet_two if simulate is simulate_two_detector else quiet_three
    for n_jobs, collect_events in itertools.product((1, 2), (False, True)):
        quiet(bench, seed=3, n_jobs=n_jobs, collect_events=collect_events)
    assert all(call == calls[0] for call in calls)
    n, share, sizes = calls[0]
    assert n == bench.n_test and share == pytest.approx(kept_share(bench), rel=1e-12)
    assert len(sizes) == (1 if share == 0 else 3)


@pytest.mark.parametrize("simulate, setup", BENCHES)
@pytest.mark.parametrize("overrides, owner, name", [
    (dict(mu=0.3), calibration, "_poisson_head"),
    (dict(L=4, source=MIXED_TABLE), calibration, "_cell_finder"),
], ids=["poissonian", "table"])
def test_the_source_law_is_worked_out_once_per_run(
        monkeypatch, simulate, setup, overrides, owner, name):
    # three batches on two jobs take the kept share and the table from one call
    calls = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    simulate(batched(setup(**overrides), 2), seed=5, n_jobs=2, collect_events=True)
    assert len(calls) == 1


def test_train_count_must_fit_int64_counts():
    # a batch may hold every train, so its counts and draws must stay in int64
    for setup in (two_det, three_det):
        with pytest.raises(ParameterError, match="'n_test'"):
            setup(n_test=2**62 + 1)
        assert setup(n_test=2**62).n_test == 2**62


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
    # efficiencies whose product underflows, or overflows the bound, are refused
    with pytest.raises(ParameterError, match="'eta1': declared efficiencies so small"):
        q3_bound(10, 1, 5e-324, 5e-324, 5e-324)
    with pytest.raises(ParameterError, match="'eta3'"):
        q3_bound(0, 1, 0.5, 1e-200, 1e-300)
    with pytest.raises(ParameterError, match="'eta2'"):
        q3_bound(1, 1, 0.5, 1e-300, 1e-9)
    assert q3_bound(0, 1, 0.5, 1e-300, 1e-9) == 0.0


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
