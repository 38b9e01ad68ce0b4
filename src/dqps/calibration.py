"""Off-line source calibration by coincidence counting.

Estimates an upper bound on the tagging probability of an L-pulse source
from test measurements alone.  Mode 2: a beam splitter feeds two threshold
detectors and every double coincidence in neighboring pulse slots is
counted.  Mode 3 tolerates detector dead time: an absorber attenuates the
train, one splitter taps off to a third detector, and a triple-coincidence
term compensates for the doubles that dead time can hide.

Both bounds divide observed counts by declared lower bounds on the
efficiencies, never by the simulator's ground truth, so overstating a
detector only loosens the result.  The setups own their defaults: a truth
left unset stays None and counts as the value that makes the declared bound
exact.  Photons route independently, which is exact for the Poissonian
and diagonal sources in scope.  Only trains where two or more photons reach
a detector can coincide, so only those are simulated pulse by pulse.  Trains
run through the protocol's seeded batch runner, ``protocol.run_batches``, so
a seed gives the same counts for any thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ParameterError, ThinStatisticsWarning, _block_length, _check_int,
    _mean_photon_number, _positive_count, _probability,
)
from .protocol import run_batches
from .tagging import SourceDistribution, TagParams, rtag_coherent, rtag_general

_BOUND_TOL = 1e-12


def _detection_probs(setup) -> list[float]:
    """Check each arm in setup._arms(); return its per-photon detection probability.

    An unset truth counts as eta / transmission, which makes the declared
    bound exact.
    """
    probs = []
    for bound, transmission, truth, split in setup._arms():
        eta, eff = getattr(setup, bound), getattr(setup, truth)
        _probability(bound, eta, interval="(0, 1]")
        if eff is None:
            if transmission == 0.0:
                raise ParameterError(
                    split, f"arm transmits nothing, so no {truth} makes the bound exact"
                )
            eff = eta / transmission
        _probability(truth, eff)
        prob = transmission * eff
        if eta > prob + _BOUND_TOL:
            raise ParameterError(bound, f"declared bound exceeds {truth} * transmission")
        probs.append(prob)
    return probs


@dataclass(frozen=True)
class CalibSetup2:
    """Two-detector test bench.

    eta1 and eta2 are the experimenter's declared lower bounds on the
    splitter-times-detector efficiencies of the two arms; true_T, true_R,
    true_eff1, true_eff2 are the ground truth the simulator runs with.  An
    unset true_eff1 (true_eff2) stays None and counts as eta1 / true_T
    (eta2 / true_R), making the declared bound exact.  A source distribution
    replaces the Poissonian input when given.
    """

    L: int
    mu: float
    eta1: float = 0.25
    eta2: float = 0.25
    true_T: float = 0.5
    true_R: float = 0.5
    true_eff1: float | None = None
    true_eff2: float | None = None
    n_test: int = 100000
    source: SourceDistribution | None = None

    def __post_init__(self):
        _block_length("L", self.L)
        _mean_photon_number("mu", self.mu)
        for name in ("true_T", "true_R"):
            _probability(name, getattr(self, name))
        if self.true_T + self.true_R > 1 + _BOUND_TOL:
            raise ParameterError("true_T", "splitter outputs true_T + true_R exceed 1")
        _detection_probs(self)
        _positive_count("n_test", self.n_test)
        if self.source is not None and self.source.L != self.L:
            raise ParameterError("source", "distribution length differs from L")

    def _arms(self):
        """(declared bound, transmission, truth, split named when dark) per arm."""
        return (
            ("eta1", self.true_T, "true_eff1", "true_T"),
            ("eta2", self.true_R, "true_eff2", "true_R"),
        )


@dataclass(frozen=True)
class CalibSetup3:
    """Three-detector test bench with dead time.

    Layout: absorber, then splitter 1 whose reflected arm feeds detector 3,
    then splitter 2 feeding detectors 1 and 2.  Declared lower bounds:
    eta1 <= T1*T2*eff1, eta2 <= T1*R2*eff2, eta3 <= R1*eff3, and eta_abs
    for the absorber.  An unset truth stays None and counts as the value
    that makes its declared bound exact: true_eff1 = eta1 / (T1*T2),
    true_eff2 = eta2 / (T1*R2), true_eff3 = eta3 / R1 and
    true_eta_abs = eta_abs.  dead_time = 0 models idealized always-ready
    detectors, used only as a cross-check against the two-detector mode.
    """

    L: int
    mu: float
    eta1: float = 0.25
    eta2: float = 0.25
    eta3: float = 0.25
    eta_abs: float = 0.1
    true_T1: float = 0.5
    true_R1: float = 0.5
    true_T2: float = 0.5
    true_R2: float = 0.5
    true_eff1: float | None = None
    true_eff2: float | None = None
    true_eff3: float | None = None
    true_eta_abs: float | None = None
    dead_time: int = 1
    n_test: int = 100000

    def __post_init__(self):
        _block_length("L", self.L)
        _mean_photon_number("mu", self.mu)
        for name in ("true_T1", "true_R1", "true_T2", "true_R2"):
            _probability(name, getattr(self, name))
        if self.true_T1 + self.true_R1 > 1 + _BOUND_TOL:
            raise ParameterError("true_T1", "splitter 1 outputs exceed 1")
        if self.true_T2 + self.true_R2 > 1 + _BOUND_TOL:
            raise ParameterError("true_T2", "splitter 2 outputs exceed 1")
        _detection_probs(self)
        _check_int("dead_time", self.dead_time, 0)
        _positive_count("n_test", self.n_test)

    def _arms(self):
        """The arm table as in CalibSetup2, absorber first, then routing order."""
        T1 = self.true_T1
        return (
            ("eta_abs", 1.0, "true_eta_abs", None),
            ("eta1", T1 * self.true_T2, "true_eff1", "true_T2" if T1 else "true_T1"),
            ("eta2", T1 * self.true_R2, "true_eff2", "true_R2" if T1 else "true_T1"),
            ("eta3", self.true_R1, "true_eff3", "true_R1"),
        )


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of one calibration run.

    slack = bound - true_rtag should stay above about -3 * sigma; sigma is
    a Poisson-style standard error of the bound (floored at one count, and
    ignoring the positive double/triple correlation in mode 3, which only
    makes it conservative to compare slack against -3 sigma).  events, when
    requested, holds one row per train in simulation order: [double] for
    mode 2, [double, triple] for mode 3.  Report equality ignores events;
    compare them with np.array_equal.
    """

    mode: str
    n_test: int
    n_double: int
    n_triple: int | None
    bound: float
    true_rtag: float
    slack: float
    sigma: float
    events: np.ndarray | None = field(default=None, compare=False)


def q3_bound(n_triple: int, n_test: int, eta1: float, eta2: float, eta3: float) -> float:
    """Bound on the three-or-more-photon emission probability per train."""
    _check_int("n_triple", n_triple, 0)
    _positive_count("n_test", n_test)
    for name, value in (("eta1", eta1), ("eta2", eta2), ("eta3", eta3)):
        _probability(name, value, interval="(0, 1]")
    return (n_triple / n_test) / (6.0 * eta1 * eta2 * eta3)


def relative_slack_limit(L: int, mu: float) -> float:
    """Guaranteed relative overshoot of the two-detector bound.

    For exact declared efficiencies and Poissonian input with small mu, the
    expected bound exceeds the true tagging probability by at most this
    fraction of it: mu * (3*mu*L/4 + 20/9).
    """
    _block_length("L", L)
    _mean_photon_number("mu", mu)
    return mu * (0.75 * mu * L + 20.0 / 9.0)


def _neighbor_or(clicks: np.ndarray) -> np.ndarray:
    """OR of each slot with its immediate neighbors, per train."""
    out = clicks.copy()
    out[:, :-1] |= clicks[:, 1:]
    out[:, 1:] |= clicks[:, :-1]
    return out


def _double_coincidence(clicks1: np.ndarray, clicks2: np.ndarray) -> np.ndarray:
    """Trains where the detectors clicked within one slot of each other."""
    return (clicks1 & _neighbor_or(clicks2)).any(axis=1)


def _apply_dead_time(raw: np.ndarray, dead_time: int) -> np.ndarray:
    """Drop clicks while a detector is recovering from an earlier one."""
    if dead_time == 0:
        return raw
    n, L = raw.shape
    masked = np.zeros_like(raw)
    blind_until = np.full(n, -1, dtype=np.int64)
    for t in range(L):
        ok = raw[:, t] & (t > blind_until)
        masked[:, t] = ok
        blind_until = np.where(ok, t + dead_time, blind_until)
    return masked


def _clicks(setup, source, probs, rng, n: int):
    """Trains among n where two or more photons reach a detector, and their clicks.

    probs[i] is the chance that a photon reaches detector i.  A thinned
    Poissonian train is again Poissonian, so that source draws detected photons only.
    """
    if source is None:
        hits = rng.poisson(setup.mu * setup.L * sum(probs), size=n)
        rows = np.flatnonzero(hits >= 2)
        train = np.repeat(np.arange(rows.size), hits[rows])
        slot = rng.integers(setup.L, size=train.size)
    else:
        configs, weights = source.as_arrays()
        config = rng.choice(len(weights), size=n, p=weights / weights.sum())
        rows = np.flatnonzero(configs.sum(axis=1)[config] >= 2)
        photons = configs[config[rows]]
        placed = np.repeat(np.nonzero(photons), photons[photons > 0], axis=1)
        train, slot = placed[:, rng.random(placed.shape[1]) < sum(probs)]
    detector = rng.choice(len(probs), size=train.size, p=np.divide(probs, sum(probs)))
    clicks = np.zeros((len(probs), rows.size, setup.L), dtype=bool)
    clicks[detector, train, slot] = True
    return rows, clicks


def _two_detector_batch(setup: CalibSetup2, probs, rng, n: int):
    rows, clicks = _clicks(setup, setup.source, probs, rng, n)
    events = np.zeros((n, 1), dtype=bool)
    events[rows, 0] = _double_coincidence(*clicks)
    return int(np.count_nonzero(events)), 0, events


def _three_detector_batch(setup: CalibSetup3, probs, rng, n: int):
    p_abs, *arms = probs
    rows, clicks = _clicks(setup, None, [p_abs * p for p in arms], rng, n)
    masked = [_apply_dead_time(c, setup.dead_time) for c in clicks[:2]]
    # dead time never hides a detector's first click, so triples use raw clicks
    found = np.stack([_double_coincidence(*masked), clicks.any(axis=2).all(axis=0)], 1)
    events = np.zeros((n, 2), dtype=bool)
    events[rows] = found
    return *np.count_nonzero(found, axis=0).tolist(), events


def _run_batches(setup, seed: int, n_jobs: int, collect_events: bool, kernel):
    probs = _detection_probs(setup)
    results = run_batches(
        seed, setup.n_test, n_jobs, lambda rng, size: kernel(setup, probs, rng, size)
    )
    if setup.n_test < 10**4:
        warnings.warn(
            f"{setup.n_test} test trains give a statistically meaningless bound",
            ThinStatisticsWarning,
            stacklevel=3,
        )
    doubles, triples, events = zip(*results)
    events = np.concatenate(events) if collect_events else None
    return sum(doubles), sum(triples), events


def simulate_two_detector(
    setup: CalibSetup2, seed: int = 0, n_jobs: int = 1, collect_events: bool = False
) -> CalibrationReport:
    """Run the two-detector experiment and bound the tagging probability.

    The bound is (n_double / n_test) / (2 * eta1 * eta2) with the declared
    efficiency bounds, valid for any photon-number-diagonal source.
    """
    n_double, _, events = _run_batches(
        setup, seed, n_jobs, collect_events, _two_detector_batch
    )
    scale = 2.0 * setup.eta1 * setup.eta2
    bound = (n_double / setup.n_test) / scale
    sigma = math.sqrt(max(n_double, 1)) / setup.n_test / scale
    if setup.source is None:
        true_rtag = rtag_coherent(TagParams(setup.L, setup.mu))
    else:
        true_rtag = rtag_general(setup.source)
    return CalibrationReport(
        mode="2det",
        n_test=setup.n_test,
        n_double=n_double,
        n_triple=None,
        bound=bound,
        true_rtag=true_rtag,
        slack=bound - true_rtag,
        sigma=sigma,
        events=events,
    )


def simulate_three_detector(
    setup: CalibSetup3, seed: int = 0, n_jobs: int = 1, collect_events: bool = False
) -> CalibrationReport:
    """Run the dead-time-tolerant experiment and bound the tagging probability.

    Doubles lost to dead time are compensated by the triple-coincidence
    term: bound = (n_double/n_test + q3_bound) / (2 * eta1 * eta2 * eta_abs^2),
    with every efficiency a declared lower bound.
    """
    n_double, n_triple, events = _run_batches(
        setup, seed, n_jobs, collect_events, _three_detector_batch
    )
    q3 = q3_bound(n_triple, setup.n_test, setup.eta1, setup.eta2, setup.eta3)
    scale = 2.0 * setup.eta1 * setup.eta2 * setup.eta_abs**2
    bound = (n_double / setup.n_test + q3) / scale
    triple_weight = 1.0 / (6.0 * setup.eta1 * setup.eta2 * setup.eta3)
    sigma = (
        math.sqrt(max(n_double, 1) + max(n_triple, 1) * triple_weight**2)
        / setup.n_test
        / scale
    )
    true_rtag = rtag_coherent(TagParams(setup.L, setup.mu))
    return CalibrationReport(
        mode="3det",
        n_test=setup.n_test,
        n_double=n_double,
        n_triple=n_triple,
        bound=bound,
        true_rtag=true_rtag,
        slack=bound - true_rtag,
        sigma=sigma,
        events=events,
    )
