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
and diagonal sources in scope.

Only trains where two or more photons reach a detector can coincide, and
trains are independent, so a batch draws how many there are and then
those trains alone.  A Poissonian batch draws that number from a binomial
and each kept train's photon count from the Poisson law given two or
more; a table draws every configuration's count at once and routes the
occupied slots of those of two or more photons.  A group of photons no
larger than the number of (detector, slot) cells draws one uniform per
photon, which a bucket table built once per run (_cell_finder) maps to its
cell in O(1), the same cell a binary search over the cell edges gives; a
larger group draws one multinomial, so memory grows with the kept trains
and the cells, not with the photons.  The clicks fill one
C-contiguous clicks[detector, slot, kept train], so the double, dead-time
and triple tests shift and reduce whole rows of trains.

Both benches run through one driver, ``_calibrate``, on the protocol's
seeded batch runner, ``protocol.run_batches``, so a seed gives the same
counts for any thread count.  ``_source_law``, the one place that tells a
Poissonian source from a table, works out once per run the kept share
that cuts the batches, the true tagging probability and the click
sampler that every batch calls; it reads a table from the arrays that
SourceDistribution kept when it validated it.  A bench's flag function
flags the kept trains alone, [double] or [double, triple]; ``_calibrate``
counts them and builds the report.  An event log places the kept trains
among the batch's rows by draws taken last, so no count depends on it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ParameterError, ThinStatisticsWarning, _block_length, _block_photon_mean,
    _check_int, _item_count, _mean_photon_number, _positive_count, _probability,
)
from .protocol import run_batches
from .tagging import (
    SourceDistribution, TagParams, _poisson_head, rtag_coherent, rtag_general,
)

_BOUND_TOL = 1e-12

# Below this P(N >= 2) a kept Poissonian train's photon count N comes from
# the inverse CDF of N given N >= 2; from it on, by rejection of plain
# Poisson draws, which then keep at least this share.
_REJECTION_FROM = 0.25

# _cell_finder maps this many uniforms at a time
_FIND_BLOCK = 1 << 16


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


def _refuse_overflow(declared: dict) -> None:
    """Refuse the declared efficiencies, naming the smallest."""
    raise ParameterError(min(declared, key=declared.get),
                         "declared efficiencies so small that the bound is not finite")


def _check_source(setup) -> None:
    """Refuse a source table of another length than L or with trains beyond int64."""
    source = setup.source
    if source is None:
        return
    if source.L != setup.L:
        raise ParameterError("source", "distribution length differs from L")
    if source._photons is None:
        raise ParameterError("source", "photons per train must fit in int64")


def _check_bound_finite(setup) -> None:
    """Refuse efficiencies that let some count of the test overflow the bound or sigma.

    Both grow with the counts, and no count exceeds n_test, so the largest decides.
    """
    try:
        finite = all(map(math.isfinite, setup._bound(setup.n_test, setup.n_test)))
    except (ZeroDivisionError, OverflowError):  # float / 0.0, float ** 2
        finite = False
    if not finite:
        _refuse_overflow({bound: getattr(setup, bound) for bound, *_ in setup._arms()})


def _check_setup(setup, *splitters) -> None:
    """The checks both benches share; each splitter is its (T, R) field pair."""
    _block_length("L", setup.L)
    _mean_photon_number("mu", setup.mu)
    _block_photon_mean(setup.L, setup.mu)
    for name in (name for pair in splitters for name in pair):
        _probability(name, getattr(setup, name))
    for T, R in splitters:
        if getattr(setup, T) + getattr(setup, R) > 1 + _BOUND_TOL:
            raise ParameterError(T, f"splitter outputs {T} + {R} exceed 1")
    _detection_probs(setup)
    _item_count("n_test", setup.n_test)
    _check_bound_finite(setup)
    _check_source(setup)


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
        _check_setup(self, ("true_T", "true_R"))

    def _arms(self):
        """(declared bound, transmission, truth, split named when dark) per arm."""
        return (
            ("eta1", self.true_T, "true_eff1", "true_T"),
            ("eta2", self.true_R, "true_eff2", "true_R"),
        )

    def _bound(self, n_double: int, n_triple: int | None) -> tuple[float, float]:
        """The bound on the tagging probability from the doubles, and its sigma."""
        scale = 2.0 * self.eta1 * self.eta2
        bound = (n_double / self.n_test) / scale
        sigma = math.sqrt(max(n_double, 1)) / self.n_test / scale
        return bound, sigma


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
    A source distribution replaces the Poissonian input when given.
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
    source: SourceDistribution | None = None

    def __post_init__(self):
        _check_setup(self, ("true_T1", "true_R1"), ("true_T2", "true_R2"))
        _check_int("dead_time", self.dead_time, 0)

    def _arms(self):
        """The arm table as in CalibSetup2, absorber first, then routing order."""
        T1 = self.true_T1
        return (
            ("eta_abs", 1.0, "true_eta_abs", None),
            ("eta1", T1 * self.true_T2, "true_eff1", "true_T2" if T1 else "true_T1"),
            ("eta2", T1 * self.true_R2, "true_eff2", "true_R2" if T1 else "true_T1"),
            ("eta3", self.true_R1, "true_eff3", "true_R1"),
        )

    def _bound(self, n_double: int, n_triple: int) -> tuple[float, float]:
        """As in CalibSetup2, the triples compensating for dead time."""
        q3 = q3_bound(n_triple, self.n_test, self.eta1, self.eta2, self.eta3)
        scale = 2.0 * self.eta1 * self.eta2 * self.eta_abs**2
        bound = (n_double / self.n_test + q3) / scale
        triple_weight = 1.0 / (6.0 * self.eta1 * self.eta2 * self.eta3)
        sigma = (
            math.sqrt(max(n_double, 1) + max(n_triple, 1) * triple_weight**2)
            / self.n_test
            / scale
        )
        return bound, sigma


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
    declared = {"eta1": eta1, "eta2": eta2, "eta3": eta3}
    for name, value in declared.items():
        _probability(name, value, interval="(0, 1]")
    weight = 6.0 * eta1 * eta2 * eta3
    q3 = (n_triple / n_test) / weight if weight else math.inf
    if not math.isfinite(q3):
        _refuse_overflow(declared)
    return q3


def relative_slack_limit(L: int, mu: float) -> float:
    """Guaranteed relative overshoot of the two-detector bound.

    For exact declared efficiencies and Poissonian input with small mu, the
    expected bound exceeds the true tagging probability by at most this
    fraction of it: mu * (3*mu*L/4 + 20/9).
    """
    _block_length("L", L)
    _mean_photon_number("mu", mu)
    return mu * (0.75 * mu * L + 20.0 / 9.0)


def _double_coincidence(clicks1: np.ndarray, clicks2: np.ndarray) -> np.ndarray:
    """Per train, whether the detectors clicked within one slot; clicks are (slot, train)."""
    near = clicks2.copy()  # each slot of detector 2 OR its immediate neighbors
    near[:-1] |= clicks2[1:]
    near[1:] |= clicks2[:-1]
    return (clicks1 & near).any(axis=0)


def _apply_dead_time(raw: np.ndarray, dead_time: int) -> np.ndarray:
    """Drop clicks while a detector is recovering from an earlier one.

    raw is (slot, train).  A dead time beyond the L slots hides the same
    clicks as L, so it is clamped there and t + dead_time stays in int64.
    """
    dead_time = min(dead_time, len(raw))
    masked = np.zeros_like(raw)
    blind_until = np.full(raw.shape[1:], -1, dtype=np.int64)
    for t in range(len(raw)):
        ok = raw[t] & (t > blind_until)
        masked[t] = ok
        blind_until = np.where(ok, t + dead_time, blind_until)
    return masked


def _two_or_more(rng, m: float, p2: float, k: int) -> np.ndarray:
    """k draws of N given N >= 2, for N ~ Poisson(m) and p2 = P(N >= 2)."""
    if p2 < _REJECTION_FROM:
        # the pmf relative to N = 2, m^(j-2) 2 / j!, until a term is lost on the sum
        terms = [1.0]
        while terms[-1] > 1e-17:
            terms.append(terms[-1] * m / (len(terms) + 2))
        cdf = np.cumsum(terms)
        return 2 + np.searchsorted(cdf, rng.random(k) * cdf[-1])
    drawn = np.empty(0, dtype=np.int64)
    while drawn.size < k:
        more = rng.poisson(m, size=int((k - drawn.size) / p2) + 1)
        drawn = np.concatenate([drawn, more[more >= 2]])
    return drawn[:k]


def _cell_finder(cells):
    """find(u): the cell of each uniform u, as binary search gives it.

    That is np.searchsorted(np.cumsum(cells[:-1]), u, side="right"), built
    once per run.  Split [0, 1) into B = 2^k >= 2 * len(cells) equal
    buckets; b / B and u * B are exact in binary, so floor(u * B) is the
    bucket of u, and start[b] = searchsorted(edges, b / B, "right") is the
    cell of its lower end.  The cell of u lies at most as many edges on as
    there are in (b / B, (b + 1) / B), so find adds 1 while u >= edges[cell],
    at most that many times over all buckets, with the edges padded by +inf:
    the same cell for every u, on an edge or in a zero-width cell too, in
    O(1) per uniform.
    """
    edges = np.cumsum(cells[:-1])
    buckets = 1 << (2 * len(cells) - 1).bit_length()
    bounds = np.arange(buckets + 1) / buckets
    start = np.searchsorted(edges, bounds[:-1], side="right")
    # no u in bucket b reaches an edge at (b + 1) / B
    steps = int((np.searchsorted(edges, bounds[1:], side="left") - start).max())
    edges = np.append(edges, np.inf)

    def find(u):
        cell = np.empty(u.shape, np.intp)
        for at in range(0, u.size, _FIND_BLOCK):  # so that the temporaries stay small
            part = u[at:at + _FIND_BLOCK]
            found = start[(part * buckets).astype(np.intp)]
            for _ in range(steps):
                found += part >= edges[found]
            cell[at:at + _FIND_BLOCK] = found
        return cell

    return find


def _occupied(rng, counts, cells, find, at, size: int) -> np.ndarray:
    """Which cells each group of photons reaches, as reached[cell, place].

    Group i sits at place at[i] of size places.  Each photon lands in cell j
    with chance cells[j], independently; the last cell takes the rest, as in
    numpy's multinomial.  A group of at most len(cells) photons draws one
    uniform per photon, which find, _cell_finder(cells), maps to its cell; a
    larger group draws one multinomial.  So memory stays O(groups * cells)
    at any flux.
    """
    width = len(cells)
    reached = np.zeros((width, size), dtype=bool)
    few = counts <= width
    # taken before the uniforms, so that no small array splits their freed block
    photons, place = counts[few], at[few]
    flat = find(rng.random(photons.sum()))  # the cell, then the flat index in place
    flat *= size
    flat += np.repeat(place, photons)
    reached.reshape(-1)[flat] = True
    many = ~few
    if many.any():
        reached[:, at[many]] = (rng.multinomial(counts[many], cells) > 0).T
    return reached


def _source_law(setup, probs):
    """The run's source, worked out once: (kept share, true rtag, clicks).

    probs[i] is the chance that a photon reaches detector i.  The kept share
    is the expected fraction of trains with two or more detected photons;
    clicks(rng, n) returns their clicks among n as clicks[detector, slot, kept
    train].  A thinned Poissonian train is again Poissonian, with mean
    m = mu * L * sum(probs): that source draws how many trains hold N >= 2,
    then N for those alone, and routes each photon to a (detector, slot) cell
    with chance probs[i] / sum(probs) / L.  A table finds the occupied slots
    of its configurations of two or more photons once per run; a batch draws
    how many trains take each, grouped by configuration, and routes only
    those slots, each photon to detector i with chance probs[i] or to none.
    Its groups are ordered train by train and, in a train, slot by slot:
    the groups of at most len(probs) + 1 photons draw their uniforms in that
    order, then the larger ones their multinomials, as _occupied draws.
    """
    source = setup.source
    if source is None:
        m = setup.mu * setup.L * sum(probs)
        p2 = float(_poisson_head(m)[3])
        cells = np.repeat(np.divide(probs, sum(probs)) / setup.L, setup.L)
        find = _cell_finder(cells)

        def clicks(rng, n: int):
            photons = _two_or_more(rng, m, p2, rng.binomial(n, p2))
            k = len(photons)
            reached = _occupied(rng, photons, cells, find, np.arange(k), k)
            return reached.reshape(len(probs), setup.L, k)

        return p2, rtag_coherent(TagParams(setup.L, setup.mu)), clicks
    p = source._probs / source._probs.sum()
    kept = source._photons >= 2
    # the kept configurations' occupied slots, configuration by configuration
    config, slot = np.nonzero(source._counts[kept])
    photons = source._counts[kept][config, slot]
    occupied = np.bincount(config, minlength=np.count_nonzero(kept))
    first = np.cumsum(occupied) - occupied
    cells = [*probs, 0.0]  # the last cell takes the rest
    find = _cell_finder(cells)

    def clicks(rng, n: int):
        of = np.repeat(np.arange(len(occupied)), rng.multinomial(n, p)[kept])
        k, width = len(of), occupied[of]
        train = np.repeat(np.arange(k), width)
        # a train's j-th group is the j-th occupied slot of its configuration
        entry = np.arange(train.size) + np.repeat(first[of] - np.cumsum(width) + width, width)
        reached = _occupied(rng, photons[entry], cells, find, slot[entry] * k + train,
                            setup.L * k)
        return reached[:-1].reshape(len(probs), setup.L, k)

    return float(p[kept].sum()), rtag_general(source), clicks


def _two_detector_flags(setup: CalibSetup2, clicks):
    return _double_coincidence(*clicks)[:, None]


def _three_detector_flags(setup: CalibSetup3, clicks):
    masked = [_apply_dead_time(c, setup.dead_time) for c in clicks[:2]]
    # dead time never hides a detector's first click, so triples use raw clicks
    triple = clicks.any(axis=1).all(axis=0)
    return np.stack([_double_coincidence(*masked), triple], 1)


def _calibrate(mode, setup, flags, probs, seed, n_jobs, collect_events):
    """Run setup.n_test trains and report the bound they give.

    probs[i] is the chance that a photon reaches detector i; _source_law
    turns it into the run's kept share, true rtag and click sampler.
    flags(setup, clicks) returns the flags of the kept trains, one row
    each; the counts come from those rows alone.  Batches are cut by the
    expected number of kept trains.  Events place the rows at distinct
    random trains of the batch, drawn after the clicks.
    """
    kept, true_rtag, clicks = _source_law(setup, probs)

    def batch(rng, size):
        found = flags(setup, clicks(rng, size))
        events = None
        if collect_events:
            events = np.zeros((size, found.shape[1]), dtype=bool)
            events[rng.choice(size, len(found), replace=False)] = found
        return np.count_nonzero(found, axis=0), events

    results = run_batches(seed, setup.n_test, n_jobs, batch, share=kept)
    if setup.n_test < 10**4:
        warnings.warn(
            f"{setup.n_test} test trains give a statistically meaningless bound",
            ThinStatisticsWarning,
            stacklevel=3,
        )
    counts, events = zip(*results)
    # a kernel with one column of flags counts no triples
    n_double, n_triple = (*sum(counts).tolist(), None)[:2]
    bound, sigma = setup._bound(n_double, n_triple)
    return CalibrationReport(
        mode=mode,
        n_test=setup.n_test,
        n_double=n_double,
        n_triple=n_triple,
        bound=bound,
        true_rtag=true_rtag,
        slack=bound - true_rtag,
        sigma=sigma,
        events=np.concatenate(events) if collect_events else None,
    )


def simulate_two_detector(
    setup: CalibSetup2, seed: int = 0, n_jobs: int = 1, collect_events: bool = False
) -> CalibrationReport:
    """Run the two-detector experiment and bound the tagging probability.

    The bound is (n_double / n_test) / (2 * eta1 * eta2) with the declared
    efficiency bounds, valid for any photon-number-diagonal source.
    """
    probs = _detection_probs(setup)
    return _calibrate("2det", setup, _two_detector_flags, probs, seed, n_jobs,
                      collect_events)


def simulate_three_detector(
    setup: CalibSetup3, seed: int = 0, n_jobs: int = 1, collect_events: bool = False
) -> CalibrationReport:
    """Run the dead-time-tolerant experiment and bound the tagging probability.

    Doubles lost to dead time are compensated by the triple-coincidence
    term: bound = (n_double/n_test + q3_bound) / (2 * eta1 * eta2 * eta_abs^2),
    with every efficiency a declared lower bound.
    """
    p_abs, *arms = _detection_probs(setup)
    probs = [p_abs * p for p in arms]  # the absorber, then the arm
    return _calibrate("3det", setup, _three_detector_flags, probs, seed, n_jobs,
                      collect_events)
