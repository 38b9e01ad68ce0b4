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
more; a table draws at once how many trains of each configuration keep
two or more detected photons, places the first two of them by their
exact law given that, and routes the photons after the second.  A group
of photons no larger than the number of (detector, slot) cells draws one
uniform per photon, which a bucket table built once per run
(_cell_finder) maps to its cell in O(1), the same cell a binary search
over the cell edges gives; a larger group draws one multinomial, so
memory grows with the kept trains and the cells, not with the photons.
The clicks fill one C-contiguous clicks[detector, slot, kept train], so
the double, dead-time and triple tests shift and reduce whole rows of
trains.

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
    SourceDistribution, TagParams, _log1p_gap, _poisson_head, rtag_coherent,
    rtag_general,
)

_BOUND_TOL = 1e-12

# Below this P(N >= 2) a kept Poissonian train's photon count N comes from
# the inverse CDF of N given N >= 2; from it on, by rejection of plain
# Poisson draws, which then keep at least this share.
_REJECTION_FROM = 0.25

# _cell_finder maps this many uniforms at a time
_FIND_BLOCK = 1 << 16

# _two_detected takes log1p(y) - y from 18 terms of _log1p_gap's series while
# |y| < 1/2 (|s| < 1/3), where they reach 1e-17 relative, and past which
# log1p loses at most a few ulps of it
_GAP_SERIES_MAX = 0.5

# A table whose trains hold at most this many photons tabulates P(Bin(b, P) >= 2)
# for every b once per run; a larger one works it out where the bisection asks.
# On a 2-vCPU host each working-out costs about 20 us however few its b, and
# the 4,096-entry table about 0.13 ms, half of the 12 bisection steps of a
# single batch; at 8,192 entries the two break even
_TWO_DETECTED_TABLE = 1 << 12


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
    """Refuse a source table of another length than L."""
    source = setup.source
    if source is not None and source.L != setup.L:
        raise ParameterError("source", "distribution length differs from L")


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


def _two_detected(P: float):
    """q(n) = P(Bin(n, P) >= 2) for P in [0, 1], of an integer or an array n >= 2.

    q(n) = 1 - (1-P)^(n-1) (1 + (n-1) P) = -expm1(g), with x = (n-1) P and
    g = (n-1) (log1p(-P) + P) + (log1p(x) - x): two terms of one sign,
    each from _log1p_gap, so nothing cancels and q keeps its relative
    precision (within 1e-15 of mpmath) at every n and P.
    """
    with np.errstate(divide="ignore"):  # log1p(-1) at P = 1
        gap = _log1p_gap(-P, 18, _GAP_SERIES_MAX)

    def q(n):
        m = np.asarray(n, dtype=np.float64) - 1.0
        return -np.expm1(m * gap + _log1p_gap(m * P, 18, _GAP_SERIES_MAX))

    return q


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


def _shares(probs) -> np.ndarray:
    """probs[i] / sum(probs), where a detected photon goes; zeros where none is detected."""
    return np.divide(probs, sum(probs) or 1.0)


def _source_law(setup, probs):
    """The run's source, worked out once: (kept share, true rtag, clicks).

    probs[i] is the chance that a photon reaches detector i.  The kept share
    is the expected fraction of trains with two or more detected photons;
    clicks(rng, n) returns their clicks among n as clicks[detector, slot, kept
    train].  A thinned Poissonian train is again Poissonian, with mean
    m = mu * L * sum(probs): that source draws how many trains hold N >= 2,
    then N for those alone, and routes each photon to a (detector, slot) cell
    with chance probs[i] / sum(probs) / L.  A table is thinned the same way.
    With P = sum(probs) and q(n) = P(Bin(n, P) >= 2), a train of
    configuration c, of n_c photons, is kept with chance q(n_c), so a batch
    draws with one multinomial how many trains of each configuration are
    kept, at weights p_c q(n_c), and for each the exact pattern given that:
    the photons are numbered slot by slot, and the second detected one, b,
    has P(b' <= b) = q(b) / q(n_c), since b' <= b exactly when Bin(b, P) >= 2;
    a fixed number of vectorised bisection steps inverts it, one per
    doubling of the largest n_c.  The first, a, is uniform on 1 .. b-1, the
    others before b reach no detector, a and b go to detector i with chance
    probs[i] / P, and the photons after b route freely, each to detector i
    with chance probs[i] or to none.  The occupied slots of the kept
    configurations, with the photons up to each within its configuration,
    are found once per run.  A batch draws the multinomial,
    then four uniforms a train (b, a and their two detectors), then, its
    groups ordered train by train and, in a train, slot by slot, the
    uniforms of the groups of at most len(probs) + 1 photons after b, then
    the multinomials of the larger ones, as _occupied draws.
    """
    source = setup.source
    if source is None:
        m = setup.mu * setup.L * sum(probs)
        p2 = float(_poisson_head(m)[3])
        cells = np.repeat(_shares(probs) / setup.L, setup.L)
        find = _cell_finder(cells)

        def clicks(rng, n: int):
            photons = _two_or_more(rng, m, p2, rng.binomial(n, p2))
            k = len(photons)
            reached = _occupied(rng, photons, cells, find, np.arange(k), k)
            return reached.reshape(len(probs), setup.L, k)

        return p2, rtag_coherent(TagParams(setup.L, setup.mu)), clicks
    P = min(sum(probs), 1.0)  # the splitters' tolerance can carry the sum past 1
    total = source._counts.sum(axis=1)
    kept = total >= 2
    n_kept = total[kept]
    top = int(n_kept.max(initial=2))
    q_of = _two_detected(P)
    if top <= _TWO_DETECTED_TABLE:
        table = q_of(np.arange(2, top + 1))

        def q_of(n):  # the same bits, looked up
            return table[n - 2]
    q_kept = q_of(n_kept)
    weights = source._probs[kept] / source._probs.sum() * q_kept
    pvals = np.append(weights, 0.0)  # the last entry takes the rest
    steps = (top - 2).bit_length()  # that halve [2, top] to one b
    # the kept configurations' occupied slots, configuration by configuration,
    # and, in rows of span padded with int64's max, the photons up to and with
    # each within its configuration (int64, as a train's photons are)
    counts = source._counts[kept]
    config, slot = np.nonzero(counts)
    photons = counts[config, slot]
    occupied = np.bincount(config, minlength=n_kept.size)
    last = np.cumsum(occupied) - 1
    span = 1 << int(occupied.max(initial=1) - 1).bit_length()
    shift = last - occupied + 1 - np.arange(n_kept.size) * span  # padded to row
    padded = np.full(n_kept.size * span, np.iinfo(np.int64).max)
    padded[np.arange(config.size) - shift[config]] = np.cumsum(counts, axis=1)[config, slot]
    edges = np.cumsum(_shares(probs)[:-1])  # a detected photon's detector
    cells = [*probs, 0.0]  # the last cell takes the rest
    find = _cell_finder(cells)

    def split(rng, of):
        """The first two detected photons of each train, and the photons after them.

        Returns the flat clicks[detector, slot, train] cells of a and b, then
        the groups of photons after b, from b's slot on, and their places.
        """
        k = len(of)
        u = rng.random((4, k))
        # b, the second: the least b with q(b) >= u q(n)
        target = u[0] * q_kept[of]
        lo, b = np.full(k, 2), n_kept[of]
        for _ in range(steps):
            mid = (lo + b) >> 1
            above = q_of(mid) < target
            lo, b = np.where(above, mid + 1, lo), np.where(above, b, mid)
        # a, the first, uniform on 1 .. b-1 (the minimum guards a float b - 1
        # rounded up); each goes to detector i with chance probs[i] / P
        a = np.minimum((u[1] * (b - 1)).astype(np.int64), b - 2) + 1
        detector = sum(u[2:] >= edge for edge in edges)
        # photon t of a train is in the first of its configuration's rows
        # whose count reaches t: add, step by halved step, the rows below t
        target = np.stack([a, b])
        at = np.broadcast_to(of * span, target.shape)
        step = span >> 1
        while step:
            at = at + step * (padded[at + (step - 1)] < target)
            step >>= 1
        row = at + shift[of]
        forced = (detector * setup.L + slot[row]) * k + np.arange(k)
        # b's row keeps the photons past b, every later row of the train all its own
        width = last[of] - row[1] + 1
        train = np.repeat(np.arange(k), width)
        first = np.cumsum(width) - width
        rows = np.arange(train.size) + np.repeat(row[1] - first, width)
        after = photons[rows]
        after[first] = padded[at[1]] - b
        return forced, after, slot[rows] * k + train

    def clicks(rng, n: int):
        of = np.repeat(np.arange(n_kept.size), rng.multinomial(n, pvals)[:-1])
        forced, after, place = split(rng, of)
        reached = _occupied(rng, after, cells, find, place, setup.L * len(of))
        np.put(reached, forced, True)
        return reached[:-1].reshape(len(probs), setup.L, len(of))

    return float(weights.sum()), rtag_general(source), clicks


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
    turns it into the run's kept share, true rtag and click sampler.  A
    train is kept when two or more of its photons reach a detector, for a
    Poissonian source and a table alike; flags(setup, clicks) returns the
    flags of the kept trains, one row each, and the counts come from those
    rows alone.  Batches are cut by the expected number of kept trains.
    Events place the rows at distinct random trains of the batch, drawn
    after the clicks.
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
