"""Photon-level Monte Carlo of the block protocol.

Each round prepares an L-pulse phase-randomized coherent block with per-pulse
bits a_l and basis c, sends it through a lossy channel into a one-pulse-delay
interferometer, and applies threshold detectors at the L-1 valid timings.
Because such light produces independent Poissonian clicks per output mode,
the simulator draws clicks from per-timing mean photon numbers instead of
propagating amplitudes; this is exact for the modeled source and detectors.

The receiver keeps only the first clicked timing, and the two detector means
always sum to mu*eta, so a timing stays dark with probability
p_none = e^{-mu*eta} (1 - p_dark)^2 whatever the bits and bases.  Whether and
where a block clicks is thus independent of its bits and bases, and blocks
are i.i.d., so a batch draws how many of its blocks click and then the first
click j, bases, two bits (a two-pulse block for ``detection_means``) and
detector outcome, whose law gives the measured bit, of those blocks only; of
the dark blocks it draws only how many measured in d = 1.  Tagging is drawn
for the data-sifted blocks only, independently of their clicks, so its
fraction estimates rtag (see ObservedStats).  A batch costs O(clicked
blocks), whatever its size and L.

``run_batches`` is the one seeded batch runner, shared with the calibration
benches.  It cuts work by what a batch is expected to draw, not by items:
the caller passes the share of items its kernel draws for (here p_click),
and a batch holds ``BATCH_BLOCKS`` items, or as many more as keep about
``_BATCH_WORK`` of them expected to draw.  Every batch owns an RNG stream
spawned from (seed, batch index) and consumes it in a fixed order, and the
cut depends on the parameters alone, so results are bit-identical for a
given seed regardless of thread count.  Changing ``BATCH_BLOCKS`` or
``_BATCH_WORK`` would select a different (equally valid) random stream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    ParameterError, ThinStatisticsWarning, _block_length, _block_photon_mean,
    _check_real, _item_count, _mean_photon_number, _positive_count, _probability,
    _seed,
)
from .keyrate import KeyRateReport, RateInputs, key_rate
from .tagging import rtag_coherent  # noqa: F401  perfbench/spans.py wraps this name

BATCH_BLOCKS = 32768
# a batch larger than BATCH_BLOCKS expects at most this many items to draw
_BATCH_WORK = 4096


@dataclass(frozen=True)
class ProtocolParams:
    """Sender-side protocol choices: block length, intensity, basis bias, size."""

    L: int
    mu: float
    p1: float
    n_blocks: int
    seed: int

    def __post_init__(self):
        _block_length("L", self.L)
        _mean_photon_number("mu", self.mu, interval="(0, inf)")
        _block_photon_mean(self.L, self.mu)
        _probability("p1", self.p1, interval="(0, 1)")
        _item_count("n_blocks", self.n_blocks)
        _seed("seed", self.seed)

    @property
    def p0(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class ChannelModel:
    """Channel and receiver imperfections.

    eta is the overall transmission including detector efficiency; p_dark a
    per-detector per-valid-timing dark-click probability; e_mis a fixed
    extra phase on the interferometer's long arm, in radians, producing a
    basis-symmetric error rate sin^2(e_mis/2) on weak pulses; p_flip an
    optional direct bit-flip probability applied to the measured bit.
    """

    eta: float
    p_dark: float = 0.0
    e_mis: float = 0.0
    p_flip: float = 0.0

    def __post_init__(self):
        _probability("eta", self.eta)
        _probability("p_dark", self.p_dark, interval="[0, 1)")
        _check_real("e_mis", self.e_mis, "[0, 0.5)")
        _probability("p_flip", self.p_flip, interval="[0, 0.5)")


@dataclass(frozen=True)
class ObservedStats:
    """Aggregated counters and the derived empirical estimates.

    Q_hat, E0_hat are normalized by n_rep * p0^2 and E1_hat by n_rep * p1^2.
    Q_hat stays raw, even where noise lifts it above 1 (see estimate_key_rate).
    Delta_hat is tagged_data / sifted_data (0 when nothing was sifted).
    The tagging of those blocks is drawn independently of their clicks, so
    it estimates rtag, not the larger tagged share of the sifted key that a
    passive channel gives (a block that clicked emitted a photon).  It is a
    diagnostic only: no receiver can observe which rounds were tagged.
    j_hist_d0/d1 count the detection timing j in 0..L-1 split by the
    measurement basis d.
    """

    n_rep: int
    sifted_data: int
    errors_data: int
    sifted_check: int
    errors_check: int
    tagged_data: int
    Q_hat: float
    E0_hat: float
    E1_hat: float
    Delta_hat: float
    j_hist_d0: tuple[int, ...]
    j_hist_d1: tuple[int, ...]


def detection_means(
    params: ProtocolParams,
    channel: ChannelModel,
    a_bits: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
) -> np.ndarray:
    """Mean photon number per valid timing and detector.

    a_bits has shape (n, P) (or (P,) for a single block), c and d are the
    basis bits.  The pulse count P, and so the P - 1 timings, come from the
    last axis, not from params, which supplies only mu.  Pulse l carries
    phase a_l*pi + (pi/2)*l*c; the receiver offsets the interfering pair by
    (pi/2)*d plus the misalignment phase.  Detector 0 is the constructive
    port at zero relative phase.  The two detector means always sum to
    mu*eta.
    """
    a = np.atleast_2d(np.asarray(a_bits))
    c_arr = np.atleast_1d(np.asarray(c))
    d_arr = np.atleast_1d(np.asarray(d))
    # pulse-major (P, n): each step runs down the blocks, not along a row of
    # P pulses; a bool basis bit enters a product as exactly 1.0 or 0.0
    phase = 0.5 * np.pi * np.arange(a.shape[-1])
    theta = a.T * np.pi + phase[:, None] * c_arr
    relative = (theta[1:] - theta[:-1]) - 0.5 * np.pi * d_arr - channel.e_mis
    cos_rel = np.cos(relative).T
    means = np.empty(cos_rel.shape + (2,))
    np.add(1.0, cos_rel, out=means[..., 0])
    np.subtract(1.0, cos_rel, out=means[..., 1])
    means *= 0.5 * params.mu * channel.eta
    return means


def _measured_bit(log_q: np.ndarray, u, tie, flip) -> np.ndarray:
    """The bit read at a timing known to click, from (k, 2) log q_s.

    Detector s stays dark with probability q_s = e^{-m_s} (1 - p_dark).
    Given a click, x = u (p_0 + q_0 p_1) falls below p_0 p_1 for a double
    click, whose bit is the tie draw; otherwise the bit is 1 exactly when
    detector 0 stays dark, x >= p_0 p_1 + p_0 q_1.  flip inverts the bit.
    """
    q, p = np.exp(log_q), -np.expm1(log_q)
    both = p[:, 0] * p[:, 1]
    x = u * (p[:, 0] + q[:, 0] * p[:, 1])
    return np.where(x < both, tie, x >= both + p[:, 0] * q[:, 1]) ^ flip


def _draw_tagged(L: int, mu: float, rng: np.random.Generator, m: int) -> np.ndarray:
    """Whether each of m blocks emits two photons in one or adjacent pulses.

    The photon total is Poisson(mu*L) and, given it, the photons land in
    uniform independent pulses.  A total above ceil(L/2) cannot avoid
    adjacency, so positions are drawn only for totals in 2..ceil(L/2).
    """
    total = rng.poisson(mu * L, size=m)
    tagged = total > (L + 1) // 2
    open_ = np.flatnonzero((total >= 2) & ~tagged)
    owner = np.repeat(open_, total[open_])
    key = np.sort(owner * L + rng.integers(0, L, size=owner.size))
    owner = key // L
    close = (np.diff(key) <= 1) & (owner[1:] == owner[:-1])
    tagged[owner[1:][close]] = True
    return tagged


def _click_law(params: ProtocolParams, channel: ChannelModel) -> tuple[float, float, float]:
    """log q_dark, log p_none and p_click = 1 - p_none^(L-1), once per run."""
    log_q_dark = math.log1p(-channel.p_dark)
    log_p_none = -params.mu * channel.eta + 2.0 * log_q_dark
    return log_q_dark, log_p_none, -math.expm1((params.L - 1) * log_p_none)


def _simulate_batch(
    params: ProtocolParams, channel: ChannelModel, law, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Simulate n blocks and return their counts as one int64 vector.

    law is the run's _click_law.  The vector holds the sifted and erroneous
    data-basis blocks, the same for the check basis and the tagged
    data-sifted blocks, then the histograms of j for d = 0 and d = 1, L bins
    each.  Draw order is fixed: the number k of clicked blocks; for those k
    blocks, one uniform each for the first click j, then c, d, the bit pair
    at j, the outcome uniform, tie bits and flip draws; the number of dark
    blocks with d = 1; last the tagging of the data-sifted blocks.  Nothing
    is drawn per dark block.

    T = j - 1 is geometric, P(T >= t) = p_none^t, conditioned on a click,
    T < L - 1; inverting that law gives T = floor(log(1 - u p_click) /
    log p_none), which rounding can lift to L - 1, hence the clip.
    """
    L = params.L
    log_q_dark, log_p_none, p_click = law
    k = rng.binomial(n, p_click)
    # k = 0 whenever p_none = 1, so log_p_none = 0 divides nothing
    t = np.log1p(-p_click * rng.random(k)) / log_p_none
    j = np.minimum(t, L - 2).astype(np.int64) + 1
    c = rng.random(k) < params.p1
    d = rng.random(k) < params.p1
    bits = rng.integers(0, 2, size=(k, 2), dtype=np.int8)
    # the relative phase of a pulse pair does not depend on its timing
    means = detection_means(params, channel, bits, c, d)[:, 0]
    u = rng.random(k)
    tie = rng.integers(0, 2, size=k, dtype=np.int8)
    flip = rng.random(k) < channel.p_flip
    error = (bits[:, 0] ^ bits[:, 1]) != _measured_bit(log_q_dark - means, u, tie, flip)
    dark_d1 = rng.binomial(n - k, params.p1)

    data = ~c & ~d
    check = c & d
    n_data = np.count_nonzero(data)
    hists = np.bincount(j + L * d, minlength=2 * L).reshape(2, L)
    # bin 0 of each basis holds its blocks that never clicked
    hists[:, 0] = (n - k - dark_d1, dark_d1)
    tagged = _draw_tagged(L, params.mu, rng, n_data)
    return np.concatenate((
        [n_data, np.count_nonzero(data & error), np.count_nonzero(check),
         np.count_nonzero(check & error), np.count_nonzero(tagged)],
        hists.ravel(),
    ))


def _batch_size(n: int, share: float) -> int:
    """Items per batch: BATCH_BLOCKS, more where few of them draw, at most n.

    share is the expected fraction of items that the kernel draws for.  A
    batch past BATCH_BLOCKS items expects at most _BATCH_WORK of them.
    """
    if share * n <= _BATCH_WORK:
        return n
    return min(n, max(BATCH_BLOCKS, int(_BATCH_WORK / share)))


def run_batches(seed: int, n: int, n_jobs: int, kernel, share: float) -> list:
    """Run kernel(rng, size) over n items cut into batches by expected work.

    share is the expected fraction of the items that the kernel draws for
    (clicked blocks, kept trains); see _batch_size.  The cut depends on n
    and share alone.  Batch i draws from child i of SeedSequence(seed),
    made when the batch runs.  Batches run serially or on n_jobs threads,
    thread w running batches w, w + n_jobs, ... so that none waits queued;
    the results come back in batch order, whatever the thread count.
    """
    _seed("seed", seed)
    _positive_count("n_jobs", n_jobs)
    cut = _batch_size(n, share)
    n_batches = -(-n // cut)
    lanes = min(n_jobs, n_batches)

    def run(i):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        return kernel(np.random.default_rng(child), min(cut, n - i * cut))

    def lane(w):
        return [run(i) for i in range(w, n_batches, lanes)]

    if lanes == 1:
        return lane(0)
    # imported here: it costs every import of dqps a few ms, and only a
    # run of two or more lanes needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=lanes) as pool:
        results = list(pool.map(lane, range(lanes)))
    return [results[i % lanes][i // lanes] for i in range(n_batches)]


def run_simulation(
    params: ProtocolParams, channel: ChannelModel, n_jobs: int = 1
) -> ObservedStats:
    """Simulate params.n_blocks rounds and aggregate the sifted statistics.

    Deterministic for a fixed seed: ``run_batches`` partitions the blocks by
    their expected clicks, and the batches' count vectors add up in batch
    order whatever the thread count.
    """
    law = _click_law(params, channel)
    p_click = law[2]
    kernel = partial(_simulate_batch, params, channel, law)
    batches = run_batches(params.seed, params.n_blocks, n_jobs, kernel, share=p_click)
    counts = sum(batches).tolist()
    sifted_data, errors_data, sifted_check, errors_check, tagged_data = counts[:5]

    if sifted_check < 100:
        warnings.warn(
            f"only {sifted_check} check-basis detections; error estimate is noise",
            ThinStatisticsWarning,
            stacklevel=2,
        )
    norm_data = params.n_blocks * params.p0 ** 2
    norm_check = params.n_blocks * params.p1 ** 2
    return ObservedStats(
        n_rep=params.n_blocks,
        sifted_data=sifted_data,
        errors_data=errors_data,
        sifted_check=sifted_check,
        errors_check=errors_check,
        tagged_data=tagged_data,
        Q_hat=sifted_data / norm_data,
        E0_hat=errors_data / norm_data,
        # a tiny p1 underflows norm_check to 0; no check errors read as 0
        E1_hat=errors_check / norm_check if errors_check else 0.0,
        Delta_hat=tagged_data / sifted_data if sifted_data else 0.0,
        j_hist_d0=tuple(counts[5:5 + params.L]),
        j_hist_d1=tuple(counts[5 + params.L:]),
    )


def estimate_key_rate(stats: ObservedStats, params: ProtocolParams) -> KeyRateReport:
    """Key rate from simulated estimates.

    Uses the closed-form tagging probability for (L, mu): the tagged
    fraction is not observable in the protocol, so Delta_hat never enters
    the rate.  Noise lifts the estimate Q_hat above 1 near saturation, so
    the rate reads it clipped to 1.  Other statistical pathologies (for
    example E1_hat above Q_hat on a tiny sample) surface as ParameterError
    from the input validation.
    """
    if stats.Q_hat <= 0.0:
        raise ParameterError("Q_hat", "no detections; key rate undefined")
    inputs = RateInputs(
        L=params.L,
        mu=params.mu,
        p0=params.p0,
        Q=min(stats.Q_hat, 1.0),
        E0=stats.E0_hat,
        E1=stats.E1_hat,
    )
    return key_rate(inputs)
