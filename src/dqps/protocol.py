"""Photon-level Monte Carlo of the block protocol.

Each round prepares an L-pulse phase-randomized coherent block with per-pulse
bits a_l and basis c, sends it through a lossy channel into a one-pulse-delay
interferometer, and applies threshold detectors at the L-1 valid timings.
Because such light produces independent Poissonian clicks per output mode,
the simulator draws clicks from per-timing mean photon numbers instead of
propagating amplitudes; this is exact for the modeled source and detectors.

The receiver keeps only the first clicked timing, and the two detector means
always sum to mu*eta, so a timing stays dark with probability
p_none = e^{-mu*eta} (1 - p_dark)^2 whatever the bits and bases.  The first
click j is therefore a truncated geometric draw, and only the clicked blocks
need their two bits and a detector outcome.  Tagging is independent of the
clicks and is drawn only for the data-sifted blocks, the only ones a
counter reads.  The cost per block does not grow with L.

``run_batches`` is the one seeded batch runner, shared with the calibration
benches: work is cut into fixed-size batches of ``BATCH_BLOCKS``, every
batch owns an RNG stream spawned from (seed, batch index) and consumes it
in a fixed order, so results are bit-identical for a given seed regardless
of thread count.  Changing ``BATCH_BLOCKS`` would select a different
(equally valid) random stream.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (
    ParameterError, ThinStatisticsWarning, _block_length, _check_real,
    _mean_photon_number, _positive_count, _probability, _seed,
)
from .keyrate import KeyRateReport, RateInputs, key_rate
from .tagging import TagParams, rtag_coherent

BATCH_BLOCKS = 32768


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
        _probability("p1", self.p1, interval="(0, 1)")
        _positive_count("n_blocks", self.n_blocks)
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
    Delta_hat is the tagged fraction of the sifted data-basis key (0 when
    nothing was sifted); it is a diagnostic only, since no receiver can
    observe which rounds were tagged.  j_hist_d0/d1 count the detection
    timing j in 0..L-1 split by the measurement basis d.
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

    a_bits has shape (n, L) (or (L,) for a single block), c and d are the
    basis bits.  Pulse l carries phase a_l*pi + (pi/2)*l*c; the receiver
    offsets the interfering pair by (pi/2)*d plus the misalignment phase.
    Detector 0 is the constructive port at zero relative phase.  The two
    detector means always sum to mu*eta.
    """
    a = np.atleast_2d(np.asarray(a_bits))
    c_arr = np.atleast_1d(np.asarray(c)).astype(np.float64)
    d_arr = np.atleast_1d(np.asarray(d)).astype(np.float64)
    pulse_idx = np.arange(params.L)
    theta = a * np.pi + 0.5 * np.pi * pulse_idx * c_arr[:, None]
    relative = np.diff(theta, axis=1) - 0.5 * np.pi * d_arr[:, None] - channel.e_mis
    base = 0.5 * params.mu * channel.eta
    cos_rel = np.cos(relative)
    return np.stack([base * (1.0 + cos_rel), base * (1.0 - cos_rel)], axis=-1)


def _first_click(L: int, log_p_none: float, u: np.ndarray) -> np.ndarray:
    """First clicked timing j in 1..L-1 per block, 0 for none.

    T = floor(log U / log p_none) is geometric with P(T >= k) = p_none^k,
    the chance that timings 1..k all stay dark; j = T + 1 when T < L - 1.
    U = 1 - u lies in (0, 1], so log U is finite.
    """
    j = np.zeros(u.size, dtype=np.int64)
    if log_p_none < 0.0:  # p_none = 1 (eta = p_dark = 0) never clicks
        log_u = np.log(1.0 - u)
        hit = log_u > (L - 1) * log_p_none  # T < L - 1, without overflow
        j[hit] = np.minimum(log_u[hit] / log_p_none, L - 2).astype(np.int64) + 1
    return j


def _click_pattern(log_q_dark: float, means: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(k, 2) clicks of the two detectors at a timing known to click.

    Detector s stays dark with probability q_s = e^{-m_s} (1 - p_dark); the
    outcome {both, only 0, only 1} is drawn from its law conditional on at
    least one click, whose total is p_0 + q_0 p_1.
    """
    q = np.exp(log_q_dark - means)
    p = -np.expm1(log_q_dark - means)
    both = p[:, 0] * p[:, 1]
    with_0 = both + p[:, 0] * q[:, 1]
    x = u * (p[:, 0] + q[:, 0] * p[:, 1])
    return np.stack([x < with_0, (x < both) | (x >= with_0)], axis=-1)


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


def _simulate_batch(
    params: ProtocolParams,
    channel: ChannelModel,
    rng: np.random.Generator,
    n: int,
) -> tuple:
    """Simulate n blocks and return their seven counters.

    The counters are the sifted and erroneous data-basis blocks, the same
    for the check basis, the tagged data-sifted blocks, and the histograms
    of j for d = 0 and d = 1.  Draw order is fixed: c and d for every
    block, one uniform per block for the first click j, then for the k
    clicked blocks the bit pair at j, the detector outcome, tie bits and
    flip draws, and last the tagging of the data-sifted blocks.  Only O(n)
    values are drawn, whatever L.
    """
    L = params.L
    c = rng.random(n) < params.p1
    d = rng.random(n) < params.p1
    log_q_dark = math.log1p(-channel.p_dark)
    j = _first_click(L, -params.mu * channel.eta + 2.0 * log_q_dark, rng.random(n))

    hit = np.flatnonzero(j)
    k = hit.size
    c_hit, d_hit = c[hit], d[hit]
    bits = rng.integers(0, 2, size=(k, 2), dtype=np.int8)
    # the relative phase of a pulse pair does not depend on its timing
    means = detection_means(replace(params, L=2), channel, bits, c_hit, d_hit)
    pattern = _click_pattern(log_q_dark, means[:, 0], rng.random(k))
    tie = rng.integers(0, 2, size=k, dtype=np.int8)
    flip = rng.random(k) < channel.p_flip
    b = np.where(pattern[:, 0] & pattern[:, 1], tie, pattern[:, 1].astype(np.int8))
    b = b ^ flip.astype(np.int8)
    error = (bits[:, 0] ^ bits[:, 1]) != b

    data = ~c_hit & ~d_hit
    check = c_hit & d_hit
    n_data = int(data.sum())
    return (
        n_data,
        int((data & error).sum()),
        int(check.sum()),
        int((check & error).sum()),
        int(_draw_tagged(L, params.mu, rng, n_data).sum()),
        np.bincount(j[~d], minlength=L),
        np.bincount(j[d], minlength=L),
    )


def run_batches(seed: int, n: int, n_jobs: int, kernel) -> list:
    """Run kernel(rng, size) over n items cut into BATCH_BLOCKS-sized batches.

    Batch i gets child i of SeedSequence(seed); batches run serially or on
    n_jobs threads, and the results come back in batch order, so they do
    not depend on the thread count.
    """
    _seed("seed", seed)
    _positive_count("n_jobs", n_jobs)
    n_batches = (n + BATCH_BLOCKS - 1) // BATCH_BLOCKS
    children = np.random.SeedSequence(seed).spawn(n_batches)
    sizes = [min(BATCH_BLOCKS, n - i * BATCH_BLOCKS) for i in range(n_batches)]

    def run(child, size):
        return kernel(np.random.default_rng(child), size)

    if n_jobs == 1:
        return list(map(run, children, sizes))
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(run, children, sizes))


def run_simulation(
    params: ProtocolParams, channel: ChannelModel, n_jobs: int = 1
) -> ObservedStats:
    """Simulate params.n_blocks rounds and aggregate the sifted statistics.

    Deterministic for a fixed seed: ``run_batches`` partitions the blocks,
    and the counters fold in batch order whatever the thread count.
    """
    kernel = partial(_simulate_batch, params, channel)
    results = run_batches(params.seed, params.n_blocks, n_jobs, kernel)
    sifted_data, errors_data, sifted_check, errors_check, tagged_data, h0, h1 = (
        sum(column) for column in zip(*results)
    )

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
        E1_hat=errors_check / norm_check,
        Delta_hat=tagged_data / sifted_data if sifted_data else 0.0,
        j_hist_d0=tuple(int(x) for x in h0),
        j_hist_d1=tuple(int(x) for x in h1),
    )


def estimate_key_rate(stats: ObservedStats, params: ProtocolParams) -> KeyRateReport:
    """Key rate from simulated estimates.

    Uses the closed-form tagging probability for (L, mu): the tagged
    fraction is not observable in the protocol, so Delta_hat never enters
    the rate.  Statistical pathologies (for example E1_hat above Q_hat on
    a tiny sample) surface as ParameterError from the input validation.
    """
    if stats.Q_hat <= 0.0:
        raise ParameterError("Q_hat", "no detections; key rate undefined")
    rtag = rtag_coherent(TagParams(params.L, params.mu))
    inputs = RateInputs(
        L=params.L,
        mu=params.mu,
        p0=params.p0,
        Q=stats.Q_hat,
        E0=stats.E0_hat,
        E1=stats.E1_hat,
    )
    return key_rate(inputs, rtag_override=rtag)
