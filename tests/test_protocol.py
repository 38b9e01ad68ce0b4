import math
import warnings

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from dqps import (
    ChannelModel,
    ParameterError,
    ProtocolParams,
    TagParams,
    ThinStatisticsWarning,
    channel_q,
    detection_means,
    estimate_key_rate,
    key_rate,
    rtag_coherent,
    run_simulation,
)
from dqps.keyrate import RateInputs
from dqps.protocol import BATCH_BLOCKS, _simulate_batch


def dense_reference_batch(params, channel, rng, n):
    """Statistical reference: the direct O(n*L) simulation of n blocks.

    Draws every pulse bit, every signal and dark click at every timing and
    every pulse's photon number, then keeps the first clicked timing.
    Returns the same counters as the batch kernel.
    """
    L = params.L
    c = rng.random(n) < params.p1
    d = rng.random(n) < params.p1
    a = rng.integers(0, 2, size=(n, L), dtype=np.int8)

    means = detection_means(params, channel, a, c, d)
    signal = rng.poisson(means) >= 1
    dark = rng.random((n, L - 1, 2)) < channel.p_dark
    clicks = signal | dark

    tie = rng.integers(0, 2, size=n, dtype=np.int8)
    flip = rng.random(n) < channel.p_flip
    emitted = rng.poisson(params.mu, size=(n, L))

    any_click = clicks.any(axis=2)
    has_click = any_click.any(axis=1)
    t = np.argmax(any_click, axis=1)  # first clicked timing index, j = t + 1
    j = np.where(has_click, t + 1, 0)

    rows = np.arange(n)
    click0 = clicks[rows, t, 0]
    click1 = clicks[rows, t, 1]
    b = np.where(click0 & click1, tie, click1.astype(np.int8))
    b = b ^ flip.astype(np.int8)
    a_key = a[rows, t] ^ a[rows, t + 1]  # t <= L-2 always

    tagged = (emitted >= 2).any(axis=1)
    tagged |= ((emitted[:, :-1] + emitted[:, 1:]) >= 2).any(axis=1)

    error = a_key != b
    data = ~c & ~d & has_click
    check = c & d & has_click
    return (
        int(data.sum()),
        int((data & error).sum()),
        int(check.sum()),
        int((check & error).sum()),
        int((data & tagged).sum()),
        np.bincount(j[~d], minlength=L),
        np.bincount(j[d], minlength=L),
    )


def quiet_run(params, channel, n_jobs=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinStatisticsWarning)
        return run_simulation(params, channel, n_jobs=n_jobs)


def test_params_validation():
    with pytest.raises(ParameterError, match="'L'"):
        ProtocolParams(L=1, mu=0.1, p1=0.5, n_blocks=10, seed=0)
    with pytest.raises(ParameterError, match="'mu'"):
        ProtocolParams(L=2, mu=0.0, p1=0.5, n_blocks=10, seed=0)
    with pytest.raises(ParameterError, match="'p1'"):
        ProtocolParams(L=2, mu=0.1, p1=1.0, n_blocks=10, seed=0)
    with pytest.raises(ParameterError, match="'n_blocks'"):
        ProtocolParams(L=2, mu=0.1, p1=0.5, n_blocks=True, seed=0)
    with pytest.raises(ParameterError, match="'seed'"):
        ProtocolParams(L=2, mu=0.1, p1=0.5, n_blocks=10, seed=-1)
    with pytest.raises(ParameterError, match="'seed'"):
        ProtocolParams(L=2, mu=0.1, p1=0.5, n_blocks=10, seed=True)
    with pytest.raises(ParameterError, match="'e_mis'"):
        ChannelModel(eta=0.5, e_mis=0.6)
    with pytest.raises(ParameterError, match="'p_dark'"):
        ChannelModel(eta=0.5, p_dark=1.0)


def test_detection_means_conserve_flux():
    params = ProtocolParams(L=6, mu=0.08, p1=0.5, n_blocks=1, seed=0)
    channel = ChannelModel(eta=0.7, e_mis=0.3)
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2, size=(40, 6))
    c = rng.integers(0, 2, size=40)
    d = rng.integers(0, 2, size=40)
    means = detection_means(params, channel, a, c, d)
    assert means.shape == (40, 5, 2)
    assert means.min() >= 0.0
    total = means.sum(axis=2)
    assert np.allclose(total, params.mu * channel.eta, atol=1e-12)


def test_detection_means_matched_basis_routes_to_key_bit():
    # with aligned bases all light exits the port named by the key bit
    params = ProtocolParams(L=5, mu=0.1, p1=0.5, n_blocks=1, seed=0)
    channel = ChannelModel(eta=1.0)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=(30, 5))
    for basis in (0, 1):
        c = np.full(30, basis)
        means = detection_means(params, channel, a, c, c)
        bits = a[:, :-1] ^ a[:, 1:]
        rows = np.arange(30)[:, None]
        cols = np.arange(4)[None, :]
        on_port = means[rows, cols, bits]
        off_port = means[rows, cols, 1 - bits]
        assert np.allclose(on_port, params.mu, atol=1e-9)
        assert np.allclose(off_port, 0.0, atol=1e-9)


def test_detection_means_mismatched_basis_splits_evenly():
    params = ProtocolParams(L=4, mu=0.2, p1=0.5, n_blocks=1, seed=0)
    channel = ChannelModel(eta=0.6)
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2, size=(20, 4))
    c = np.zeros(20, dtype=int)
    d = np.ones(20, dtype=int)
    means = detection_means(params, channel, a, c, d)
    assert np.allclose(means, 0.5 * params.mu * channel.eta, atol=1e-12)


def test_detection_means_detector_swap_is_alternating_flip():
    # adding pi to every difference phase relabels the two output ports
    params = ProtocolParams(L=6, mu=0.05, p1=0.5, n_blocks=1, seed=0)
    channel = ChannelModel(eta=0.9, e_mis=0.15)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, size=(25, 6))
    c = rng.integers(0, 2, size=25)
    d = rng.integers(0, 2, size=25)
    flipped = a ^ (np.arange(6) % 2)
    direct = detection_means(params, channel, a, c, d)
    swapped = detection_means(params, channel, flipped, c, d)
    assert np.allclose(direct, swapped[:, :, ::-1], atol=1e-12)


def test_run_simulation_counters_are_consistent():
    params = ProtocolParams(L=5, mu=0.3, p1=0.4, n_blocks=BATCH_BLOCKS + 17, seed=9)
    stats = quiet_run(params, ChannelModel(eta=0.8))
    n = params.n_blocks
    assert stats.n_rep == n
    assert sum(stats.j_hist_d0) + sum(stats.j_hist_d1) == n
    assert stats.errors_data <= stats.sifted_data
    assert stats.errors_check <= stats.sifted_check
    assert stats.tagged_data <= stats.sifted_data
    assert stats.Q_hat == pytest.approx(stats.sifted_data / (n * 0.6**2))
    assert stats.E1_hat == pytest.approx(stats.errors_check / (n * 0.4**2))


def test_run_simulation_deterministic_across_jobs():
    params = ProtocolParams(L=4, mu=0.05, p1=0.5, n_blocks=3 * BATCH_BLOCKS, seed=42)
    channel = ChannelModel(eta=0.3, p_dark=1e-4)
    serial = quiet_run(params, channel, n_jobs=1)
    threaded = quiet_run(params, channel, n_jobs=4)
    assert serial == threaded
    again = quiet_run(params, channel, n_jobs=4)
    assert serial == again


def test_noiseless_run_has_no_errors():
    params = ProtocolParams(L=8, mu=0.1, p1=0.5, n_blocks=40000, seed=1)
    stats = quiet_run(params, ChannelModel(eta=0.5))
    assert stats.errors_data == 0
    assert stats.errors_check == 0
    assert stats.sifted_data > 0


def test_yield_matches_channel_model():
    params = ProtocolParams(L=6, mu=0.04, p1=0.5, n_blocks=200000, seed=2)
    channel = ChannelModel(eta=0.25)
    stats = quiet_run(params, channel)
    expected = channel_q(params.L, params.mu, channel.eta)
    sigma = math.sqrt(expected / (params.n_blocks * 0.25))
    assert abs(stats.Q_hat - expected) < 3 * sigma


def test_misalignment_phase_sets_error_rate():
    delta = 0.4
    params = ProtocolParams(L=4, mu=0.1, p1=0.5, n_blocks=150000, seed=3)
    stats = quiet_run(params, ChannelModel(eta=0.5, e_mis=delta))
    expected = math.sin(delta / 2) ** 2
    observed = stats.errors_data / stats.sifted_data
    sigma = math.sqrt(expected / stats.sifted_data)
    assert abs(observed - expected) < 3 * sigma
    # both bases suffer the same phase error
    observed_check = stats.errors_check / stats.sifted_check
    sigma_check = math.sqrt(expected / stats.sifted_check)
    assert abs(observed_check - expected) < 3 * sigma_check


def test_bit_flip_channel_sets_error_rate():
    params = ProtocolParams(L=3, mu=0.2, p1=0.5, n_blocks=100000, seed=4)
    stats = quiet_run(params, ChannelModel(eta=0.5, p_flip=0.25))
    observed = stats.errors_data / stats.sifted_data
    sigma = math.sqrt(0.25 / stats.sifted_data)
    assert abs(observed - 0.25) < 3 * sigma


def test_dark_counts_alone_still_click():
    params = ProtocolParams(L=4, mu=0.01, p1=0.5, n_blocks=120000, seed=5)
    stats = quiet_run(params, ChannelModel(eta=0.0, p_dark=0.01))
    # all clicks are dark, so bits are coin flips against the sender's key
    expected_q = 1 - (1 - 0.01) ** (2 * 3)
    sigma = math.sqrt(expected_q / (params.n_blocks * 0.25))
    assert abs(stats.Q_hat - expected_q) < 3 * sigma
    ratio = stats.errors_data / stats.sifted_data
    assert abs(ratio - 0.5) < 3 * math.sqrt(0.25 / stats.sifted_data)


def test_tagged_fraction_tracks_rtag():
    params = ProtocolParams(L=3, mu=0.3, p1=0.5, n_blocks=120000, seed=6)
    stats = quiet_run(params, ChannelModel(eta=1.0))
    rtag = rtag_coherent(TagParams(params.L, params.mu))
    sigma = math.sqrt(rtag * (1 - rtag) / stats.sifted_data)
    assert abs(stats.Delta_hat - rtag) < 3 * sigma


def test_thin_statistics_warning():
    params = ProtocolParams(L=2, mu=0.001, p1=0.5, n_blocks=1000, seed=7)
    with pytest.warns(ThinStatisticsWarning):
        run_simulation(params, ChannelModel(eta=0.01))


def test_estimate_key_rate_consistency():
    params = ProtocolParams(L=10, mu=0.02, p1=0.5, n_blocks=300000, seed=8)
    stats = quiet_run(params, ChannelModel(eta=0.5))
    report = estimate_key_rate(stats, params)
    inputs = RateInputs(
        L=params.L, mu=params.mu, p0=0.5,
        Q=stats.Q_hat, E0=stats.E0_hat, E1=stats.E1_hat,
    )
    direct = key_rate(inputs, rtag_override=rtag_coherent(TagParams(10, 0.02)))
    assert report == direct
    assert report.rate_per_pulse > 0.0


def test_estimate_key_rate_requires_detections():
    params = ProtocolParams(L=2, mu=0.001, p1=0.5, n_blocks=100, seed=9)
    stats = quiet_run(params, ChannelModel(eta=0.0))
    with pytest.raises(ParameterError, match="Q_hat"):
        estimate_key_rate(stats, params)


KERNEL_SETTINGS = [
    (5, 0.3, dict(eta=0.8, p_dark=0.01, e_mis=0.3, p_flip=0.05)),
    (20, 0.005, dict(eta=0.01, p_dark=1e-4)),
    (3, 2.0, dict(eta=1.0)),
    (4, 0.1, dict(eta=0.0, p_dark=0.01)),
]


@pytest.mark.parametrize("L, mu, channel_kw", KERNEL_SETTINGS)
def test_batch_kernel_matches_dense_reference(L, mu, channel_kw):
    n = 100_000
    params = ProtocolParams(L=L, mu=mu, p1=0.5, n_blocks=n, seed=0)
    channel = ChannelModel(**channel_kw)
    kernel = _simulate_batch(params, channel, np.random.default_rng(31), n)
    dense = dense_reference_batch(params, channel, np.random.default_rng(32), n)

    def tables(counters):
        sd, ed, sc, ec, tg, h0, h1 = counters
        # disjoint outcome classes of a block, then tagging of the sifted key
        classes = [sd - ed, ed, sc - ec, ec, n - sd - sc]
        return np.concatenate([h0, h1]), classes, [tg, sd - tg]

    p_values = []
    for new, ref in zip(tables(kernel), tables(dense)):
        table = np.array([new, ref])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] > 1:
            p_values.append(chi2_contingency(table).pvalue)
    assert len(p_values) >= 2
    assert min(p_values) > 1e-3, (p_values, kernel, dense)


@pytest.mark.parametrize("L, mu, channel_kw", KERNEL_SETTINGS)
def test_first_click_follows_truncated_geometric_law(L, mu, channel_kw):
    # a timing stays dark with p_none whatever the bits, so j is geometric
    # in 1..L-1 and 0 when all L-1 timings stay dark
    params = ProtocolParams(L=L, mu=mu, p1=0.5, n_blocks=200_000, seed=0)
    channel = ChannelModel(**channel_kw)
    stats = quiet_run(params, channel)
    p_none = math.exp(-mu * channel.eta) * (1.0 - channel.p_dark) ** 2
    law = [p_none ** (L - 1)] + [
        p_none ** (k - 1) * (1.0 - p_none) for k in range(1, L)
    ]
    observed = np.add(stats.j_hist_d0, stats.j_hist_d1)
    expected = params.n_blocks * np.array(law)
    assert chisquare(observed, expected).pvalue > 1e-3, (observed, expected)


def test_degenerate_channels():
    # eta = 0 without dark counts: p_none = 1, the kernel must not divide by 0
    params = ProtocolParams(L=6, mu=0.1, p1=0.5, n_blocks=BATCH_BLOCKS + 5, seed=12)
    dark_free = ChannelModel(eta=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stats = quiet_run(params, dark_free)
    assert stats.Q_hat == 0.0 and stats.sifted_check == 0
    assert stats.j_hist_d0[0] + stats.j_hist_d1[0] == params.n_blocks

    # mu * eta >= 50: the first timing always clicks
    bright = ProtocolParams(L=6, mu=50.0, p1=0.5, n_blocks=BATCH_BLOCKS + 5, seed=13)
    stats = quiet_run(bright, ChannelModel(eta=1.0))
    assert stats.j_hist_d0[1] + stats.j_hist_d1[1] == bright.n_blocks
    assert stats.tagged_data == stats.sifted_data
