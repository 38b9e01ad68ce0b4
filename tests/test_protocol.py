import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

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
from dqps.errors import _POISSON_MEAN_MAX
from dqps.keyrate import RateInputs
from dqps.protocol import (
    _BATCH_WORK, BATCH_BLOCKS, _batch_size, _click_law, _measured_bit, run_batches,
)


def protocol_law(params, channel):
    """Exact law of one block's counters in run_simulation.

    A timing stays dark with p_none = e^{-mu eta} (1 - p_dark)^2, so the
    first click j is truncated-geometric and independent of d.  At a clicked
    matched-basis timing the right port has the mean mu eta cos^2(e_mis/2)
    and the wrong one mu eta sin^2(e_mis/2), each dark with
    q = e^{-m} (1 - p_dark); a double click is a coin flip, and flips turn
    the error e into e + p_flip (1 - 2e).  Tags follow rtag_coherent.
    Returns the cell probabilities of j_hist_d0 + j_hist_d1, of the classes
    (data right, data wrong, check right, check wrong, not sifted) and of
    [tagged, untagged] among the data-sifted blocks.
    """
    L, mu_eta, p_dark = params.L, params.mu * channel.eta, channel.p_dark
    p_none = math.exp(-mu_eta) * (1.0 - p_dark) ** 2
    j_law = [p_none ** (L - 1)] + [p_none ** (k - 1) * (1 - p_none) for k in range(1, L)]
    Q = 1.0 - j_law[0]
    q_right, q_wrong = (
        math.exp(-mu_eta * port(channel.e_mis / 2) ** 2) * (1.0 - p_dark)
        for port in (math.cos, math.sin)
    )
    e = (1 - q_wrong) * (q_right + (1 - q_right) / 2) / (1 - q_right * q_wrong)
    e += channel.p_flip * (1 - 2 * e)
    data, check = params.p0**2 * Q, params.p1**2 * Q
    rtag = rtag_coherent(TagParams(L, params.mu))
    return (
        np.multiply.outer([params.p0, params.p1], j_law).ravel(),
        [data * (1 - e), data * e, check * (1 - e), check * e, 1 - data - check],
        [rtag, 1 - rtag],
    )


def assert_fits(observed, law):
    """One-sample chi-square test of counts against their cell probabilities.

    A cell of probability 0 must stay empty, and leaves the test.
    """
    observed, law = np.asarray(observed), np.asarray(law, dtype=float)
    assert law.min() >= 0.0 and abs(law.sum() - 1.0) < 1e-12, law
    empty = law == 0.0
    assert not observed[empty].any(), (observed, law)
    expected = observed.sum() * law[~empty] / law[~empty].sum()
    p_value = chisquare(observed[~empty], expected).pvalue
    assert p_value > 1e-3, (p_value, observed, expected)


def batched(params, channel, batches, extra=17):
    """params with blocks for that many full batches and a last one of extra blocks."""
    cut = _batch_size(2**62, _click_law(params, channel)[2])
    return dataclasses.replace(params, n_blocks=batches * cut + extra)


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


def test_params_refuse_a_block_mean_numpy_cannot_draw():
    # a block's photon total is Poisson(mu * L); numpy refuses means above ~9.22e18
    for L, mu in ((2, 1e308), (10, 1e18), (2, np.nextafter(_POISSON_MEAN_MAX / 2, 1e300))):
        with pytest.raises(ParameterError, match="'mu': mu \\* L must be at most"):
            ProtocolParams(L=L, mu=mu, p1=0.5, n_blocks=10, seed=0)
    # the largest block mean still draws
    params = ProtocolParams(L=2, mu=_POISSON_MEAN_MAX / 2, p1=0.5, n_blocks=10, seed=0)
    assert quiet_run(params, ChannelModel(eta=1.0)).n_rep == 10


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
    channel = ChannelModel(eta=0.8)
    params = batched(ProtocolParams(L=5, mu=0.3, p1=0.4, n_blocks=1, seed=9), channel, 2)
    stats = quiet_run(params, channel)
    n = params.n_blocks
    assert stats.n_rep == n
    assert sum(stats.j_hist_d0) + sum(stats.j_hist_d1) == n
    assert stats.errors_data <= stats.sifted_data
    assert stats.errors_check <= stats.sifted_check
    assert stats.tagged_data <= stats.sifted_data
    assert stats.Q_hat == pytest.approx(stats.sifted_data / (n * 0.6**2))
    assert stats.E1_hat == pytest.approx(stats.errors_check / (n * 0.4**2))


def test_run_simulation_deterministic_across_jobs():
    channel = ChannelModel(eta=0.3, p_dark=1e-4)
    params = batched(ProtocolParams(L=4, mu=0.05, p1=0.5, n_blocks=1, seed=42), channel, 3)
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
    with pytest.warns(ThinStatisticsWarning) as caught:
        run_simulation(params, ChannelModel(eta=0.01))
    # the warning points at the caller's line, not into the package
    assert [warning.filename for warning in caught] == [__file__]


def test_check_basis_too_rare_to_normalise_reads_no_errors():
    # n_blocks * p1**2 underflows to 0 at p1 = 1e-170; 1e-100 still divides
    tiny, small = (
        quiet_run(ProtocolParams(2, 0.1, p1, 1000, seed=0), ChannelModel(eta=0.5))
        for p1 in (1e-170, 1e-100)
    )
    assert tiny == small and tiny.E1_hat == 0.0 and tiny.errors_check == 0


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


EXACT_LAW_SETTINGS = [
    (5, 0.3, 0.5, dict(eta=0.8, p_dark=0.01, e_mis=0.3, p_flip=0.05)),
    (20, 0.005, 0.5, dict(eta=0.01, p_dark=1e-4)),
    (3, 2.0, 0.5, dict(eta=1.0)),
    (4, 0.1, 0.5, dict(eta=0.0, p_dark=0.01)),
    (5, 0.3, 0.5, dict(eta=0.5, p_dark=0.01, e_mis=0.3)),
    (6, 0.1, 0.3, dict(eta=0.3, p_dark=1e-3, e_mis=0.2, p_flip=0.02)),
    (3, 2.0, 0.8, dict(eta=1.0, p_dark=0.01)),
]

cached_run = functools.cache(run_simulation)


def exact_law_run(L, mu, p1, channel_kw):
    """run_simulation at 2e6 blocks and the exact law of its counters.

    The run is cached, so the tests that fit different counters of one
    setting share it.
    """
    params = ProtocolParams(L=L, mu=mu, p1=p1, n_blocks=2_000_000, seed=1)
    channel = ChannelModel(**channel_kw)
    return cached_run(params, channel), protocol_law(params, channel)


@pytest.mark.parametrize(
    "L, mu, p1, channel_kw", EXACT_LAW_SETTINGS,
    ids=[f"{L}-{mu}-channel_kw{i}" for i, (L, mu, *_) in enumerate(EXACT_LAW_SETTINGS)],
)
def test_first_click_follows_truncated_geometric_law(L, mu, p1, channel_kw):
    # j split by d: truncated-geometric whatever the bits, so independent of d
    stats, (j_law, _, _) = exact_law_run(L, mu, p1, channel_kw)
    assert_fits(stats.j_hist_d0 + stats.j_hist_d1, j_law)


@pytest.mark.parametrize("L, mu, p1, channel_kw", EXACT_LAW_SETTINGS)
def test_run_simulation_follows_exact_law(L, mu, p1, channel_kw):
    stats, (_, class_law, tag_law) = exact_law_run(L, mu, p1, channel_kw)
    sd, ed, sc, ec = (stats.sifted_data, stats.errors_data,
                      stats.sifted_check, stats.errors_check)
    assert_fits([sd - ed, ed, sc - ec, ec, stats.n_rep - sd - sc], class_law)
    assert_fits([stats.tagged_data, sd - stats.tagged_data], tag_law)


def test_degenerate_channels():
    # eta = 0 without dark counts: p_none = 1, the kernel must not divide by 0;
    # eta = 1e-300: p_none^(L-1) rounds to 1 and p_click is 5e-301, so no block
    # clicks; with (next to) no clicks expected, every size runs as one batch
    params = ProtocolParams(L=6, mu=0.1, p1=0.5, n_blocks=2 * BATCH_BLOCKS + 5, seed=12)
    for dark_free in (ChannelModel(eta=0.0), ChannelModel(eta=1e-300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stats = quiet_run(params, dark_free)
        assert stats.Q_hat == 0.0 and stats.sifted_check == 0
        assert stats.j_hist_d0[0] + stats.j_hist_d1[0] == params.n_blocks

    # mu * eta >= 50: the first timing always clicks, in three batches
    bright = batched(ProtocolParams(L=6, mu=50.0, p1=0.5, n_blocks=1, seed=13),
                     ChannelModel(eta=1.0), 2, extra=5)
    stats = quiet_run(bright, ChannelModel(eta=1.0))
    assert stats.j_hist_d0[1] + stats.j_hist_d1[1] == bright.n_blocks
    assert stats.tagged_data == stats.sifted_data


def click_pattern_bit(log_q_dark, means, u, tie, flip):
    """The measured bit through the (k, 2) clicks of the two detectors."""
    q = np.exp(log_q_dark - means)
    p = -np.expm1(log_q_dark - means)
    both = p[:, 0] * p[:, 1]
    with_0 = both + p[:, 0] * q[:, 1]
    x = u * (p[:, 0] + q[:, 0] * p[:, 1])
    pattern = np.stack([x < with_0, (x < both) | (x >= with_0)], axis=-1)
    b = np.where(pattern[:, 0] & pattern[:, 1], tie, pattern[:, 1].astype(np.int8))
    return b ^ flip.astype(np.int8)


@pytest.mark.parametrize("e_mis", [0.0, 0.3])  # 0: a matched basis leaves one port dark
@pytest.mark.parametrize("p_dark", [0.0, 0.3])
@pytest.mark.parametrize("mu", [0.01, 2.0])
def test_measured_bit_matches_the_click_pattern(mu, p_dark, e_mis):
    rng = np.random.default_rng(11)
    k = 100_000
    params = ProtocolParams(L=20, mu=mu, p1=0.5, n_blocks=1, seed=0)
    channel = ChannelModel(eta=0.8, p_dark=p_dark, e_mis=e_mis)
    bits = rng.integers(0, 2, size=(k, 2), dtype=np.int8)
    means = detection_means(params, channel, bits, rng.random(k) < 0.5, rng.random(k) < 0.5)
    means = means[:, 0]
    log_q_dark = math.log1p(-p_dark)
    q, p = np.exp(log_q_dark - means), -np.expm1(log_q_dark - means)
    both = p[:, 0] * p[:, 1]
    with_0 = both + p[:, 0] * q[:, 1]
    total = p[:, 0] + q[:, 0] * p[:, 1]

    # seeded u, then u that puts x = u * total on each outcome edge and one
    # and two ulp to either side of it
    u = [rng.random(k)]
    for edge in (both / total, with_0 / total):
        below = above = edge
        u.append(edge)
        for _ in range(2):
            below, above = np.nextafter(below, -1.0), np.nextafter(above, 2.0)
            u += [below, above]
    u = np.clip(np.concatenate(u), 0.0, np.nextafter(1.0, 0.0))
    rows = np.arange(u.size) % k
    x = u * total[rows]
    assert (x == both[rows]).any() and (x == with_0[rows]).any()
    assert (x < both[rows]).any()  # double clicks, where the tie decides

    tie = rng.integers(0, 2, size=u.size, dtype=np.int8)
    flip = rng.random(u.size) < 0.2
    expected = click_pattern_bit(log_q_dark, means[rows], u, tie, flip)
    assert np.array_equal(_measured_bit(log_q_dark - means[rows], u, tie, flip), expected)


def test_detection_means_read_the_pulse_count_from_the_bits():
    rng = np.random.default_rng(5)
    params = ProtocolParams(L=20, mu=0.3, p1=0.5, n_blocks=1, seed=0)
    channel = ChannelModel(eta=0.7, e_mis=0.2)
    pair = rng.integers(0, 2, size=(1000, 2), dtype=np.int8)
    c, d = rng.random(1000) < 0.5, rng.random(1000) < 0.5
    means = detection_means(params, channel, pair, c, d)
    two = detection_means(dataclasses.replace(params, L=2), channel, pair, c, d)
    assert means.shape == (1000, 1, 2)
    assert np.array_equal(means, two)


def row_major_means(params, channel, a_bits, c, d):
    """detection_means' float steps in its own order, one block per row."""
    a = np.atleast_2d(np.asarray(a_bits))
    c_arr = np.atleast_1d(np.asarray(c)).astype(np.float64)
    d_arr = np.atleast_1d(np.asarray(d)).astype(np.float64)
    theta = a * np.pi + 0.5 * np.pi * np.arange(a.shape[-1]) * c_arr[:, None]
    relative = np.diff(theta, axis=1) - 0.5 * np.pi * d_arr[:, None] - channel.e_mis
    base = 0.5 * params.mu * channel.eta
    cos_rel = np.cos(relative)
    return np.stack([base * (1.0 + cos_rel), base * (1.0 - cos_rel)], axis=-1)


@pytest.mark.parametrize("pulses", [1, 2, 3, 20])
def test_detection_means_equal_the_row_major_steps_bit_for_bit(pulses):
    rng = np.random.default_rng(pulses)
    params = ProtocolParams(L=20, mu=0.3, p1=0.5, n_blocks=1, seed=0)
    for channel in (ChannelModel(eta=0.7), ChannelModel(eta=1e-9, e_mis=0.49)):
        bits = rng.integers(0, 2, size=(333, pulses), dtype=np.int8)
        c, d = rng.random(333) < 0.5, rng.random(333) < 0.5
        for args in ((bits, c, d), (bits.astype(int), c.astype(int), d.astype(np.int8)),
                     (bits[0].tolist(), bool(c[0]), bool(d[0]))):
            means = detection_means(params, channel, *args)
            expected = row_major_means(params, channel, *args)
            assert means.shape == expected.shape and means.dtype == expected.dtype
            assert means.tobytes() == expected.tobytes()


SHARES = [0.0, 5e-301, 1e-12, 1e-6, 9.495e-4, 0.0446, 0.125, _BATCH_WORK / BATCH_BLOCKS,
          0.3, 0.617, 1.0]
COUNTS = [1, 17, BATCH_BLOCKS - 1, BATCH_BLOCKS, BATCH_BLOCKS + 1, 10**5, 3 * 10**6,
          2**26 + 3, 10**12 + 1, 2**62]


@pytest.mark.parametrize("share", SHARES)
def test_batch_cut_bounds_the_expected_work_of_a_batch(share):
    for n in COUNTS:
        cut = _batch_size(n, share)
        assert min(n, BATCH_BLOCKS) <= cut <= n, (n, cut)
        assert cut * share <= max(_BATCH_WORK, BATCH_BLOCKS * share), (n, cut)
        # a share that leaves a batch of BATCH_BLOCKS items idle grows the batch
        if share * BATCH_BLOCKS < _BATCH_WORK and cut < n:
            assert (cut + 1) * share > _BATCH_WORK, (n, cut)


def test_batch_cut_ignores_the_thread_count():
    for n, share in ((10**6, 0.01), (10**5, 1.0), (3 * 10**5 + 1, 0.05), (10**7, 0.0)):
        cuts = []
        for n_jobs in (1, 2, 3):
            sizes = run_batches(5, n, n_jobs, lambda rng, size: size, share=share)
            assert sum(sizes) == n and len(set(sizes[:-1])) <= 1
            cuts.append(sizes)
        assert cuts[0] == cuts[1] == cuts[2]
        assert sizes[0] == _batch_size(n, share)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_batch_streams_are_the_spawned_children_of_the_seed(monkeypatch, n_jobs):
    monkeypatch.setattr("dqps.protocol._batch_size", lambda n, share: 3)
    for seed in (0, 17, 2**63 + 5):
        draws = run_batches(seed, 20, n_jobs, lambda rng, size: rng.random(size), share=1.0)
        children = np.random.SeedSequence(seed).spawn(7)
        expected = [np.random.default_rng(child).random(min(3, 20 - 3 * i))
                    for i, child in enumerate(children)]
        assert len(draws) == 7
        for got, want in zip(draws, expected):
            assert np.array_equal(got, want), seed


def test_batch_set_up_does_not_grow_with_the_batch_count(monkeypatch):
    # the first batch measures what run_batches holds before it, then stops
    # the run, so no large run starts
    class Stop(Exception):
        pass

    def first_batch(rng, size):
        held.append(tracemalloc.get_traced_memory()[0] - before)
        raise Stop

    monkeypatch.setattr("dqps.protocol._batch_size", lambda n, share: 1)
    run_batches(1, 2, 1, lambda rng, size: size, share=1.0)  # first-call set-up
    held = []
    tracemalloc.start()
    try:
        for n_batches in (16, 2**16):
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(Stop):
                run_batches(1, n_batches, 1, first_batch, share=1.0)
    finally:
        tracemalloc.stop()
    # spawning 2**16 children up front would hold some 25 MB
    assert max(held) < 64 * 1024, held


def test_a_second_job_queues_no_batch(monkeypatch):
    # a future per batch, all submitted before the first one returned, took
    # about 1.6 kB a batch, some 100 times the one-job peak here; each thread
    # now runs its own share of the batches, so only the results grow
    monkeypatch.setattr("dqps.protocol._batch_size", lambda n, share: 1)
    run_batches(1, 4, 2, lambda rng, size: size, share=1.0)  # first-call set-up
    peaks = []
    tracemalloc.start()
    try:
        for n_jobs in (1, 2):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sizes = run_batches(1, 2**12, n_jobs, lambda rng, size: size, share=1.0)
            assert sizes == [1] * 2**12
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[1] < 4 * peaks[0], peaks


def test_run_simulation_cuts_batches_by_its_click_probability(monkeypatch):
    calls = []
    real = run_batches

    def spy(seed, n, n_jobs, kernel, share):
        calls.append((n, share))
        return real(seed, n, n_jobs, kernel, share)

    monkeypatch.setattr("dqps.protocol.run_batches", spy)
    params = ProtocolParams(L=20, mu=0.005, p1=0.5, n_blocks=10**6, seed=3)
    channel = ChannelModel(eta=0.01, p_dark=1e-6)
    for n_jobs in (1, 2):
        quiet_run(params, channel, n_jobs=n_jobs)
    p_none = math.exp(-params.mu * channel.eta) * (1 - channel.p_dark) ** 2
    p_click = 1 - p_none ** (params.L - 1)
    assert calls[0] == calls[1] and calls[0][0] == params.n_blocks
    assert calls[0][1] == pytest.approx(p_click, rel=1e-12)


def test_sparse_run_memory_follows_the_clicks_not_the_blocks():
    # the benchmark's sparse setting at 2**26 blocks: about 1 block in 1,000
    # clicks, so a batch holds millions of blocks and about _BATCH_WORK clicks
    params = ProtocolParams(L=20, mu=0.005, p1=0.5, n_blocks=2**26, seed=4)
    channel = ChannelModel(eta=0.01, e_mis=0.2)
    cut = _batch_size(params.n_blocks, _click_law(params, channel)[2])
    assert params.n_blocks // cut >= 3 and cut > 100 * _BATCH_WORK
    quiet_run(dataclasses.replace(params, n_blocks=cut), channel)  # first-call set-up
    tracemalloc.start()
    try:
        stats = quiet_run(params, channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(stats.j_hist_d0) + sum(stats.j_hist_d1) == params.n_blocks
    # a few hundred bytes per expected click, far below one byte per block
    assert peak < 256 * _BATCH_WORK < cut


def test_block_count_must_fit_int64_counts():
    # a batch may hold every block, so its counts and draws must stay in int64
    with pytest.raises(ParameterError, match="'n_blocks'"):
        ProtocolParams(L=2, mu=0.1, p1=0.5, n_blocks=2**62 + 1, seed=0)
    ProtocolParams(L=2, mu=0.1, p1=0.5, n_blocks=2**62, seed=0)
