import dqps


def test_public_names_are_pinned():
    # removing or adding a public name is a deliberate API change
    assert sorted(dqps.__all__) == [
        "BruteForceResult",
        "CalibSetup2",
        "CalibSetup3",
        "CalibrationReport",
        "ChannelModel",
        "KeyRateReport",
        "ObservedStats",
        "OptimizeResult",
        "ParameterError",
        "ProtocolParams",
        "RateInputs",
        "SourceDistribution",
        "SweepRow",
        "SweepSpec",
        "TagParams",
        "ThinStatisticsWarning",
        "WorkLimitError",
        "active_switch_crossover",
        "active_switch_optimum",
        "asymptotic_optimum",
        "binary_entropy",
        "channel_q",
        "count_untagged_configs",
        "detection_means",
        "estimate_key_rate",
        "is_untagged_config",
        "key_rate",
        "optimize_mu",
        "privacy_amp_fraction",
        "q3_bound",
        "relative_slack_limit",
        "rtag_bruteforce",
        "rtag_coherent",
        "rtag_general",
        "run_simulation",
        "simulate_three_detector",
        "simulate_two_detector",
        "sweep",
    ]
    for name in dqps.__all__:
        assert hasattr(dqps, name), name
