"""Key rates and source-tagging analysis for differential-quadrature QKD.

The sender groups L coherent pulses into a block and encodes bits in the
phase differences of adjacent pulses; the receiver interferes neighbors and
keeps the first clicking timing.  Security rests on how unlikely the source
is to emit two photons close together (a "tagged" block), so the package
pairs the key-rate formulas with tools to compute, brute-force check,
simulate, and experimentally bound that tagging probability.
"""

from .calibration import (
    CalibrationReport,
    CalibSetup2,
    CalibSetup3,
    q3_bound,
    relative_slack_limit,
    simulate_three_detector,
    simulate_two_detector,
)
from .errors import ParameterError, ThinStatisticsWarning, WorkLimitError
from .keyrate import (
    KeyRateReport,
    RateInputs,
    binary_entropy,
    channel_q,
    key_rate,
    privacy_amp_fraction,
)
from .optimize import (
    OptimizeResult,
    SweepRow,
    SweepSpec,
    active_switch_crossover,
    active_switch_optimum,
    asymptotic_optimum,
    optimize_mu,
    sweep,
)
from .protocol import (
    ChannelModel,
    ObservedStats,
    ProtocolParams,
    detection_means,
    estimate_key_rate,
    run_simulation,
)
from .tagging import (
    BruteForceResult,
    SourceDistribution,
    TagParams,
    count_untagged_configs,
    is_untagged_config,
    rtag_bruteforce,
    rtag_coherent,
    rtag_general,
)

__version__ = "0.1.0"

__all__ = [
    "BruteForceResult",
    "CalibrationReport",
    "CalibSetup2",
    "CalibSetup3",
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
