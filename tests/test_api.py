import dataclasses
import inspect
import math
import re
from pathlib import Path

import pytest

import dqps
from dqps.errors import _check_real


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


RATE_INPUTS = dict(L=4, mu=0.05, p0=0.5, Q=0.1, E0=0.01, E1=0.02)

# A valid call of every public constructor and function that takes a float.
VALID_CALLS = {
    dqps.TagParams: dict(L=4, mu=0.1),
    dqps.RateInputs: RATE_INPUTS,
    dqps.RateInputs.from_error_rates: dict(L=4, mu=0.05, p0=0.5, Q=0.1, e0=0.1, e1=0.2),
    dqps.key_rate: dict(inputs=dqps.RateInputs(**RATE_INPUTS)),
    dqps.privacy_amp_fraction: dict(Q=0.1, E1=0.01, rtag=0.001),
    dqps.binary_entropy: dict(x=0.1),
    dqps.channel_q: dict(L=4, mu=0.1, eta=0.5),
    dqps.optimize_mu: dict(L=4, eta=0.1, error_rate=0.03),
    dqps.SweepSpec: dict(L_values=(2,), eta_values=(0.1,), error_rate=0.03),
    dqps.asymptotic_optimum: dict(L=4, eta=0.1),
    dqps.active_switch_optimum: dict(eta=0.1),
    dqps.ProtocolParams: dict(L=4, mu=0.1, p1=0.5, n_blocks=10, seed=0),
    dqps.ChannelModel: dict(eta=0.5),
    dqps.CalibSetup2: dict(L=10, mu=0.02),
    dqps.CalibSetup3: dict(L=10, mu=0.02),
    dqps.q3_bound: dict(n_triple=1, n_test=1000, eta1=0.5, eta2=0.5, eta3=0.5),
    dqps.relative_slack_limit: dict(L=10, mu=0.02),
}


def _float_arguments(entry):
    """(parameter, wrap) for each float parameter, read from the annotations.

    wrap(x) is the argument that carries the float x: x itself, or x in
    either place of mu_bounds, or x as the one transmission of eta_values.
    """
    if dataclasses.is_dataclass(entry):
        params = [(f.name, f.type) for f in dataclasses.fields(entry)]
    else:
        params = [(p.name, p.annotation)
                  for p in inspect.signature(entry).parameters.values()]
    for name, kind in params:
        if kind in ("float", "float | None"):
            yield name, lambda x: x
        elif kind == "tuple[float, float]":
            yield name, lambda x: (x, 1.0)
            yield name, lambda x: (1e-6, x)
        elif kind == "tuple[float, ...]":
            yield name, lambda x: (x,)


FLOAT_ARGUMENTS = [
    pytest.param(entry, name, wrap, id=f"{entry.__qualname__}.{name}")
    for entry in VALID_CALLS
    for name, wrap in _float_arguments(entry)
]


@pytest.mark.parametrize("entry, name, wrap", FLOAT_ARGUMENTS)
def test_non_finite_floats_are_refused_by_name(entry, name, wrap):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(dqps.ParameterError) as info:
            entry(**{**VALID_CALLS[entry], name: wrap(bad)})
        assert info.value.param == name, bad


@pytest.mark.parametrize("interval", ["[0, 1]", "(0, 1]", "[0, 1)", "(0, inf)", "[-inf, inf]",
                                      "[0, 0.5)", "[0, inf)"])
def test_a_real_check_reads_its_interval_as_written(interval):
    # each interval string is parsed once and then read from there
    lo, hi = map(float, interval[1:-1].split(","))
    for value in (math.nan, -math.inf, math.inf, lo, hi, 0.25, *(
            math.nextafter(end, way) for end in (lo, hi) for way in (-math.inf, math.inf))):
        inside = ((lo < value if interval[0] == "(" else lo <= value)
                  and (value < hi if interval[-1] == ")" else value <= hi))
        for _ in range(2):
            if inside:
                _check_real("x", value, interval)
            else:
                with pytest.raises(dqps.ParameterError, match=re.escape(f"must be in {interval}")):
                    _check_real("x", value, interval)


# The same calls for every public entry point that takes a block length.
BLOCK_LENGTH_CALLS = {
    **{entry: call for entry, call in VALID_CALLS.items() if {"L", "L_values"} & set(call)},
    dqps.count_untagged_configs: dict(L=4, m=1),
}


@pytest.mark.parametrize("entry", BLOCK_LENGTH_CALLS, ids=lambda e: e.__qualname__)
def test_block_lengths_run_up_to_2_to_the_62(entry):
    call = BLOCK_LENGTH_CALLS[entry]
    name, wrap = ("L_values", lambda L: (L,)) if "L_values" in call else ("L", lambda L: L)
    entry(**{**call, name: wrap(2**62)})
    for L in (2**62 + 1, 10**400):
        with pytest.raises(dqps.ParameterError, match=rf"in \[2, {2**62}\]") as info:
            entry(**{**call, name: wrap(L)})
        assert info.value.param == name, L


def test_readme_python_examples_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
