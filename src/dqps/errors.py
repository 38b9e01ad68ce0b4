"""Exception types shared across the package, and the range checks behind them."""

from __future__ import annotations

import math
from functools import partial


class ParameterError(ValueError):
    """An input parameter is out of its documented range.

    `param` names the offending parameter so front ends can report it.
    """

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(f"parameter '{param}': {message}")


class WorkLimitError(RuntimeError):
    """An enumeration would exceed the configured work limit."""

    def __init__(self, required: int, limit: int):
        self.required = required
        self.limit = limit
        super().__init__(
            f"enumeration needs {required} units of work, above the limit {limit}; "
            "raise work_limit to proceed"
        )


class ThinStatisticsWarning(UserWarning):
    """Sample too small for the estimate to be statistically meaningful."""


def _read_text(param: str, path) -> str:
    """The file's text as UTF-8; bytes that do not decode are refused as `param`."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        message = f"not UTF-8 text: {exc.reason} at offset {exc.start}"
        raise ParameterError(param, message) from None


def _check_int(param: str, value, lo: int, hi: float = math.inf) -> None:
    """Refuse anything but an integer in [lo, hi].

    A bool is refused too, although Python counts it as an int.
    """
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ParameterError(param, f"must be an integer {span}")


def _check_real(param: str, value, interval: str) -> None:
    """Refuse a value outside `interval`, written like "[0, 1)" or "(0, inf)".

    Every comparison with NaN is false, so NaN is always refused, and an
    infinity only where its end of the interval is open.
    """
    lo, hi = map(float, interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    below = value < hi if interval[-1] == ")" else value <= hi
    if not (above and below):
        raise ParameterError(param, f"must be in {interval}")


# The domain rules of the package's entry points, each called as
# rule(param, value); interval= narrows a real one, e.g. to "(0, 1]".
_block_length = partial(_check_int, lo=2)
_positive_count = partial(_check_int, lo=1)
# a run's blocks or trains; a batch may hold them all, and its counts stay in int64
_item_count = partial(_check_int, lo=1, hi=2**62)
_seed = partial(_check_int, lo=0, hi=2**64 - 1)
_mean_photon_number = partial(_check_real, interval="[0, inf)")
_probability = partial(_check_real, interval="[0, 1]")  # also a transmission

# the largest mean numpy's Poisson draw takes (POISSON_LAM_MAX, about 9.22e18)
_POISSON_MEAN_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


def _block_photon_mean(L: int, mu: float) -> None:
    if mu * L > _POISSON_MEAN_MAX:
        raise ParameterError("mu", f"mu * L must be at most {_POISSON_MEAN_MAX:.6g}")
