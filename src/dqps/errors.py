"""Exception types shared across the package, and the range checks behind them."""

from __future__ import annotations

import math
import sys
from functools import cache, partial


class ParameterError(ValueError):
    """An input parameter is out of its documented range.

    `param` names the offending parameter so front ends can report it.
    """

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(f"parameter '{param}': {message}")


class WorkLimitError(RuntimeError):
    """An enumeration would exceed the configured work limit.

    `required` is math.inf where the work was too large to form; work past
    the float range is reported without its digits.  Work within the limit
    is refused only for what no limit changes, which `need` names: by
    default a half-block table larger than numpy can hold.
    """

    def __init__(self, required: int, limit: int,
                 need: str = "a half-block table larger than numpy can hold (2^63 - 1 bytes)"):
        self.required = required
        self.limit = limit
        if required > sys.float_info.max:
            message = "enumeration needs more units of work than a float holds; no limit admits it"
        elif required > limit:
            message = (f"enumeration needs {required} units of work, above the limit "
                       f"{limit}; raise work_limit to proceed")
        else:
            message = f"enumeration needs {need}; no limit admits it"
        super().__init__(message)


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
    lo, hi, open_lo, open_hi = _interval(interval)
    above = lo < value if open_lo else lo <= value
    below = value < hi if open_hi else value <= hi
    if not (above and below):
        raise ParameterError(param, f"must be in {interval}")


@cache
def _interval(interval: str) -> tuple[float, float, bool, bool]:
    """The ends of an interval string and whether each is open, parsed once per string."""
    lo, hi = map(float, interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


# The domain rules of the package's entry points, each called as
# rule(param, value); interval= narrows a real one, e.g. to "(0, 1]".
# The longest block and the most blocks or trains in a run: a batch may hold
# all of a run's items and still count them in int64, and rtag_coherent is
# checked to 1e-15 for every block length up to here.
_SIZE_MAX = 2**62
_block_length = partial(_check_int, lo=2, hi=_SIZE_MAX)
_positive_count = partial(_check_int, lo=1)
_item_count = partial(_check_int, lo=1, hi=_SIZE_MAX)
_seed = partial(_check_int, lo=0, hi=2**64 - 1)
_mean_photon_number = partial(_check_real, interval="[0, inf)")
_probability = partial(_check_real, interval="[0, 1]")  # also a transmission

# the largest mean numpy's Poisson draw takes (POISSON_LAM_MAX, about 9.22e18)
_POISSON_MEAN_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


def _block_photon_mean(L: int, mu: float) -> None:
    if mu * L > _POISSON_MEAN_MAX:
        raise ParameterError("mu", f"mu * L must be at most {_POISSON_MEAN_MAX:.6g}")
