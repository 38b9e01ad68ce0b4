"""Command-line front end.

Subcommands: keyrate, sweep, simulate, rtag, calibrate.  Each handler
returns its result as a list of records (dicts) and writes nothing; main
alone renders them, as JSON lines with sorted keys or as CSV with the first
record's keys as the one header, and writes them to stdout or --output.
sweep is CSV only, simulate JSON lines only.  Floats in CSV use 17
significant digits so files round-trip bit-exactly.

A flat key=value config file (--config) can supply any long option of the
chosen subcommand; explicit flags win.  Relative --output and --event-log
paths resolve against $DQPS_OUTPUT_DIR when it is set.

Exit codes: 0 success, 2 validation, 3 I/O, 4 resource limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .calibration import (
    CalibSetup2,
    CalibSetup3,
    simulate_three_detector,
    simulate_two_detector,
)
from .errors import ParameterError, WorkLimitError
from .keyrate import KeyRateReport, RateInputs, channel_q, key_rate
from .optimize import DEFAULT_MU_BOUNDS, DEFAULT_TOLERANCE, SweepSpec, optimize_mu, sweep
from .protocol import ChannelModel, ProtocolParams, estimate_key_rate, run_simulation
from .tagging import (
    DEFAULT_PHOTON_CAP,
    DEFAULT_WORK_LIMIT,
    SourceDistribution,
    TagParams,
    rtag_bruteforce,
    rtag_coherent,
    rtag_general,
)

_EVENT_LOG_CHUNK = 1 << 16  # event-log rows formatted per write


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _resolve_out(path: str) -> Path:
    p = Path(path)
    base = os.environ.get("DQPS_OUTPUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(_resolve_out(path), "w", newline="") as handle:
        handle.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render(records: list[dict], fmt: str) -> str:
    """JSON lines with sorted keys, or CSV headed by the first record's keys."""
    if fmt == "json":
        return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    rows = [records[0]] + [map(_csv_cell, record.values()) for record in records]
    return "".join(",".join(row) + "\n" for row in rows)


def _fields(obj, *skip: str) -> dict:
    """A dataclass's fields in order, shallow (asdict would copy events)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if f.name not in skip}


def _rate_fields(report: KeyRateReport | None) -> dict:
    """The rate fields of a keyrate record; None means no feasible mu."""
    if report is None:
        return {"rtag": None, "f_pa": None, "f_ec": None,
                "rate_per_pulse": 0.0, "feasible": False}
    return _fields(report, "mu_used")


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise ParameterError(name, "required")
    return value


# ---------------------------------------------------------------------------
# parser construction

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dqps",
        description="Key rates, tagging bounds, and simulations for "
        "differential-quadrature-phase-shift QKD.",
    )
    subparsers = parser.add_subparsers(dest="command")
    registry: dict[str, tuple[argparse.ArgumentParser, dict]] = {}

    def command(name, help_text):
        sub = subparsers.add_parser(name, help=help_text)
        converters: dict = {}
        registry[name] = (sub, converters)

        def add(flag, **kwargs):
            conv = kwargs.get("type", str)
            if kwargs.get("action") == "store_true":
                conv = _parse_bool
            action = sub.add_argument(flag, **kwargs)
            converters[action.dest] = (conv, action.choices)

        add("--config", help="flat key=value file supplying defaults")
        add("--output", help="write result here instead of stdout")
        return add

    def optimizer_flags(add):
        # no argparse default: None tells a flag left out from one given
        add("--mu-lo", type=float)
        add("--mu-hi", type=float)
        add("--tol", type=float, help="width in log mu of the optimizer's "
            "final bracket, a relative width of mu")

    add = command("keyrate", "secure key rate at one operating point")
    add("--L", type=int)
    add("--eta", type=float)
    add("--eta-db", type=float, help="channel loss in dB; eta = 10^(-dB/10)")
    add("--error-rate", type=float, help="E0/Q and E1/Q, both bases")
    add("--mu", type=float)
    add("--optimize", action="store_true", help="search mu instead of fixing it")
    add("--p0", type=float, default=1.0)
    add("--ec-inefficiency", type=float, default=1.0)
    optimizer_flags(add)
    add("--format", choices=("json", "csv"), default="json")

    add = command("sweep", "optimized key rate over a loss grid, CSV")
    add("--L-list", help="comma-separated block lengths, e.g. 2,4,20")
    add("--eta-db-range", help="lo:hi:step loss grid in dB, endpoints included")
    add("--error-rate", type=float)
    optimizer_flags(add)

    add = command("simulate", "photon-level Monte Carlo of the protocol")
    add("--L", type=int)
    add("--mu", type=float)
    add("--eta", type=float)
    add("--blocks", type=int)
    add("--seed", type=int, default=0)
    add("--p1", type=float, default=0.5, help="check-basis probability")
    add("--p-dark", type=float, default=0.0)
    add("--delta", type=float, default=0.0, help="misalignment phase, radians")
    add("--bitflip", type=float, default=0.0, help="direct bit-flip probability")
    add("--jobs", type=int, default=1)
    add("--format", choices=("json", "csv"), default="json")

    add = command("rtag", "tagging probability of a block source")
    add("--L", type=int)
    add("--mu", type=float)
    add("--oracle", action="store_true", help="also run the brute-force check")
    add("--cap", type=int, default=DEFAULT_PHOTON_CAP,
        help="per-pulse photon cap for the oracle")
    add("--work-limit", type=float, default=float(DEFAULT_WORK_LIMIT))
    add("--source", help="distribution file instead of the Poissonian model")
    add("--format", choices=("json", "csv"), default="json")

    add = command("calibrate", "coincidence-counting bound on the tagging probability")
    add("--mode", choices=("2det", "3det"))
    add("--L", type=int, default=10)
    add("--mu", type=float)
    add("--n-trains", type=int)
    add("--seed", type=int, default=0)
    add("--jobs", type=int, default=1)
    add("--eta1", type=float)
    add("--eta2", type=float)
    add("--eta3", type=float)
    add("--eta-abs", type=float)
    add("--true-T", type=float)
    add("--true-R", type=float)
    add("--true-T1", type=float)
    add("--true-R1", type=float)
    add("--true-T2", type=float)
    add("--true-R2", type=float)
    add("--true-eff1", type=float)
    add("--true-eff2", type=float)
    add("--true-eff3", type=float)
    add("--true-eta-abs", type=float)
    add("--dead-time", type=int)
    add("--source", help="distribution file (two-detector mode only)")
    add("--event-log", help="write per-train coincidence flags to this CSV")
    add("--format", choices=("json", "csv"), default="json")

    return parser, registry


def _config_defaults(path: str, converters: dict) -> dict:
    text = Path(path).read_text()
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError("config", f"line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        dest = key.strip().replace("-", "_")
        if dest == "config" or dest not in converters:
            raise ParameterError("config", f"unknown key {key.strip()!r}")
        convert, choices = converters[dest]
        try:
            overrides[dest] = convert(value.strip())
        except ValueError:
            raise ParameterError(dest, f"invalid value {value.strip()!r}") from None
        if choices is not None and overrides[dest] not in choices:
            raise ParameterError(dest, f"invalid value {value.strip()!r}")
    return overrides


# ---------------------------------------------------------------------------
# subcommands

def _resolve_eta(args) -> tuple[float, float | None]:
    """Returns (eta, eta_db as given or derived)."""
    if args.eta is not None and args.eta_db is not None:
        raise ParameterError("eta", "give either --eta or --eta-db, not both")
    if args.eta_db is not None:
        if not math.isfinite(args.eta_db):
            raise ParameterError("eta_db", "must be finite")
        return 10.0 ** (-args.eta_db / 10.0), args.eta_db
    if args.eta is None:
        raise ParameterError("eta", "required: --eta or --eta-db")
    eta_db = -10.0 * math.log10(args.eta) if args.eta > 0 else None
    return args.eta, eta_db


def _optimizer_settings(args) -> tuple[tuple[float, float], float]:
    """(mu_bounds, tolerance) from --mu-lo, --mu-hi and --tol or their defaults."""
    mu_lo = DEFAULT_MU_BOUNDS[0] if args.mu_lo is None else args.mu_lo
    mu_hi = DEFAULT_MU_BOUNDS[1] if args.mu_hi is None else args.mu_hi
    tolerance = DEFAULT_TOLERANCE if args.tol is None else args.tol
    return (mu_lo, mu_hi), tolerance


def cmd_keyrate(args) -> list[dict]:
    L = _require(args, "L")
    error_rate = _require(args, "error_rate")
    eta, eta_db = _resolve_eta(args)
    if args.optimize and args.mu is not None:
        raise ParameterError("mu", "give either --mu or --optimize, not both")
    if not args.optimize and args.mu is None:
        raise ParameterError("mu", "required unless --optimize is given")
    if not args.optimize:
        for name in ("mu_lo", "mu_hi", "tol"):
            if getattr(args, name) is not None:
                raise ParameterError(name, "applies only with --optimize")

    record = {
        "record": "keyrate",
        "L": L,
        "eta": eta,
        "eta_db": eta_db,
        "error_rate": error_rate,
        "p0": args.p0,
        "optimized": bool(args.optimize),
    }
    if args.optimize:
        if args.ec_inefficiency != 1.0:
            raise ParameterError(
                "ec_inefficiency", "fixed to 1 when optimizing; use --mu"
            )
        mu, _ = optimize_mu(L, eta, error_rate, *_optimizer_settings(args))
    else:
        mu = args.mu

    Q = report = None
    if mu is not None:  # None: the optimizer found no feasible mu
        Q = channel_q(L, mu, eta)
        inputs = RateInputs.from_error_rates(L, mu, args.p0, Q, error_rate, error_rate)
        report = key_rate(inputs, ec_inefficiency=args.ec_inefficiency)
    record.update(mu=mu, Q=Q, **_rate_fields(report))
    return [record]


def _parse_db_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError("eta_db_range", "expected lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ParameterError("eta_db_range", f"non-numeric bound in {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ParameterError("eta_db_range", "bounds must be finite")
    if step <= 0 or hi < lo:
        raise ParameterError("eta_db_range", "need step > 0 and hi >= lo")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def cmd_sweep(args) -> list[dict]:
    L_text = _require(args, "L_list")
    db_text = _require(args, "eta_db_range")
    error_rate = _require(args, "error_rate")
    try:
        L_values = tuple(int(part) for part in L_text.split(","))
    except ValueError:
        raise ParameterError("L_list", f"non-integer entry in {L_text!r}") from None
    db_grid = _parse_db_grid(db_text)
    etas = [10.0 ** (-db / 10.0) for db in db_grid]
    db_of = dict(zip(etas, db_grid))

    mu_bounds, tolerance = _optimizer_settings(args)
    spec = SweepSpec(
        L_values=L_values,
        eta_values=tuple(etas),
        error_rate=error_rate,
        mu_bounds=mu_bounds,
        tolerance=tolerance,
    )
    return [
        {"L": row.L, "eta_db": db_of[row.eta], **row._asdict(),
         "mu_opt": math.nan if row.mu_opt is None else row.mu_opt}
        for row in sweep(spec)
    ]


def cmd_simulate(args) -> list[dict]:
    if args.format == "csv":
        raise ParameterError("format", "simulate emits json-lines only")
    params = ProtocolParams(
        L=_require(args, "L"),
        mu=_require(args, "mu"),
        p1=args.p1,
        n_blocks=_require(args, "blocks"),
        seed=args.seed,
    )
    channel = ChannelModel(
        eta=_require(args, "eta"),
        p_dark=args.p_dark,
        e_mis=args.delta,
        p_flip=args.bitflip,
    )
    stats = run_simulation(params, channel, n_jobs=args.jobs)
    report = estimate_key_rate(stats, params)
    stats_record = {"record": "observed_stats", **_fields(stats)}
    rate_record = {
        "record": "keyrate",
        "L": params.L,
        "mu": params.mu,
        "p0": params.p0,
        "Q": stats.Q_hat,
        **_rate_fields(report),
    }
    return [stats_record, rate_record]


def cmd_rtag(args) -> list[dict]:
    record = {
        "record": "rtag",
        "source": args.source,
        "oracle_value": None,
        "truncation_bound": None,
    }
    if args.source is not None:
        if args.mu is not None:
            raise ParameterError("mu", "not meaningful with --source")
        if args.oracle:
            raise ParameterError("oracle", "applies to the Poissonian model only")
        dist = SourceDistribution.from_file(args.source)
        if args.L is not None and args.L != dist.L:
            raise ParameterError(
                "L", f"file describes trains of length {dist.L}, not {args.L}"
            )
        record.update(L=dist.L, mu=None, value=rtag_general(dist))
    else:
        params = TagParams(_require(args, "L"), _require(args, "mu"))
        record.update(L=params.L, mu=params.mu, value=rtag_coherent(params))
        if args.oracle:
            result = rtag_bruteforce(
                params, photon_cap=args.cap, work_limit=args.work_limit
            )
            record["oracle_value"] = result.value
            record["truncation_bound"] = result.truncation_bound
    return [record]


def cmd_calibrate(args) -> list[dict]:
    mode = _require(args, "mode")
    if mode == "2det":
        setup_cls, simulate = CalibSetup2, simulate_two_detector
    else:
        setup_cls, simulate = CalibSetup3, simulate_three_detector
    mu = _require(args, "mu")
    collect = args.event_log is not None

    # pass on the setup flags that were given; the setup fills in the rest
    own = {field.name for field in dataclasses.fields(setup_cls)}
    setup_flags = {
        field.name
        for cls in (CalibSetup2, CalibSetup3)
        for field in dataclasses.fields(cls)
    }
    given = {}
    for dest, value in vars(args).items():
        name = "n_test" if dest == "n_trains" else dest
        if value is None or name not in setup_flags:
            continue
        if name not in own:
            raise ParameterError(dest, f"not valid for mode {mode}")
        given[name] = value
    path = given.pop("source", None)
    if path:
        given["source"] = SourceDistribution.from_file(path)
    setup = setup_cls(**given)
    report = simulate(setup, seed=args.seed, n_jobs=args.jobs, collect_events=collect)

    if collect:
        columns = ["train", "double"] + (["triple"] if mode == "3det" else [])
        row = ",".join(["%d"] * len(columns)) + "\n"
        with open(_resolve_out(args.event_log), "w", newline="") as handle:
            handle.write(",".join(columns) + "\n")
            for start in range(0, len(report.events), _EVENT_LOG_CHUNK):
                events = report.events[start:start + _EVENT_LOG_CHUNK]
                trains = np.arange(start, start + len(events))
                cells = np.column_stack([trains, events]).ravel().tolist()
                handle.write((row * len(events)) % tuple(cells))
    etas = {name: getattr(setup, name, None)
            for name in ("eta1", "eta2", "eta3", "eta_abs")}
    return [{"record": "calibration", "mode": report.mode, "L": setup.L, "mu": mu,
             "seed": args.seed, **_fields(report, "mode", "events"), **etas}]


_HANDLERS = {
    "keyrate": cmd_keyrate,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "rtag": cmd_rtag,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.config is not None:
            sub, converters = registry[args.command]
            sub.set_defaults(**_config_defaults(args.config, converters))
            args = parser.parse_args(argv)
        records = _HANDLERS[args.command](args)
        # sweep has no --format: its records are CSV
        _emit(_render(records, getattr(args, "format", "csv")), args.output)
        return 0
    except ParameterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except WorkLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def main_entry() -> None:
    sys.exit(main())
