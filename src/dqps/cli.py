"""Command-line front end.

Subcommands: keyrate, sweep, simulate, rtag, calibrate.  Each handler
returns its result as a list of records (dicts) and writes nothing; main
alone renders them, as JSON lines with sorted keys or as CSV with the first
record's keys as the one header, and writes them to stdout or --output.
sweep is CSV only, simulate JSON lines only.  Floats in CSV use 17
significant digits so files round-trip bit-exactly.

main(argv) may be called any number of times in one process: the parser is
built on the first call and serves every call, --config calls included.  A
call makes one argparse pass: an argv that starts with a subcommand goes to
that subcommand's parser alone, and the top-level parser serves only argv
that names no subcommand first (bare dqps, --help, an unknown command).  One
flat key=value config file (--config; a second one is refused) can supply
any long option of the chosen subcommand, for its own call only: its values
go into that call's namespace, never on the parser, and explicit flags win.
Handlers pass on to the library only the flags given, so a flag left out
takes the library's default.  Relative --output and --event-log paths
resolve against $DQPS_OUTPUT_DIR when set.

Exit codes: 0 success, 2 validation, 3 I/O, 4 resource limit (the work
meter, or an array numpy cannot allocate).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .errors import ParameterError, WorkLimitError, _read_text
from .keyrate import KeyRateReport, RateInputs, channel_q, key_rate
from .optimize import DEFAULT_MU_BOUNDS, SweepSpec, optimize_mu, sweep
from .protocol import ChannelModel, ProtocolParams, estimate_key_rate, run_simulation
from .tagging import (
    SourceDistribution,
    TagParams,
    rtag_bruteforce,
    rtag_coherent,
    rtag_general,
)

_EVENT_LOG_CHUNK = 1 << 16  # most event-log rows formatted per buffer
# most loss points one sweep takes: about half an hour of optimizer work,
# refused before the list is built
_DB_GRID_MAX = 10**7

# calibrate's bench flags: every field of the two setups but L, mu, n_test and source
_BENCH_FIELDS = {field.name: field for setup in (CalibSetup2, CalibSetup3)
                 for field in dataclasses.fields(setup)
                 if field.name not in ("L", "mu", "n_test", "source")}


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


def _csv_word(value):
    """None as an empty cell and bools as true or false; any other value as is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


@functools.lru_cache(maxsize=64)
def _csv_template(kinds: tuple) -> str:
    """The % template of a CSV row whose cells have these types.

    A float takes %.17g, the text of f"{v:.17g}" (nan and inf included), so
    it round-trips; every other cell takes %s.
    """
    return ",".join("%.17g" if issubclass(kind, float) else "%s" for kind in kinds) + "\n"


# json.dumps(record, sort_keys=True), without building an encoder per record
_json_line = json.JSONEncoder(sort_keys=True).encode


def _render(records: list[dict], fmt: str) -> str:
    """JSON lines with sorted keys, or CSV headed by the first record's keys."""
    if fmt == "json":
        return "".join(_json_line(record) + "\n" for record in records)
    rows = [",".join(records[0]) + "\n"]
    for record in records:
        values = tuple(record.values())
        kinds = tuple(map(type, values))
        if bool in kinds or type(None) in kinds:
            values = tuple(map(_csv_word, values))
        rows.append(_csv_template(kinds) % values)
    return "".join(rows)


@functools.lru_cache(maxsize=64)
def _row_template(width: int, flags: int) -> np.ndarray:
    """Event-log rows of trains 0 .. 10^min(width, 3) - 1, zero-padded to width digits.

    Read-only uint8, one row per line, every flag 0.  Train numbers have at
    most 19 digits and rows at most two flags, so the cache stays small.
    """
    number = np.arange(10 ** min(width, 3))
    rows = np.full((number.size, width + 2 * flags + 1), ord("0"), np.uint8)
    for k in range(width - 1, width - 1 - min(width, 3), -1):
        number, digit = np.divmod(number, 10)
        rows[:, k] += digit.astype(np.uint8)
    rows[:, width:-1:2] = ord(",")
    rows[:, -1] = ord("\n")
    rows.flags.writeable = False
    return rows


def _event_rows(start: int, events: np.ndarray):
    """CSV rows "train,flag[,flag]" for trains start, start + 1, ... as ASCII.

    A buffer holds whole tiles of S = 10^min(width, 3) trains of one digit
    width, no more rows than _EVENT_LOG_CHUNK where that is at least S, and
    is built in row order: one broadcast copies _row_template(width, flags)
    into every tile, each leading digit is written once per tile down its
    column, and only the set flags are written after.  The buffer's rows
    from start on are yielded for writelines, as a C-contiguous uint8 view.
    """
    flags = events.shape[1]
    stop = start + len(events)
    lo = start
    while lo < stop:
        width = len(str(lo))
        tile = 10 ** min(width, 3)
        first = lo // tile
        hi = min(stop, 10**width, (first + max(1, _EVENT_LOG_CHUNK // tile)) * tile)
        template = _row_template(width, flags)
        size = template.shape[1]
        out = np.empty((-(-hi // tile) - first, tile, size), np.uint8)
        out[:] = template
        number = np.arange(first, first + len(out))
        for k in range(width - 4, -1, -1):  # the digits above the last three
            number, digit = np.divmod(number, 10)
            out[:, :, k] = (digit + ord("0"))[:, None]
        rows = out.reshape(-1, size)[lo - first * tile:hi - first * tile]
        hit = np.flatnonzero(events[lo - start:hi - start])
        rows.reshape(-1)[hit // flags * size + width + 1 + 2 * (hit % flags)] = ord("1")
        yield rows
        lo = hi


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


def _given(args, *names: str, **renamed: str) -> dict:
    """The flags given, by flag or --config, as {library parameter: value}.

    renamed maps a parameter to its flag's dest.  A flag left out is
    dropped, so the library's own default applies.
    """
    dests = {name: name for name in names} | renamed
    return {name: getattr(args, dest) for name, dest in dests.items()
            if getattr(args, dest) is not None}


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

    def command(name, help_text):
        add = subparsers.add_parser(name, help=help_text).add_argument
        add("--config", action="append", help="flat key=value file supplying defaults")
        add("--output", help="write result here instead of stdout")
        return add

    def optimizer_flags(add):
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
    add("--ec-inefficiency", type=float)
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
    add("--p-dark", type=float)
    add("--delta", type=float, help="misalignment phase, radians")
    add("--bitflip", type=float, help="direct bit-flip probability")
    add("--jobs", type=int)
    add("--format", choices=("json", "csv"), default="json")

    add = command("rtag", "tagging probability of a block source")
    add("--L", type=int)
    add("--mu", type=float)
    add("--oracle", action="store_true", help="also run the brute-force check")
    add("--cap", type=int, help="per-pulse photon cap for the oracle")
    add("--work-limit", type=float)
    add("--source", help="distribution file instead of the Poissonian model")
    add("--format", choices=("json", "csv"), default="json")

    add = command("calibrate", "coincidence-counting bound on the tagging probability")
    add("--mode", choices=("2det", "3det"))
    add("--L", type=int, default=10)
    add("--mu", type=float)
    add("--n-trains", type=int)
    add("--seed", type=int, default=0)
    add("--jobs", type=int)
    for name, field in _BENCH_FIELDS.items():  # annotations are strings here
        add("--" + name.replace("_", "-"), type=int if field.type == "int" else float)
    add("--source", help="distribution file instead of the Poissonian model")
    add("--event-log", help="write per-train coincidence flags to this CSV")
    add("--format", choices=("json", "csv"), default="json")

    return parser, subparsers.choices


@functools.cache
def _parser():
    """The parser and its subcommands' parsers, built once, shared by every call."""
    return _build_parser()


def _parse_argv(argv: list) -> argparse.Namespace:
    """argv's namespace, as _build_parser()'s parse_args gives it, in one pass.

    An argv that starts with a subcommand goes to that subcommand's parser
    alone, as the top-level parser would hand it on, and a leftover argument
    is refused by the top-level parser's error, as parse_args refuses it.
    Any other argv (none, --help, an unknown command) goes to the top level.
    """
    parser, subs = _parser()
    sub = subs.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _config_defaults(path: str, sub: argparse.ArgumentParser) -> dict:
    """The file's values by dest, converted and checked as sub's flags are."""
    actions = {action.dest: action for action in sub._actions
               if action.dest not in ("help", "config")}
    text = _read_text("config", Path(path))
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError("config", f"line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        dest = key.strip().replace("-", "_")
        if dest not in actions:
            raise ParameterError("config", f"unknown key {key.strip()!r}")
        action = actions[dest]
        convert = _parse_bool if action.nargs == 0 else action.type or str
        try:
            overrides[dest] = convert(value.strip())
        except ValueError:
            raise ParameterError(dest, f"invalid value {value.strip()!r}") from None
        if action.choices is not None and overrides[dest] not in action.choices:
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


def _optimizer_settings(args) -> dict:
    """mu_bounds (a lone --mu-lo or --mu-hi pairs with the default) and a given --tol."""
    mu_lo = DEFAULT_MU_BOUNDS[0] if args.mu_lo is None else args.mu_lo
    mu_hi = DEFAULT_MU_BOUNDS[1] if args.mu_hi is None else args.mu_hi
    return {"mu_bounds": (mu_lo, mu_hi), **_given(args, tolerance="tol")}


def cmd_keyrate(args) -> list[dict]:
    L = _require(args, "L")
    error_rate = _require(args, "error_rate")
    eta, eta_db = _resolve_eta(args)
    if args.optimize and args.mu is not None:
        raise ParameterError("mu", "give either --mu or --optimize, not both")
    if not args.optimize and args.mu is None:
        raise ParameterError("mu", "required unless --optimize is given")
    if not args.optimize:
        for name in _given(args, "mu_lo", "mu_hi", "tol"):
            raise ParameterError(name, "applies only with --optimize")
    given = _given(args, "ec_inefficiency")
    if args.optimize and given:
        raise ParameterError("ec_inefficiency", "fixed to 1 when optimizing; use --mu")

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
        mu, _ = optimize_mu(L, eta, error_rate, **_optimizer_settings(args))
    else:
        mu = args.mu

    Q = report = None
    if mu is not None:  # None: the optimizer found no feasible mu
        Q = channel_q(L, mu, eta)
        inputs = RateInputs.from_error_rates(L, mu, args.p0, Q, error_rate, error_rate)
        report = key_rate(inputs, **given)
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
    span = (hi - lo) / step
    # the grid has floor(span + 1e-9) + 1 points; an infinite span fails too
    if not span + 1e-9 < _DB_GRID_MAX:
        raise ParameterError("eta_db_range", "too many grid points")
    return [lo + k * step for k in range(int(math.floor(span + 1e-9)) + 1)]


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
    # sweep's rows run L-major, eta-ascending (ties: dB descending); label
    # them by position, since points that round to one eta are distinct rows
    order = sorted(reversed(range(len(etas))), key=etas.__getitem__)
    labels = [db_grid[i] for i in order]

    spec = SweepSpec(
        L_values=L_values,
        eta_values=tuple(etas),
        error_rate=error_rate,
        **_optimizer_settings(args),
    )
    return [
        {"L": L, "eta_db": db, "eta": eta, "mu_opt": math.nan if mu is None else mu,
         "Q": Q, "rtag": rtag, "rate": rate}
        for (L, eta, mu, Q, rtag, rate), db in zip(sweep(spec), labels * len(L_values))
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
        **_given(args, "p_dark", e_mis="delta", p_flip="bitflip"),
    )
    stats = run_simulation(params, channel, **_given(args, n_jobs="jobs"))
    report = estimate_key_rate(stats, params)
    stats_record = {"record": "observed_stats", **_fields(stats)}
    rate_record = {
        "record": "keyrate",
        "L": params.L,
        "mu": params.mu,
        "p0": params.p0,
        "Q": min(stats.Q_hat, 1.0),  # the yield the rate used
        **_rate_fields(report),
    }
    return [stats_record, rate_record]


def cmd_rtag(args) -> list[dict]:
    if not args.oracle:
        for name in _given(args, "cap", "work_limit"):
            raise ParameterError(name, "applies only with --oracle")
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
                params, **_given(args, "work_limit", photon_cap="cap")
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
    given = _given(args, "L", "mu", *_BENCH_FIELDS, "source", n_test="n_trains")
    own = {field.name for field in dataclasses.fields(setup_cls)}
    for name in given:
        if name not in own:
            raise ParameterError(name, f"not valid for mode {mode}")
    path = given.pop("source", None)
    if path is not None:
        given["source"] = SourceDistribution.from_file(path)
    setup = setup_cls(**given)
    report = simulate(
        setup, seed=args.seed, collect_events=collect, **_given(args, n_jobs="jobs")
    )

    if collect:
        columns = ["train", "double", "triple"][:1 + report.events.shape[1]]
        with open(_resolve_out(args.event_log), "wb") as handle:
            handle.write((",".join(columns) + "\n").encode())
            handle.writelines(_event_rows(0, report.events))
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


# the exit code of each error main reports; MemoryError is numpy refusing an array
_EXIT_CODES = {ParameterError: 2, OSError: 3, WorkLimitError: 4, MemoryError: 4}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_argv(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    parser, subs = _parser()
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.config is not None:
            if len(args.config) > 1:
                raise ParameterError("config", "give at most one --config file")
            # argparse fills in a default only where the namespace has no
            # value, so the file's values stand in for defaults, flags win
            sub = subs[args.command]
            config = argparse.Namespace(
                command=args.command, **_config_defaults(args.config[0], sub))
            args = sub.parse_args(argv[argv.index(args.command) + 1:], config)
        records = _HANDLERS[args.command](args)
        # sweep has no --format: its records are CSV
        _emit(_render(records, getattr(args, "format", "csv")), args.output)
        return 0
    except tuple(_EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def main_entry() -> None:
    sys.exit(main())
