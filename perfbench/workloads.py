"""The benchmark's workloads: fixed lists of real ``dqps`` CLI invocations.

Each workload is built from the benchmark seed alone; the program only ever
sees the generated command lines and input files.  A pass runs the calls in
order, one after the other (a closed loop with one client), and each
workload checks the outputs of its own calls.

An operation is one CLI call, except that a ``sweep`` call counts one
operation per expected row.  An operation *fails* when the call exits
nonzero or raises, or when its output does not pass the check.  An output
that is *wrong* (an inconsistent row, a statistic far from its closed form,
outputs that differ across ``--jobs``) also clears the run's ``correct``
flag.

A sweep row with no optimum (``mu_opt`` NaN and rate 0, the optimizer's own
way of saying it found nothing) is the optimizer's known high-loss defect
when its loss is at least ``ZERO_RATE_TAIL_DB``: the model's rate is
positive there, but every grid point of the optimizer evaluates to zero.
Such rows are kept in the grid and counted on their own
(``Verdict.zero_rate_rows``), not as failed operations, so that the work
they cost stays measured and their count shows when the defect is fixed.
Below that loss a row with no optimum is a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SWEEP_HEADER = "L,eta_db,eta,mu_opt,Q,rtag,rate"
MU_BRACKET = (1e-6, 1.0)  # dqps sweep's default --mu-lo / --mu-hi
# the optimizer finds no optimum from about 55 dB at e = 0.03 today; a
# no-optimum row at lower loss would be a new failure, not the known one
ZERO_RATE_TAIL_DB = 50.0
COARSE_WINDOW = 2  # L = 1000 grid points per sweep call


@dataclass
class Call:
    name: str
    argv: list[str]
    files: tuple[Path, ...] = ()  # files the call writes, counted as output


@dataclass
class CallResult:
    rc: int | None  # None when the call raised
    stdout: str
    elapsed: float
    adjusted: float  # elapsed at the reference speed (reference.py)
    error: str | None = None
    warnings: list[str] = field(default_factory=list)
    output_bytes: int = 0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # wrong outputs
    zero_rate_rows: int = 0  # sweep rows of the known no-optimum tail

    def fail(self, n: int = 1) -> None:
        self.failed += n

    def wrong(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class Workload:
    name: str
    why: str
    item: str  # what items_per_s counts
    calls: list[Call]
    item_calls: tuple[str, ...]  # calls whose time the item rate divides by
    items: int  # items those calls process per pass
    check: Callable[[dict[str, CallResult]], Verdict]


def _call_ok(result: CallResult) -> bool:
    return result.rc == 0 and result.error is None


# ---------------------------------------------------------------------------
# sweep


def _grid(lo: float, hi: float, step: float) -> list[float]:
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def _check_sweep_rows(stdout: str, L_values, grid, verdict: Verdict, label: str) -> None:
    expected = {(L, round(db, 9)) for L in L_values for db in grid}
    lines = stdout.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        verdict.wrong(f"{label}: bad header {lines[:1]!r}")
        verdict.fail(len(expected) - 1)
        return
    seen = set()
    for row in csv.reader(lines[1:]):
        L, eta_db, eta, mu_opt, Q, rtag, rate = (
            int(row[0]), *(float(x) for x in row[1:]))
        key = (L, round(eta_db, 9))
        if key not in expected or key in seen:
            verdict.problems.append(f"{label}: unexpected row L={L} eta_db={eta_db}")
            continue
        seen.add(key)
        if rate == 0.0 and math.isnan(mu_opt):
            if eta_db >= ZERO_RATE_TAIL_DB:
                verdict.zero_rate_rows += 1
            else:
                verdict.fail()
            continue
        q_model = -math.expm1(-(L - 1) * mu_opt * eta)
        if not (math.isfinite(rate) and rate > 0.0):
            verdict.wrong(f"{label}: L={L} {eta_db} dB rate {rate!r}")
        elif not MU_BRACKET[0] <= mu_opt <= MU_BRACKET[1]:
            verdict.wrong(f"{label}: L={L} {eta_db} dB mu_opt {mu_opt!r} outside bracket")
        elif not math.isclose(Q, q_model, rel_tol=1e-12):
            verdict.wrong(f"{label}: L={L} {eta_db} dB Q {Q!r} != {q_model!r}")
        elif not (0.0 <= rtag < Q and rate <= Q / L):
            verdict.wrong(f"{label}: L={L} {eta_db} dB rtag {rtag!r} rate {rate!r}")
    missing = len(expected - seen)
    if missing:
        verdict.wrong(f"{label}: {missing} rows missing")
        verdict.fail(missing - 1)


def sweep(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    offset = round(rng.random(), 3)  # sub-dB shift of the whole loss grid
    fine_L, coarse_L = (2, 4, 20), 1000
    fine_step, coarse_step = (20.0, 30.0) if tiny else (1.0, 4.0)
    fine = _grid(offset, offset + 60.0, fine_step)
    coarse = _grid(offset, offset + 60.0, coarse_step)
    oracle_pairs = [(4, 4)] if tiny else [(4, 8), (5, 7), (6, 8), (7, 8)]
    oracles = [(L, cap, round(rng.uniform(0.05, 0.3), 4)) for L, cap in oracle_pairs]

    # Each call sweeps one L over a stretch of the grid and takes a few
    # tenths of a second, so that a pass is many short calls: the
    # per-call medians then see through load bursts of a second or two.
    # L = 1000 costs about 30 times more per row than the small L, so its
    # grid is split into windows of COARSE_WINDOW points.
    sweeps = {f"sweep_L{L}": (L, fine) for L in fine_L}
    for k in range(0, len(coarse), COARSE_WINDOW):
        sweeps[f"sweep_L{coarse_L}_{k}"] = (coarse_L, coarse[k:k + COARSE_WINDOW])

    def sweep_call(name, L, grid, step):
        return Call(name, [
            "sweep", "--L-list", str(L),
            "--eta-db-range", f"{grid[0]:.3f}:{grid[-1]:.3f}:{step:g}",
            "--error-rate", "0.03",
        ])

    calls = [sweep_call(name, L, grid, fine_step if L in fine_L else coarse_step)
             for name, (L, grid) in sweeps.items()]
    for L, cap, mu in oracles:
        calls.append(Call(f"rtag_L{L}_cap{cap}", [
            "rtag", "--L", str(L), "--mu", repr(mu), "--oracle", "--cap", str(cap),
        ]))

    def check(results):
        verdict = Verdict()
        for name, (L, grid) in sweeps.items():
            verdict.attempted += len(grid)
            if not _call_ok(results[name]):
                verdict.fail(len(grid))
                continue
            _check_sweep_rows(results[name].stdout, (L,), grid, verdict, name)
        for L, cap, mu in oracles:
            name = f"rtag_L{L}_cap{cap}"
            verdict.attempted += 1
            if not _call_ok(results[name]):
                verdict.fail()
                continue
            rec = json.loads(results[name].stdout)
            gap = abs(rec["value"] - rec["oracle_value"])
            if not gap <= rec["truncation_bound"] + 1e-12:
                verdict.wrong(f"{name}: closed form and oracle differ by {gap!r}")
        return verdict

    return Workload(
        name="sweep",
        why="rtag_coherent, key_rate and optimize_mu over a 0-60 dB loss grid "
            "(zero-rate tail kept) plus cold-cache rtag oracles; no Monte Carlo",
        item="optimised (L, eta) row",
        calls=calls,
        item_calls=tuple(sweeps),
        items=len(fine_L) * len(fine) + len(coarse),
        check=check,
    )


# ---------------------------------------------------------------------------
# simulate

SIM_L, SIM_MU, SIM_ETA, SIM_DELTA = 20, 0.005, 0.01, 0.2


def simulate(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    blocks = 2**15 if tiny else 2**20

    def sim_call(jobs):
        return Call(f"simulate_jobs{jobs}", [
            "simulate", "--L", str(SIM_L), "--mu", repr(SIM_MU), "--eta", repr(SIM_ETA),
            "--delta", repr(SIM_DELTA), "--blocks", str(blocks), "--seed", str(seed),
            "--jobs", str(jobs),
        ])

    def check(results):
        verdict = Verdict(attempted=2)
        one, two = results["simulate_jobs1"], results["simulate_jobs2"]
        for result in (one, two):
            if not _call_ok(result):
                verdict.fail()
        if not (_call_ok(one) and _call_ok(two)):
            return verdict
        if one.stdout != two.stdout:
            verdict.wrong("simulate: --jobs 1 and --jobs 2 outputs differ")
        stats, rate = (json.loads(line) for line in one.stdout.splitlines())
        p0 = 0.5
        q = -math.expm1(-(SIM_L - 1) * SIM_MU * SIM_ETA)
        p_cell = p0**2 * q
        sigma_q = math.sqrt(p_cell * (1 - p_cell) / blocks) / p0**2
        if abs(stats["Q_hat"] - q) > 5 * sigma_q:
            verdict.wrong(f"simulate: Q_hat {stats['Q_hat']!r} vs {q!r} (sigma {sigma_q:.3g})")
        e = math.sin(SIM_DELTA / 2) ** 2
        n_sifted = stats["sifted_data"]
        e_hat = stats["E0_hat"] / stats["Q_hat"]
        sigma_e = math.sqrt(e * (1 - e) / max(n_sifted, 1))
        if abs(e_hat - e) > 5 * sigma_e:
            verdict.wrong(f"simulate: E0/Q {e_hat!r} vs {e!r} (sigma {sigma_e:.3g})")
        if not (math.isfinite(rate["rate_per_pulse"]) and rate["rate_per_pulse"] >= 0):
            verdict.wrong(f"simulate: rate {rate['rate_per_pulse']!r}")
        return verdict

    return Workload(
        name="simulate",
        why="protocol batch kernel and dense detection_means arrays at --jobs 1 "
            "and 2 with byte-identical output; no optimizer",
        # both runs count: one 3-second call sampled a few times per run
        # is too few samples to hold a rate steady on a shared host
        item="simulated block, at --jobs 1 and at --jobs 2",
        calls=[sim_call(1), sim_call(2)],
        item_calls=("simulate_jobs1", "simulate_jobs2"),
        items=2 * blocks,
        check=check,
    )


# ---------------------------------------------------------------------------
# calibrate

CAL_L, CAL_MU = 10, 0.02


def _is_tagged(config) -> bool:
    return any(k >= 2 for k in config) or any(
        a + b >= 2 for a, b in zip(config, config[1:]))


def _configs(L: int, budget: int):
    """Every length-L tuple of photon counts summing to at most budget."""
    if L == 0:
        yield ()
        return
    for k in range(budget + 1):
        for rest in _configs(L - 1, budget - k):
            yield (k, *rest)


def source_table(seed: int, L: int = CAL_L, max_photons: int = 3):
    """A seeded photon-number table: every L-pulse configuration with at
    most max_photons photons, product-Poisson weights with a jittered mean
    per pulse, normalised."""
    rng = random.Random(seed)
    means = [CAL_MU * rng.uniform(0.8, 1.2) for _ in range(L)]
    rows = []
    for config in _configs(L, max_photons):
        w = math.prod(m**k / math.factorial(k) for m, k in zip(means, config))
        rows.append((config, w))
    total = math.fsum(w for _, w in rows)
    return [(config, w / total) for config, w in rows]


def calibrate(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    trains = 20_000 if tiny else 1_000_000
    log_trains = 10_000 if tiny else 100_000
    table = source_table(seed)
    table_path = workdir / "source_table.txt"
    table_path.write_text("".join(
        " ".join(map(str, config)) + f" {p!r}\n" for config, p in table))
    table_rtag = math.fsum(p for config, p in table if _is_tagged(config))
    log_path = workdir / "events.csv"

    def cal_call(name, mode, n, *extra, files=()):
        argv = ["calibrate", "--mode", mode, "--L", str(CAL_L), "--mu", repr(CAL_MU),
                "--n-trains", str(n), "--seed", str(seed)]
        if mode == "3det":
            argv += ["--dead-time", "1"]
        return Call(name, argv + list(extra), files)

    calls = [
        cal_call("calibrate_2det", "2det", trains),
        cal_call("calibrate_3det", "3det", trains),
        cal_call("calibrate_2det_source", "2det", trains, "--source", str(table_path)),
        cal_call("calibrate_3det_log", "3det", log_trains,
                 "--event-log", str(log_path), files=(log_path,)),
    ]

    def check(results):
        verdict = Verdict(attempted=len(calls))
        for call in calls:
            result = results[call.name]
            if not _call_ok(result):
                verdict.fail()
                continue
            rec = json.loads(result.stdout)
            n = int(call.argv[call.argv.index("--n-trains") + 1])
            if rec["n_test"] != n:
                verdict.wrong(f"{call.name}: n_test {rec['n_test']} != {n}")
            elif not rec["slack"] >= -5 * rec["sigma"]:
                verdict.wrong(f"{call.name}: slack {rec['slack']!r} below -5 sigma")
            elif call.name == "calibrate_2det_source" and not math.isclose(
                    rec["true_rtag"], table_rtag, rel_tol=1e-12):
                verdict.wrong(f"{call.name}: true_rtag {rec['true_rtag']!r} != {table_rtag!r}")
            elif call.files:
                _check_event_log(log_path, rec, verdict, call.name)
        return verdict

    return Workload(
        name="calibrate",
        why="two- and three-detector calibration kernels, a generated --source "
            "table and a materialised --event-log; no optimizer",
        item="calibration train",
        calls=calls,
        item_calls=tuple(c.name for c in calls),
        items=3 * trains + log_trains,
        check=check,
    )


def _check_event_log(path: Path, rec: dict, verdict: Verdict, label: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["train", "double", "triple"]:
        verdict.wrong(f"{label}: event-log header {rows[0]!r}")
        return
    body = rows[1:]
    doubles = sum(int(r[1]) for r in body)
    triples = sum(int(r[2]) for r in body)
    if len(body) != rec["n_test"]:
        verdict.wrong(f"{label}: event log has {len(body)} rows, n_test {rec['n_test']}")
    elif doubles != rec["n_double"] or triples != rec["n_triple"]:
        verdict.wrong(f"{label}: event-log sums {doubles}/{triples} != "
                      f"{rec['n_double']}/{rec['n_triple']}")


WORKLOADS = {"sweep": sweep, "simulate": simulate, "calibrate": calibrate}
