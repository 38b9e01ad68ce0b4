"""dqps benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a dqps checkout and imports the package from its
``src/`` directory, never from an installed copy.  The workload's calls are
repeated, each pass after the previous one, until ``--seconds`` have passed.
Each call is timed on its own, adjusted to a reference speed (see
``reference.py``), and reported as its median over the passes.  With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.  ``--workload all`` runs every
workload untraced and traced, each in a fresh process, and prints every
metric.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record with
the environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 15  # at least; two are taken after every untraced pass
MIN_TRACED_PASSES = 2  # optimize_mu's p95 needs >= 200 samples; a sweep pass has 199

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import reference\n"
    "sys.path[0] = sys.argv[1]\n"
    "before = reference.loop_seconds()\n"
    "t = time.perf_counter()\n"
    "import dqps, dqps.cli\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t), repr(reference.adjust(t, before, reference.loop_seconds())))\n"
)


def _load_dqps():
    if not (SRC / "dqps" / "__init__.py").is_file():
        raise SystemExit(f"error: no dqps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dqps
    import dqps.cli
    import dqps.tagging
    if Path(dqps.__file__).resolve().parent != SRC / "dqps":
        raise SystemExit(f"error: imported dqps from {dqps.__file__}, not {SRC}")
    return dqps


def fresh_import_seconds() -> tuple[float, float]:
    """Time `import dqps, dqps.cli` in a new interpreter: raw and adjusted
    to the reference speed."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    raw, adjusted = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(adjusted)


def tail(values):
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    fitting = [pct for pct in (90, 95, 99, 99.9)
               if len(values) * (1 - pct / 100) >= 10 - 1e-9]
    if not fitting:
        return None
    return fitting[-1], _percentile(values, fitting[-1])


def _percentile(values, pct):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(pct / 100 * (len(ordered) - 1))))]


def execute(dqps, call, kernel):
    """Run one CLI call in-process with stdout captured, timing the
    reference kernel right before and after it."""
    # a CLI user starts a new process, so the oracle's table cache is cold
    dqps.tagging._tagged_weight_histogram.cache_clear()
    for path in call.files:  # checks must not see an earlier pass's file
        path.unlink(missing_ok=True)
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        before = kernel.seconds()
        start = time.perf_counter()
        try:
            rc = dqps.cli.main(call.argv)
        except Exception as exc:  # a raised exception is a failed operation
            rc, error = None, repr(exc)
        elapsed = time.perf_counter() - start
        after = kernel.seconds()
    stdout = buf.getvalue()
    written = sum(p.stat().st_size for p in call.files if p.exists())
    return workloads.CallResult(
        rc=rc, stdout=stdout, elapsed=elapsed,
        adjusted=reference.adjust(elapsed, before, after, kernel.nominal_s),
        error=error,
        warnings=[w.category.__name__ for w in caught],
        output_bytes=len(stdout.encode()) + written,
    )


def run_pass(dqps, workload, kernel):
    start = time.perf_counter()
    results = {call.name: execute(dqps, call, kernel) for call in workload.calls}
    wall = time.perf_counter() - start
    try:
        verdict = workload.check(results)
    except Exception as exc:  # unparseable output is a wrong output
        verdict = workloads.Verdict(
            attempted=len(workload.calls), failed=len(workload.calls),
            problems=[f"check raised {exc!r}"])
    return {
        "wall": wall,
        "results": results,
        "verdict": verdict,
    }


def environment(dqps, args, workload) -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dqps": dqps.__version__,
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "why": workload.why,
        "item": workload.item,
    }


def metric(value, unit, samples=None):
    if unit == "count" and float(value).is_integer():
        value = int(value)
    entry = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = len(samples)
        t = tail(samples)
        if t is not None:
            entry[f"p{t[0]:g}"] = t[1]
    return entry


def fixed_work_seconds(passes, names, field="adjusted") -> float:
    """Time of one pass over the named calls, each call at its median time
    across the passes; adjusted to the reference speed unless ``field`` is
    ``"elapsed"``.

    A call that ran during a burst of host load is an outlier of that call
    alone, so medians taken call by call reject it where the median of
    whole passes would not.
    """
    return sum(statistics.median(getattr(p["results"][name], field) for p in passes)
               for name in names)


def end_to_end(workload, setup, passes) -> dict:
    walls = [p["wall"] for p in passes]
    names = [call.name for call in workload.calls]
    adjusted_setup = [a for _, a in setup]
    m = {
        "setup_s": metric(statistics.median(adjusted_setup), "s", adjusted_setup),
        "wall_s": metric(fixed_work_seconds(passes, names), "s", walls),
        "items_per_s": metric(
            workload.items / fixed_work_seconds(passes, workload.item_calls),
            "1/s", walls),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # the same figures unadjusted, for the record
    m["setup_s"]["raw"] = statistics.median(r for r, _ in setup)
    m["wall_s"]["raw"] = fixed_work_seconds(passes, names, "elapsed")
    m["items_per_s"]["raw"] = workload.items / fixed_work_seconds(
        passes, workload.item_calls, "elapsed")
    return m


def per_layer(workload, untraced, traced, tracers) -> dict:
    per_pass = [spans.summarize(t.spans) for t in tracers]

    def calls(name):
        return statistics.median(s["by_name"].get(name, {}).get("calls", 0)
                                 for s in per_pass)

    def self_s(name):
        return statistics.median(s["by_name"].get(name, {}).get("self_s", 0.0)
                                 for s in per_pass)

    def count(key):
        return statistics.median(s["counts"].get(key, 0) for s in per_pass)

    m = {}
    for name in ("tagging.rtag_coherent", "tagging.rtag_bruteforce",
                 "tagging.rtag_general", "keyrate.key_rate",
                 "optimize.optimize_mu", "protocol.run_simulation",
                 "protocol.detection_means", "calibration.simulate_two_detector",
                 "calibration.simulate_three_detector"):
        m[f"{name}.calls"] = metric(calls(name), "count")
        m[f"{name}.self_s"] = metric(self_s(name), "s")
    m["keyrate.channel_q.calls"] = metric(calls("keyrate.channel_q"), "count")

    opt_ms = [d * 1e3 for s in per_pass
              for d in s["by_name"].get("optimize.optimize_mu", {}).get("durations", ())]
    m["optimize.optimize_mu.p50_ms"] = metric(
        statistics.median(opt_ms) if opt_ms else 0.0, "ms", opt_ms)
    m["optimize.optimize_mu.p95_ms"] = metric(
        _percentile(opt_ms, 95) if len(opt_ms) >= 200 else 0.0, "ms")
    m["optimize.optimize_mu.samples"] = metric(len(opt_ms), "count")
    n_opt = calls("optimize.optimize_mu")
    m["optimize.rate_evals_per_point"] = metric(
        count("optimize.rate_evals") / n_opt if n_opt else 0.0, "count")
    m["optimize.sweep.self_s"] = metric(self_s("optimize.sweep"), "s")
    m["optimize.zero_rate_points"] = metric(count("optimize.zero_rate_points"), "count")

    m["protocol.blocks"] = metric(count("protocol.blocks"), "count")
    m["protocol.detection_means.elements"] = metric(
        count("protocol.detection_means.elements"), "count")
    m["protocol.estimate_key_rate.self_s"] = metric(
        self_s("protocol.estimate_key_rate"), "s")
    for jobs in (1, 2):
        m[f"protocol.blocks_per_s_jobs{jobs}"] = metric(
            _jobs_rate(workload, traced, f"simulate_jobs{jobs}"), "1/s")
    m["protocol.thin_warnings"] = metric(statistics.median(
        sum(r.warnings.count("ThinStatisticsWarning")
            for name, r in p["results"].items() if name.startswith("simulate"))
        for p in traced), "count")

    for layer in ("simulate_two_detector", "simulate_three_detector"):
        m[f"calibration.{layer}.trains"] = metric(
            count(f"calibration.{layer}.trains"), "count")
    m["calibration.event_rows"] = metric(count("calibration.event_rows"), "count")

    m["cli.main.calls"] = metric(calls("cli.main"), "count")
    m["cli.self_s"] = metric(self_s("cli.main"), "s")
    m["cli.output_bytes"] = metric(statistics.median(
        sum(r.output_bytes for r in p["results"].values()) for p in traced), "count")

    names = [call.name for call in workload.calls]
    m["trace.overhead_s"] = metric(
        fixed_work_seconds(traced, names) - fixed_work_seconds(untraced, names), "s")
    m["trace.spans"] = metric(statistics.median(len(t.spans) for t in tracers), "count")
    return m


def _jobs_rate(workload, passes, call_name):
    """Blocks per second of one simulate call at the reference speed, from
    the traced passes."""
    call = next((c for c in workload.calls if c.name == call_name), None)
    if call is None:
        return 0.0
    blocks = int(call.argv[call.argv.index("--blocks") + 1])
    return statistics.median(blocks / p["results"][call_name].adjusted for p in passes)


def _time_left(start, seconds, *pass_lists) -> bool:
    """Whether one more round of passes, at their median length, still
    ends within the run's seconds."""
    needed = sum(statistics.median(p["wall"] for p in passes) for passes in pass_lists)
    return time.perf_counter() - start + needed <= seconds


def run_workload(args) -> int:
    dqps = _load_dqps()
    OUT.mkdir(exist_ok=True)
    setup = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        env = environment(dqps, args, workload)
        kernel = reference.MixedKernel()
        untraced, traced, tracers = [], [], []
        start = time.perf_counter()
        if args.trace:
            while len(traced) < MIN_TRACED_PASSES or _time_left(
                    start, args.seconds, untraced, traced):
                untraced.append(run_pass(dqps, workload, kernel))
                tracer = spans.Tracer()
                with tracer.installed():
                    traced.append(run_pass(dqps, workload, kernel))
                tracers.append(tracer)
            leftover = spans.installed_wrappers()
            if leftover:
                raise RuntimeError(f"tracing wrappers left installed: {leftover}")
        else:
            # set-up samples are spread over the run so that they see the
            # same machine load as the passes
            setup += [fresh_import_seconds() for _ in range(3)]
            while not untraced or _time_left(start, args.seconds, untraced):
                untraced.append(run_pass(dqps, workload, kernel))
                setup += [fresh_import_seconds() for _ in range(2)]
            while len(setup) < SETUP_SAMPLES:
                setup.append(fresh_import_seconds())

    passes = untraced + traced
    attempted = sum(p["verdict"].attempted for p in passes)
    failed = sum(p["verdict"].failed for p in passes)
    problems = [msg for p in passes for msg in p["verdict"].problems]
    zero_rate_rows = sum(p["verdict"].zero_rate_rows for p in passes)
    if args.trace:
        metrics = per_layer(workload, untraced, traced, tracers)
    else:
        metrics = end_to_end(workload, setup, untraced)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "pass_wall_s": [p["wall"] for p in untraced],
        "traced_pass_wall_s": [p["wall"] for p in traced],
        "correct": not problems, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "zero_rate_rows": zero_rate_rows,
        "problems": problems[:50],
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracers:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for i, t in enumerate(tracers):
                t.dump(fh, i)

    print(f"# dqps benchmark: workload {args.workload} ({workload.why})")
    print(f"# seed {args.seed}, {len(untraced)} untraced and {len(traced)} traced "
          f"passes, item = {workload.item}")
    print(f"# env: {json.dumps({k: env[k] for k in ('cpu', 'nproc', 'python', 'numpy', 'dqps', 'commit')})}")
    for name, entry in metrics.items():
        extra = "".join(f" {k}={v:.6g}" if isinstance(v, float) else f" {k}={v}"
                        for k, v in entry.items() if k not in ("value", "unit"))
        value = entry["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:48s} {shown} {entry['unit']:6s}{extra}")
    print(f"checks: attempted {attempted}, failed {failed} "
          f"(fail_ratio {failed / attempted:.4f}), wrong outputs {len(problems)}")
    if zero_rate_rows:
        print(f"known defect: {zero_rate_rows} sweep rows at >= "
              f"{workloads.ZERO_RATE_TAIL_DB:g} dB with no optimum (rate 0)")
    for msg in problems[:10]:
        print(f"  wrong: {msg}")
    print(f"# full record: {OUT / (stem + '.json')}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    status = 0
    summary = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                status = 1
            summary[f"{name}/trace{trace}"] = (
                None if result is None else
                {k: result[k] for k in ("correct", "attempted", "failed")})
    print(json.dumps({"summary": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "simulate", "calibrate", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
