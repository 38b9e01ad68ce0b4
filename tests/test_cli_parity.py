"""The CLI parity matrix: what every kind of dqps call prints, writes and returns.

CASES covers every subcommand, JSON and CSV, --output, --event-log,
--source, --help, --config (one case per subcommand, flags over the file,
and each way a config file can be refused) and the exit codes 0, 2, 3 and
4.  A case that ends in --jobs 1 and has a twin at --jobs 2 is a jobs pair:
the two must match byte for byte, over three batches or more.
Every case runs in one working directory that holds INPUTS.  The golden
file keeps, per case, the exit code, the sha256 of stdout, the sha256 of
each file the case writes, and the last stderr line when dqps itself
reports the error (argparse's own messages are left out).  For the
TEXT_CASES it also keeps stdout itself, so a re-record of those shows a
readable diff.  Help text is
kept by exit code only, since argparse lays it out differently across
Python versions.

A change to the golden file changes what the CLI does, so it has to be
deliberate.  To rewrite it:

    PYTHONPATH=src python tests/test_cli_parity.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import dqps
from dqps import protocol
from dqps.cli import main

GOLDEN_PATH = Path(__file__).resolve().with_name("cli_parity.json")

INPUTS = {
    "keyrate.cfg": "# a fixed-mu point\nL = 3\neta = 0.05\n\nerror-rate = 0.02\nmu = 0.01\n",
    "optimize.cfg": "L = 2\neta-db = 20\nerror_rate = 0.03\noptimize = yes\nmu-lo = 1e-5\n",
    "no-optimize.cfg": "optimize = no\n",
    "csv.cfg": "format = csv\n",
    "output.cfg": "output = out.json\n",
    "sweep.cfg": "L-list = 2,20\neta-db-range = 0:20:10\nerror-rate = 0.03\n",
    "simulate.cfg": "L = 4\nmu = 0.1\neta = 0.3\nblocks = 20000\nseed = 17\n"
                    "p-dark = 1e-3\ndelta = 0.2\njobs = 2\n",
    "rtag.cfg": "L = 5\nmu = 0.2\noracle = true\ncap = 6\n",
    "calibrate.cfg": "mode = 3det\nmu = 0.05\nn-trains = 20000\nseed = 13\n"
                     "eta-abs = 0.5\ndead-time = 2  # slots\nevent-log = events.csv\n",
    "unknown.cfg": "frobnicate = 1\n",
    "config.cfg": "config = keyrate.cfg\n",
    "help.cfg": "help = yes\n",
    "command.cfg": "command = sweep\n",
    "bad-int.cfg": "L = x\n",
    "bad-choice.cfg": "format = xml\n",
    "bad-bool.cfg": "optimize = maybe\n",
    "malformed.cfg": "L 3\n",
    "foreign.cfg": "blocks = 100\n",
    "pairs.txt": "# two-pulse table\n0 0 0.5\n1 0 0.2\n0 1 0.2\n1 1 0.05\n2 0 0.05\n",
    # slots of 5 and 7 photons, more than the 3 (2det) or 4 (3det) cells
    "crowded.txt": "# four-pulse table\n0 0 0 0 0.3\n1 1 0 0 0.2\n0 5 0 0 0.2\n"
                   "2 0 0 7 0.15\n1 0 3 0 0.15\n",
    # a pulse of 2^63 photons, one more than int64 holds
    "int64.txt": "0 0 0.5\n9223372036854775808 0 0.5\n",
}

KEYRATE = ("keyrate", "--L", "3", "--eta", "0.05", "--error-rate", "0.02", "--mu", "0.01")
OPTIMIZED = ("keyrate", "--L", "2", "--eta-db", "20", "--error-rate", "0.03", "--optimize")
INFEASIBLE = ("keyrate", "--L", "2", "--eta", "1e-4", "--error-rate", "0.25", "--optimize")
SIMULATE = ("simulate", "--L", "4", "--mu", "0.1", "--eta", "0.3", "--blocks", "20000",
            "--seed", "17")
# the benchmark's sparse regime (about 0.1% of blocks click) over four batches
# of about 4,096 expected clicks each
SIM_SPARSE = ("simulate", "--L", "20", "--mu", "0.005", "--eta", "0.01", "--delta", "0.2",
              "--blocks", "13000000", "--seed", "17")
# bright and noisy over three batches: double clicks, ties, flips and misalignment
SIM_BRIGHT = ("simulate", "--L", "3", "--mu", "2", "--eta", "1", "--p-dark", "0.05",
              "--delta", "0.4", "--bitflip", "0.05", "--blocks", "70000")
# the 40 dB row has no optimum in the default mu bracket: nan and rate 0
GOLDEN_SWEEP = ("sweep", "--L-list", "2", "--eta-db-range", "0:40:40", "--error-rate", "0.11")
RTAG = ("rtag", "--L", "5", "--mu", "0.2", "--oracle", "--cap", "6")
RTAG_SOURCE = ("rtag", "--source", "pairs.txt")
# L = 2^62, where rtag is 0.99984 and any error that grows with L shows
RTAG_LONG = ("rtag", "--L", "4611686018427387904", "--mu", "1.1221477682079803e-09")
# block lengths past the longest, 2^62, are refused: 10^400 is past the
# float range too, 10^320 is not
HUGE_L = "1" + "0" * 400
FAR_L = "1" + "0" * 320
CAL_2DET = ("calibrate", "--mode", "2det", "--mu", "0.02", "--n-trains", "20000",
            "--seed", "11")
CAL_3DET = ("calibrate", "--mode", "3det", "--mu", "0.05", "--n-trains", "20000",
            "--seed", "13", "--eta-abs", "0.5", "--dead-time", "2")
GOLDEN_2DET = ("calibrate", "--mode", "2det", "--mu", "0.02", "--n-trains", "50000",
               "--seed", "11")
GOLDEN_3DET = ("calibrate", "--mode", "3det", "--mu", "0.05", "--n-trains", "50000",
               "--seed", "13", "--eta-abs", "0.5", "--dead-time", "2")
GOLDEN_3DET_LOG = GOLDEN_3DET + ("--event-log", "events.csv", "--jobs", "2")
GOLDEN_SIMULATE = ("simulate", "--L", "4", "--mu", "0.1", "--eta", "0.3", "--blocks",
                   "50000", "--seed", "17", "--p-dark", "1e-3", "--delta", "0.2",
                   "--bitflip", "0.01", "--jobs", "2")
# three batches each, bright enough for triples
CAL_2DET_BATCHES = ("calibrate", "--mode", "2det", "--mu", "0.1", "--n-trains", "120000",
                    "--seed", "11")
CAL_3DET_BATCHES = ("calibrate", "--mode", "3det", "--mu", "0.3", "--n-trains", "70000",
                    "--seed", "13", "--eta-abs", "0.5")
CAL_3DET_SOURCE = ("calibrate", "--mode", "3det", "--L", "2", "--mu", "0.5", "--n-trains",
                   "100000", "--seed", "9", "--eta-abs", "0.8", "--source", "pairs.txt")
# the same table at 2det: kept share 0.1, so three batches of 40,960 trains
CAL_2DET_SOURCE = ("calibrate", "--mode", "2det", "--L", "2", "--mu", "0.5", "--n-trains",
                   "100000", "--seed", "9", "--source", "pairs.txt")
# a table whose slots hold more photons than cells: kept share 0.7, so 2det
# runs three batches of 32,768 trains and 3det two
CAL_2DET_CROWDED = ("calibrate", "--mode", "2det", "--L", "4", "--mu", "0.5", "--n-trains",
                    "70000", "--seed", "21", "--source", "crowded.txt")
CAL_3DET_CROWDED_LOG = ("calibrate", "--mode", "3det", "--L", "4", "--mu", "0.5",
                        "--n-trains", "40000", "--seed", "23", "--eta-abs", "0.8",
                        "--dead-time", "2", "--source", "crowded.txt",
                        "--event-log", "events.csv")
# L = 1000 over four batches
SIM_LONG = ("simulate", "--L", "1000", "--mu", "0.001", "--eta", "0.001", "--p-dark", "1e-6",
            "--blocks", "5000000")
# the crowded table at 3det over three batches
CAL_3DET_CROWDED = ("calibrate", "--mode", "3det", "--L", "4", "--mu", "0.5", "--eta-abs",
                    "0.8", "--n-trains", "70000", "--source", "crowded.txt")
# seven batches; a kept train's photons go one uniform each or by multinomial
# as they are no more or more than its 4 cells
CAL_2DET_BRIGHT = ("calibrate", "--mode", "2det", "--L", "2", "--mu", "4", "--n-trains",
                   "200000")
# an event log over four batches, two write chunks and 6-digit train numbers
CAL_3DET_LOG_BATCHES = ("calibrate", "--mode", "3det", "--mu", "0.3", "--eta-abs", "0.5",
                        "--dead-time", "2", "--n-trains", "100001", "--event-log",
                        "events.csv")

CASES = (
    (),
    ("--help",),
    ("frobnicate",),
    # keyrate
    KEYRATE,
    KEYRATE + ("--format", "csv"),
    KEYRATE + ("--output", "out.json"),
    KEYRATE + ("--output", "missing/out.json"),
    OPTIMIZED,
    INFEASIBLE,
    INFEASIBLE + ("--format", "csv"),
    ("keyrate", "--L", "1", "--eta", "0.05", "--error-rate", "0.02", "--mu", "0.01"),
    ("keyrate", "--L", "2", "--error-rate", "0.02", "--mu", "0.01"),
    ("keyrate", "--L", "2", "--eta", "0.05", "--error-rate", "0.02"),
    ("keyrate", "--L", HUGE_L, "--eta", "0.1", "--error-rate", "0.01", "--mu", "0.1"),
    ("keyrate", "--L", "x"),
    ("keyrate", "--frobnicate", "1"),
    ("keyrate", "--format", "xml"),
    ("keyrate", "--help"),
    # keyrate --config, and each way a config file is refused
    ("keyrate", "--config", "keyrate.cfg"),
    ("keyrate", "--config", "keyrate.cfg", "--mu", "0.02", "--format", "csv"),
    ("keyrate", "--mu", "0.02", "--config", "keyrate.cfg"),
    ("keyrate", "--config", "keyrate.cfg", "--optimize"),
    ("keyrate", "--config", "optimize.cfg"),
    ("keyrate", "--config", "optimize.cfg", "--mu-hi", "0.001", "--error-rate", "0.05"),
    ("keyrate", "--config", "no-optimize.cfg") + KEYRATE[1:],
    ("keyrate", "--config", "no-optimize.cfg", "--optimize", "--L", "2", "--eta-db", "20",
     "--error-rate", "0.03"),
    KEYRATE + ("--config", "csv.cfg"),
    KEYRATE + ("--config", "output.cfg"),
    KEYRATE + ("--config", "output.cfg", "--output", "mine.json"),
    ("keyrate", "--config", "unknown.cfg"),
    ("keyrate", "--config", "config.cfg"),
    ("keyrate", "--config", "help.cfg"),
    ("keyrate", "--config", "command.cfg"),
    ("keyrate", "--config", "bad-int.cfg"),
    ("keyrate", "--config", "bad-choice.cfg"),
    ("keyrate", "--config", "bad-bool.cfg"),
    ("keyrate", "--config", "malformed.cfg"),
    ("keyrate", "--config", "missing.cfg"),
    ("keyrate", "--config", "foreign.cfg"),
    ("keyrate", "--config"),
    # sweep
    GOLDEN_SWEEP,
    # several L in one call, L = 1000, and the zero-rate tail from 56 dB
    ("sweep", "--L-list", "2,4,20,1000", "--eta-db-range", "0.5:60.5:4", "--error-rate", "0.03"),
    # 2,401 rows: more than one optimizer chunk
    ("sweep", "--L-list", "4", "--eta-db-range", "0:60:0.025", "--error-rate", "0.03"),
    # f_EC = 0, and another round count
    ("sweep", "--L-list", "2,20", "--eta-db-range", "10:20:5", "--error-rate", "0",
     "--mu-lo", "1e-9", "--tol", "1e-6"),
    ("sweep", "--L-list", HUGE_L, "--eta-db-range", "10:12:2", "--error-rate", "0.01"),
    ("sweep", "--L-list", "2,x", "--eta-db-range", "0:40:40", "--error-rate", "0.11"),
    ("sweep", "--L-list", "2", "--eta-db-range", "0:40", "--error-rate", "0.11"),
    ("sweep", "--L-list", "2", "--eta-db-range", "0:x:40", "--error-rate", "0.11"),
    ("sweep", "--L-list", "2", "--eta-db-range", "0:inf:40", "--error-rate", "0.11"),
    # 10^9 + 1 points, refused before the grid is built
    ("sweep", "--L-list", "2", "--eta-db-range", "0:1e9:1", "--error-rate", "0.03"),
    ("sweep", "--config", "sweep.cfg"),
    ("sweep", "--config", "sweep.cfg", "--error-rate", "0.05", "--output", "sweep.csv"),
    ("sweep", "--config", "simulate.cfg"),
    ("sweep", "--config", "csv.cfg"),
    ("sweep", "--help"),
    # simulate
    SIMULATE,
    SIMULATE + ("--jobs", "2", "--bitflip", "0.01", "--output", "sim.json"),
    SIMULATE + ("--format", "csv"),
    GOLDEN_SIMULATE,
    SIM_SPARSE + ("--jobs", "1"),
    SIM_SPARSE + ("--jobs", "2"),
    SIM_BRIGHT + ("--jobs", "1"),
    SIM_BRIGHT + ("--jobs", "2"),
    SIM_LONG + ("--jobs", "1"),
    SIM_LONG + ("--jobs", "2"),
    ("simulate", "--L", "1000", "--mu", "0.001", "--eta", "0.001", "--p-dark", "1e-6",
     "--blocks", "50000", "--seed", "17"),
    # every block clicks at j = 1; Q_hat is noise around 1, and the rate reads it at 1
    ("simulate", "--L", "4", "--mu", "50", "--eta", "1", "--blocks", "20000", "--seed", "19"),
    ("simulate", "--L", "4", "--mu", "50", "--eta", "1", "--blocks", "20000", "--seed", "1"),
    # no block clicks
    ("simulate", "--L", "4", "--mu", "0.1", "--eta", "0", "--blocks", "20000", "--seed", "17"),
    ("simulate", "--L", FAR_L, "--mu", "1e-310", "--eta", "0.5", "--blocks", "10"),
    ("simulate", "--config", "simulate.cfg"),
    ("simulate", "--config", "simulate.cfg", "--seed", "3", "--jobs", "1"),
    ("simulate", "--config", "simulate.cfg", "--config", "csv.cfg"),
    ("simulate", "--config", "rtag.cfg"),
    ("simulate", "--help"),
    # rtag
    RTAG,
    RTAG + ("--format", "csv"),
    RTAG_SOURCE,
    RTAG_SOURCE + ("--format", "csv", "--output", "tag.csv"),
    RTAG_LONG,
    ("rtag", "--source", "missing.txt"),
    ("rtag", "--L", "9", "--mu", "0.1", "--oracle", "--cap", "10", "--work-limit", "1e8"),
    # oracle work past the float range, refused without forming it
    ("rtag", "--L", "100000", "--mu", "0.1", "--oracle"),
    ("rtag", "--L", "4611686018427387904", "--mu", "0.1", "--oracle"),
    # admitted work whose half-block table numpy cannot hold: too many bytes
    # (L = 72), and too many axes as well (L = 129)
    ("rtag", "--L", "72", "--mu", "0.1", "--oracle", "--cap", "2", "--work-limit", "inf"),
    ("rtag", "--L", "129", "--mu", "0.1", "--oracle", "--cap", "2", "--work-limit", "inf"),
    ("rtag", "--source", "int64.txt"),
    ("rtag", "--L", "2", "--mu", "0.1", "--cap", "4"),
    ("rtag", "--config", "rtag.cfg"),
    ("rtag", "--config", "rtag.cfg", "--cap", "4", "--format", "csv"),
    ("rtag", "--config", "rtag.cfg", "--work-limit", "10"),
    ("rtag", "--config", "rtag.cfg", "--source", "pairs.txt"),
    ("rtag", "--help"),
    # calibrate
    CAL_2DET,
    CAL_2DET + ("--format", "csv"),
    GOLDEN_2DET,
    GOLDEN_2DET + ("--format", "csv"),
    GOLDEN_3DET_LOG,
    GOLDEN_3DET + ("--format", "csv"),
    CAL_3DET + ("--event-log", "events.csv", "--jobs", "2"),
    CAL_3DET + ("--event-log", "missing/events.csv"),
    # 100,001 log rows cross a 65,000-row write buffer and the 5-to-6-digit train numbers
    ("calibrate", "--mode", "2det", "--mu", "0.05", "--n-trains", "100001", "--seed", "13",
     "--event-log", "events.csv"),
    ("calibrate", "--mode", "2det", "--L", "2", "--mu", "0.5", "--n-trains", "20000",
     "--seed", "9", "--source", "pairs.txt"),
    ("calibrate", "--mode", "3det", "--mu", "0.02", "--source", "pairs.txt"),
    CAL_2DET_BATCHES + ("--jobs", "1"),
    CAL_2DET_BATCHES + ("--jobs", "2"),
    CAL_3DET_BATCHES + ("--jobs", "1"),
    CAL_3DET_BATCHES + ("--jobs", "2"),
    CAL_3DET_SOURCE + ("--jobs", "1"),
    CAL_3DET_SOURCE + ("--jobs", "2"),
    CAL_2DET_SOURCE + ("--jobs", "1"),
    CAL_2DET_SOURCE + ("--jobs", "2"),
    CAL_2DET_CROWDED + ("--jobs", "1"),
    CAL_2DET_CROWDED + ("--jobs", "2"),
    CAL_3DET_CROWDED + ("--jobs", "1"),
    CAL_3DET_CROWDED + ("--jobs", "2"),
    CAL_3DET_CROWDED_LOG,
    CAL_2DET_BRIGHT + ("--jobs", "1"),
    CAL_2DET_BRIGHT + ("--jobs", "2"),
    CAL_3DET_LOG_BATCHES + ("--jobs", "1"),
    CAL_3DET_LOG_BATCHES + ("--jobs", "2"),
    # about 1e10 photons per train
    ("calibrate", "--mode", "2det", "--L", "2", "--mu", "1e10", "--n-trains", "10"),
    ("calibrate", "--mode", "3det", "--L", "2", "--mu", "1e10", "--n-trains", "10"),
    ("calibrate", "--mode", "2det", "--L", FAR_L, "--mu", "1e-310", "--n-trains", "10"),
    ("calibrate", "--mode", "2det", "--mu", "0.02", "--eta-abs", "0.5"),
    ("calibrate", "--mode", "4det"),
    ("calibrate", "--config", "calibrate.cfg"),
    ("calibrate", "--config", "calibrate.cfg", "--format", "csv", "--output", "cal.csv"),
    ("calibrate", "--config", "calibrate.cfg", "--mode", "2det"),
    ("calibrate", "--config", "keyrate.cfg"),
    ("calibrate", "--help"),
)

# cases whose stdout text is kept beside its hash
TEXT_CASES = (
    KEYRATE,
    KEYRATE + ("--format", "csv"),
    OPTIMIZED,
    INFEASIBLE,
    INFEASIBLE + ("--format", "csv"),
    GOLDEN_SWEEP,
    RTAG,
    RTAG + ("--format", "csv"),
    RTAG_SOURCE,
    RTAG_LONG,
    GOLDEN_SIMULATE,
    GOLDEN_2DET,
    GOLDEN_2DET + ("--format", "csv"),
    GOLDEN_3DET_LOG,
    GOLDEN_3DET + ("--format", "csv"),
)

# cases also run as fresh `python -m dqps` processes
FRESH_CASES = (
    (),
    ("--help",),
    ("keyrate", "--config", "keyrate.cfg", "--mu", "0.02", "--format", "csv"),
    ("keyrate", "--config", "missing.cfg"),
    ("rtag", "--L", "9", "--mu", "0.1", "--oracle", "--cap", "10", "--work-limit", "1e8"),
    # oracle work past the float range, refused without forming it
    ("rtag", "--L", "100000", "--mu", "0.1", "--oracle"),
    ("rtag", "--L", "4611686018427387904", "--mu", "0.1", "--oracle"),
    ("rtag", "--source", "int64.txt"),
    ("calibrate", "--config", "calibrate.cfg"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcome(argv, code, out: str, err: str, workdir: Path) -> dict:
    """What a case left behind; the files it wrote are read, then removed."""
    files = {}
    for path in sorted(workdir.iterdir()):
        if path.name not in INPUTS:
            files[path.name] = _sha256(path.read_bytes())
            path.unlink()
    lines = err.splitlines()
    outcome = {
        "exit": code,
        "stdout": None if "--help" in argv else _sha256(out.encode()),
        "files": files,
        "error": lines[-1] if lines and lines[-1].startswith("error: ") else None,
    }
    if argv in TEXT_CASES:
        outcome["text"] = out
    return outcome


def _run_in_process(argv, workdir: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return _outcome(argv, code, out.getvalue(), err.getvalue(), workdir)


def _run_fresh(argv, workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DQPS_OUTPUT_DIR"}
    env.update(PYTHONPATH=str(Path(dqps.__file__).parents[1]), COLUMNS="100")
    proc = subprocess.run(
        [sys.executable, "-m", "dqps", *argv], cwd=workdir, env=env,
        capture_output=True, text=True, timeout=60,
    )
    return _outcome(argv, proc.returncode, proc.stdout, proc.stderr, workdir)


def _write_inputs(workdir: Path) -> None:
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)


def _key(argv) -> str:
    return " ".join(argv)


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _prepare(monkeypatch, tmp_path):
    monkeypatch.delenv("DQPS_OUTPUT_DIR", raising=False)
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)


def test_every_case_has_one_golden_entry():
    assert len(set(map(_key, CASES))) == len(CASES)
    assert set(_golden()) == set(map(_key, CASES))
    assert set(FRESH_CASES) <= set(CASES)
    assert set(TEXT_CASES) <= set(CASES)


def test_the_matrix_covers_every_exit_code_and_subcommand():
    golden = _golden()
    assert {entry["exit"] for entry in golden.values()} == {0, 2, 3, 4}
    for command in ("keyrate", "sweep", "simulate", "rtag", "calibrate"):
        assert golden[_key((command, "--help"))]["exit"] == 0
        assert any(argv[:2] == (command, "--config") and golden[_key(argv)]["exit"] == 0
                   for argv in CASES), command


def _jobs_pairs():
    return [(argv, argv[:-1] + ("2",)) for argv in CASES
            if argv[-2:] == ("--jobs", "1") and argv[:-1] + ("2",) in CASES]


def test_a_second_job_changes_no_byte():
    golden = _golden()
    pairs = _jobs_pairs()
    assert len(pairs) == 11
    for one, two in pairs:
        assert golden[_key(one)]["exit"] == 0
        assert golden[_key(one)] == golden[_key(two)], one


def test_each_jobs_pair_spans_three_batches(monkeypatch, tmp_path):
    # batches are cut by expected clicks or kept trains, so a pair's size
    # decides whether a second job has a batch to run at all
    _prepare(monkeypatch, tmp_path)
    batches = []
    cut = protocol._batch_size

    def counted(n, share):
        size = cut(n, share)
        batches.append(-(-n // size))
        return size

    monkeypatch.setattr(protocol, "_batch_size", counted)
    for one, _ in _jobs_pairs():
        batches.clear()
        _run_in_process(one, tmp_path)
        assert batches and min(batches) >= 3, (one, batches)


def test_in_process_calls_match_the_golden_file(monkeypatch, tmp_path):
    _prepare(monkeypatch, tmp_path)
    golden = _golden()
    for argv in CASES:
        assert _run_in_process(argv, tmp_path) == golden[_key(argv)], argv


def test_fresh_processes_match_the_golden_file(monkeypatch, tmp_path):
    _prepare(monkeypatch, tmp_path)
    golden = _golden()
    for argv in FRESH_CASES:
        assert _run_fresh(argv, tmp_path) == golden[_key(argv)], argv


def _record() -> None:
    os.environ.pop("DQPS_OUTPUT_DIR", None)
    os.environ["COLUMNS"] = "100"
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        _write_inputs(workdir)
        golden = {_key(argv): _run_in_process(argv, workdir) for argv in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
