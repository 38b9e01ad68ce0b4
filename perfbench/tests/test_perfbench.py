"""Self-tests of the benchmark, kept outside the tier-1 ``tests/`` tree.

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

dqps = run._load_dqps()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_of_each_workload(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, tmp_path, tiny=True)
    result = run.run_pass(dqps, workload, reference.MixedKernel())
    verdict = result["verdict"]
    assert verdict.problems == []
    assert 0 < verdict.attempted
    assert verdict.failed == 0
    # the tiny sweep grid ends past 60 dB, inside the known zero-rate tail
    assert (verdict.zero_rate_rows > 0) == (name == "sweep")
    assert run.fixed_work_seconds([result], workload.item_calls) > 0
    assert all(r.rc == 0 for r in result["results"].values())


def test_same_seed_same_inputs(tmp_path):
    first = workloads.sweep(11, tmp_path)
    second = workloads.sweep(11, tmp_path)
    other = workloads.sweep(12, tmp_path)
    assert [c.argv for c in first.calls] == [c.argv for c in second.calls]
    assert [c.argv for c in first.calls] != [c.argv for c in other.calls]


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_self_time_of_overlapping_children():
    root = _span("root", 0.0, 10.0)
    kids = [
        _span("a", 1.0, 4.0, root),   # overlaps b on [3, 4]
        _span("b", 3.0, 5.0, root),
        _span("c", 7.0, 12.0, root),  # runs past its parent's end
        _span("d", 8.0, 9.0, root),   # inside c
    ]
    grandchild = _span("g", 1.5, 2.5, kids[0])
    selfs = spans.self_times([root, *kids, grandchild])
    assert selfs[id(root)] == pytest.approx(10.0 - (4.0 + 3.0))
    assert selfs[id(kids[0])] == pytest.approx(3.0 - 1.0)
    assert selfs[id(kids[1])] == pytest.approx(2.0)
    assert selfs[id(grandchild)] == pytest.approx(1.0)


def test_covered_merges_and_clips():
    assert spans.covered([], 0.0, 1.0) == 0.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == pytest.approx(3.0)
    assert spans.covered([(2.0, 3.0)], 0.0, 1.0) == 0.0


def test_pool_thread_spans_attach_to_owner():
    tracer = spans.Tracer()
    target = spans.Target("x", "y", "inner")
    inner = tracer.wrap(lambda: None, target)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap(outer, spans.Target("x", "y", "outer"))()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent is by_name["outer"]
    assert by_name["inner"].thread != by_name["outer"].thread


def test_traced_pass_leaves_no_wrapper(tmp_path):
    import importlib
    originals = {(t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
                 for t in spans.TARGETS}
    workload = workloads.simulate(5, tmp_path, tiny=True)
    tracer = spans.Tracer()
    with tracer.installed():
        assert len(spans.installed_wrappers()) == len(spans.TARGETS)
        run.run_pass(dqps, workload, reference.MixedKernel())
    assert spans.installed_wrappers() == []
    for t in spans.TARGETS:
        assert getattr(importlib.import_module(t.module), t.attr) is originals[t.module, t.attr]
    summary = spans.summarize(tracer.spans)
    assert summary["by_name"]["protocol.run_simulation"]["calls"] == 2
    assert summary["counts"]["protocol.blocks"] == 2 * 2**15
    assert summary["by_name"]["protocol.detection_means"]["calls"] > 0


def test_wrappers_restored_after_error():
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert spans.installed_wrappers() == []


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_zero_rate_rows_split_at_the_known_tail():
    header = workloads.SWEEP_HEADER
    rows = ["2,55.5,2.8e-06,nan,nan,nan,0.0", "2,30.5,8.9e-04,nan,nan,nan,0.0"]
    verdict = workloads.Verdict()
    workloads._check_sweep_rows("\n".join([header, *rows]), (2,), [30.5, 55.5],
                                verdict, "sweep_L2")
    assert verdict.zero_rate_rows == 1  # 55.5 dB: the known tail
    assert verdict.failed == 1  # 30.5 dB: a new failure
    assert verdict.problems == []


def test_adjust_rescales_to_the_nominal_speed():
    nominal = reference.MIXED_NOMINAL_S
    assert reference.adjust(2.0, nominal, nominal, nominal) == pytest.approx(2.0)
    # a host running 1.5 times slower: the call and the kernel both slow down
    assert reference.adjust(3.0, 1.5 * nominal, 1.5 * nominal, nominal) == pytest.approx(2.0)
    assert reference.MixedKernel().seconds() > 0
