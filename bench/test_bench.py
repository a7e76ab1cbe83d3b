"""Self-tests of the benchmark's own code.

    python3 -m pytest -q bench
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import compare  # noqa: E402
from clock import CalibratedClock  # noqa: E402
from tracer import ROOT, Instrumentation, Tracer, self_times, span_name  # noqa: E402
from workloads import TINY, WORKLOADS, trailing_means  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = run.load_spec()


# ---------------------------------------------------------------------------
# Self-time arithmetic

def test_self_time_subtracts_nested_children():
    # root [0, 100) with children [10, 30) and [40, 90); the second has a
    # grandchild [50, 60).
    starts = [0, 10, 40, 50]
    ends = [100, 30, 90, 60]
    parents = [ROOT, 0, 0, 2]
    assert self_times(starts, ends, parents) == [30, 20, 40, 10]


def test_self_time_counts_overlapping_children_once():
    starts = [0, 10, 20]
    ends = [100, 50, 70]
    parents = [ROOT, 0, 0]
    assert self_times(starts, ends, parents)[0] == 40  # covered: [10, 70)


def test_self_time_clips_children_to_the_parent_and_ignores_order():
    # Listed out of start order; the child runs past its parent's end.
    starts = [30, 0, 90]
    ends = [60, 100, 130]
    parents = [1, ROOT, 1]
    assert self_times(starts, ends, parents) == [30, 60, 40]


def test_tracer_records_spans_with_parents():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    outer = tracer.wrap(lambda: tracer.wrap(inner, "m.inner")() + 1, "m.outer")
    assert outer() == 2
    spans = tracer.spans()
    assert [(s[0], s[3]) for s in spans] == [("m.outer", ROOT), ("m.inner", 0)]
    summary = tracer.summary()
    assert summary["m.outer"] == {"calls": 1, "self_s": pytest.approx(20e-9)}
    assert summary["m.inner"] == {"calls": 1, "self_s": pytest.approx(10e-9)}


# ---------------------------------------------------------------------------
# Instrumentation

def test_span_names_follow_the_defining_module():
    import somgmm.cli
    import somgmm.sombridge
    import somgmm.trainer
    assert span_name(somgmm.trainer.build_kernel) == "topology.build_kernel"
    assert span_name(somgmm.trainer.sigma_at) == "topology.sigma_at"
    assert span_name(somgmm.sombridge.neighborhood_pull) == "trainer.neighborhood_pull"
    assert span_name(somgmm.cli.train_run) == "trainer.run"
    assert span_name(somgmm.cli._cmd_verify_equivalence) == "cli.verify-equivalence"
    assert span_name(somgmm.trainer._winner_rows) is None
    assert span_name(somgmm.trainer.TrainConfig) is None
    from somgmm import backend
    assert span_name(backend.log_joints) == "backend.log_joints"


def test_instrumentation_wraps_every_binding_and_restores_them():
    import somgmm.cli
    import somgmm.topology
    import somgmm.trainer
    original = somgmm.topology.build_kernel
    with Instrumentation(Tracer()):
        assert somgmm.trainer.build_kernel is somgmm.topology.build_kernel
        assert somgmm.cli.build_kernel is somgmm.topology.build_kernel
        assert somgmm.topology.build_kernel is not original
    assert somgmm.trainer.build_kernel is original
    assert somgmm.cli.build_kernel is original


# ---------------------------------------------------------------------------
# BENCHMARK.json and metric names

def test_metric_and_workload_names_match_the_contract():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_trailing_means_match_the_direct_definition():
    import numpy as np
    x = np.arange(7.0)
    want = [np.mean(x[max(0, i - 2):i + 1]) for i in range(7)]
    assert np.allclose(trailing_means(x, 3), want)


# ---------------------------------------------------------------------------
# Calibrated clock

def test_calibrated_seconds_scale_by_the_kernel_speed():
    clock = CalibratedClock()
    clock.slowdowns = [2.0] * 40  # the machine runs at half speed
    start, end = (0.0, 0.0, 10), (3.0, 1.0, 30)
    # 3 s of wall time, 1 s of it in the kernel, at half speed: 1 s nominal.
    assert clock.seconds(start, end) == pytest.approx(1.0)


def test_short_intervals_borrow_neighbouring_kernel_samples():
    clock = CalibratedClock()
    clock.slowdowns = [1.0] * 20 + [3.0] * 20
    sample = clock.speed_sample(39, 40)
    assert len(sample) >= 16 and sample[-1] == 3.0


# ---------------------------------------------------------------------------
# Smoke runs at tiny sizes

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    trace_out = tmp_path / "spans.jsonl" if trace else None
    result, record = run.run(workload, 3, 0.01, trace, TINY, trace_out)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in section}
    assert result["correct"], record["failures"]
    assert result["attempted"] >= 1
    if workload != "fourcluster":  # tiny four-cluster runs cannot converge
        assert result["failed"] == 0, record["failures"]
    if trace:
        assert trace_out.read_text().count("\n") > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["env"]["somgmm.BACKEND"] in ("python", "cython")
    json.dumps(result)


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    paths = []
    for backend in ("python", "cython"):
        record = {"env": {"somgmm.BACKEND": backend}, "workload": "fourcluster"}
        path = tmp_path / f"{backend}.out"
        path.write_text(json.dumps(record) + "\n" + json.dumps(result) + "\n")
        paths.append(str(path))
    assert compare.main([paths[0], "--against", paths[1]]) == 2
    assert compare.main([paths[0], "--against", paths[0]]) == 0
