"""Tests of the benchmark itself: a tiny-size smoke run of every workload,
the emitted metric names against ``BENCHMARK.json``, the tracer's self-time
accounting, and the refusal to run without the library sources.

    python3 -m pytest bench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _, _ in bench_run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _, _ in tracer.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for m, (_, unit, better) in zip(SPEC["end_to_end"], bench_run.END_TO_END):
        assert (m["unit"], m["better"]) == (unit, better)
    for m, (name, _, stat) in zip(SPEC["per_layer"], tracer.PER_LAYER):
        assert (m["unit"], m["better"]) == (tracer.metric_unit(stat), tracer.metric_better(name))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["attempted"] >= 1
    if not trace:
        # the counts cover the first timed pass, however many passes ran
        assert result["attempted"] == record["detail"]["ops_per_pass"]
        assert result["failed"] == record["failed_per_pass"][0]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, m["name"]
            assert record["detail"][m["name"]]["samples"] >= 1
    assert record["why"] == next(w["why"] for w in SPEC["workloads"]
                                 if w["name"] == workload)
    assert record["machine"]["blas_threads"] == bench_run.BLAS_THREADS


def test_near_singular_panel_does_not_depend_on_the_seed():
    panels = []
    for seed in (5, 6):
        workload = workloads.BayesLarge(seed=seed, size="tiny")
        workload.generate()
        panels.append(workload.near_singular)
    assert panels[0] and len(panels[0]) == len(panels[1])
    for a, b in zip(*panels):
        assert np.array_equal(a[2], b[2])
        assert all(np.array_equal(x, y) for x, y in zip(a[3], b[3]))


def test_traced_op_self_times_add_up_to_its_duration():
    workload = workloads.BayesLarge(seed=5, size="tiny")
    workload.generate()
    ops = [op for op in workload.ops() if not op.stress][:3]
    t = tracer.Tracer()
    t.install()
    try:
        for index, op in enumerate(ops):
            t.call(index, op.run)
    finally:
        t.uninstall()
    spans = t.arrays()
    duration = spans["end"] - spans["start"]
    own = t.self_times(spans["parent"], duration)
    root = t.name_id(tracer.OP_SPAN)
    solver = t.name_id("bayes.closed_form_bayes")
    for index in range(len(ops)):
        in_op = spans["op"] == index
        (op_span,) = (in_op & (spans["name"] == root)).nonzero()[0]
        assert (in_op & (spans["name"] == solver)).sum() == 1
        assert own[in_op].sum() == pytest.approx(duration[op_span], rel=1e-9, abs=1e-12)
        assert (own[in_op] > -1e-9).all()


def test_tracer_counts_raised_exceptions_and_uninstalls():
    import qsot
    original = qsot.sot.evaluate
    workload = workloads.BayesLarge(seed=5, size="tiny")
    workload.generate()
    e, rho = workloads._build(workload.instances[3, False])
    t = tracer.Tracer()
    t.install()
    assert qsot.sot.evaluate is not original
    assert qsot.bayes.sot.evaluate is qsot.sot.evaluate
    try:
        with pytest.raises(qsot.errors.UnsupportedFamilyError):
            # the product family has no closed-form Bayes map
            t.call(0, lambda: qsot.bayes.closed_form_bayes(qsot.sot.Uncorrelated(), e, rho))
    finally:
        t.uninstall()
    assert qsot.sot.evaluate is original
    assert not t._stack and not t.on
    assert t.raised_by_class() == {"bayes.closed_form_bayes": {"UnsupportedFamilyError": 1}}
    metrics = tracer.per_layer_metrics(t, overhead_s=0.0)
    assert metrics["bayes.closed_form_bayes.raised"]["value"] == 1
    assert metrics["sot.evaluate.raised"]["value"] == 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "cert-table", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
