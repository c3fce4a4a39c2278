"""The benchmark's own checks.

    python3 -m pytest benchmarks/test_bench.py

They run every workload traced for a second, so they take about half a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

import cstr  # noqa: E402 - worker put this checkout's src/ first on the path

LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())["metrics"]


@pytest.fixture(scope="module")
def traced():
    return {name: run.run_workload(name, REFERENCE_SEED, 1, 1) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_span_fires_where_its_function_runs(traced, name):
    result = traced[name]
    assert result["correct"], result["failures"]
    for metric in LAYER_MAP:
        if metric["kind"] != "measured" or metric["name"].startswith("trace."):
            continue
        value = result["per_layer"][metric["name"]]["value"]
        if name in metric["runs_on"]:
            assert value > 0, metric["name"]
        else:
            assert value == 0, metric["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_sinkhorn_calls_equal_matching_grid_rows(traced, name):
    result = traced[name]
    assert result["per_layer"]["matching.sinkhorn.calls"]["value"] == result["grid_rows"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_outputs_are_byte_identical_to_untraced(traced, name):
    digests = traced[name]["digests"]
    assert len(digests["untraced"]) == 1
    assert digests["traced"] == digests["untraced"]


def test_computed_counts_repeat_exactly_across_runs(traced):
    again = run.run_workload("tiny_supervised", REFERENCE_SEED, 1, 1)
    for result in (traced["tiny_supervised"], again):
        assert result["counts_repeat"]
    computed = [m["name"] for m in LAYER_MAP if m["kind"] == "computed"]
    first = {n: traced["tiny_supervised"]["per_layer"][n]["value"] for n in computed}
    second = {n: again["per_layer"][n]["value"] for n in computed}
    assert first == second
    assert all(v > 0 for v in first.values())


def test_calibration_child_answers_and_ends():
    with calibration.Calibrator() as cal:
        first, second = cal.run(), cal.run()
        child = cal._child
    assert first > 0 and second > 0
    assert cal.samples == [first, second]
    assert child.returncode == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timings_are_scaled_by_the_calibration(traced, name):
    result = traced[name]
    c = result["calibration"]
    assert c["samples"] >= 2
    assert c["speed"] == pytest.approx(calibration.NOMINAL_S / c["median_s"])
    forward = result["end_to_end"]["forward_s"]
    assert forward["value"] == pytest.approx(forward["raw_median"] * c["speed"])


def test_benchmark_json_matches_workloads_and_layer_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    keys = ("name", "unit", "better")
    assert spec["per_layer"] == [{k: m[k] for k in keys} for m in LAYER_MAP]


def _reference_outputs(tmp_path, name="tiny_supervised"):
    workload = WORKLOADS[name]
    worker.prepare(workload, REFERENCE_SEED, tmp_path)
    p = worker._paths(tmp_path)
    model = worker.setup(p["config"].read_text(), p["weights"])
    with np.load(p["gt"]) as g:
        gt = cstr.GtBundle(g["ref_disp"], g["ref_occ"]) if workload.supervised else None
    outputs, _, _ = worker.operation(p, model, gt, "ref_left", "ref_right")
    return outputs


def test_gate_passes_unmodified_outputs(tmp_path):
    outputs = _reference_outputs(tmp_path)
    assert gate.check_ranges(outputs) == []
    assert gate.compare_reference(outputs, gate.load_reference("tiny_supervised")) == []


def test_gate_passes_reordered_float_arithmetic(tmp_path, monkeypatch):
    plain = _reference_outputs(tmp_path)

    def softmax_by_reciprocal(t, axis):
        e = np.exp(t - np.max(t, axis=axis, keepdims=True))
        return e * (np.float32(1) / np.sum(e, axis=axis, keepdims=True))

    monkeypatch.setattr(cstr.attention, "softmax_axis", softmax_by_reciprocal)
    reordered = _reference_outputs(tmp_path)
    assert gate.digest(reordered) != gate.digest(plain)
    assert gate.compare_reference(reordered, gate.load_reference("tiny_supervised")) == []


def _skip_fusion(mmp_feat, ctx_feat, weights):
    return mmp_feat


def _one_sinkhorn_sweep(cost, iters, epsilon, *args):
    return cstr.matching.sinkhorn(cost, 1, epsilon, *args)


def _no_context_step(state, layer, total_layers, weights, heads):
    return state, None


@pytest.mark.parametrize(
    "attr, broken",
    [
        ("path_fusion", _skip_fusion),
        ("sinkhorn", _one_sinkhorn_sweep),
        ("cep_step", _no_context_step),
    ],
)
def test_gate_fails_a_skipped_or_broken_stage(tmp_path, monkeypatch, attr, broken):
    monkeypatch.setattr(cstr.pipeline, attr, broken)
    outputs = _reference_outputs(tmp_path)
    assert gate.compare_reference(outputs, gate.load_reference("tiny_supervised"))


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tiny_supervised",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
