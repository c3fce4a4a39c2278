"""One workload in one fresh process; started by ``run.py``.

``prepare`` writes the workload's inputs (config, weight file, the seeded
pair and the reference pair as PGM, ground truth) into a work directory.
``measure`` loads them and runs the closed loop: one untimed set-up, one
untimed warm-up operation on the reference pair, then timed operations on
the seeded pair until ``--seconds`` have passed, with ``SETUP_BURSTS``
bursts of ``SETUP_BURST_SIZE`` timed set-ups spread evenly among them, and
the calibration kernel (``calibration.py``) run between them for up to
``CALIBRATION_SHARE`` of the time. Every operation goes through the
correctness gate. With ``--trace 1`` operations and set-ups alternate
untraced and traced, so the run also gives the tracing overhead. The result
is written as JSON to ``--result``.

The parent sets the BLAS thread pin in the environment before this process
starts, because numpy reads it once at import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import cstr  # noqa: E402
from cstr import formats, metrics, pipeline  # noqa: E402
from cstr.losses import GtBundle  # noqa: E402

import gate  # noqa: E402
from calibration import NOMINAL_S, Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, make_pair  # noqa: E402

# Set-ups come in bursts: the first of a burst may page in fresh memory
# after an operation freed its own, depending on the allocator's state; the
# median of all of them is a warm set-up, which repeats across runs.
SETUP_BURSTS = 7
SETUP_BURST_SIZE = 3
MIN_TIMED_OPS = 2
# The calibration kernel runs before an operation while it has taken less
# than this share of the measuring time, so at most once per operation.
CALIBRATION_SHARE = 0.15
LAYER_MAP = json.loads((Path(__file__).resolve().parent / "layer_map.json").read_text())
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Highest percentile reported, from these, that leaves >= 10 samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _paths(work: Path) -> dict[str, Path]:
    return {
        "config": work / "run.cfg",
        "weights": work / "model.cstrw",
        "left": work / "left.pgm",
        "right": work / "right.pgm",
        "ref_left": work / "ref_left.pgm",
        "ref_right": work / "ref_right.pgm",
        "gt": work / "gt.npz",
        "out_disp": work / "disp.pfm",
        "out_occ": work / "occ.pgm",
    }


def prepare(workload, seed: int, work: Path) -> None:
    p = _paths(work)
    p["config"].write_text(workload.config_text)
    config = formats.parse_config(workload.config_text)
    formats.write_weights(p["weights"], pipeline.init_weights(config, span=workload.span))
    gts = {}
    for prefix, pair_seed in (("", seed), ("ref_", REFERENCE_SEED)):
        left, right, gt_disp, gt_occ = make_pair(workload, pair_seed)
        formats.write_pgm(p[prefix + "left"], left)
        formats.write_pgm(p[prefix + "right"], right)
        gts[prefix + "disp"], gts[prefix + "occ"] = gt_disp, gt_occ
    np.savez(p["gt"], **gts)


def machine(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def setup(config_text: str, weights_path: Path):
    """Config text plus weight file to a ready model."""
    config = formats.parse_config(config_text)
    return pipeline.ModelDescription(config, formats.read_weights(weights_path))


def operation(p, model, gt, left_key="left", right_key="right"):
    """What ``cstr infer`` does after interpreter start; on a supervised
    workload also the losses and the metrics. Returns outputs and the
    seconds of the whole operation and of ``forward``."""
    t0 = time.perf_counter()
    left = formats.read_pgm(p[left_key])[None]
    right = formats.read_pgm(p[right_key])[None]
    pair = formats.ImagePair(left, right)
    t1 = time.perf_counter()
    disp, occ, loss = pipeline.forward(pair, model, gt)
    t2 = time.perf_counter()
    formats.write_pfm(p["out_disp"], disp.values)
    formats.write_pgm(p["out_occ"], occ.probs)
    scores = None
    if gt is not None:
        matched = gt.occlusion < 0.5
        scores = {
            "epe": metrics.epe(disp.values, gt.disparity, matched),
            "three_px": metrics.three_px_error(disp.values, gt.disparity, matched),
            "occ_iou": metrics.occ_iou(occ.probs >= 0.5, gt.occlusion >= 0.5),
        }
    t3 = time.perf_counter()
    return gate.outputs_of(disp, occ, loss, scores), t3 - t0, t2 - t1


def timing(values: list[float], unit: str, speed: float) -> dict:
    """A run's timing: the median of the samples times the run's ``speed``
    factor (see ``calibration.py``), with the sample count and the highest
    tail percentile that has at least ten samples beyond it (None when there
    are too few), also scaled, and the raw median and minimum."""
    n = len(values)
    tail = None
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            tail = {"percentile": pct, "value": float(np.percentile(values, pct)) * speed}
            break
    median = statistics.median(values)
    return {
        "value": median * speed,
        "unit": unit,
        "samples": n,
        "tail": tail,
        "raw_median": median,
        "raw_min": min(values),
    }


def per_layer(summary, setup_summary, n_ops, n_setups, counts, overhead):
    """The layer_map metrics from span totals and computed counts."""
    per_op = {}
    for name, entry in summary.items():
        for key in ("s", "self_s", "calls"):
            per_op[f"{name}.{key}"] = entry[key] / n_ops
    for name, entry in setup_summary.items():
        for key in ("s", "self_s", "calls"):
            per_op.setdefault(f"{name}.{key}", entry[key] / n_setups)
    forward = summary["pipeline.forward"]
    gflop = counts["ndarray.conv2d.flop"] / 1e9
    derived = {
        "attention.logit_cells": counts["attention.logit_cells"],
        "ndarray.conv2d.gflop": gflop,
        "ndarray.conv2d.im2col_mb": counts["ndarray.conv2d.im2col_bytes"] / 1e6,
        "matching.sinkhorn.cells": counts["matching.sinkhorn.cells"],
        "ndarray.conv2d.gflop_per_s": gflop / per_op["ndarray.conv2d.s"],
        "trace.overhead_frac": overhead,
        "trace.coverage_frac": (forward["s"] - forward["self_s"]) / forward["s"],
    }
    out = {}
    for m in LAYER_MAP["metrics"]:
        name = m["name"]
        value = derived[name] if name in derived else per_op.get(name, 0.0)
        out[name] = {"value": value, "unit": m["unit"], "kind": m["kind"]}
    return out


def shares(summary) -> dict[str, float]:
    """Shares of traced forward time, for the layer mix."""
    total = summary["pipeline.forward"]["s"]

    def s(*names):
        return sum(summary.get(n, {"s": 0.0})["s"] for n in names) / total

    attn = ("axial_attention_width", "axial_attention_height", "cross_attention", "pixel_norm")
    return {
        "matching_path_attention": s(*(f"attention.{a}.mmp" for a in attn)),
        "context_path_attention": s(*(f"attention.{a}.cep" for a in attn)),
        "fusion": s("context.path_fusion"),
        "width_axial_plus_cross": s(
            "attention.axial_attention_width.mmp", "attention.axial_attention_width.cep",
            "attention.cross_attention.mmp", "attention.cross_attention.cep",
        ),
        "context_step": s("context.cep_step"),
        "backbone": s("pipeline.backbone_forward"),
        "matching_head": s(
            "matching.sinkhorn", "matching.regress_raw", "matching.refine_full_res"
        ),
    }


def trace_report(tracer, infer_ops, setup_ops, forward_s, speed, workload, seed) -> dict:
    """Per-layer metrics, layer mix and count check of the traced operations;
    writes the spans out."""
    summary = tracer.summary(infer_ops)
    counts = [tracer.op_counts[op] for op in infer_ops]
    overhead = min(forward_s[True]) / min(forward_s[False]) - 1
    spans = ROOT / ".bench_work" / "spans" / f"{workload.name}-seed{seed}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans)
    return {
        "counts_repeat": all(c == counts[0] for c in counts),
        "traced_forward_s": timing(forward_s[True], "s", speed),
        "per_layer": per_layer(
            summary, tracer.summary(setup_ops), len(infer_ops), len(setup_ops),
            counts[0], overhead,
        ),
        "functions": {
            name: {k: v / len(infer_ops) for k, v in entry.items()}
            for name, entry in sorted(summary.items())
        },
        "shares": shares(summary),
        "spans_file": str(spans.relative_to(ROOT)),
    }


def measure(workload, seed, seconds, trace, work, calibrator) -> dict:
    p = _paths(work)
    config_text = p["config"].read_text()
    with np.load(p["gt"]) as g:
        gts = {k: g[k] for k in g.files}
    gt = ref_gt = None
    if workload.supervised:
        gt = GtBundle(gts["disp"], gts["occ"])
        ref_gt = GtBundle(gts["ref_disp"], gts["ref_occ"])
    tracer = Tracer() if trace else None
    failures: list[str] = []
    attempted = 0
    next_op = 0

    def traced(flag):
        nonlocal next_op
        next_op += 1
        if flag:
            return tracer.active(next_op)
        return nullcontext()

    setup_s, setup_ops = [], []
    bursts = 0

    def timed_setup():
        flag = trace and (len(setup_s) + len(setup_ops)) % 2 == 1
        with traced(flag):
            t0 = time.perf_counter()
            ready = setup(config_text, p["weights"])
            elapsed = time.perf_counter() - t0
        if flag:
            setup_ops.append(next_op)
        else:
            setup_s.append(elapsed)
        return ready

    model = setup(config_text, p["weights"])
    # warm-up on the reference pair, checked against the frozen outputs
    attempted += 1
    try:
        outputs, _, _ = operation(p, model, ref_gt, "ref_left", "ref_right")
        problems = gate.check_ranges(outputs)
        problems += gate.compare_reference(outputs, gate.load_reference(workload.name))
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        failures.append("reference operation: " + "; ".join(problems))

    first_digest = None
    digests = {"untraced": set(), "traced": set()}
    forward_s = {False: [], True: []}
    infer_s = {False: [], True: []}
    infer_ops = []
    calibrator.run()
    start = time.perf_counter()
    i = 0
    while i < MIN_TIMED_OPS or time.perf_counter() - start < seconds:
        # set-ups and calibrations are spread over the run, so their medians
        # see the same share of busy neighbours as the operations do
        elapsed = time.perf_counter() - start
        if calibrator.seconds() < CALIBRATION_SHARE * elapsed:
            calibrator.run()
        if bursts < SETUP_BURSTS and elapsed >= bursts * seconds / SETUP_BURSTS:
            bursts += 1
            for _ in range(SETUP_BURST_SIZE * (2 if trace else 1)):
                timed_setup()
        flag = trace and i % 2 == 1
        i += 1
        attempted += 1
        try:
            with traced(flag):
                outputs, op_s, fwd_s = operation(p, model, gt)
            problems = gate.check_ranges(outputs)
            d = gate.digest(outputs)
            first_digest = first_digest or d
            digests["traced" if flag else "untraced"].add(d)
            if d != first_digest:
                problems.append("output bytes differ from the first operation")
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"operation {i}: " + "; ".join(problems))
            continue
        forward_s[flag].append(fwd_s)
        infer_s[flag].append(op_s)
        if flag:
            infer_ops.append(next_op)
    calibrator.run()
    speed = NOMINAL_S / statistics.median(calibrator.samples)

    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "grid_rows": workload.height // formats.parse_config(config_text).scale_denominator,
        "digests": {k: sorted(v) for k, v in digests.items()},
        "calibration": {
            "nominal_s": NOMINAL_S,
            "median_s": statistics.median(calibrator.samples),
            "samples": len(calibrator.samples),
            "speed": speed,
        },
    }
    if forward_s[False]:
        result["end_to_end"] = {
            "forward_s": timing(forward_s[False], "s", speed),
            "infer_s": timing(infer_s[False], "s", speed),
            "setup_s": timing(setup_s, "s", speed),
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    if trace and infer_ops and forward_s[False]:
        result.update(
            trace_report(tracer, infer_ops, setup_ops, forward_s, speed, workload, seed)
        )
        if not result["counts_repeat"]:
            result["failed"] += 1
            result["failures"].append("computed counts differ between operations")
    result["correct"] = result["failed"] == 0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=("prepare", "measure", "freeze-reference"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    if not Path(cstr.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported cstr from {cstr.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.step == "prepare":
        prepare(workload, args.seed, args.work)
        return 0
    if args.step == "freeze-reference":
        prepare(workload, REFERENCE_SEED, args.work)
        p = _paths(args.work)
        model = setup(p["config"].read_text(), p["weights"])
        with np.load(p["gt"]) as g:
            gt = GtBundle(g["ref_disp"], g["ref_occ"]) if workload.supervised else None
        outputs, _, _ = operation(p, model, gt, "ref_left", "ref_right")
        print(gate.save_reference(workload.name, outputs))
        return 0
    with Calibrator() as calibrator:
        result = measure(
            workload, args.seed, args.seconds, bool(args.trace), args.work, calibrator
        )
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
