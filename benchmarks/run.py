"""Benchmark of the cstr forward pipeline.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S]
                              [--trace 0|1] [--out FILE]

Each workload runs in a closed loop (one process, one client, one pair at a
time) in a fresh process whose BLAS, OpenMP and MKL thread counts are pinned
to 1 before numpy is imported. ``--trace 0`` reports the end-to-end metrics:
``forward_s``, ``infer_s`` and ``setup_s`` (medians scaled to the machine's
nominal speed by ``calibration.py``, with sample count and tail percentile)
and ``peak_rss_mb``, plus ``ops`` and ``ops_failed``.
``--trace 1`` adds spans around the calls into each cstr module and reports
the per-layer metrics of ``benchmarks/layer_map.json``.

Every operation passes through the correctness gate (``gate.py``). The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every operation
passed. Inputs and outputs live under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Seconds a worker step may take beyond the measuring time before it is killed.
STEP_GRACE_S = 120


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Prepare inputs and measure one workload, each step in a fresh process."""
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **PINNED_THREADS}
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    result_path = work / "result.json"
    steps = (
        ["prepare"],
        ["measure", "--seconds", str(seconds), "--trace", str(trace),
         "--result", str(result_path)],
    )
    try:
        for step in steps:
            subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *step, *common],
                env=env, check=True, timeout=seconds + STEP_GRACE_S,
            )
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(metric: dict) -> str:
    text = f"{metric['value']:.6g} {metric['unit']}"
    if "samples" in metric:
        text = f"median {text}  ({metric['samples']} samples"
        tail = metric["tail"]
        if tail:
            text += f"; p{tail['percentile']:g} {tail['value']:.6g}"
        else:
            text += "; too few samples for a tail percentile"
        text += f"; raw median {metric['raw_median']:.6g}, raw min {metric['raw_min']:.6g})"
    return text


def report(result: dict) -> None:
    name = result["workload"]
    m = result["machine"]
    print(f"== {name}  seed={result['seed']}  trace={result['trace']}  "
          f"seconds={result['seconds']:g}  (closed loop, 1 client)")
    print(f"   machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']} pin={m['thread_pin']} "
          f"commit={m['commit']}")
    c = result["calibration"]
    print(f"   speed factor {c['speed']:.4f}: calibration median {c['median_s']:.6g} s "
          f"of {c['samples']}, nominal {c['nominal_s']:g} s")
    for key, metric in result.get("end_to_end", {}).items():
        print(f"   {key:<12} {_fmt(metric)}")
    print(f"   {'ops':<12} {result['attempted']}")
    print(f"   {'ops_failed':<12} {result['failed']}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    if "per_layer" not in result:
        return
    print(f"   traced forward_s {_fmt(result['traced_forward_s'])}")
    print("   shares of traced forward: " + ", ".join(
        f"{k}={v:.1%}" for k, v in result["shares"].items()))
    inside = {k: v for k, v in result["functions"].items() if k != "pipeline.forward"}
    top = sorted(inside.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    print("   top self time per op: " + ", ".join(
        f"{k}={v['self_s'] * 1e3:.3f}ms" for k, v in top))
    for key, metric in result["per_layer"].items():
        print(f"   {key:<42} {metric['value']:.6g} {metric['unit']}  [{metric['kind']}]")
    print(f"   spans: {result['spans_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full results as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cstr" / "__init__.py").is_file():
        print(f"run.py: no cstr package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, args.trace))
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"run.py: workload {name} did not finish: {exc}", file=sys.stderr)
            return 1
        report(results[-1])
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")

    section = "per_layer" if args.trace else "end_to_end"

    def metrics(result, prefix):
        return {
            prefix + key: {"value": metric["value"], "unit": metric["unit"]}
            for key, metric in result.get(section, {}).items()
        }

    merged = {}
    for result in results:
        merged.update(metrics(result, f"{result['workload']}." if len(results) > 1 else ""))
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
