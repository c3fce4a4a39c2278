"""Correctness gate run on every operation the benchmark times.

An operation passes when:

* every output is finite, disparity lies in [0, w-1] and occlusion in [0, 1];
* its output bytes equal those of the run's first timed operation
  (forward passes are byte-deterministic);
* on the reference pair (seed 0), its outputs are within tolerance of the
  outputs frozen in ``reference/<workload>.npz``.

The tolerance admits a change that only reorders float arithmetic (such
changes move outputs by ~1e-7) and refuses one that skips or breaks a stage,
which moves nearly every pixel by far more than ``PIXEL_ATOL``. A near-tie in
the regression window's argmax can flip under a reordering and move a small
patch of pixels, so a share ``PIXEL_SHARE`` of the sampled pixels may exceed
the tolerance.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Reference maps keep every REFERENCE_STRIDE-th row and column.
REFERENCE_STRIDE = 2
PIXEL_ATOL = 1e-3
PIXEL_SHARE = 0.01
SCALAR_RTOL = 1e-4
SCALAR_ATOL = 1e-6


def outputs_of(disp, occ, loss, scores) -> dict[str, np.ndarray]:
    """The arrays an operation produced, by name."""
    out = {"disp": disp.values, "occ": occ.probs}
    if loss is not None:
        values = [loss.rr_raw, loss.d1_raw, loss.d1_final, loss.be_final, loss.total]
        out["scalars"] = np.array(values + [scores["epe"]], dtype=np.float64)
        out["metrics"] = np.array(
            [scores["three_px"], scores["occ_iou"]], dtype=np.float64
        )
    return out


def digest(outputs: dict[str, np.ndarray]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(outputs):
        h.update(name.encode())
        h.update(np.ascontiguousarray(outputs[name]).tobytes())
    return h.hexdigest()


def check_ranges(outputs: dict[str, np.ndarray]) -> list[str]:
    problems = []
    for name, values in outputs.items():
        if not np.isfinite(values).all():
            problems.append(f"{name} holds non-finite values")
    disp, occ = outputs["disp"], outputs["occ"]
    if disp.min() < 0 or disp.max() > disp.shape[1] - 1:
        problems.append(
            f"disparity range [{disp.min()}, {disp.max()}] leaves [0, {disp.shape[1] - 1}]"
        )
    if occ.min() < 0 or occ.max() > 1:
        problems.append(f"occlusion range [{occ.min()}, {occ.max()}] leaves [0, 1]")
    return problems


def reference_sample(outputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """What ``reference/<workload>.npz`` holds for a set of outputs."""
    s = REFERENCE_STRIDE
    sample = {
        "disp": np.ascontiguousarray(outputs["disp"][::s, ::s]),
        "occ": np.ascontiguousarray(outputs["occ"][::s, ::s]),
    }
    if "scalars" in outputs:
        sample["scalars"] = outputs["scalars"]
    return sample


def compare_reference(outputs, reference) -> list[str]:
    problems = []
    sample = reference_sample(outputs)
    for name in ("disp", "occ"):
        got, want = sample[name], reference[name]
        if got.shape != want.shape:
            problems.append(f"{name} shape {got.shape} != reference {want.shape}")
            continue
        off = np.abs(got.astype(np.float64) - want) > PIXEL_ATOL
        if off.mean() > PIXEL_SHARE:
            problems.append(
                f"{name}: {off.mean():.2%} of sampled pixels differ from the "
                f"reference by more than {PIXEL_ATOL} (max {np.abs(got - want).max():.3g})"
            )
    if "scalars" in reference:
        got, want = sample.get("scalars"), reference["scalars"]
        if got is None or not np.allclose(got, want, rtol=SCALAR_RTOL, atol=SCALAR_ATOL):
            problems.append(f"losses/epe {got} differ from the reference {want}")
    return problems


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.npz"
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def save_reference(workload: str, outputs) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.npz"
    np.savez_compressed(path, **reference_sample(outputs))
    return path
