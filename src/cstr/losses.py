"""Supervision losses with analytic gradients, plus a central-finite-difference
gradient checker.

Loss values and gradients are accumulated in float64: the gradient checker
runs central differences with a 1e-4 step, which float32 evaluation noise
would swamp. Inputs may be float32 tensors; they are widened on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matching import AssignmentVolume, _epipolar
from .ndarray import Rng, linear_interp_1d

__all__ = [
    "LossBreakdown",
    "GtBundle",
    "relative_response_loss",
    "smooth_l1",
    "binary_entropy_loss",
    "total_loss",
    "finite_diff_check",
]

PROB_FLOOR = 1e-12
BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class LossBreakdown:
    """The four supervision terms and their weighted total."""

    rr_raw: float
    d1_raw: float
    d1_final: float
    be_final: float
    total: float


@dataclass(frozen=True)
class GtBundle:
    """Ground-truth disparity plus the occlusion flags that split pixels into
    matched and unmatched sets."""

    disparity: np.ndarray
    occlusion: np.ndarray

    def __post_init__(self):
        if self.disparity.shape != self.occlusion.shape:
            raise ValueError("disparity and occlusion shapes differ")
        if self.disparity.ndim != 2:
            raise ValueError("ground truth must be (h, w)")
        matched = ~self.occlusion.astype(bool)
        if not np.isfinite(self.disparity[matched]).all():
            raise ValueError("matched pixels need finite disparity")

    @property
    def matched(self) -> np.ndarray:
        return ~self.occlusion.astype(bool)


def relative_response_loss(
    plans: AssignmentVolume,
    gt: GtBundle,
    valid: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the plan mass at the true match positions.

    Matched pixels interpolate their plan row at their right column
    x_R = x_L - d_gt and pay -log of that mass (averaged over the matched
    set); a matched column outside [0, m - 1] is an error. Unmatched pixels pay
    -log of their dustbin entry (averaged over the unmatched set).
    Probabilities are floored at 1e-12 before the log. ``valid``, shaped
    (lines, n) like the ground truth, excludes pixels from both sets. Returns
    the loss and its gradient w.r.t. the plans.
    """
    vol = plans.plans.astype(np.float64)
    lines, n, m = plans.lines, plans.left_width, plans.right_width
    for name, arr in (("ground truth", gt.disparity), ("valid mask", valid)):
        if arr is not None and arr.shape != (lines, n):
            raise ValueError(f"{name} {arr.shape} does not match plans ({lines}, {n})")
    matched, unmatched = gt.matched, gt.occlusion.astype(bool)
    if valid is not None:
        matched, unmatched = matched & valid, unmatched & valid
    n_matched = int(matched.sum())
    n_unmatched = int(unmatched.sum())
    if n_matched == 0 and n_unmatched == 0:
        raise ValueError("no pixels in either the matched or unmatched set")
    positions, in_range = _epipolar(np.arange(n), gt.disparity.astype(np.float64), m)
    outside = np.argwhere(matched & ~in_range)
    if len(outside):
        y, i = outside[0]
        raise ValueError(f"ground-truth disparity at ({y}, {i}) maps outside [0, {m - 1}]")
    value = 0.0
    grad = np.zeros_like(vol)
    for y in range(lines):
        for i in range(n):
            if matched[y, i]:
                pos = positions[y, i]
                t_star = linear_interp_1d(vol[y, i, :m], pos)
                floored = max(t_star, PROB_FLOOR)
                value += -np.log(floored) / n_matched
                if t_star > PROB_FLOOR:
                    lo = int(np.floor(pos))
                    if lo == m - 1:
                        grad[y, i, lo] += -1.0 / floored / n_matched
                    else:
                        frac = pos - lo
                        grad[y, i, lo] += -(1.0 - frac) / floored / n_matched
                        grad[y, i, lo + 1] += -frac / floored / n_matched
            elif unmatched[y, i]:
                t_phi = vol[y, i, m]
                floored = max(t_phi, PROB_FLOOR)
                value += -np.log(floored) / n_unmatched
                if t_phi > PROB_FLOOR:
                    grad[y, i, m] += -1.0 / floored / n_unmatched
    return float(value), grad


def smooth_l1(
    pred: np.ndarray, gt: np.ndarray, valid_mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Smooth L1 (transition at |e| = 1) averaged over the valid pixels."""
    if pred.shape != gt.shape or pred.shape != valid_mask.shape:
        raise ValueError("pred, gt and valid_mask must share a shape")
    mask = valid_mask.astype(bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("valid mask selects no pixels")
    err = pred.astype(np.float64) - gt.astype(np.float64)
    abs_err = np.abs(err)
    per_pixel = np.where(abs_err < 1.0, 0.5 * err * err, abs_err - 0.5)
    value = float(per_pixel[mask].sum() / count)
    grad = np.where(abs_err < 1.0, err, np.sign(err)) / count
    grad[~mask] = 0.0
    return value, grad


def binary_entropy_loss(
    pred_occ: np.ndarray, gt_occ: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy with 1e-7 probability clamping."""
    if pred_occ.shape != gt_occ.shape:
        raise ValueError("prediction and ground truth shapes differ")
    p = np.clip(pred_occ.astype(np.float64), BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = gt_occ.astype(np.float64)
    count = p.size
    value = float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum() / count)
    grad = (p - y) / (p * (1.0 - p)) / count
    return value, grad


def total_loss(
    rr_raw: float,
    d1_raw: float,
    d1_final: float,
    be_final: float,
    w1: float = 1.0,
    w2: float = 1.0,
    w3: float = 1.0,
    w4: float = 1.0,
) -> LossBreakdown:
    """Weighted sum of the four supervision terms."""
    total = w1 * rr_raw + w2 * d1_raw + w3 * d1_final + w4 * be_final
    return LossBreakdown(
        rr_raw=rr_raw,
        d1_raw=d1_raw,
        d1_final=d1_final,
        be_final=be_final,
        total=total,
    )


def finite_diff_check(
    loss_fn: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic_grad: np.ndarray,
    step: float = 1e-4,
    max_coords: int = 64,
    seed: int = 0,
) -> float:
    """Max relative error between the analytic gradient and central differences.

    Checks every coordinate for small tensors, otherwise a seeded random
    subset of at least 32 coordinates. Relative error per coordinate is
    |g_a - g_fd| / max(|g_a|, |g_fd|, 1e-8).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if point.shape != analytic_grad.shape:
        raise ValueError("point and gradient shapes differ")
    flat = point.astype(np.float64).ravel()
    grad = np.asarray(analytic_grad, dtype=np.float64).ravel()
    size = flat.size
    count = max(32, max_coords)
    if size <= count:
        coords = np.arange(size)
    else:
        picker = Rng(seed).generator
        coords = np.sort(picker.choice(size, size=count, replace=False))
    worst = 0.0
    for idx in coords:
        bumped = flat.copy()
        bumped[idx] = flat[idx] + step
        up = float(loss_fn(bumped.reshape(point.shape)))
        bumped[idx] = flat[idx] - step
        down = float(loss_fn(bumped.reshape(point.shape)))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"loss is non-finite near coordinate {idx}")
        fd = (up - down) / (2.0 * step)
        denom = max(abs(grad[idx]), abs(fd), 1e-8)
        worst = max(worst, abs(grad[idx] - fd) / denom)
    return worst
