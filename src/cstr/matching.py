"""Matching head: epipolar mask, entropy-regularized optimal transport with a
dustbin, window-based disparity/occlusion regression, and full-resolution
refinement.

The transport layout follows the standard dustbin scheme: a cost matrix of
(n, m) real candidates is augmented with one dustbin row and column, real
pixels carry unit marginal mass, and the dustbins absorb the imbalance plus
any unmatched mass (row dustbin mass m, column dustbin mass n). Each Sinkhorn
iteration normalizes columns then rows, so real-row marginals are exact up to
float rounding after any number of iterations. Entries between real pixels
and either dustbin stay in [0, 1]; the dustbin/dustbin corner is structural
slack, can exceed 1, and is never consumed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndarray import bilinear_upsample, conv2d, relu, sigmoid

__all__ = [
    "DUSTBIN_COST",
    "AssignmentVolume",
    "DisparityMap",
    "OcclusionMap",
    "RefineWeights",
    "epipolar_mask",
    "sinkhorn",
    "regress_raw",
    "refine_full_res",
]

# Cost assigned to matching a pixel with a dustbin, in the same units as the
# real costs (negated attention logits). Kept as a code constant so the
# forward pipeline stays training-free.
DUSTBIN_COST = 0.0

# Candidate offsets around the argmax anchor that ``regress_raw`` weighs.
_WINDOW_OFFSETS = np.array([-1, 0, 1])


@dataclass(frozen=True)
class AssignmentVolume:
    """Per-line transport plans, (lines, W_left + 1, W_right + 1).

    The last row/column of each plan are the dustbins. Real rows sum to 1
    within the Sinkhorn tolerance; see the module docstring for the corner
    entry's slack semantics.
    """

    plans: np.ndarray

    def __post_init__(self):
        if self.plans.ndim != 3:
            raise ValueError(f"plans must be rank 3, got {self.plans.shape}")
        if self.plans.shape[1] < 2 or self.plans.shape[2] < 2:
            raise ValueError("plans need at least one real pixel plus a dustbin")
        if (self.plans < 0).any() or not np.isfinite(self.plans).all():
            raise ValueError("plan entries must be finite and nonnegative")

    @property
    def lines(self) -> int:
        return self.plans.shape[0]

    @property
    def left_width(self) -> int:
        return self.plans.shape[1] - 1

    @property
    def right_width(self) -> int:
        return self.plans.shape[2] - 1


@dataclass(frozen=True)
class DisparityMap:
    """Per-pixel disparity in pixels at ``scale`` times full resolution."""

    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"disparity must be (h, w), got {self.values.shape}")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ValueError("disparity must be finite and nonnegative")


@dataclass(frozen=True)
class OcclusionMap:
    """Per-pixel probability of having no counterpart in the other image."""

    probs: np.ndarray

    def __post_init__(self):
        if self.probs.ndim != 2:
            raise ValueError(f"occlusion must be (h, w), got {self.probs.shape}")
        if (self.probs < 0).any() or (self.probs > 1).any():
            raise ValueError("occlusion probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class RefineWeights:
    """Convolution stacks for the full-resolution refinement head."""

    conv1_kernel: np.ndarray
    conv1_bias: np.ndarray
    conv2_kernel: np.ndarray
    conv2_bias: np.ndarray
    occ_kernel: np.ndarray
    occ_bias: np.ndarray


def epipolar_mask(w_left: int, w_right: int, flip: bool = False) -> np.ndarray:
    """Additive attention mask over (left index i, right index j) pairs.

    The default geometric convention allows a match only when i - j <= 0;
    forbidden entries are -inf so the same array masks logits directly and
    maps to +inf costs after negation. ``flip`` selects the complementary
    convention (i - j >= 0) without touching any caller.
    """
    if w_left <= 0 or w_right <= 0:
        raise ValueError("mask extents must be positive")
    i = np.arange(w_left)[:, None]
    j = np.arange(w_right)[None, :]
    allowed = (i - j >= 0) if flip else (i - j <= 0)
    mask = np.where(allowed, np.float32(0), np.float32(-np.inf))
    return mask.astype(np.float32)


def sinkhorn(cost: np.ndarray, iters: int, epsilon: float) -> np.ndarray:
    """Log-domain Sinkhorn over a dustbin-augmented cost matrix.

    ``cost`` is (n, m) with +inf marking forbidden cells; the result is the
    (n+1, m+1) transport plan. Real rows/columns target unit mass; the
    dustbin row targets m and the dustbin column n, which keeps the problem
    feasible for every mask. Every dustbin cell costs DUSTBIN_COST.

    Each half-sweep is a log-sum-exp over one axis of ``log_kernel`` plus the
    other side's potential, evaluated in one preallocated buffer; a line whose
    maximum is not finite is shifted by 0 instead.
    """
    if cost.ndim != 2:
        raise ValueError(f"cost must be rank 2, got {cost.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not np.isfinite(epsilon) or epsilon <= 0:
        raise ValueError("epsilon must be a positive finite real")
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("costs must be finite or +inf")
    n, m = cost.shape
    log_kernel = np.full((n + 1, m + 1), np.float32(DUSTBIN_COST), dtype=np.float32)
    log_kernel[:n, :m] = cost
    # a +inf cost negates to the -inf log weight of a forbidden cell
    np.negative(log_kernel, out=log_kernel)
    log_kernel /= np.float32(epsilon)
    buf = np.empty_like(log_kernel)
    f = np.zeros(n + 1, dtype=np.float32)
    g = np.zeros(m + 1, dtype=np.float32)
    with np.errstate(divide="ignore"):
        log_row_mass = np.log(
            np.concatenate([np.ones(n, dtype=np.float32), [np.float32(m)]])
        )
        log_col_mass = np.log(
            np.concatenate([np.ones(m, dtype=np.float32), [np.float32(n)]])
        )
        for _ in range(iters):
            np.add(log_kernel, f[:, None], out=buf)
            mx = np.maximum.reduce(buf, axis=0)
            mx[~np.isfinite(mx)] = 0
            np.subtract(buf, mx, out=buf)
            np.exp(buf, out=buf)
            np.add.reduce(buf, axis=0, out=g)
            np.log(g, out=g)
            g += mx
            np.subtract(log_col_mass, g, out=g)
            np.add(log_kernel, g, out=buf)
            mx = np.maximum.reduce(buf, axis=1)
            mx[~np.isfinite(mx)] = 0
            np.subtract(buf, mx[:, None], out=buf)
            np.exp(buf, out=buf)
            np.add.reduce(buf, axis=1, out=f)
            np.log(f, out=f)
            f += mx
            np.subtract(log_row_mass, f, out=f)
    np.add(log_kernel, f[:, None], out=buf)
    buf += g
    plan = np.exp(buf, out=buf)
    if np.isnan(plan).any():
        raise ValueError("Sinkhorn produced NaN mass")
    return plan


def regress_raw(
    plans: AssignmentVolume, scale: float = 1.0
) -> tuple[DisparityMap, OcclusionMap]:
    """Regress disparity and occlusion from transport plans, all lines at once.

    For each left pixel the highest-scoring real candidate anchors a 3-wide
    window (clipped at the borders); window scores are renormalized to give
    the disparity expectation, and occlusion is one minus the unnormalized
    window mass.
    """
    vol = plans.plans
    n, m = plans.left_width, plans.right_width
    real = vol[:, :n, :m]
    if (real.sum(axis=2) == 0).any():
        raise ValueError("a left pixel has no unmasked right candidate")
    anchor = np.argmax(real, axis=2)
    window = anchor[:, :, None] + _WINDOW_OFFSETS
    valid = (window >= 0) & (window < m)
    clipped = np.clip(window, 0, m - 1)
    scores = np.take_along_axis(real, clipped, axis=2) * valid
    mass = scores.sum(axis=2)
    weights = scores / mass[:, :, None]
    candidates = np.abs(np.arange(n)[:, None] - clipped).astype(np.float32)
    disparity = (candidates * weights).sum(axis=2)
    occlusion = np.clip(np.float32(1) - mass, np.float32(0), np.float32(1))
    return DisparityMap(disparity, scale=scale), OcclusionMap(occlusion)


def _logit(p: np.ndarray) -> np.ndarray:
    clipped = np.clip(p, np.float32(1e-7), np.float32(1 - 1e-7))
    return np.log(clipped) - np.log(np.float32(1) - clipped)


def refine_full_res(
    raw_disp: DisparityMap,
    raw_occ: OcclusionMap,
    left_image: np.ndarray,
    weights: RefineWeights,
) -> tuple[DisparityMap, OcclusionMap]:
    """Upsample the raw maps to image resolution and refine them.

    Disparity is bilinearly upsampled with its values multiplied by the scale
    factor, then corrected by a residual from two convolutions over the
    (disparity, image) stack. Occlusion is upsampled and passed through a
    sigmoid-activated convolution head that is residual in logit space, so
    zero weights leave both maps plainly upsampled. ``left_image`` is one
    channel; ``forward`` passes an RGB pair's luma.
    """
    if left_image.ndim != 3 or left_image.shape[0] != 1:
        raise ValueError(f"left_image must be (1, h, w), got {left_image.shape}")
    h, w = raw_disp.values.shape
    if raw_occ.probs.shape != (h, w):
        raise ValueError("raw disparity and occlusion shapes differ")
    img_h, img_w = left_image.shape[1], left_image.shape[2]
    if img_h % h or img_w % w or img_h // h != img_w // w:
        raise ValueError(
            f"scale mismatch: raw maps {h}x{w} do not divide image {img_h}x{img_w}"
        )
    factor = img_h // h
    if abs(raw_disp.scale * factor - 1.0) > 1e-6:
        raise ValueError(
            f"scale mismatch: map declares scale {raw_disp.scale}, image implies 1/{factor}"
        )
    gray = left_image[0]
    maps = bilinear_upsample(np.stack([raw_disp.values, raw_occ.probs]), img_h, img_w)
    disp_up = maps[0] * np.float32(factor)
    occ_up = maps[1]
    stack = np.stack([disp_up, gray])
    hidden = relu(conv2d(stack, weights.conv1_kernel, weights.conv1_bias))
    residual = conv2d(hidden, weights.conv2_kernel, weights.conv2_bias)[0]
    disp_out = np.clip(disp_up + residual, np.float32(0), np.float32(img_w - 1))
    occ_stack = np.stack([occ_up, gray])
    occ_shift = conv2d(occ_stack, weights.occ_kernel, weights.occ_bias)[0]
    occ_out = sigmoid(_logit(occ_up) + occ_shift)
    return DisparityMap(disp_out, scale=1.0), OcclusionMap(occ_out)
