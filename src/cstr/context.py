"""Context Enhanced Path: a reduced-width feature stream that runs its own
axial/cross attention stack and periodically hands context back to the main
matching stream through the path fusion block.

Three wiring strategies control when context is emitted for fusion:

* M1: every layer runs one axial pass and one cross pass over the carried
  context; the post-cross result is the payload, the post-axial (pre-cross)
  feature is carried forward.
* M2: every layer runs the axial pass only; a single cross pass runs at the
  final layer, whose output is the only payload. ``forward`` runs only the
  scores of the final layer, so under M2 it never computes a payload and its
  outputs do not depend on the context path.
* M3: every layer runs axial then cross; the post-cross feature is both the
  payload and the carried state.

Every attention sublayer output is re-normalized per pixel before further
use, matching the main path's convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import (
    PathWeights,
    axial_attention_height,
    axial_attention_width,
    cross_attention,
    pixel_norm,
)
from .formats import STRATEGIES
from .matching import epipolar_mask
from .ndarray import _both, avgpool_width, bilinear_upsample, conv2d

__all__ = [
    "ContextState",
    "FusionWeights",
    "make_context_features",
    "cep_step",
    "path_fusion",
]


@dataclass(frozen=True)
class ContextState:
    """Carried context features for both images plus the wiring bookkeeping."""

    left_ctx: np.ndarray
    right_ctx: np.ndarray
    strategy: str

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.left_ctx.shape != self.right_ctx.shape:
            raise ValueError("left/right context shapes differ")


@dataclass(frozen=True)
class FusionWeights:
    """Two-convolution stack fusing context into the matching stream."""

    conv1_kernel: np.ndarray
    conv1_bias: np.ndarray
    conv2_kernel: np.ndarray
    conv2_bias: np.ndarray


def make_context_features(
    backbone_feat_left: np.ndarray,
    backbone_feat_right: np.ndarray,
    width_factor: int,
    strategy: str = "M3",
) -> ContextState:
    """Pool the backbone features along width by 2*K to seed the context."""
    if width_factor < 1:
        raise ValueError("width factor K must be >= 1")
    return ContextState(
        left_ctx=avgpool_width(backbone_feat_left, 2 * width_factor),
        right_ctx=avgpool_width(backbone_feat_right, 2 * width_factor),
        strategy=strategy,
    )


def _axial_image(f: np.ndarray, weights: PathWeights, heads: int) -> np.ndarray:
    f = pixel_norm(axial_attention_width(f, weights.wax, heads))
    return pixel_norm(axial_attention_height(f, weights.hax, heads))


def _axial_pass(left: np.ndarray, right: np.ndarray, weights: PathWeights, heads: int):
    return _both(_axial_image, (left, weights, heads), (right, weights, heads), left.size)


def _cross_pass(left: np.ndarray, right: np.ndarray, weights: PathWeights, heads: int):
    mask = epipolar_mask(left.shape[2], right.shape[2])
    new_left, new_right = cross_attention(left, right, weights.cross, heads, mask)
    return pixel_norm(new_left), pixel_norm(new_right)


def cep_step(
    state: ContextState,
    layer: int,
    total_layers: int,
    weights: PathWeights,
    heads: int,
) -> tuple[ContextState, tuple[np.ndarray, np.ndarray] | None]:
    """Advance the context stream by one layer.

    Returns the next state and, when the strategy emits at this layer, a
    (left, right) fusion payload.
    """
    if not 0 <= layer < total_layers:
        raise ValueError(f"layer {layer} out of range for {total_layers} layers")
    ax_l, ax_r = _axial_pass(state.left_ctx, state.right_ctx, weights, heads)
    if state.strategy == "M1":
        payload = _cross_pass(ax_l, ax_r, weights, heads)
        carried = (ax_l, ax_r)
    elif state.strategy == "M2":
        if layer == total_layers - 1:
            payload = _cross_pass(ax_l, ax_r, weights, heads)
        else:
            payload = None
        carried = (ax_l, ax_r)
    else:  # M3
        payload = _cross_pass(ax_l, ax_r, weights, heads)
        carried = payload
    next_state = replace(state, left_ctx=carried[0], right_ctx=carried[1])
    return next_state, payload


def path_fusion(
    mmp_feat: np.ndarray, ctx_feat: np.ndarray, weights: FusionWeights
) -> np.ndarray:
    """Inject upsampled context into a matching-path feature map.

    The context is bilinearly upsampled to the matching feature's extents,
    concatenated on the channel axis (matching channels first), and reduced
    back by two 3x3 convolutions with a rectifier in between. The result
    replaces the matching stream; there is no residual around the block.
    """
    if mmp_feat.ndim != 3 or ctx_feat.ndim != 3:
        raise ValueError("path_fusion expects (c, h, w) tensors")
    if mmp_feat.shape[0] != ctx_feat.shape[0]:
        raise ValueError(
            f"channel mismatch: matching {mmp_feat.shape[0]} vs context {ctx_feat.shape[0]}"
        )
    c, h, w = mmp_feat.shape
    stacked = np.empty((2 * c, h, w), dtype=np.float32)
    stacked[:c] = mmp_feat
    bilinear_upsample(ctx_feat, h, w, out=stacked[c:])
    hidden = conv2d(stacked, weights.conv1_kernel, weights.conv1_bias)
    del stacked  # the second convolution reads only the rectified hidden map
    np.maximum(hidden, np.float32(0), out=hidden)
    return conv2d(hidden, weights.conv2_kernel, weights.conv2_bias)
