"""End-to-end forward pipeline: backbone, stacked matching/context layers,
optimal-transport matching head, and full-resolution refinement.

The matching head reads only the last layer's head-averaged left-query
cross-attention scores, and ``cross_scores`` is the only producer of scores:
``cstr_layer`` returns features and context. ``forward`` runs ``cstr_layer``
for every layer but the last, and the last layer only up to the scores: axial
attention on both images, then the masked left-query logits. That layer's
right-query pass, value projection, context step and fusion would produce
features nothing reads, so they never run.

Weight naming scheme (all tensors float32), for L layers:

    backbone.conv{s}.kernel / .bias        s = 1..log2(1/mmp_scale)
    layer{i}.mmp.{wax,hax,cross}.{Wq,Wk,Wv,Wo,rel}          i < L-1
    layer{i}.cep.{wax,hax}.{Wq,Wk,Wv,Wo,rel}                i < L-1
    layer{i}.cep.cross.{Wq,Wk,Wv,Wo,rel}                    i < L-1 that emit
    fusion{i}.conv{1,2}.{kernel,bias}                       i < L-1 that emit
    layer{L-1}.mmp.{wax,hax}.{Wq,Wk,Wv,Wo,rel}, layer{L-1}.mmp.cross.{Wq,Wk,rel}
    refine.conv{1,2}.{kernel,bias}, refine.occ.{kernel,bias}

The last layer holds only what its scores read. A layer before it holds a
context cross pass and a fusion block only where the strategy emits context
there (``context._emits``): at every such layer under M1 and M3, at none
under M2. So a weight file follows the strategy: an M2 file lacks what M1
and M3 read, and an M1 or M3 file holds tensors M2 rejects. ``init_weights``
draws every layer in full and then drops the unread tensors, so each kept
tensor has the bytes it had when files held them all; a file in an older
layout is rejected and must be regenerated (``cstr init-weights``).

``ModelDescription`` validates a store against the config before any compute.
On first use it resolves these names once into typed views of the store's
arrays: ``backbone``, a (kernel, bias) pair per stage; ``layers``, per layer
but the last a ``LayerWeights`` of the matching-path and context-path
``PathWeights`` (wax/hax/cross ``AttentionWeights``) and the
``FusionWeights``, where a layer that does not emit has a context ``cross``
and a ``fusion`` of None, then the last layer's ``ScoreLayerWeights``, whose
matching path has ``ScoreWeights`` for its cross attention; and ``refine``,
the ``RefineWeights``. Names are built only in ``weight_spec`` and
``ModelDescription``; the forward functions take the typed weights.

The position-embedding span is fixed at weight-initialization time and
recorded implicitly in the rel tensor shapes; lines longer than the span are
rejected.

The backbone is a small stack of stride-2 rectified convolutions with shared
left/right weights; inputs whose extents do not divide the scale factor must
be padded first (``pad_pair_to_multiple`` replicates edges; ``forward`` pads
and crops automatically).

The two images meet only in cross-attention, so the backbone, the axial
half and fusion run once per image as two tasks (``ndarray._both``), as do
the context path's axial passes and the two directions of
``cross_attention``. The rest stays on the calling thread (see README).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .attention import AttentionWeights, PathWeights, ScoreMatrix, ScoreWeights
from .attention import axial_attention_height, axial_attention_width, pixel_norm
from .attention import cross_attention, cross_scores
from .context import ContextState, FusionWeights, _emits, cep_step, make_context_features
from .context import path_fusion
from .formats import ImagePair, RunConfig, WeightStore, rgb_to_gray
from .losses import GtBundle, LossBreakdown, binary_entropy_loss
from .losses import relative_response_loss, smooth_l1, total_loss
from .matching import (
    AssignmentVolume,
    DisparityMap,
    OcclusionMap,
    RefineWeights,
    _epipolar,
    epipolar_mask,
    regress_raw,
    refine_full_res,
    sinkhorn,
)
from .ndarray import Rng, _both, conv2d, relu, seeded_normal

__all__ = [
    "DEFAULT_SPAN",
    "REFINE_HIDDEN",
    "LayerWeights",
    "ModelDescription",
    "ScoreLayerWeights",
    "weight_spec",
    "init_weights",
    "pad_pair_to_multiple",
    "backbone_forward",
    "cstr_layer",
    "forward",
]

DEFAULT_SPAN = 64
REFINE_HIDDEN = 16
# tensor names of each attention weight type, in field order
_TENSORS = {
    AttentionWeights: ("Wq", "Wk", "Wv", "Wo", "rel"),
    ScoreWeights: ("Wq", "Wk", "rel"),
}


def _backbone_channels(config: RunConfig) -> list[int]:
    stages = config.scale_denominator.bit_length() - 1
    if config.channels < 2 ** (stages - 1):
        raise ValueError("channels too small for the backbone stage count")
    return [config.channels >> (stages - 1 - s) for s in range(stages)]


def _layout(config: RunConfig, span: int, last_in_full: bool) -> dict[str, tuple]:
    """Ordered name -> shape map of every layer's tensors. The last layer
    holds only what its scores read, and a layer that does not emit context
    no context cross pass and no fusion block, unless ``last_in_full`` is
    set, which gives every layer in full: the layout ``init_weights`` draws
    (see the module docstring)."""
    if span < 1:
        raise ValueError("span must be >= 1")
    c = config.channels
    rel_shape = (2 * span - 1, config.head_channels)
    spec: dict[str, tuple] = {}
    prev = 1
    for s, out in enumerate(_backbone_channels(config), start=1):
        spec[f"backbone.conv{s}.kernel"] = (out, prev, 3, 3)
        spec[f"backbone.conv{s}.bias"] = (out,)
        prev = out
    for i in range(config.layers):
        full = last_in_full or i < config.layers - 1
        fuses = full and (last_in_full or _emits(config.cep_strategy, i, config.layers))
        for path in ("mmp", "cep") if full else ("mmp",):
            for sub in ("wax", "hax", "cross") if path == "mmp" or fuses else ("wax", "hax"):
                kind = AttentionWeights if full or sub != "cross" else ScoreWeights
                for t in _TENSORS[kind]:
                    spec[f"layer{i}.{path}.{sub}.{t}"] = rel_shape if t == "rel" else (c, c)
        if fuses:
            spec[f"fusion{i}.conv1.kernel"] = (c, 2 * c, 3, 3)
            spec[f"fusion{i}.conv1.bias"] = (c,)
            spec[f"fusion{i}.conv2.kernel"] = (c, c, 3, 3)
            spec[f"fusion{i}.conv2.bias"] = (c,)
    spec["refine.conv1.kernel"] = (REFINE_HIDDEN, 2, 3, 3)
    spec["refine.conv1.bias"] = (REFINE_HIDDEN,)
    spec["refine.conv2.kernel"] = (1, REFINE_HIDDEN, 3, 3)
    spec["refine.conv2.bias"] = (1,)
    spec["refine.occ.kernel"] = (1, 2, 3, 3)
    spec["refine.occ.bias"] = (1,)
    return spec


def weight_spec(config: RunConfig, span: int = DEFAULT_SPAN) -> dict[str, tuple]:
    """Ordered name -> shape map of every tensor ``forward`` reads under the
    config: every layer in full but the last, which has no context path, no
    fusion block and no mmp.cross.Wv/Wo, and the layers that do not emit
    context, which have no context cross pass and no fusion block (see the
    module docstring)."""
    return _layout(config, span, last_in_full=False)


def init_weights(
    config: RunConfig, span: int = DEFAULT_SPAN, seed: int | None = None
) -> WeightStore:
    """Seeded random initialization of every tensor in ``weight_spec``.

    Every layer is drawn in full, in naming order, and the tensors that
    ``forward`` does not read are then dropped (see the module docstring),
    so a given seed always produces the same store byte for byte. Biases
    are zero; projections use 1/sqrt(c), kernels 1/sqrt(fan_in), position
    tables a flat 0.02.
    """
    rng = Rng(config.seed if seed is None else seed)
    kept = weight_spec(config, span)
    store = WeightStore()
    for name, shape in _layout(config, span, last_in_full=True).items():
        if name.endswith(".bias"):
            value = np.zeros(shape, dtype=np.float32)
        elif name.endswith(".rel"):
            value = seeded_normal(rng, shape, 0.02)
        elif name.endswith(".kernel"):
            fan_in = int(np.prod(shape[1:]))
            value = seeded_normal(rng, shape, 1.0 / np.sqrt(fan_in))
        else:
            value = seeded_normal(rng, shape, 1.0 / np.sqrt(shape[0]))
        if name in kept:
            store[name] = value
    return store


@dataclass(frozen=True)
class LayerWeights:
    """One stacked layer's parameters: the matching path, the context path
    and the block that fuses context into the matching stream. A layer that
    does not emit context has no context cross weights and no fusion."""

    mmp: PathWeights
    cep: PathWeights
    fusion: FusionWeights | None


@dataclass(frozen=True)
class ScoreLayerWeights:
    """The last layer's parameters: only what ``_final_scores`` reads, the
    matching path's axial weights and its cross-attention ``ScoreWeights``."""

    mmp: PathWeights


@dataclass(frozen=True)
class ModelDescription:
    """A validated (config, weights) bundle; construction fails fast on any
    missing, unexpected or mis-shaped tensor.

    ``backbone``, ``layers`` and ``refine`` are typed views of the store's
    arrays, resolved from the names on first use (see the module docstring).
    """

    config: RunConfig
    weights: WeightStore

    def __post_init__(self):
        rel_names = [n for n in self.weights if n.endswith(".rel")]
        if not rel_names:
            raise ValueError("weights hold no position-embedding tensors")
        rows = self.weights[rel_names[0]].shape[0]
        span = (rows + 1) // 2
        expected = weight_spec(self.config, span)
        missing = [n for n in expected if n not in self.weights]
        if missing:
            raise ValueError(f"weights missing tensors: {missing[:5]}")
        extra = [n for n in self.weights if n not in expected]
        if extra:
            raise ValueError(f"weights hold unexpected tensors: {extra[:5]}")
        for name, shape in expected.items():
            got = self.weights[name].shape
            if got != shape:
                raise ValueError(f"tensor {name} has shape {got}, expected {shape}")
        object.__setattr__(self, "span", span)

    @cached_property
    def backbone(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """One (kernel, bias) pair per stride-2 stage."""
        stages = range(1, self.config.scale_denominator.bit_length())
        return tuple(self._conv(f"backbone.conv{s}") for s in stages)

    @cached_property
    def layers(self) -> tuple[LayerWeights | ScoreLayerWeights, ...]:
        """One ``LayerWeights`` per stacked layer but the last, then the
        last layer's ``ScoreLayerWeights``."""
        config = self.config
        last = config.layers - 1
        full = []
        for i in range(last):
            emits = _emits(config.cep_strategy, i, config.layers)
            fusion = None
            if emits:
                fusion = FusionWeights(
                    *self._conv(f"fusion{i}.conv1"), *self._conv(f"fusion{i}.conv2")
                )
            cep = self._path(f"layer{i}.cep", AttentionWeights if emits else None)
            full.append(LayerWeights(self._path(f"layer{i}.mmp"), cep, fusion))
        return (*full, ScoreLayerWeights(self._path(f"layer{last}.mmp", ScoreWeights)))

    @cached_property
    def refine(self) -> RefineWeights:
        """The refinement head's convolutions."""
        convs = ("refine.conv1", "refine.conv2", "refine.occ")
        return RefineWeights(*(t for name in convs for t in self._conv(name)))

    def _conv(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.weights[f"{name}.kernel"], self.weights[f"{name}.bias"]

    def _path(self, name: str, cross=AttentionWeights) -> PathWeights:
        def attention(sub: str, kind=AttentionWeights):
            tensors = _TENSORS[kind]
            return kind(*(self.weights[f"{name}.{sub}.{t}"] for t in tensors))

        cross = attention("cross", cross) if cross else None
        return PathWeights(attention("wax"), attention("hax"), cross)


def pad_pair_to_multiple(pair: ImagePair, multiple: int) -> tuple[ImagePair, tuple[int, int]]:
    """Replicate-pad both images on the bottom/right to the next multiple.

    Returns the padded pair and the original (h, w) so outputs can be
    cropped back.
    """
    _, h, w = pair.shape
    pad_h = (-h) % multiple
    pad_w = (-w) % multiple
    if pad_h == 0 and pad_w == 0:
        return pair, (h, w)
    spec = ((0, 0), (0, pad_h), (0, pad_w))
    return (
        ImagePair(
            left=np.pad(pair.left, spec, mode="edge"),
            right=np.pad(pair.right, spec, mode="edge"),
        ),
        (h, w),
    )


def _luma(pair: ImagePair) -> ImagePair:
    """The pair itself if it has one channel, else both images' luma."""
    if pair.shape[0] == 1:
        return pair
    return ImagePair(rgb_to_gray(pair.left), rgb_to_gray(pair.right))


def _backbone_image(image: np.ndarray, stages) -> np.ndarray:
    for kernel, bias in stages:
        image = relu(conv2d(image, kernel, bias, stride=2))
    return image


def backbone_forward(
    pair: ImagePair, model: ModelDescription
) -> tuple[np.ndarray, np.ndarray, ContextState]:
    """Shared-weight convolutional feature extraction for both images.

    Produces matching-path features at mmp_scale and the width-pooled
    context seed. An RGB pair is converted to luma first. Image extents must
    already divide the scale factor.
    """
    config = model.config
    denom = config.scale_denominator
    _, h, w = pair.shape
    if h % denom or w % denom:
        raise ValueError(
            f"image extents {h}x{w} must divide the scale factor {denom}; "
            "pad the pair first (pad_pair_to_multiple)"
        )

    pair = _luma(pair)
    stages = model.backbone
    feat_l, feat_r = _both(
        _backbone_image, (pair.left, stages), (pair.right, stages), pair.left.size
    )
    ctx = make_context_features(
        feat_l, feat_r, config.cep_width_factor, config.cep_strategy
    )
    return feat_l, feat_r, ctx


def _axial_image(f: np.ndarray, weights: PathWeights, heads: int) -> np.ndarray:
    f = pixel_norm(axial_attention_width(f, weights.wax, heads))
    return pixel_norm(axial_attention_height(f, weights.hax, heads))


def _axial_half(
    left: np.ndarray, right: np.ndarray, weights: PathWeights, heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """Width- then height-axial self-attention of one matching-path layer,
    each sublayer re-normalized per pixel, one task per image.
    ``context._axial_pass`` is the same block on the context path; each stays
    in its own module because the benchmark tracer tells the paths apart by
    the module a call goes through."""
    return _both(_axial_image, (left, weights, heads), (right, weights, heads), left.size)


def cstr_layer(
    mmp_left: np.ndarray,
    mmp_right: np.ndarray,
    ctx_state: ContextState,
    layer: int,
    model: ModelDescription,
) -> tuple[np.ndarray, np.ndarray, ContextState]:
    """One full stacked layer: axial self-attention, masked cross-attention,
    context advance, and (when the strategy emits) path fusion.

    Returns the next matching features of both images and the next context
    state. ``forward`` runs it for every layer but the last; the last layer's
    features are never read, so there ``forward`` computes only the scores,
    and the model holds no weights for the rest of that layer.
    """
    config = model.config
    if not 0 <= layer < config.layers:
        raise ValueError(f"layer {layer} out of range for {config.layers} layers")
    if layer == config.layers - 1:
        raise ValueError(
            f"layer {layer} is the last layer, which computes only scores; "
            "forward runs it up to cross_scores"
        )
    weights = model.layers[layer]
    heads = config.heads
    left, right = _axial_half(mmp_left, mmp_right, weights.mmp, heads)
    mask = epipolar_mask(left.shape[2], right.shape[2])
    left, right = cross_attention(left, right, weights.mmp.cross, heads, mask)
    left, right = pixel_norm(left), pixel_norm(right)
    ctx_state, payload = cep_step(ctx_state, layer, config.layers, weights.cep, heads)
    if payload is not None:
        fusion = weights.fusion
        left, right = _both(
            path_fusion, (left, payload[0], fusion), (right, payload[1], fusion), left.size
        )
    return left, right, ctx_state


def _final_scores(
    mmp_left: np.ndarray, mmp_right: np.ndarray, model: ModelDescription
) -> ScoreMatrix:
    """The last layer up to the matching scores: its axial half, then the
    masked left-query cross-attention logits averaged over heads."""
    weights = model.layers[-1].mmp
    heads = model.config.heads
    left, right = _axial_half(mmp_left, mmp_right, weights, heads)
    mask = epipolar_mask(left.shape[2], right.shape[2])
    return cross_scores(left, right, weights.cross, heads, mask)


def _line_plans(scores: ScoreMatrix, config: RunConfig) -> AssignmentVolume:
    logits = scores.logits
    plans = np.stack(
        [
            sinkhorn(-logits[y], config.sinkhorn_iters, config.sinkhorn_epsilon)
            for y in range(logits.shape[0])
        ]
    )
    return AssignmentVolume(plans)


def _loss_breakdown(
    plans: AssignmentVolume,
    raw_disp: DisparityMap,
    disp: DisparityMap,
    occ: OcclusionMap,
    gt: GtBundle,
    config: RunConfig,
) -> LossBreakdown:
    step = config.scale_denominator
    gt_raw_disp = gt.disparity[::step, ::step] * np.float32(config.mmp_scale)
    gt_raw_occ = gt.occlusion[::step, ::step].astype(bool)
    # matched pixels whose right column leaves the line are dropped
    _, in_range = _epipolar(np.arange(gt_raw_disp.shape[1]), gt_raw_disp, plans.right_width)
    valid = gt_raw_occ | in_range
    rr_value, _ = relative_response_loss(
        plans, GtBundle(gt_raw_disp, gt_raw_occ), valid=valid
    )
    d1_raw, _ = smooth_l1(raw_disp.values, gt_raw_disp, ~gt_raw_occ)
    d1_final, _ = smooth_l1(disp.values, gt.disparity, ~gt.occlusion.astype(bool))
    be_final, _ = binary_entropy_loss(occ.probs, gt.occlusion.astype(np.float32))
    return total_loss(
        rr_value, d1_raw, d1_final, be_final, config.w1, config.w2, config.w3, config.w4
    )


def forward(
    pair: ImagePair,
    model: ModelDescription,
    gt: GtBundle | None = None,
) -> tuple[DisparityMap, OcclusionMap, LossBreakdown | None]:
    """Full forward pass: images in, full-resolution disparity/occlusion out.

    Layers 0 .. L-2 run through ``cstr_layer``; the last layer computes only
    the scores the matching head reads (see the module docstring), which
    gives the same bytes as running it in full. Inputs with awkward extents
    are replicate-padded and the outputs cropped back. When ground truth is
    supplied the supervision breakdown is computed as well; the ground truth
    must then match the image extents, and these must divide the scale
    factor. Both are checked before any compute.
    """
    denom = model.config.scale_denominator
    if gt is not None:
        _, h, w = pair.shape
        if gt.disparity.shape != (h, w):
            raise ValueError(
                f"ground truth {gt.disparity.shape} does not match images ({h}, {w})"
            )
        if h % denom or w % denom:
            raise ValueError(
                f"loss path requires image extents {h}x{w} divisible by the "
                f"scale factor {denom}"
            )
    padded, (orig_h, orig_w) = pad_pair_to_multiple(pair, denom)
    # the outputs outlive the pass: allocated before its temporaries, they sit
    # low in the heap, and the allocator can return the space above them
    disp_out = np.empty((orig_h, orig_w), dtype=np.float32)
    occ_out = np.empty((orig_h, orig_w), dtype=np.float32)
    # one luma pair feeds both the backbone and the refinement
    gray = _luma(padded)
    feat_l, feat_r, ctx = backbone_forward(gray, model)
    for layer in range(model.config.layers - 1):
        feat_l, feat_r, ctx = cstr_layer(feat_l, feat_r, ctx, layer, model)
    scores = _final_scores(feat_l, feat_r, model)
    plans = _line_plans(scores, model.config)
    raw_disp, raw_occ = regress_raw(plans, scale=model.config.mmp_scale)
    disp, occ = refine_full_res(raw_disp, raw_occ, gray.left, model.refine)
    np.clip(
        disp.values[:orig_h, :orig_w], np.float32(0), np.float32(orig_w - 1), out=disp_out
    )
    disp = DisparityMap(disp_out, scale=1.0)
    occ_out[...] = occ.probs[:orig_h, :orig_w]
    occ = OcclusionMap(occ_out)
    if gt is None:
        return disp, occ, None
    return disp, occ, _loss_breakdown(plans, raw_disp, disp, occ, gt, model.config)
