"""End-to-end forward pipeline: backbone, stacked matching/context layers,
optimal-transport matching head, and full-resolution refinement.

The matching head reads only the last layer's head-averaged left-query
cross-attention scores, and ``cross_scores`` is the only producer of scores:
``cstr_layer`` returns features and context. ``forward`` runs ``cstr_layer``
for every layer but the last, and the last layer only up to the scores: axial
attention on both images, then the masked left-query logits. That layer's
right-query pass, value projection, context step and fusion would produce
features nothing reads, so they never run.

Weight naming scheme (all tensors float32):

    backbone.conv{s}.kernel / .bias        s = 1..log2(1/mmp_scale)
    layer{i}.mmp.{wax,hax,cross}.{Wq,Wk,Wv,Wo,rel}
    layer{i}.cep.{wax,hax,cross}.{Wq,Wk,Wv,Wo,rel}
    fusion{i}.conv{1,2}.{kernel,bias}
    refine.conv{1,2}.{kernel,bias}, refine.occ.{kernel,bias}

``ModelDescription`` validates a store against the config before any compute.
On first use it resolves these names once into typed views of the store's
arrays: ``backbone``, a (kernel, bias) pair per stage; ``layers``, per layer
a ``LayerWeights`` of the matching-path and context-path ``PathWeights``
(wax/hax/cross ``AttentionWeights``) and the ``FusionWeights``; and
``refine``, the ``RefineWeights``. Names are built only in ``weight_spec``
and ``ModelDescription``; the forward functions take the typed weights.

Every layer carries a full context and fusion parameter set regardless of
the configured strategy, so one weight file can drive M1, M2 or M3. The last
layer's context and fusion tensors and its mmp.cross.Wv/Wo stay in the file
but are unused. The position-embedding span is fixed at weight-initialization
time and recorded implicitly in the rel tensor shapes; lines longer than the
span are rejected.

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

from .attention import AttentionWeights, PathWeights, ScoreMatrix
from .attention import axial_attention_height, axial_attention_width, pixel_norm
from .attention import cross_attention, cross_scores
from .context import ContextState, FusionWeights, cep_step, make_context_features, path_fusion
from .formats import ImagePair, RunConfig, WeightStore, rgb_to_gray
from .losses import GtBundle, LossBreakdown, binary_entropy_loss
from .losses import relative_response_loss, smooth_l1, total_loss
from .matching import (
    AssignmentVolume,
    DisparityMap,
    OcclusionMap,
    RefineWeights,
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
    "weight_spec",
    "init_weights",
    "pad_pair_to_multiple",
    "backbone_forward",
    "cstr_layer",
    "forward",
]

DEFAULT_SPAN = 64
REFINE_HIDDEN = 16


def _backbone_channels(config: RunConfig) -> list[int]:
    stages = config.scale_denominator.bit_length() - 1
    if config.channels < 2 ** (stages - 1):
        raise ValueError("channels too small for the backbone stage count")
    return [config.channels >> (stages - 1 - s) for s in range(stages)]


def weight_spec(config: RunConfig, span: int = DEFAULT_SPAN) -> dict[str, tuple]:
    """Ordered name -> shape map of every tensor the config requires."""
    if span < 1:
        raise ValueError("span must be >= 1")
    c = config.channels
    ch = config.head_channels
    rel_shape = (2 * span - 1, ch)
    spec: dict[str, tuple] = {}
    prev = 1
    for s, out in enumerate(_backbone_channels(config), start=1):
        spec[f"backbone.conv{s}.kernel"] = (out, prev, 3, 3)
        spec[f"backbone.conv{s}.bias"] = (out,)
        prev = out
    for i in range(config.layers):
        for path in ("mmp", "cep"):
            for sub in ("wax", "hax", "cross"):
                base = f"layer{i}.{path}.{sub}"
                for mat in ("Wq", "Wk", "Wv", "Wo"):
                    spec[f"{base}.{mat}"] = (c, c)
                spec[f"{base}.rel"] = rel_shape
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


def init_weights(
    config: RunConfig, span: int = DEFAULT_SPAN, seed: int | None = None
) -> WeightStore:
    """Seeded random initialization of every tensor in the naming scheme.

    Draw order follows the weight_spec map, so a given seed always produces
    the same store byte for byte. Biases are zero; projections use 1/sqrt(c),
    kernels 1/sqrt(fan_in), position tables a flat 0.02.
    """
    rng = Rng(config.seed if seed is None else seed)
    store = WeightStore()
    for name, shape in weight_spec(config, span).items():
        if name.endswith(".bias"):
            store[name] = np.zeros(shape, dtype=np.float32)
        elif name.endswith(".rel"):
            store[name] = seeded_normal(rng, shape, 0.02)
        elif name.endswith(".kernel"):
            fan_in = int(np.prod(shape[1:]))
            store[name] = seeded_normal(rng, shape, 1.0 / np.sqrt(fan_in))
        else:
            store[name] = seeded_normal(rng, shape, 1.0 / np.sqrt(shape[0]))
    return store


@dataclass(frozen=True)
class LayerWeights:
    """One stacked layer's parameters: the matching path, the context path
    and the block that fuses context into the matching stream."""

    mmp: PathWeights
    cep: PathWeights
    fusion: FusionWeights


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
    def layers(self) -> tuple[LayerWeights, ...]:
        """One ``LayerWeights`` per stacked layer."""
        return tuple(
            LayerWeights(
                mmp=self._path(f"layer{i}.mmp"),
                cep=self._path(f"layer{i}.cep"),
                fusion=FusionWeights(
                    *self._conv(f"fusion{i}.conv1"), *self._conv(f"fusion{i}.conv2")
                ),
            )
            for i in range(self.config.layers)
        )

    @cached_property
    def refine(self) -> RefineWeights:
        """The refinement head's convolutions."""
        convs = ("refine.conv1", "refine.conv2", "refine.occ")
        return RefineWeights(*(t for name in convs for t in self._conv(name)))

    def _conv(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.weights[f"{name}.kernel"], self.weights[f"{name}.bias"]

    def _path(self, name: str) -> PathWeights:
        def attention(sub: str) -> AttentionWeights:
            tensors = ("Wq", "Wk", "Wv", "Wo", "rel")
            return AttentionWeights(*(self.weights[f"{name}.{sub}.{t}"] for t in tensors))

        return PathWeights(attention("wax"), attention("hax"), attention("cross"))


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
    features are never read, so there ``forward`` computes only the scores.
    """
    config = model.config
    if not 0 <= layer < config.layers:
        raise ValueError(f"layer {layer} out of range for {config.layers} layers")
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
    # matched pixels whose interpolation position leaves the line are dropped
    m = plans.right_width
    cols = np.arange(gt_raw_disp.shape[1])[None, :]
    pos = cols - gt_raw_disp
    in_range = (pos >= 0) & (pos <= m - 1)
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
