"""Deterministic forward pipeline of a context-enhanced stereo transformer:
rectified pair in, disparity and occlusion maps out, with supervision losses
and an oracle-backed self-verification suite."""

from .attention import (
    AttentionWeights,
    PathWeights,
    ScoreMatrix,
    ScoreWeights,
    axial_attention_height,
    axial_attention_width,
    cross_attention,
    cross_scores,
    pixel_norm,
)
from .context import (
    ContextState,
    FusionWeights,
    cep_step,
    make_context_features,
    path_fusion,
)
from .formats import (
    ConfigError,
    FormatError,
    ImagePair,
    RunConfig,
    WeightStore,
    parse_config,
    read_pfm,
    read_pgm,
    read_weights,
    rgb_to_gray,
    write_pfm,
    write_pgm,
    write_weights,
)
from .losses import (
    GtBundle,
    LossBreakdown,
    binary_entropy_loss,
    finite_diff_check,
    relative_response_loss,
    smooth_l1,
    total_loss,
)
from .matching import (
    AssignmentVolume,
    DisparityMap,
    OcclusionMap,
    RefineWeights,
    epipolar_mask,
    refine_full_res,
    regress_raw,
    sinkhorn,
)
from .metrics import epe, occ_iou, three_px_error
from .pipeline import (
    DEFAULT_SPAN,
    ModelDescription,
    backbone_forward,
    cstr_layer,
    forward,
    init_weights,
    pad_pair_to_multiple,
    weight_spec,
)
from .ndarray import (
    Rng,
    avgpool_width,
    bilinear_upsample,
    conv2d,
    linear_interp_1d,
    seeded_normal,
    softmax_axis,
    tensor,
)

__version__ = "0.1.0"
