"""Self-verification suite: every check pairs a pipeline operation with an
independent oracle (brute-force attention, a reference transport solver,
direct window arithmetic, finite differences) or a frozen identity.

Each check returns (passed, detail); ``run_all`` executes the registry in
order and reports one result per check. The oracles are public so the test
suite imports these same copies instead of keeping its own.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import ndarray as nd
from .attention import AttentionWeights, PathWeights, cross_attention, cross_scores
from .attention import axial_attention_height, axial_attention_width, pixel_norm
from .attention import relative_logits
from .context import cep_step, make_context_features
from .formats import (
    FormatError,
    ImagePair,
    RunConfig,
    WeightStore,
    parse_config,
    read_pfm,
    read_pgm,
    read_weights,
    write_pfm,
    write_pgm,
    write_weights,
)
from .losses import binary_entropy_loss, finite_diff_check, relative_response_loss
from .losses import GtBundle, smooth_l1, total_loss
from .matching import DUSTBIN_COST, AssignmentVolume, DisparityMap, OcclusionMap
from .matching import RefineWeights, epipolar_mask, refine_full_res, regress_raw, sinkhorn
from .metrics import epe, occ_iou, three_px_error
from .pipeline import REFINE_HIDDEN, ModelDescription, cstr_layer, forward, init_weights
from .ndarray import Rng, seeded_normal

__all__ = [
    "CHECKS",
    "run_all",
    "random_attention_weights",
    "random_path_weights",
    "dense_attention_oracle",
    "per_line_cross_scores",
    "reference_sinkhorn",
    "direct_regression",
    "direct_conv2d",
    "direct_pixel_norm",
    "separable_upsample",
    "direct_avgpool_width",
]


def random_attention_weights(rng: Rng, c: int, heads: int, span: int) -> AttentionWeights:
    """Seeded attention parameters: c x c projections, a (2*span-1, c/heads) table."""
    std = 1.0 / np.sqrt(c)
    return AttentionWeights(
        Wq=seeded_normal(rng, (c, c), std),
        Wk=seeded_normal(rng, (c, c), std),
        Wv=seeded_normal(rng, (c, c), std),
        Wo=seeded_normal(rng, (c, c), std),
        rel_pos=seeded_normal(rng, (2 * span - 1, c // heads), 0.1),
    )


def random_path_weights(rng: Rng, c: int, heads: int, span: int) -> PathWeights:
    """Seeded wax, hax and cross attention parameters, drawn in that order."""
    return PathWeights(*(random_attention_weights(rng, c, heads, span) for _ in range(3)))


def dense_attention_oracle(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    w: AttentionWeights,
    heads: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Float64 dense attention over one token line, one query row at a time.

    Every logit gathers the embedding of its own offset j-i directly.
    """
    n, c = x_q.shape
    m = x_kv.shape[0]
    ch = c // heads
    span = w.span
    xq = x_q.astype(np.float64)
    xk = x_kv.astype(np.float64)
    wq, wk = w.Wq.astype(np.float64), w.Wk.astype(np.float64)
    wv, wo = w.Wv.astype(np.float64), w.Wo.astype(np.float64)
    rel = w.rel_pos.astype(np.float64)
    out = np.zeros((n, c))
    for h in range(heads):
        hs = slice(h * ch, (h + 1) * ch)
        q, k, v = xq @ wq[:, hs], xk @ wk[:, hs], xk @ wv[:, hs]
        # per-offset embeddings through the head's query and key blocks
        pq, pk = rel @ wq[hs, hs], rel @ wk[hs, hs]
        for i in range(n):
            r = np.arange(m) - i + span - 1  # offset row of each key j
            row = (k @ q[i] + pk[r] @ q[i] + (pq[r] * k).sum(axis=1)) / np.sqrt(ch)
            if mask is not None:
                row = row + mask[i]
            e = np.exp(row - row.max())
            out[i, hs] = (e / e.sum()) @ v
    return out @ wo


def per_line_cross_scores(
    left: np.ndarray,
    right: np.ndarray,
    w: AttentionWeights,
    heads: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Head-averaged masked left-query logits of two (c, h, w) maps, one
    epipolar line and one head at a time through ``relative_logits``.

    The heads are summed in head order into zeros, then divided by the head
    count, as ``cross_scores`` does for all lines at once.
    """
    h = left.shape[1]
    out = np.empty((h, left.shape[2], right.shape[2]), dtype=np.float32)
    for y in range(h):
        lq, rk = left[:, y, :].T, right[:, y, :].T
        total = np.zeros(out.shape[1:], dtype=np.float32)
        for head in range(heads):
            logits = relative_logits(lq, w, head, keys=rk)
            if mask is not None:
                logits += mask
            total += logits
        out[y] = total / np.float32(heads)
    return out


def check_softmax_normalization() -> tuple[bool, str]:
    rng = Rng(11)
    worst = 0.0
    for _ in range(30):
        t = (rng.generator.random((5, 7), dtype=np.float32) - 0.5) * 100
        s = nd.softmax_axis(t, axis=1)
        worst = max(worst, float(np.abs(s.sum(axis=1) - 1).max()))
        if (s < 0).any():
            return False, "negative softmax output"
    return worst < 1e-6, f"max |sum-1| = {worst:.2e}"


def direct_conv2d(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride: int = 1
) -> np.ndarray:
    """Float64 direct sum over the zero-padded window of every kept pixel."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    padded = np.zeros((c_in, h + kh - 1, w + kw - 1))
    padded[:, kh // 2 : kh // 2 + h, kw // 2 : kw // 2 + w] = x
    taps = kernel.astype(np.float64)
    out = np.empty((c_out, -(-h // stride), -(-w // stride)))
    for y in range(out.shape[1]):
        for x0 in range(out.shape[2]):
            window = padded[:, y * stride : y * stride + kh, x0 * stride : x0 * stride + kw]
            out[:, y, x0] = np.tensordot(taps, window, axes=3) + bias
    return out


def check_conv2d_direct_oracle() -> tuple[bool, str]:
    rng = Rng(25)
    # (c_in, h, w), (c_out, kh, kw), stride; the last shape's im2col is over
    # the band budget, so it runs in several bands and its last band spills
    cases = [
        ((3, 9, 11), (1, 3, 3), 1),
        ((3, 9, 11), (4, 3, 3), 2),
        ((2, 7, 6), (1, 1, 3), 2),
        ((5, 8, 13), (6, 5, 5), 1),
        ((64, 45, 47), (8, 3, 3), 1),
    ]
    worst = 0.0
    for (c_in, h, w), (c_out, kh, kw), stride in cases:
        x = seeded_normal(rng, (c_in, h, w), 1.0)
        kernel = seeded_normal(rng, (c_out, c_in, kh, kw), 1.0 / np.sqrt(c_in * kh * kw))
        bias = seeded_normal(rng, (c_out,), 1.0)
        got = nd.conv2d(x, kernel, bias, stride=stride)
        want = direct_conv2d(x, kernel, bias, stride)
        if got.shape != want.shape:
            return False, f"shape {got.shape} != {want.shape}"
        worst = max(worst, float(np.abs(got - want).max()))
    return worst < 1e-4, f"max |diff| = {worst:.2e} over {len(cases)} shapes"


def direct_pixel_norm(f: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Float64 zero-mean, unit-variance channel vector of every pixel."""
    x = f.astype(np.float64)
    d = x - x.mean(axis=0)
    return d / np.sqrt((d * d).mean(axis=0) + eps)


def check_pixel_norm_oracle() -> tuple[bool, str]:
    rng = Rng(26)
    worst = 0.0
    for case in range(20):
        c = int(rng.generator.integers(1, 17))
        h = int(rng.generator.integers(1, 9))
        w = int(rng.generator.integers(1, 9))
        scale = float(10.0 ** rng.generator.integers(-1, 2))
        f = seeded_normal(rng, (c, h, w), scale) + np.float32(case % 5 - 2)
        worst = max(worst, float(np.abs(pixel_norm(f) - direct_pixel_norm(f)).max()))
    return worst < 1e-4, f"max |diff| = {worst:.2e}"


def separable_upsample(t: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Float64 half-pixel bilinear upsample: ``linear_interp_1d`` down every
    column, then along every row."""
    c, h, w = t.shape

    def source(i: int, n_in: int, n_out: int) -> float:
        return min(max((i + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)

    x = t.astype(np.float64)
    rows = np.empty((c, out_h, w))
    for y in range(out_h):
        sy = source(y, h, out_h)
        for ch in range(c):
            for j in range(w):
                rows[ch, y, j] = nd.linear_interp_1d(x[ch, :, j], sy)
    out = np.empty((c, out_h, out_w))
    for j in range(out_w):
        sx = source(j, w, out_w)
        for ch in range(c):
            for y in range(out_h):
                out[ch, y, j] = nd.linear_interp_1d(rows[ch, y], sx)
    return out


def check_bilinear_upsample_oracle() -> tuple[bool, str]:
    rng = Rng(27)
    worst = 0.0
    for _ in range(12):
        c = int(rng.generator.integers(1, 4))
        h = int(rng.generator.integers(1, 7))
        w = int(rng.generator.integers(1, 7))
        # integer factors as the pipeline uses, and ratios that are not
        out_h = h * int(rng.generator.integers(1, 5)) + int(rng.generator.integers(0, 3))
        out_w = w * int(rng.generator.integers(1, 5)) + int(rng.generator.integers(0, 3))
        t = seeded_normal(rng, (c, h, w), 1.0)
        got = nd.bilinear_upsample(t, out_h, out_w)
        worst = max(worst, float(np.abs(got - separable_upsample(t, out_h, out_w)).max()))
    return worst < 1e-5, f"max |diff| = {worst:.2e}"


def direct_avgpool_width(t: np.ndarray, factor: int) -> np.ndarray:
    """Float64 mean of each width window; the last one holds only the
    columns that exist."""
    c, h, w = t.shape
    out = np.empty((c, h, -(-w // factor)))
    for j in range(out.shape[2]):
        cols = range(j * factor, min(w, (j + 1) * factor))
        out[:, :, j] = sum(t[:, :, x].astype(np.float64) for x in cols) / len(cols)
    return out


def check_avgpool_width_oracle() -> tuple[bool, str]:
    rng = Rng(28)
    worst = 0.0
    truncated = 0
    for _ in range(20):
        c = int(rng.generator.integers(1, 5))
        h = int(rng.generator.integers(1, 5))
        w = int(rng.generator.integers(1, 20))
        factor = int(rng.generator.integers(1, 9))
        truncated += w % factor != 0
        t = seeded_normal(rng, (c, h, w), 1.0)
        got = nd.avgpool_width(t, factor)
        want = direct_avgpool_width(t, factor)
        if got.shape != want.shape:
            return False, f"shape {got.shape} != {want.shape}"
        worst = max(worst, float(np.abs(got - want).max()))
    return worst < 1e-5 and truncated > 0, (
        f"max |diff| = {worst:.2e}, {truncated}/20 truncated last windows"
    )


def _multi_block_lines(rng: Rng, along_width: bool) -> tuple[int, int, int]:
    """Span and (h, w) of two lines that each hold two full 16-row position
    blocks and a ragged tail."""
    length = int(rng.generator.integers(33, 48))
    return 48, *((2, length) if along_width else (length, 2))


def _axial_check(direction: str) -> tuple[bool, str]:
    rng = Rng(21 if direction == "width" else 22)
    worst = 0.0
    head_counts = set()
    start = time.perf_counter()
    for case in range(22):
        heads = int(rng.generator.choice([1, 2, 4]))
        c = int(rng.generator.choice([k for k in (4, 6, 8) if k % heads == 0]))
        head_counts.add(heads)
        if case < 20:
            span = 16
            h = int(rng.generator.integers(1, 17))
            w = int(rng.generator.integers(1, 17))
        else:
            span, h, w = _multi_block_lines(rng, direction == "width")
        weights = random_attention_weights(rng, c, heads, span)
        f = seeded_normal(rng, (c, h, w), 1.0)
        if direction == "width":
            got = axial_attention_width(f, weights, heads)
            lines = [f[:, y, :].T for y in range(h)]
        else:
            got = axial_attention_height(f, weights, heads)
            lines = [f[:, :, x].T for x in range(w)]
        for idx, line in enumerate(lines):
            want = line + dense_attention_oracle(line, line, weights, heads)
            if direction == "width":
                diff = np.abs(got[:, idx, :].T - want).max()
            else:
                diff = np.abs(got[:, :, idx].T - want).max()
            worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 10.0 and head_counts == {1, 2, 4}
    return ok, f"max |diff| = {worst:.2e}, heads {sorted(head_counts)}, {elapsed:.2f}s"


def check_axial_width_dense_oracle() -> tuple[bool, str]:
    return _axial_check("width")


def check_axial_height_dense_oracle() -> tuple[bool, str]:
    return _axial_check("height")


def check_cross_attention_dense_oracle() -> tuple[bool, str]:
    rng = Rng(23)
    worst = 0.0
    worst_scores = 0.0
    for case in range(12):
        c, heads = 4, 2
        if case < 10:
            span = 16
            h = int(rng.generator.integers(1, 5))
            w = int(rng.generator.integers(2, 9))
        else:
            span, h, w = _multi_block_lines(rng, along_width=True)
        weights = random_attention_weights(rng, c, heads, span)
        left = seeded_normal(rng, (c, h, w), 1.0)
        right = seeded_normal(rng, (c, h, w), 1.0)
        mask = epipolar_mask(w, w) if case % 2 == 0 else None
        got_l, got_r = cross_attention(left, right, weights, heads, mask)
        scores = cross_scores(left, right, weights, heads, mask).logits
        want = per_line_cross_scores(left, right, weights, heads, mask)
        if not np.array_equal(np.isneginf(scores), np.isneginf(want)):
            return False, f"case {case}: cross_scores masks other cells"
        finite = np.isfinite(want)
        worst_scores = max(worst_scores, float(np.abs(scores[finite] - want[finite]).max()))
        for y in range(h):
            lq = left[:, y, :].T
            rq = right[:, y, :].T
            want_l = lq + dense_attention_oracle(lq, rq, weights, heads, mask)
            mask_t = None if mask is None else mask.T
            want_r = rq + dense_attention_oracle(rq, lq, weights, heads, mask_t)
            worst = max(worst, float(np.abs(got_l[:, y, :].T - want_l).max()))
            worst = max(worst, float(np.abs(got_r[:, y, :].T - want_r).max()))
    return worst < 1e-5 and worst_scores < 1e-6, (
        f"max |diff| = {worst:.2e}, scores {worst_scores:.2e}"
    )


def check_image_tasks_match_one_thread() -> tuple[bool, str]:
    """A default-width M3 layer on 16x64 maps, large enough for its stages
    to run as two image tasks, the scores of its output and two images'
    3-band conv2d give the bytes of one-thread runs."""
    config = RunConfig(layers=2)
    model = ModelDescription(config, init_weights(config, seed=29))
    rng = Rng(29)
    left, right = seeded_normal(rng, (2, 128, 16, 64), 1.0)
    ctx = make_context_features(left, right, config.cep_width_factor)
    images = seeded_normal(rng, (2, 64, 32, 64), 1.0)
    kernel = seeded_normal(rng, (16, 64, 3, 3), 1.0 / 24)
    bias = seeded_normal(rng, (16,), 1.0)
    cross, mask = model.layers[1].mmp.cross, epipolar_mask(64, 64)

    def run() -> list[bytes]:
        out_l, out_r, state = cstr_layer(left, right, ctx, 0, model)
        scores = cross_scores(out_l, out_r, cross, config.heads, mask).logits
        convs = nd._both(nd.conv2d, *((x, kernel, bias) for x in images), images[0].size)
        outputs = (out_l, out_r, state.left_ctx, state.right_ctx, scores, *convs)
        return [t.tobytes() for t in outputs]

    threaded = run()
    with nd._one_thread():
        serial = run()
    ran = "two threads" if nd._two_cpus() else "one CPU, so every task ran on one thread"
    return threaded == serial, f"{len(serial)} outputs, {ran}"


def check_position_encoding_structure() -> tuple[bool, str]:
    rng = Rng(24)
    c, heads, span, n = 8, 2, 12, 6
    ch = c // heads
    weights = random_attention_weights(rng, c, heads, span)
    x = seeded_normal(rng, (n, c), 1.0)
    zero_rel = AttentionWeights(
        weights.Wq, weights.Wk, weights.Wv, weights.Wo,
        np.zeros_like(weights.rel_pos),
    )
    for head in range(heads):
        hs = slice(head * ch, (head + 1) * ch)
        content = ((x @ weights.Wq)[:, hs] @ (x @ weights.Wk)[:, hs].T) / np.float32(
            np.sqrt(ch)
        )
        got = relative_logits(x, zero_rel, head)
        if not np.array_equal(got, content):
            return False, f"head {head}: zero embeddings leave a position term"
        got_zero = relative_logits(np.zeros_like(x), weights, head)
        if not np.array_equal(got_zero, np.zeros((n, n), dtype=np.float32)):
            return False, f"head {head}: zero content gives nonzero logits"
    return True, "content-only and zero-content identities hold exactly"


def reference_sinkhorn(cost: np.ndarray, iters: int, eps: float) -> np.ndarray:
    """Multiplicative-domain float64 transport solver (independent oracle)."""
    n, m = cost.shape
    full = np.full((n + 1, m + 1), DUSTBIN_COST, dtype=np.float64)
    full[:n, :m] = cost.astype(np.float64)
    kernel = np.exp(-full / eps)
    a = np.concatenate([np.ones(n), [float(m)]])
    b = np.concatenate([np.ones(m), [float(n)]])
    u = np.ones(n + 1)
    v = np.ones(m + 1)
    for _ in range(iters):
        v = b / (kernel.T @ u)
        u = a / (kernel @ v)
    return u[:, None] * kernel * v[None, :]


def check_sinkhorn_row_marginals() -> tuple[bool, str]:
    rng = Rng(31)
    worst_row = 0.0
    worst_total = 0.0
    for _ in range(20):
        n = int(rng.generator.integers(1, 65))
        m = int(rng.generator.integers(1, 65))
        cost = (rng.generator.random((n, m), dtype=np.float32)) * 10
        plan = sinkhorn(cost, iters=10, epsilon=0.1)
        rows = plan[:n].sum(axis=1)
        worst_row = max(worst_row, float(np.abs(rows - 1).max()))
        worst_total = max(worst_total, float(abs(plan.sum() - (n + m))))
    ok = worst_row < 1e-4 and worst_total < 1e-4
    return ok, f"row err {worst_row:.2e}, total err {worst_total:.2e}"


def check_sinkhorn_masked_cells() -> tuple[bool, str]:
    rng = Rng(32)
    worst = 0.0
    for _ in range(10):
        n, m = 12, 12
        cost = rng.generator.random((n, m), dtype=np.float32) * 5
        blocked = -epipolar_mask(n, m)  # +inf where forbidden
        plan = sinkhorn(cost + blocked, iters=10, epsilon=0.1)
        masked = plan[:n, :m][np.isposinf(blocked)]
        worst = max(worst, float(masked.max()) if masked.size else 0.0)
    return worst < 1e-8, f"max masked mass = {worst:.2e}"


def check_sinkhorn_reference_agreement() -> tuple[bool, str]:
    rng = Rng(33)
    worst = 0.0
    for _ in range(10):
        n = int(rng.generator.integers(1, 9))
        m = int(rng.generator.integers(1, 9))
        cost = rng.generator.random((n, m), dtype=np.float32) * 4
        got = sinkhorn(cost, iters=10, epsilon=0.1)
        want = reference_sinkhorn(cost, iters=10, eps=0.1)
        worst = max(worst, float(np.abs(got - want).max()))
    return worst < 1e-4, f"max |plan diff| = {worst:.2e}"


def direct_regression(row: np.ndarray, i: int) -> tuple[float, float]:
    """Direct float32 window arithmetic for one plan row of real candidates."""
    m = row.shape[0]
    anchor = int(np.argmax(row))
    lo, hi = max(0, anchor - 1), min(m - 1, anchor + 1)
    mass = np.float32(0)
    for j in range(lo, hi + 1):
        mass = mass + row[j]
    disparity = np.float32(0)
    for j in range(lo, hi + 1):
        disparity = disparity + np.float32(abs(i - j)) * (row[j] / mass)
    occ = min(max(1.0 - float(mass), 0.0), 1.0)
    return float(disparity), occ


def check_disparity_regression_oracle() -> tuple[bool, str]:
    rng = Rng(41)
    worst = 0.0
    for _ in range(100):
        lines = int(rng.generator.integers(1, 5))
        n = int(rng.generator.integers(2, 13))
        m = int(rng.generator.integers(2, 13))
        plan = rng.generator.random((lines, n + 1, m + 1), dtype=np.float32)
        disp, occ = regress_raw(AssignmentVolume(plan))
        for y in range(lines):
            for i in range(n):
                want_d, want_o = direct_regression(plan[y, i, :m], i)
                worst = max(worst, abs(float(disp.values[y, i]) - want_d))
                worst = max(worst, abs(float(occ.probs[y, i]) - want_o))
    # frozen worked example: window scores summing to 1 over candidate
    # disparities 4/5/6 with weights 0.2/0.5/0.3 regress to 5.1, occlusion 0
    plan = np.zeros((1, 9, 9), dtype=np.float32)  # 8 real pixels a side
    plan[0, :8, 7] = 0.01  # keep every left pixel regressable
    plan[0, 7, 3] = 0.2  # |7-3| = 4
    plan[0, 7, 2] = 0.5  # |7-2| = 5
    plan[0, 7, 1] = 0.3  # |7-1| = 6
    disp, occ = regress_raw(AssignmentVolume(plan))
    example_ok = (
        abs(float(disp.values[0, 7]) - 5.1) < 1e-6
        and float(occ.probs[0, 7]) == 0.0
    )
    return worst < 1e-7 and example_ok, f"max |diff| = {worst:.2e}"


def check_refinement_zero_weights_identity() -> tuple[bool, str]:
    rng = Rng(42)
    hidden = REFINE_HIDDEN
    shapes = [(hidden, 2, 3, 3), (hidden,), (1, hidden, 3, 3), (1,), (1, 2, 3, 3), (1,)]
    zero = RefineWeights(*(np.zeros(shape, dtype=np.float32) for shape in shapes))
    worst = 0.0
    for factor in (2, 4, 8):
        h = int(rng.generator.integers(1, 6))
        w = int(rng.generator.integers(2, 9))
        # disparities below w - 1 keep the upsampled map inside the clip
        raw_d = rng.generator.random((h, w), dtype=np.float32) * np.float32(w - 1)
        raw_o = rng.generator.random((h, w), dtype=np.float32)
        image = rng.generator.random((1, h * factor, w * factor), dtype=np.float32)
        disp, occ = refine_full_res(
            DisparityMap(raw_d, scale=1.0 / factor), OcclusionMap(raw_o), image, zero
        )
        want_d = separable_upsample(raw_d[None], h * factor, w * factor)[0] * factor
        want_o = separable_upsample(raw_o[None], h * factor, w * factor)[0]
        for got, want in ((disp.values, want_d), (occ.probs, want_o)):
            worst = max(worst, float((np.abs(got - want) / (1 + np.abs(want))).max()))
    return worst < 1e-5, f"max relative |diff| = {worst:.2e} at factors 2, 4, 8"


def check_gradcheck_relative_response() -> tuple[bool, str]:
    worst = 0.0
    for seed in range(20):
        rng = Rng(100 + seed)
        plan = rng.generator.random((1, 6, 6), dtype=np.float32) + 0.05
        # disparity d <= i keeps the interpolation position i - d on the line
        slack = rng.generator.random((1, 5), dtype=np.float32)
        gt_disp = slack * np.arange(5, dtype=np.float32)[None, :]
        gt_occ = rng.generator.random((1, 5)) < 0.4
        gt = GtBundle(gt_disp, gt_occ)

        def loss_fn(arr):
            return relative_response_loss(AssignmentVolume(arr), gt)[0]

        _, grad = relative_response_loss(AssignmentVolume(plan), gt)
        worst = max(worst, finite_diff_check(loss_fn, plan, grad, step=1e-4))
    return worst < 1e-3, f"max rel err = {worst:.2e}"


def check_gradcheck_smooth_l1() -> tuple[bool, str]:
    worst = 0.0
    for seed in range(20):
        rng = Rng(200 + seed)
        pred = rng.generator.random((4, 4), dtype=np.float32) * 4
        gt = rng.generator.random((4, 4), dtype=np.float32) * 4
        mask = np.ones((4, 4), dtype=bool)

        def loss_fn(arr):
            return smooth_l1(arr, gt, mask)[0]

        _, grad = smooth_l1(pred, gt, mask)
        worst = max(worst, finite_diff_check(loss_fn, pred, grad, step=1e-4))
    return worst < 1e-3, f"max rel err = {worst:.2e}"


def check_gradcheck_binary_entropy() -> tuple[bool, str]:
    worst = 0.0
    for seed in range(20):
        rng = Rng(300 + seed)
        pred = rng.generator.random((4, 4), dtype=np.float32) * 0.9 + 0.05
        gt = (rng.generator.random((4, 4)) < 0.5).astype(np.float32)

        def loss_fn(arr):
            return binary_entropy_loss(arr, gt)[0]

        _, grad = binary_entropy_loss(pred, gt)
        worst = max(worst, finite_diff_check(loss_fn, pred, grad, step=1e-4))
    return worst < 1e-3, f"max rel err = {worst:.2e}"


def check_cep_payload_schedule() -> tuple[bool, str]:
    rng = Rng(51)
    c, heads, layers = 4, 2, 6
    counts = {}
    for strategy in ("M1", "M2", "M3"):
        feat = seeded_normal(Rng(52), (c, 4, 8), 1.0)
        state = make_context_features(feat, feat, 1, strategy)
        layer_weights = [random_path_weights(rng, c, heads, 8) for _ in range(layers)]
        emitted = []
        for layer in range(layers):
            state, payload = cep_step(state, layer, layers, layer_weights[layer], heads)
            emitted.append(payload is not None)
        counts[strategy] = emitted
    ok = (
        sum(counts["M1"]) == 6
        and sum(counts["M3"]) == 6
        and counts["M2"] == [False] * 5 + [True]
    )
    return ok, f"payload flags M1={sum(counts['M1'])} M2={counts['M2']} M3={sum(counts['M3'])}"


def check_epipolar_mask_convention() -> tuple[bool, str]:
    mask = epipolar_mask(3, 3)
    allowed = np.isfinite(mask)
    want = np.array(
        [[True, True, True], [False, True, True], [False, False, True]]
    )
    flipped = np.isfinite(epipolar_mask(3, 3, flip=True))
    ok = (
        np.array_equal(allowed, want)
        and int(allowed.sum()) == 6
        and np.array_equal(flipped, want.T)
    )
    return ok, f"default allows {int(allowed.sum())}/9, flip allows {int(flipped.sum())}/9"


def check_metric_identities() -> tuple[bool, str]:
    gt = np.arange(16, dtype=np.float32).reshape(4, 4)
    mask = np.ones((4, 4), dtype=bool)
    checks = [
        epe(gt, gt, mask) == 0.0,
        three_px_error(gt, gt, mask) == 0.0,
        epe(gt + 4, gt, mask) == 4.0,
        three_px_error(gt + 4, gt, mask) == 100.0,
        occ_iou(mask, mask) == 1.0,
        occ_iou(mask, np.zeros((4, 4), dtype=bool)) == 0.0,
    ]
    half = np.where(np.arange(16).reshape(4, 4) % 2 == 0, 2.0, 6.0).astype(np.float32)
    checks.append(epe(gt + half, gt, mask) == 4.0)
    checks.append(three_px_error(gt + half, gt, mask) == 50.0)
    return all(checks), f"{sum(checks)}/{len(checks)} identities hold"


def check_loss_composition() -> tuple[bool, str]:
    parts = (1.0, 2.0, 3.0, 4.0)
    if total_loss(*parts).total != 10.0:
        return False, "unit weights broke"
    if total_loss(5.0, 5.0, 2.0, 5.0, 0.0, 0.0, 1.0, 0.0).total != 2.0:
        return False, "selector weights broke"
    base = total_loss(*parts, 1.0, 1.0, 1.0, 1.0).total
    for k, delta in enumerate([0.25, 0.5, 0.75, 1.5]):
        w = [1.0, 1.0, 1.0, 1.0]
        w[k] += delta
        bumped = total_loss(*parts, *w).total
        if abs((bumped - base) - delta * parts[k]) > 1e-12:
            return False, f"linearity in w{k + 1} broke"
    return True, "weighted-sum identity and linearity hold"


def check_config_defaults() -> tuple[bool, str]:
    cfg = parse_config("")
    ok = (
        cfg.layers == 6
        and cfg.channels == 128
        and cfg.heads == 4
        and cfg.mmp_scale == 0.25
        and cfg.sinkhorn_iters == 10
        and cfg.cep_strategy == "M3"
        and cfg.cep_width_factor == 2
        and cfg.sinkhorn_epsilon == 0.1
        and (cfg.w1, cfg.w2, cfg.w3, cfg.w4) == (1.0, 1.0, 1.0, 1.0)
        and cfg.seed == 0
    )
    return ok, "defaults: layers=6 channels=128 heads=4 mmp_scale=1/4 sinkhorn_iters=10"


def check_format_roundtrips() -> tuple[bool, str]:
    rng = Rng(61)
    with tempfile.TemporaryDirectory() as tmp:
        for case in range(100):
            h = int(rng.generator.integers(1, 9))
            w = int(rng.generator.integers(1, 9))
            kind = case % 3
            if kind == 0:
                path = os.path.join(tmp, "x.pfm")
                t = (rng.generator.random((h, w), dtype=np.float32) - 0.5) * 100
                write_pfm(path, t)
                if not np.array_equal(read_pfm(path), t):
                    return False, f"PFM round trip broke on case {case}"
            elif kind == 1:
                path = os.path.join(tmp, "x.pgm")
                grid = rng.generator.integers(0, 256, size=(h, w))
                t = grid.astype(np.float32) / np.float32(255)
                write_pgm(path, t)
                if not np.array_equal(read_pgm(path), t):
                    return False, f"PGM round trip broke on case {case}"
            else:
                path = os.path.join(tmp, "x.cstrw")
                store = WeightStore()
                for k in range(int(rng.generator.integers(0, 4))):
                    rank = int(rng.generator.integers(1, 4))
                    shape = tuple(int(rng.generator.integers(1, 5)) for _ in range(rank))
                    store[f"t{k}"] = seeded_normal(rng, shape, 1.0)
                write_weights(path, store)
                if not read_weights(path) == store:
                    return False, f"weight round trip broke on case {case}"
        bad = os.path.join(tmp, "bad.bin")
        malformed = [
            b"",
            b"PF\n2 2\n-1.0\n" + b"\x00" * 48,
            b"Pf\n2 2\n-1.0\n" + b"\x00" * 7,
            b"Pf\nx y\n-1.0\n",
            b"P5\n2 2\n0\n\x00\x00\x00\x00",
            b"P6\n2 2\n255\n" + b"\x00" * 12,
            b"CSTRW999" + b"\x00" * 4,
            b"CSTRW001" + b"\x02\x00\x00\x00" + b"\x01\x00b\x01\x05\x00\x00\x00",
        ]
        for idx, blob in enumerate(malformed):
            with open(bad, "wb") as f:
                f.write(blob)
            for reader in (read_pfm, read_pgm, read_weights):
                try:
                    reader(bad)
                except FormatError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the check's whole point
                    return False, f"malformed case {idx}: {type(exc).__name__} leaked"
    return True, "100 round trips bit-exact, malformed inputs raise FormatError"


def _tiny_model() -> tuple[ImagePair, ModelDescription]:
    config = RunConfig(layers=2, channels=8, heads=2)
    store = init_weights(config, span=16, seed=0)
    model = ModelDescription(config, store)
    rng = Rng(0)
    left = rng.generator.random((1, 16, 32), dtype=np.float32)
    right = rng.generator.random((1, 16, 32), dtype=np.float32)
    return ImagePair(left, right), model


def check_forward_determinism() -> tuple[bool, str]:
    pair, model = _tiny_model()
    start = time.perf_counter()
    disp_a, occ_a, _ = forward(pair, model)
    disp_b, occ_b, _ = forward(pair, model)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: forward(pair, model), range(4)))
    elapsed = time.perf_counter() - start
    same = disp_a.values.tobytes() == disp_b.values.tobytes() and (
        occ_a.probs.tobytes() == occ_b.probs.tobytes()
    )
    for disp_t, occ_t, _ in results:
        same = same and disp_t.values.tobytes() == disp_a.values.tobytes()
        same = same and occ_t.probs.tobytes() == occ_a.probs.tobytes()
    finite = np.isfinite(disp_a.values).all() and disp_a.values.max() < 32
    return bool(same and finite and elapsed < 10.0), (
        f"6 runs bit-identical, {elapsed:.2f}s"
    )


CHECKS = [
    ("softmax_normalization", check_softmax_normalization),
    ("conv2d_direct_oracle", check_conv2d_direct_oracle),
    ("pixel_norm_oracle", check_pixel_norm_oracle),
    ("bilinear_upsample_oracle", check_bilinear_upsample_oracle),
    ("avgpool_width_oracle", check_avgpool_width_oracle),
    ("axial_width_dense_oracle", check_axial_width_dense_oracle),
    ("axial_height_dense_oracle", check_axial_height_dense_oracle),
    ("cross_attention_dense_oracle", check_cross_attention_dense_oracle),
    ("image_tasks_match_one_thread", check_image_tasks_match_one_thread),
    ("position_encoding_structure", check_position_encoding_structure),
    ("sinkhorn_row_marginals", check_sinkhorn_row_marginals),
    ("sinkhorn_masked_cells", check_sinkhorn_masked_cells),
    ("sinkhorn_reference_agreement", check_sinkhorn_reference_agreement),
    ("disparity_regression_oracle", check_disparity_regression_oracle),
    ("refinement_zero_weights_identity", check_refinement_zero_weights_identity),
    ("gradcheck_relative_response", check_gradcheck_relative_response),
    ("gradcheck_smooth_l1", check_gradcheck_smooth_l1),
    ("gradcheck_binary_entropy", check_gradcheck_binary_entropy),
    ("cep_payload_schedule", check_cep_payload_schedule),
    ("epipolar_mask_convention", check_epipolar_mask_convention),
    ("metric_identities", check_metric_identities),
    ("loss_composition", check_loss_composition),
    ("config_defaults", check_config_defaults),
    ("format_roundtrips", check_format_roundtrips),
    ("forward_determinism", check_forward_determinism),
]


def run_all(out=None):
    """Run every check, print one line per check, return the results list."""
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
        if out is not None:
            status = "PASS" if passed else "FAIL"
            print(f"{name}: {status} ({detail})", file=out)
    return results
