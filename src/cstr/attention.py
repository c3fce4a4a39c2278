"""Multi-head attention with relative position encoding, axial (row/column)
self-attention, and masked cross-attention between epipolar lines.

Score structure per head, for query position i and key position j:

    logits[i, j] = q_i . k_j  +  q_i . (r_{j-i} Bk)  +  (r_{j-i} Bq) . k_j

scaled by 1/sqrt(head_channels). q/k are the per-head slices of the full
content projections; r is a learned per-offset embedding table shared by all
heads; Bq/Bk are the head's diagonal blocks of the projection matrices, so
the head count does not change the formula when heads == 1. There is no
position-position term.

Offsets j-i index a table r of 2*span-1 embeddings, r[span-1] being offset
0. The position terms are built per head without gathering an (n, m, ch)
table ("relative attention skewing", Huang et al., Music Transformer, arXiv
1809.04281; after Shaw et al., arXiv 1803.02155). A line of n queries and m
keys only needs offsets -(n-1) .. m-1, the window r[span-n : span-1+m], so
one GEMM of the queries against that window's key projection gives every
content-position product, (lines, n, n+m-1), and one GEMM of the keys
against its query projection gives every position-content product,
(lines, m, n+m-1). The (n, m) logits then lie on diagonals of those results:
column j-i+n-1 of query row i, or of key row j. A strided view reads them
with no copy, and each is added in place into one logits buffer.

A line may not exceed the span: for n > span the window would start at a
negative row, which numpy wraps to the far end of the table, and for m > span
it would run past the table, so the slice would silently hold the wrong rows.
The length guard therefore runs before the slice, and longer lines are
rejected rather than extrapolated. Each public operation that updates
features adds a residual connection around the attention update; stream
normalization between sublayers is the caller's job (see pixel_norm).
cross_scores returns only the matching scores, for a last layer whose
features nothing reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndarray import softmax_axis

__all__ = [
    "AttentionWeights",
    "ScoreMatrix",
    "relative_logits",
    "axial_attention_width",
    "axial_attention_height",
    "cross_attention",
    "cross_scores",
    "pixel_norm",
]


@dataclass(frozen=True)
class AttentionWeights:
    """Projection matrices plus the relative-position embedding table.

    Wq/Wk/Wv/Wo are (c, c); rel_pos is (2*span-1, head_channels), indexed by
    offset j-i shifted by span-1.
    """

    Wq: np.ndarray
    Wk: np.ndarray
    Wv: np.ndarray
    Wo: np.ndarray
    rel_pos: np.ndarray

    def __post_init__(self):
        c = self.Wq.shape[0]
        for name in ("Wq", "Wk", "Wv", "Wo"):
            m = getattr(self, name)
            if m.shape != (c, c):
                raise ValueError(f"{name} must be ({c}, {c}), got {m.shape}")
        if self.rel_pos.ndim != 2 or self.rel_pos.shape[0] % 2 == 0:
            raise ValueError(
                f"rel_pos must be (2*span-1, head_channels), got {self.rel_pos.shape}"
            )
        if c % self.rel_pos.shape[1] != 0:
            raise ValueError(
                f"head_channels {self.rel_pos.shape[1]} must divide channels {c}"
            )

    @property
    def channels(self) -> int:
        return self.Wq.shape[0]

    @property
    def span(self) -> int:
        return (self.rel_pos.shape[0] + 1) // 2


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-epipolar-line attention scores, (lines, W_left, W_right).

    Entries are finite except where a mask pinned them to -inf.
    """

    logits: np.ndarray

    def __post_init__(self):
        if self.logits.ndim != 3:
            raise ValueError(f"scores must be rank 3, got {self.logits.shape}")
        bad = ~np.isfinite(self.logits) & ~np.isneginf(self.logits)
        if bad.any():
            raise ValueError("scores must be finite or the -inf mask sentinel")


def _check_heads(weights: AttentionWeights, heads: int) -> int:
    c = weights.channels
    if heads < 1 or c % heads != 0:
        raise ValueError(f"head count {heads} must divide channels {c}")
    ch = c // heads
    if weights.rel_pos.shape[1] != ch:
        raise ValueError(
            f"rel_pos is sized for {weights.rel_pos.shape[1]} head channels, "
            f"but channels/heads = {ch}"
        )
    return ch


def _window(weights: AttentionWeights, n_q: int, n_k: int) -> np.ndarray:
    """Rows of rel_pos for offsets -(n_q-1) .. n_k-1, after the length guard."""
    span = weights.span
    if max(n_q, n_k) > span:
        raise ValueError(
            f"line length {max(n_q, n_k)} exceeds the position-embedding span {span}"
        )
    return weights.rel_pos[span - n_q : span - 1 + n_k]


def _check_mask(mask: np.ndarray | None, n: int, m: int) -> None:
    if mask is None:
        return
    if mask.shape != (n, m):
        raise ValueError(f"mask must be ({n}, {m}), got {mask.shape}")
    if not np.isfinite(mask).any(axis=1).all():
        raise ValueError("mask forbids every key of some query row")


def _diagonals(full: np.ndarray, n: int, m: int, by_key: bool) -> np.ndarray:
    """Zero-copy (lines, n, m) view of a window product at column j-i+n-1.

    ``full`` is a C-contiguous (lines, rows, n+m-1) product whose rows are the
    queries i, or the keys j when ``by_key`` is set.
    """
    lines, _, width = full.shape
    size = full.itemsize
    if by_key:
        strides = (full.strides[0], -size, (width + 1) * size)
    else:
        strides = (full.strides[0], (width - 1) * size, size)
    return np.ndarray(
        (lines, n, m), full.dtype, buffer=full, offset=(n - 1) * size, strides=strides
    )


def _head_logits(
    q: np.ndarray,
    k: np.ndarray,
    table: np.ndarray,
    weights: AttentionWeights,
    hs: slice,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Scaled, masked (lines, n, m) logits of one head from its (lines, n|m, ch)
    query/key slices and the offset window ``table``."""
    n, m = q.shape[1], k.shape[1]
    logits = q @ k.transpose(0, 2, 1)
    logits += _diagonals(q @ (table @ weights.Wk[hs, hs]).T, n, m, by_key=False)
    logits += _diagonals(k @ (table @ weights.Wq[hs, hs]).T, n, m, by_key=True)
    logits /= np.float32(np.sqrt(q.shape[2]))
    if mask is not None:
        logits += mask
    return logits


def relative_logits(
    x: np.ndarray,
    weights: AttentionWeights,
    head: int,
    keys: np.ndarray | None = None,
) -> np.ndarray:
    """Three-term attention logits for one head over an (n, c) token line.

    ``keys`` switches the key/value source for cross-attention; it defaults
    to ``x`` (self-attention).
    """
    xk = x if keys is None else keys
    if x.ndim != 2 or xk.ndim != 2 or x.shape[1] != xk.shape[1]:
        raise ValueError("relative_logits expects (n, c) token lines")
    c = weights.channels
    if x.shape[1] != c:
        raise ValueError(f"token width {x.shape[1]} != weight channels {c}")
    ch = weights.rel_pos.shape[1]
    heads = c // ch
    if not 0 <= head < heads:
        raise ValueError(f"head {head} out of range for {heads} heads")
    table = _window(weights, x.shape[0], xk.shape[0])
    hs = slice(head * ch, (head + 1) * ch)
    q = (x @ weights.Wq)[None, :, hs]
    k = (xk @ weights.Wk)[None, :, hs]
    return _head_logits(q, k, table, weights, hs)[0]


def _multihead(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    weights: AttentionWeights,
    heads: int,
    mask: np.ndarray | None = None,
    want_scores: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched attention over (lines, n, c) token stacks.

    Returns the pre-residual update and, when requested, the head-averaged
    masked logits.
    """
    lines, n, c = x_q.shape
    m = x_kv.shape[1]
    ch = _check_heads(weights, heads)
    table = _window(weights, n, m)
    _check_mask(mask, n, m)
    q_all = x_q @ weights.Wq
    k_all = x_kv @ weights.Wk
    v_all = x_kv @ weights.Wv
    out = np.empty((lines, n, c), dtype=np.float32)
    scores = np.zeros((lines, n, m), dtype=np.float32) if want_scores else None
    for head in range(heads):
        hs = slice(head * ch, (head + 1) * ch)
        logits = _head_logits(q_all[..., hs], k_all[..., hs], table, weights, hs, mask)
        if scores is not None:
            scores += logits
        out[..., hs] = softmax_axis(logits, axis=2) @ v_all[..., hs]
    if scores is not None:
        scores /= np.float32(heads)
    return out @ weights.Wo, scores


def axial_attention_width(
    f: np.ndarray, weights: AttentionWeights, heads: int
) -> np.ndarray:
    """Self-attention along each row of a (c, h, w) feature map, plus residual.

    One weight set is shared by every row.
    """
    if f.ndim != 3 or f.shape[0] != weights.channels:
        raise ValueError(f"feature shape {f.shape} does not match weights")
    rows = np.ascontiguousarray(f.transpose(1, 2, 0))
    update, _ = _multihead(rows, rows, weights, heads)
    return f + update.transpose(2, 0, 1)


def axial_attention_height(
    f: np.ndarray, weights: AttentionWeights, heads: int
) -> np.ndarray:
    """Column-wise twin of axial_attention_width."""
    if f.ndim != 3 or f.shape[0] != weights.channels:
        raise ValueError(f"feature shape {f.shape} does not match weights")
    cols = np.ascontiguousarray(f.transpose(2, 1, 0))
    update, _ = _multihead(cols, cols, weights, heads)
    return f + update.transpose(2, 1, 0)


def _epipolar_rows(
    left: np.ndarray, right: np.ndarray, weights: AttentionWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Both (c, h, w) maps as contiguous (h, w, c) stacks of epipolar lines."""
    if left.shape != right.shape:
        raise ValueError(f"shape mismatch: left {left.shape} vs right {right.shape}")
    if left.ndim != 3 or left.shape[0] != weights.channels:
        raise ValueError(f"feature shape {left.shape} does not match weights")
    return (
        np.ascontiguousarray(left.transpose(1, 2, 0)),
        np.ascontiguousarray(right.transpose(1, 2, 0)),
    )


def cross_attention(
    left: np.ndarray,
    right: np.ndarray,
    weights: AttentionWeights,
    heads: int,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, ScoreMatrix]:
    """Attend each image over the other, one epipolar line (row) at a time.

    ``mask`` is an additive (w, w) array of 0 / -inf applied to left-queries;
    right-queries use its transpose. Returns both updated features (with
    residuals) and the head-averaged left-query scores for the matching head.
    """
    rows_l, rows_r = _epipolar_rows(left, right, weights)
    up_l, scores = _multihead(rows_l, rows_r, weights, heads, mask, want_scores=True)
    mask_t = None if mask is None else np.ascontiguousarray(mask.T)
    up_r, _ = _multihead(rows_r, rows_l, weights, heads, mask_t)
    new_left = left + up_l.transpose(2, 0, 1)
    new_right = right + up_r.transpose(2, 0, 1)
    return new_left, new_right, ScoreMatrix(scores)


def cross_scores(
    left: np.ndarray,
    right: np.ndarray,
    weights: AttentionWeights,
    heads: int,
    mask: np.ndarray | None = None,
) -> ScoreMatrix:
    """Only the head-averaged left-query scores of cross_attention.

    Builds and sums the per-head logits in the same order, so the bytes equal
    ``cross_attention(...)[2]``, but runs no value projection, softmax or
    right-query pass.
    """
    rows_l, rows_r = _epipolar_rows(left, right, weights)
    lines, n, _ = rows_l.shape
    m = rows_r.shape[1]
    ch = _check_heads(weights, heads)
    table = _window(weights, n, m)
    _check_mask(mask, n, m)
    q_all = rows_l @ weights.Wq
    k_all = rows_r @ weights.Wk
    scores = np.zeros((lines, n, m), dtype=np.float32)
    for head in range(heads):
        hs = slice(head * ch, (head + 1) * ch)
        scores += _head_logits(q_all[..., hs], k_all[..., hs], table, weights, hs, mask)
    scores /= np.float32(heads)
    return ScoreMatrix(scores)


def pixel_norm(f: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize every pixel's channel vector to zero mean / unit variance."""
    d = f - f.mean(axis=0, keepdims=True)
    var = np.mean(d * d, axis=0, keepdims=True)
    return d / np.sqrt(var + np.float32(eps))
