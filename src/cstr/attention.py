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
keys only needs offsets -(n-1) .. m-1, the window r[span-n : span-1+m].
Multiplying the queries against that window's key projection u gives every
content-position product, (lines, n, n+m-1), and the (n, m) logits lie on
its diagonals: column j-i+n-1 of query row i. The position-content term is
the same with the keys as the rows (column j-i+n-1 of key row j). A strided
view reads the diagonals with no copy, and each term is added in place into
one logits buffer.

A query row reads only m of those n+m-1 columns, so the rows are multiplied
in blocks of 16: a block of b rows at i0 reads offsets -(i0+b-1) .. m-1-i0,
m+b-1 columns (n+b-1 for a block of keys). One batched GEMM multiplies every
full block against a zero-copy view of overlapping windows of u, and a
ragged last block takes one more. Each block writes its rows at their own
columns of a product whose row pitch is the window width plus 16, so no
block overwrites a column another one reads, and the same diagonal view
reads the result. Per line and term that is n*(m+15) multiply-adds instead
of n*(n+m-1), and the product buffer shrinks too.

The block size and the operand layout are fixed because the bytes depend on
them: OpenBLAS picks its kernel from the shapes and layout of the operands.
16 rows is the width of its main sgemm kernel (the pixel block of conv2d).
The blocks read a C-contiguous copy of the transposed window product, and a
line of at most 16 rows keeps the one full-window product. With these
choices, lines of up to 16 rows and lines whose length is a multiple of 16
give the bytes of the full-window product; 8-row blocks, or windows read
through a transposed view, change them. Other lengths may differ from it in
the last bits.

A line may not exceed the span: for n > span the window would start at a
negative row, which numpy wraps to the far end of the table, and for m > span
it would run past the table, so the slice would silently hold the wrong rows.
The length guard therefore runs before the slice, and longer lines are
rejected rather than extrapolated. Each public operation that updates
features adds a residual connection around the attention update; stream
normalization between sublayers is the caller's job (see pixel_norm).
Logits are built in one loop, ``_logits_by_head``: the feature updates
softmax each head's logits, and cross_scores averages them into the matching
scores, the only scores the module returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndarray import _PIXEL_BLOCK, softmax_axis

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
    """Per-epipolar-line matching scores, (lines, W_left, W_right), as
    cross_scores returns them.

    Entries are finite except where a mask pinned them to -inf.
    """

    logits: np.ndarray

    def __post_init__(self):
        if self.logits.ndim != 3:
            raise ValueError(f"scores must be rank 3, got {self.logits.shape}")
        bad = ~np.isfinite(self.logits) & ~np.isneginf(self.logits)
        if bad.any():
            raise ValueError("scores must be finite or the -inf mask sentinel")


# Rows per position-term product: OpenBLAS's sgemm kernel width, the block
# conv2d pads to. 8-row blocks change the bytes; 32-row ones read more columns.
_BLOCK = _PIXEL_BLOCK


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


def _strided(buf: np.ndarray, shape: tuple, offset: int, strides: tuple) -> np.ndarray:
    """View of C-contiguous ``buf``, with offset and strides in elements."""
    size = buf.itemsize
    return np.ndarray(
        shape, buf.dtype, buffer=buf, offset=offset * size, strides=[s * size for s in strides]
    )


def _diagonals(
    full: np.ndarray, n: int, m: int, by_key: bool, pitch: int
) -> np.ndarray:
    """Zero-copy (lines, n, m) view of a window product at column j-i+n-1.

    ``full`` is C-contiguous with one line per leading index, and row r of a
    line's product starts at element r*pitch. The rows are the queries i, or
    the keys j when ``by_key`` is set.
    """
    size = full.itemsize
    if by_key:
        strides = (full.strides[0], -size, (pitch + 1) * size)
    else:
        strides = (full.strides[0], (pitch - 1) * size, size)
    return np.ndarray(
        (len(full), n, m), full.dtype, buffer=full, offset=(n - 1) * size, strides=strides
    )


def _add_position_term(
    logits: np.ndarray, rows: np.ndarray, u: np.ndarray, by_key: bool
) -> None:
    """Add ``rows @ u.T``, read on its diagonals, to the (lines, n, m) logits.

    ``rows`` are the (lines, n, ch) queries, or the (lines, m, ch) keys when
    ``by_key`` is set; ``u`` is the (n+m-1, ch) window product. Lines longer
    than one block are multiplied in blocks of _BLOCK rows, each against
    only the columns it reads.
    """
    lines, n, m = logits.shape
    count = rows.shape[1]
    if count <= _BLOCK:
        logits += _diagonals(rows @ u.T, n, m, by_key, n + m - 1)
        return
    ut = np.ascontiguousarray(u.T)
    blocks, tail = divmod(count, _BLOCK)
    done = blocks * _BLOCK
    width = (n if by_key else m) + _BLOCK - 1
    # block k reads the window at column k*_BLOCK (keys) or n-(k+1)*_BLOCK
    # (queries); at this pitch no block overwrites a column another reads
    first, step = (0, _BLOCK) if by_key else (n - _BLOCK, -_BLOCK)
    pitch = width + _BLOCK
    full = np.empty((lines, (count - 1) * pitch + n + m - 1), dtype=np.float32)
    line = full.shape[1]
    windows = _strided(ut, (blocks, len(ut), width), first, (step, ut.shape[1], 1))
    out = _strided(
        full, (lines, blocks, _BLOCK, width), first, (line, _BLOCK * pitch + step, pitch, 1)
    )
    np.matmul(rows[:, :done].reshape(lines, blocks, _BLOCK, -1), windows, out=out)
    if tail:
        start = done if by_key else 0
        cols = width - _BLOCK + tail
        out = _strided(full, (lines, tail, cols), done * pitch + start, (line, pitch, 1))
        np.matmul(rows[:, done:], ut[:, start : start + cols], out=out)
    logits += _diagonals(full, n, m, by_key, pitch)


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
    logits = q @ k.transpose(0, 2, 1)
    _add_position_term(logits, q, table @ weights.Wk[hs, hs], by_key=False)
    _add_position_term(logits, k, table @ weights.Wq[hs, hs], by_key=True)
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


def _logits_by_head(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    weights: AttentionWeights,
    heads: int,
    mask: np.ndarray | None,
):
    """Run the head, length and mask checks and project queries and keys, all
    at the call; return a lazy iterator of (head slice, masked logits) in head
    order. The one place logits are built."""
    n, m = x_q.shape[1], x_kv.shape[1]
    ch = _check_heads(weights, heads)
    table = _window(weights, n, m)
    _check_mask(mask, n, m)
    q_all = x_q @ weights.Wq
    k_all = x_kv @ weights.Wk
    slices = [slice(head * ch, (head + 1) * ch) for head in range(heads)]
    return (
        (hs, _head_logits(q_all[..., hs], k_all[..., hs], table, weights, hs, mask))
        for hs in slices
    )


def _multihead(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    weights: AttentionWeights,
    heads: int,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Batched attention over (lines, n, c) token stacks; returns the
    pre-residual update."""
    per_head = _logits_by_head(x_q, x_kv, weights, heads, mask)
    v_all = x_kv @ weights.Wv
    out = np.empty(x_q.shape, dtype=np.float32)
    for hs, logits in per_head:
        out[..., hs] = softmax_axis(logits, axis=2) @ v_all[..., hs]
    return out @ weights.Wo


def axial_attention_width(
    f: np.ndarray, weights: AttentionWeights, heads: int
) -> np.ndarray:
    """Self-attention along each row of a (c, h, w) feature map, plus residual.

    One weight set is shared by every row.
    """
    if f.ndim != 3 or f.shape[0] != weights.channels:
        raise ValueError(f"feature shape {f.shape} does not match weights")
    rows = np.ascontiguousarray(f.transpose(1, 2, 0))
    return f + _multihead(rows, rows, weights, heads).transpose(2, 0, 1)


def axial_attention_height(
    f: np.ndarray, weights: AttentionWeights, heads: int
) -> np.ndarray:
    """Column-wise twin of axial_attention_width."""
    if f.ndim != 3 or f.shape[0] != weights.channels:
        raise ValueError(f"feature shape {f.shape} does not match weights")
    cols = np.ascontiguousarray(f.transpose(2, 1, 0))
    return f + _multihead(cols, cols, weights, heads).transpose(2, 1, 0)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Attend each image over the other, one epipolar line (row) at a time.

    ``mask`` is an additive (w, w) array of 0 / -inf applied to left-queries;
    right-queries use its transpose. Returns both updated features (with
    residuals); ``cross_scores`` gives the matching scores.
    """
    rows_l, rows_r = _epipolar_rows(left, right, weights)
    up_l = _multihead(rows_l, rows_r, weights, heads, mask)
    mask_t = None if mask is None else np.ascontiguousarray(mask.T)
    up_r = _multihead(rows_r, rows_l, weights, heads, mask_t)
    return left + up_l.transpose(2, 0, 1), right + up_r.transpose(2, 0, 1)


def cross_scores(
    left: np.ndarray,
    right: np.ndarray,
    weights: AttentionWeights,
    heads: int,
    mask: np.ndarray | None = None,
) -> ScoreMatrix:
    """The head-averaged, masked left-query logits of cross_attention, which
    the matching head reads: the heads' logits summed in head order, then
    divided by the head count. No values, softmax or right-query pass."""
    rows_l, rows_r = _epipolar_rows(left, right, weights)
    per_head = _logits_by_head(rows_l, rows_r, weights, heads, mask)
    scores = np.zeros((len(rows_l), rows_l.shape[1], rows_r.shape[1]), dtype=np.float32)
    for _, logits in per_head:
        scores += logits
    scores /= np.float32(heads)
    return ScoreMatrix(scores)


def pixel_norm(f: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize every pixel's channel vector to zero mean / unit variance."""
    # the ufunc reductions and division are exactly what ``mean`` computes
    c = np.float32(f.shape[0])
    d = f - np.add.reduce(f, axis=0, keepdims=True) / c
    var = np.add.reduce(d * d, axis=0, keepdims=True) / c
    var += np.float32(eps)
    d /= np.sqrt(var, out=var)
    return d
