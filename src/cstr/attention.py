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

Lines never mix. The projections are one 2-D GEMM over all tokens of a
piece of lines, in which each token's row gets the bytes of its own line's
product (tests pin this for 1-32 lines of 8-128 tokens at 128 and 512
channels). The other products are batched over lines, which numpy runs as
one GEMM per line, and every softmax reduction runs along one row. A call
over some of the lines therefore gives each of them the bytes it gets in a
call over all of them. One loop, ``_pieces``, runs the lines in pieces of
at most ``_PIECE_BYTES`` of queries, after building what does not depend on
the lines once per call: each head's window products, their transposes and
block views, and the buffers the position products go to. Lines of at most
one block need only read-only views of the window products, which the first
call keeps on the weight object for later ones; the weights' arrays are
read-only, so these cannot go stale. Per piece it
projects the queries and keys and hands out the piece's logits head by head
from ``_logits_by_head``, the one place logits are built. The feature
updates softmax each head's logits against its values; ``cross_scores``
sums them into the matching scores, the only scores the module returns.
Each public operation checks the heads, the line length and the mask once
on the calling thread. ``cross_attention`` then runs its two directions as
two tasks (``ndarray._both``), and ``cross_scores`` the two halves of its
lines; the bytes do not depend on the thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ndarray
from .ndarray import _PIXEL_BLOCK, _both, softmax_axis

__all__ = [
    "AttentionWeights",
    "PathWeights",
    "ScoreWeights",
    "ScoreMatrix",
    "axial_attention_width",
    "axial_attention_height",
    "cross_attention",
    "cross_scores",
    "pixel_norm",
]


class _Projections:
    """What score and attention weights share: (c, c) projections named in
    ``_MATRICES`` plus a (2*span-1, head_channels) relative-position table
    ``rel_pos``, indexed by offset j-i shifted by span-1."""

    _MATRICES: tuple[str, ...] = ()

    def __post_init__(self):
        c = self.Wq.shape[0]
        for name in self._MATRICES:
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
        # short-line position operands by (head channels, n, m), which
        # _head_operands keeps; read-only arrays keep them from going stale
        for name in (*self._MATRICES, "rel_pos"):
            getattr(self, name).flags.writeable = False
        object.__setattr__(self, "_operands", {})

    @property
    def channels(self) -> int:
        return self.Wq.shape[0]

    @property
    def span(self) -> int:
        return (self.rel_pos.shape[0] + 1) // 2


@dataclass(frozen=True)
class ScoreWeights(_Projections):
    """What the logits read: the query and key projections and the
    position table. The last layer's cross attention computes only its
    scores, so its weights are of this type (``cross_scores`` takes either
    type)."""

    Wq: np.ndarray
    Wk: np.ndarray
    rel_pos: np.ndarray

    _MATRICES = ("Wq", "Wk")


@dataclass(frozen=True)
class AttentionWeights(_Projections):
    """``ScoreWeights`` plus the value and output projections Wv/Wo, which
    a feature update reads; all four are (c, c)."""

    Wq: np.ndarray
    Wk: np.ndarray
    Wv: np.ndarray
    Wo: np.ndarray
    rel_pos: np.ndarray

    _MATRICES = ("Wq", "Wk", "Wv", "Wo")


@dataclass(frozen=True)
class PathWeights:
    """One path's attention parameters in one layer: width-axial,
    height-axial and cross attention. The matching path and the context path
    have the same three; only the last layer's matching path has score-only
    cross weights, and a context path that emits nothing has none."""

    wax: AttentionWeights
    hax: AttentionWeights
    cross: AttentionWeights | ScoreWeights | None


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
# Bytes of queries per piece of lines: a piece's projections and one head's
# logits then stay in cache. On one thread 256 KB pieces ran _multihead
# 13-20% faster than 512 KB ones and 14-19% faster than 1 MB ones, and hold
# less; 64 KB pieces ran 14-28% slower.
_PIECE_BYTES = 256 << 10
# Added to each pixel's channel variance before pixel_norm divides by its root.
_NORM_EPS = np.float32(1e-5)


def _check_heads(weights: _Projections, heads: int) -> int:
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


def _window(weights: _Projections, n_q: int, n_k: int) -> np.ndarray:
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


def _position_operand(
    u: np.ndarray, n: int, m: int, by_key: bool, products: np.ndarray | None, lines: int
) -> np.ndarray | tuple:
    """What the position term of n queries over m keys needs besides the
    rows, for up to ``lines`` lines. None of it depends on the lines'
    values, so a call builds it once for all its pieces.

    ``u`` is the (n+m-1, ch) window product. Rows of at most one block
    multiply ``u.T`` whole, into a new product, and get just ``u.T``.
    Longer rows get ``(windows, out, tail, diagonals)``: each full block
    multiplies its overlapping window (``windows``, zero-copy views of a
    C-contiguous transpose of u) and a ragged last block its columns
    (``tail``, or None), into views of ``products`` (``out``, and the view
    ``diagonals`` reads).
    """
    count = m if by_key else n
    if count <= _BLOCK:
        return u.T
    ut = np.ascontiguousarray(u.T)
    blocks, tail = divmod(count, _BLOCK)
    done = blocks * _BLOCK
    width = (n if by_key else m) + _BLOCK - 1
    # block k reads the window at column k*_BLOCK (keys) or n-(k+1)*_BLOCK
    # (queries); at this pitch no block overwrites a column another reads
    first, step = (0, _BLOCK) if by_key else (n - _BLOCK, -_BLOCK)
    pitch = width + _BLOCK
    line = (count - 1) * pitch + n + m - 1
    full = products[: lines * line].reshape(lines, line)
    windows = _strided(ut, (blocks, len(ut), width), first, (step, ut.shape[1], 1))
    out = _strided(
        full, (lines, blocks, _BLOCK, width), first, (line, _BLOCK * pitch + step, pitch, 1)
    )
    if tail:
        start = done if by_key else 0
        cols = width - _BLOCK + tail
        tail = (
            ut[:, start : start + cols],
            _strided(full, (lines, tail, cols), done * pitch + start, (line, pitch, 1)),
        )
    return windows, out, tail or None, _diagonals(full, n, m, by_key, pitch)


def _product_size(n: int, m: int) -> int:
    # floats per line of the larger blocked position-term product
    return max(
        (count - 1) * (n + m - count + 2 * _BLOCK - 1) + n + m - 1
        for count in (n, m)
        if count > _BLOCK
    )


def _add_position_term(
    logits: np.ndarray, rows: np.ndarray, operand: np.ndarray | tuple, by_key: bool
) -> None:
    """Add ``rows @ u.T``, read on its diagonals, to the (lines, n, m) logits.

    ``rows`` are the (lines, n, ch) queries, or the (lines, m, ch) keys when
    ``by_key`` is set; ``operand`` is the ``_position_operand`` of the
    window product u. Lines longer than one block are multiplied in blocks
    of _BLOCK rows, each against only the columns it reads.
    """
    lines, count, ch = rows.shape
    if count <= _BLOCK:
        n, m = logits.shape[1:]
        logits += _diagonals(rows @ operand, n, m, by_key, n + m - 1)
        return
    windows, out, tail, diagonals = operand
    done = count - count % _BLOCK
    np.matmul(rows[:, :done].reshape(lines, -1, _BLOCK, ch), windows, out=out[:lines])
    if tail is not None:
        np.matmul(rows[:, done:], tail[0], out=tail[1][:lines])
    logits += diagonals[:lines]


def _head_operands(
    table: np.ndarray, weights: _Projections, ch: int, n: int, m: int, lines: int
) -> list[tuple]:
    """Per head of ``ch`` channels, the position operands of its query rows
    (window product ``table @ Wk[hs, hs]``) and of its key rows (``table @
    Wq[hs, hs]``) for up to ``lines`` lines. The blocked products of all of
    them go to one product buffer, so each term is added before the next
    runs.

    If no line is longer than one block, the operands are read-only views
    that depend on the weights and extents alone, so the first call keeps
    them on the weights and later calls reuse them. Two threads may both
    build a missing entry: they build the same bytes, and a dict store is
    atomic."""
    short = max(n, m) <= _BLOCK
    if short and (kept := weights._operands.get((ch, n, m))) is not None:
        return kept
    products = None if short else np.empty(lines * _product_size(n, m), dtype=np.float32)
    operands = []
    for lo in range(0, weights.channels, ch):
        hs = slice(lo, lo + ch)
        by_query, by_key = table @ weights.Wk[hs, hs], table @ weights.Wq[hs, hs]
        by_query.flags.writeable = by_key.flags.writeable = False
        operands.append((
            _position_operand(by_query, n, m, False, products, lines),
            _position_operand(by_key, n, m, True, products, lines),
        ))
    if short:
        weights._operands[(ch, n, m)] = operands
    return operands


def _checked_window(
    weights: _Projections, heads: int, n: int, m: int, mask: np.ndarray | None
) -> tuple[int, np.ndarray]:
    """Run the head, length and mask checks; return the head channels and the
    offset window of n queries over m keys."""
    ch = _check_heads(weights, heads)
    table = _window(weights, n, m)
    _check_mask(mask, n, m)
    return ch, table


def _logits_by_head(
    q_all: np.ndarray,
    k_all: np.ndarray,
    operands: list[tuple],
    mask: np.ndarray | None,
):
    """Lazy (head slice, scaled and masked logits) pairs in head order, from
    the projected (lines, n|m, c) queries and keys and the call's
    ``_head_operands``. The one place logits are built. Every head's logits
    reuse one buffer, so each pair must be used before the next is drawn."""
    lines, n, c = q_all.shape
    ch = c // len(operands)
    logits = np.empty((lines, n, k_all.shape[1]), dtype=np.float32)
    for head, (by_query, by_key) in enumerate(operands):
        hs = slice(head * ch, (head + 1) * ch)
        q, k = q_all[..., hs], k_all[..., hs]
        np.matmul(q, k.transpose(0, 2, 1), out=logits)
        _add_position_term(logits, q, by_query, by_key=False)
        _add_position_term(logits, k, by_key, by_key=True)
        logits /= np.float32(math.sqrt(ch))
        if mask is not None:
            logits += mask
        yield hs, logits


def _project(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(lines, n, c) projection of a (lines, n, c) token stack, one 2-D GEMM
    over all its tokens."""
    c = x.shape[2]
    return (x.reshape(-1, c) @ matrix).reshape(x.shape)


def _pieces(x_q, x_kv, weights, ch, table, mask):
    """The loop over pieces of lines (see the module docstring): per piece,
    its slice of the lines, its projected queries and its
    ``_logits_by_head``, from the ``ch`` and ``table`` of ``_checked_window``."""
    lines, n = x_q.shape[:2]
    step = max(1, _PIECE_BYTES // x_q[0].nbytes)
    operands = _head_operands(table, weights, ch, n, x_kv.shape[1], min(step, lines))
    for lo in range(0, lines, step):
        part = slice(lo, lo + step)
        q_all = _project(x_q[part], weights.Wq)
        k_all = _project(x_kv[part], weights.Wk)
        yield part, q_all, _logits_by_head(q_all, k_all, operands, mask)


def _multihead(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    weights: AttentionWeights,
    ch: int,
    table: np.ndarray,
    mask: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Batched attention over (lines, n, c) token stacks; returns the
    pre-residual update. The caller runs ``_checked_window`` and passes in
    its ``ch`` and ``table``. The update goes to ``out`` if given, which
    self-attention may point at ``x_q``: a piece's update is written after
    its last read of its own lines."""
    c = x_q.shape[2]
    if out is None:
        out = np.empty(x_q.shape, dtype=np.float32)
    for part, q_all, heads in _pieces(x_q, x_kv, weights, ch, table, mask):
        v_all = _project(x_kv[part], weights.Wv)
        for hs, logits in heads:
            # a head's output replaces its own query columns, which only its
            # logits read
            np.matmul(softmax_axis(logits, axis=2), v_all[..., hs], out=q_all[..., hs])
        np.matmul(q_all.reshape(-1, c), weights.Wo, out=out[part].reshape(-1, c))
    return out


def axial_attention_width(
    f: np.ndarray, weights: AttentionWeights, heads: int
) -> np.ndarray:
    """Self-attention along each row of a (c, h, w) feature map, plus residual.

    One weight set is shared by every row.
    """
    if f.ndim != 3 or f.shape[0] != weights.channels:
        raise ValueError(f"feature shape {f.shape} does not match weights")
    ch, table = _checked_window(weights, heads, f.shape[2], f.shape[2], None)
    rows = f.transpose(1, 2, 0).copy()  # a private copy takes the update
    return f + _multihead(rows, rows, weights, ch, table, out=rows).transpose(2, 0, 1)


def axial_attention_height(
    f: np.ndarray, weights: AttentionWeights, heads: int
) -> np.ndarray:
    """Column-wise twin of axial_attention_width."""
    if f.ndim != 3 or f.shape[0] != weights.channels:
        raise ValueError(f"feature shape {f.shape} does not match weights")
    ch, table = _checked_window(weights, heads, f.shape[1], f.shape[1], None)
    cols = f.transpose(2, 1, 0).copy()
    return f + _multihead(cols, cols, weights, ch, table, out=cols).transpose(2, 1, 0)


def _epipolar_rows(
    left: np.ndarray, right: np.ndarray, weights: _Projections
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


def _attend_across(f, rows_q, rows_kv, weights, ch, table, mask) -> np.ndarray:
    # one direction of cross_attention: the query image's map plus its update
    return f + _multihead(rows_q, rows_kv, weights, ch, table, mask).transpose(2, 0, 1)


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
    residuals); ``cross_scores`` gives the matching scores. The two
    directions run as two tasks (see the module docstring).
    """
    if not isinstance(weights, AttentionWeights):
        raise ValueError(
            "cross_attention needs value and output projections; score-only "
            "weights belong to the last layer, which computes only scores"
        )
    rows_l, rows_r = _epipolar_rows(left, right, weights)
    mask_t = None if mask is None else np.ascontiguousarray(mask.T)
    n = rows_l.shape[1]
    ch, table = _checked_window(weights, heads, n, n, mask)
    _check_mask(mask_t, n, n)
    return _both(
        _attend_across,
        (left, rows_l, rows_r, weights, ch, table, mask),
        (right, rows_r, rows_l, weights, ch, table, mask_t),
        left.size,
    )


def _add_scores(scores, rows_l, rows_r, weights, ch, table, mask) -> None:
    # the heads' logits of some lines, summed in head order into their scores
    for part, _, heads in _pieces(rows_l, rows_r, weights, ch, table, mask):
        total = scores[part]
        for _, logits in heads:
            total += logits


def cross_scores(
    left: np.ndarray,
    right: np.ndarray,
    weights: ScoreWeights | AttentionWeights,
    heads: int,
    mask: np.ndarray | None = None,
) -> ScoreMatrix:
    """The head-averaged, masked left-query logits of cross_attention, which
    the matching head reads: the heads' logits summed in head order, then
    divided by the head count. No values, softmax or right-query pass. The
    two halves of the lines run as two tasks (see the module docstring)."""
    rows_l, rows_r = _epipolar_rows(left, right, weights)
    ch, table = _checked_window(weights, heads, rows_l.shape[1], rows_r.shape[1], mask)
    scores = np.zeros((len(rows_l), rows_l.shape[1], rows_r.shape[1]), dtype=np.float32)
    half = -(-len(rows_l) // 2)
    if left.size < ndarray._TASK_WORK or half == len(rows_l):
        # too small to hand over: one task, with no call per half
        _add_scores(scores, rows_l, rows_r, weights, ch, table, mask)
    else:
        _both(
            _add_scores,
            *(
                (scores[part], rows_l[part], rows_r[part], weights, ch, table, mask)
                for part in (slice(half), slice(half, None))
            ),
            left.size,
        )
    scores /= np.float32(heads)
    return ScoreMatrix(scores)


def pixel_norm(f: np.ndarray) -> np.ndarray:
    """Normalize every pixel's channel vector to zero mean / unit variance."""
    # the ufunc reductions and division are exactly what ``mean`` computes
    c = np.float32(f.shape[0])
    d = f - np.add.reduce(f, axis=0, keepdims=True) / c
    var = np.add.reduce(d * d, axis=0, keepdims=True) / c
    var += _NORM_EPS
    d /= np.sqrt(var, out=var)
    return d
