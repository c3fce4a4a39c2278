import dataclasses
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from cstr import (
    AttentionWeights,
    Rng,
    ScoreWeights,
    axial_attention_height,
    axial_attention_width,
    cross_attention,
    cross_scores,
    epipolar_mask,
    pixel_norm,
    seeded_normal,
)
from cstr import attention, ndarray
from cstr.selftest import dense_attention_oracle, per_line_cross_scores
from cstr.selftest import random_attention_weights

F32 = np.float32


# --- logits structure, through cross_scores on one line ---


def one_line(x):
    # an (n, c) token line as a (c, 1, n) map
    return x.T[:, None]


def test_zero_rel_pos_reduces_to_content():
    # the content logits summed in head order, then averaged, exactly
    rng = Rng(1)
    for c, heads, n in ((6, 3, 5), (16, 4, 33)):
        w = random_attention_weights(rng, c, heads, span=max(8, n))
        w = ScoreWeights(w.Wq, w.Wk, np.zeros_like(w.rel_pos))
        x = seeded_normal(rng, (n, c), 1.0)
        ch = c // heads
        want = np.zeros((n, n), dtype=F32)
        for head in range(heads):
            hs = slice(head * ch, (head + 1) * ch)
            want += ((x @ w.Wq)[:, hs] @ (x @ w.Wk)[:, hs].T) / F32(np.sqrt(ch))
        want /= F32(heads)
        line = one_line(x)
        np.testing.assert_array_equal(cross_scores(line, line, w, heads).logits[0], want)


def test_zero_content_gives_zero_logits():
    w = random_attention_weights(Rng(2), 4, 2, span=8)
    zero = np.zeros((4, 1, 6), dtype=F32)
    got = cross_scores(zero, zero, w, 2).logits
    np.testing.assert_array_equal(got, np.zeros((1, 6, 6), dtype=F32))


def test_cross_scores_hand_case():
    # n=2, c=1, single head: every projection is a scalar
    wq, wk, r_m1, r_0, r_p1 = 2.0, 3.0, 0.5, -0.25, 1.5
    w = ScoreWeights(
        Wq=np.array([[wq]], dtype=F32),
        Wk=np.array([[wk]], dtype=F32),
        rel_pos=np.array([[r_m1], [r_0], [r_p1]], dtype=F32),
    )
    x0, x1 = 0.7, -1.1
    line = one_line(np.array([[x0], [x1]], dtype=F32))
    got = cross_scores(line, line, w, 1).logits[0]

    def term(xi, xj, r):
        return (xi * wq) * (xj * wk) + (xi * wq) * (r * wk) + (r * wq) * (xj * wk)

    want = np.array(
        [[term(x0, x0, r_0), term(x0, x1, r_p1)],
         [term(x1, x0, r_m1), term(x1, x1, r_0)]]
    )
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_multihead_over_other_key_counts_matches_dense_oracle():
    # no public operation attends n queries over m != n keys, but the
    # window, the position operands and the product size support it
    c, heads = 8, 2
    # n != m in both directions, up to the whole window (n or m = span); the
    # span-64 pairs hold several 16-row position blocks and ragged tails
    pairs = [(6, p) for p in ((2, 5), (5, 2), (1, 6), (6, 1), (6, 5))]
    pairs += [(64, p) for p in ((40, 17), (17, 40), (1, 64), (64, 1))]
    for span, (n, m) in pairs:
        w = random_attention_weights(Rng(21 if span == 6 else 22), c, heads, span)
        rng = Rng(100 + 10 * n + m)
        x = seeded_normal(rng, (n, c), 1.0)
        keys = seeded_normal(rng, (m, c), 1.0)
        ch, table = attention._checked_window(w, heads, n, m, None)
        got = attention._multihead(x[None], keys[None], w, ch, table)
        assert got.shape == (1, n, c)
        want = dense_attention_oracle(x, keys, w, heads)
        np.testing.assert_allclose(got[0], want, atol=1e-5)


# --- axial attention ---


def test_width_single_token_row():
    rng = Rng(4)
    c, heads = 4, 2
    w = random_attention_weights(rng, c, heads, span=4)
    f = seeded_normal(rng, (c, 3, 1), 1.0)
    got = axial_attention_width(f, w, heads)
    for y in range(3):
        x = f[:, y, 0]
        want = x + (x @ w.Wv) @ w.Wo
        np.testing.assert_allclose(got[:, y, 0], want, atol=1e-6)


def test_width_zero_query_gives_uniform_attention():
    rng = Rng(5)
    c, heads, wpix = 4, 2, 6
    w = random_attention_weights(rng, c, heads, span=8)
    w = AttentionWeights(np.zeros_like(w.Wq), w.Wk, w.Wv, w.Wo, np.zeros_like(w.rel_pos))
    f = seeded_normal(rng, (c, 2, wpix), 1.0)
    got = axial_attention_width(f, w, heads)
    for y in range(2):
        row = f[:, y, :].T
        mean_v = (row @ w.Wv).mean(axis=0)
        want = row + (np.tile(mean_v, (wpix, 1)) @ w.Wo)
        np.testing.assert_allclose(got[:, y, :].T, want, atol=1e-5)


def test_width_matches_dense_oracle():
    rng = Rng(6)
    c, heads = 8, 4
    w = random_attention_weights(rng, c, heads, span=16)
    f = seeded_normal(rng, (c, 4, 8), 1.0)
    got = axial_attention_width(f, w, heads)
    for y in range(4):
        line = f[:, y, :].T
        want = line + dense_attention_oracle(line, line, w, heads)
        np.testing.assert_allclose(got[:, y, :].T, want, atol=1e-5)


def test_height_single_token_column():
    rng = Rng(7)
    c, heads = 4, 2
    w = random_attention_weights(rng, c, heads, span=4)
    f = seeded_normal(rng, (c, 1, 5), 1.0)
    got = axial_attention_height(f, w, heads)
    for x in range(5):
        v = f[:, 0, x]
        want = v + (v @ w.Wv) @ w.Wo
        np.testing.assert_allclose(got[:, 0, x], want, atol=1e-6)


def test_height_matches_dense_oracle():
    rng = Rng(8)
    c, heads = 6, 2
    w = random_attention_weights(rng, c, heads, span=8)
    f = seeded_normal(rng, (c, 6, 3), 1.0)
    got = axial_attention_height(f, w, heads)
    for x in range(3):
        col = f[:, :, x].T
        want = col + dense_attention_oracle(col, col, w, heads)
        np.testing.assert_allclose(got[:, :, x].T, want, atol=1e-5)


def test_height_is_width_of_transpose():
    rng = Rng(9)
    c, heads = 4, 2
    w = random_attention_weights(rng, c, heads, span=8)
    f = seeded_normal(rng, (c, 5, 7), 1.0)
    by_height = axial_attention_height(f, w, heads)
    by_width_of_t = axial_attention_width(f.transpose(0, 2, 1), w, heads)
    np.testing.assert_array_equal(by_height, by_width_of_t.transpose(0, 2, 1))


def test_zero_rel_pos_shift_equivariance():
    rng = Rng(10)
    c, heads, wpix = 4, 2, 6
    w = random_attention_weights(rng, c, heads, span=8)
    w = AttentionWeights(w.Wq, w.Wk, w.Wv, w.Wo, np.zeros_like(w.rel_pos))
    f = seeded_normal(rng, (c, 1, wpix), 1.0)
    pre = axial_attention_width(f, w, heads) - f
    for shift in (1, 3):
        rolled = np.roll(f, shift, axis=2)
        pre_rolled = axial_attention_width(rolled, w, heads) - rolled
        np.testing.assert_allclose(pre_rolled, np.roll(pre, shift, axis=2), atol=1e-5)


def test_output_shape_independent_of_heads():
    rng = Rng(11)
    c = 8
    f = seeded_normal(rng, (c, 3, 5), 1.0)
    shapes = set()
    for heads in (1, 2, 4, 8):
        w = random_attention_weights(Rng(12), c, heads, span=8)
        shapes.add(axial_attention_width(f, w, heads).shape)
    assert shapes == {(8, 3, 5)}


def test_head_mismatch_rejected():
    # rel table sized for 2 channels/head
    w = random_attention_weights(Rng(13), 8, 4, span=8)
    f = np.zeros((8, 2, 2), dtype=F32)
    with pytest.raises(ValueError):
        axial_attention_width(f, w, 2)
    with pytest.raises(ValueError):
        axial_attention_width(f, w, 3)


SPAN = 6
LONG_SPAN = 64
# one position block at SPAN; several, some with a ragged tail, at LONG_SPAN
LENGTHS = [1, SPAN - 1, SPAN, 17, 31, 32, 33, 48, LONG_SPAN]


def span_of(length):
    return SPAN if length <= SPAN else LONG_SPAN


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("length", LENGTHS)
def test_width_matches_dense_oracle_at_window_edges(length, heads):
    c = 8
    w = random_attention_weights(Rng(30 + heads), c, heads, span_of(length))
    f = seeded_normal(Rng(40 + length), (c, 2, length), 1.0)
    got = axial_attention_width(f, w, heads)
    for y in range(2):
        line = f[:, y, :].T
        want = line + dense_attention_oracle(line, line, w, heads)
        np.testing.assert_allclose(got[:, y, :].T, want, atol=1e-5)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("length", LENGTHS)
def test_cross_matches_dense_oracle_at_window_edges(length, heads):
    c = 8
    w = random_attention_weights(Rng(50 + heads), c, heads, span_of(length))
    rng = Rng(60 + length)
    left_in = seeded_normal(rng, (c, 2, length), 1.0)
    right_in = seeded_normal(rng, (c, 2, length), 1.0)
    for mask in (epipolar_mask(length, length), None):
        mask_t = None if mask is None else mask.T
        left, right = cross_attention(left_in, right_in, w, heads, mask)
        for y in range(2):
            lq = left_in[:, y, :].T
            rq = right_in[:, y, :].T
            want_l = lq + dense_attention_oracle(lq, rq, w, heads, mask)
            want_r = rq + dense_attention_oracle(rq, lq, w, heads, mask_t)
            np.testing.assert_allclose(left[:, y, :].T, want_l, atol=1e-5)
            np.testing.assert_allclose(right[:, y, :].T, want_r, atol=1e-5)


def test_lines_longer_than_span_rejected():
    c, heads = 4, 2
    w = random_attention_weights(Rng(70), c, heads, SPAN)
    long_rows = np.zeros((c, 2, SPAN + 1), dtype=F32)
    with pytest.raises(ValueError, match="exceeds the position-embedding span"):
        axial_attention_width(long_rows, w, heads)
    with pytest.raises(ValueError, match="exceeds the position-embedding span"):
        axial_attention_height(long_rows.transpose(0, 2, 1), w, heads)
    with pytest.raises(ValueError, match="exceeds the position-embedding span"):
        cross_attention(long_rows, long_rows, w, heads)


def test_cross_scores_rejects_long_lines():
    w = random_attention_weights(Rng(3), 4, 2, span=4)
    long_rows = np.zeros((4, 1, 5), dtype=F32)
    with pytest.raises(ValueError, match="exceeds the position-embedding span"):
        cross_scores(long_rows, long_rows, w, 2)


# --- cross attention ---


def test_cross_uniform_when_queries_vanish():
    rng = Rng(14)
    c, heads, wpix = 4, 2, 5
    w = random_attention_weights(rng, c, heads, span=8)
    w = AttentionWeights(np.zeros_like(w.Wq), w.Wk, w.Wv, w.Wo, np.zeros_like(w.rel_pos))
    f = seeded_normal(rng, (c, 2, wpix), 1.0)
    left, right = cross_attention(f, f, w, heads)
    for y in range(2):
        row = f[:, y, :].T
        mean_v = (row @ w.Wv).mean(axis=0)
        want = row + (np.tile(mean_v, (wpix, 1)) @ w.Wo)
        np.testing.assert_allclose(left[:, y, :].T, want, atol=1e-5)
        np.testing.assert_allclose(right[:, y, :].T, want, atol=1e-5)


def test_cross_diagonal_mask_selects_same_index():
    rng = Rng(15)
    c, heads, wpix = 4, 2, 4
    w = random_attention_weights(rng, c, heads, span=8)
    mask = np.where(np.eye(wpix, dtype=bool), F32(0), F32(-np.inf))
    left_in = seeded_normal(rng, (c, 1, wpix), 1.0)
    right_in = seeded_normal(rng, (c, 1, wpix), 1.0)
    left, right = cross_attention(left_in, right_in, w, heads, mask)
    for i in range(wpix):
        want_l = left_in[:, 0, i] + (right_in[:, 0, i] @ w.Wv) @ w.Wo
        np.testing.assert_allclose(left[:, 0, i], want_l, atol=1e-6)
        want_r = right_in[:, 0, i] + (left_in[:, 0, i] @ w.Wv) @ w.Wo
        np.testing.assert_allclose(right[:, 0, i], want_r, atol=1e-6)


def test_cross_matches_masked_dense_oracle():
    rng = Rng(16)
    c, heads = 1, 1
    w = random_attention_weights(rng, c, heads, span=8)
    left_in = seeded_normal(rng, (c, 4, 4), 1.0)
    right_in = seeded_normal(rng, (c, 4, 4), 1.0)
    mask = epipolar_mask(4, 4)
    left, right = cross_attention(left_in, right_in, w, heads, mask)
    scores = cross_scores(left_in, right_in, w, heads, mask)
    for y in range(4):
        lq = left_in[:, y, :].T
        rq = right_in[:, y, :].T
        want_l = lq + dense_attention_oracle(lq, rq, w, heads, mask)
        want_r = rq + dense_attention_oracle(rq, lq, w, heads, mask.T)
        np.testing.assert_allclose(left[:, y, :].T, want_l, atol=1e-5)
        np.testing.assert_allclose(right[:, y, :].T, want_r, atol=1e-5)
    assert scores.logits.shape == (4, 4, 4)
    assert np.isneginf(scores.logits[:, 1, 0]).all()


def test_cross_scores_softmax_sums_to_one_over_unmasked():
    from cstr import softmax_axis

    rng = Rng(17)
    c, heads = 4, 2
    w = random_attention_weights(rng, c, heads, span=8)
    f = seeded_normal(rng, (c, 3, 6), 1.0)
    g = seeded_normal(rng, (c, 3, 6), 1.0)
    mask = epipolar_mask(6, 6)
    scores = cross_scores(f, g, w, heads, mask)
    probs = softmax_axis(scores.logits, axis=2)
    np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)
    assert (probs[np.isneginf(scores.logits)] == 0).all()


def test_cross_rejects_fully_masked_row():
    rng = Rng(18)
    w = random_attention_weights(rng, 2, 1, span=8)
    f = seeded_normal(rng, (2, 1, 3), 1.0)
    mask = np.full((3, 3), -np.inf, dtype=F32)
    mask[0, 0] = 0  # rows 1..2 remain fully masked
    with pytest.raises(ValueError):
        cross_attention(f, f, w, 1, mask)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("length", [1, SPAN, 48])
def test_cross_scores_bytes_equal_cross_attention_scores(length, heads, masked):
    c = 8
    w = random_attention_weights(Rng(80 + heads), c, heads, span_of(length))
    rng = Rng(90 + length)
    left = seeded_normal(rng, (c, 3, length), 1.0)
    right = seeded_normal(rng, (c, 3, length), 1.0)
    mask = epipolar_mask(length, length) if masked else None
    got = cross_scores(left, right, w, heads, mask).logits
    # lines never mix: each line alone gives the bytes it gets among all
    want = np.concatenate(
        [cross_scores(left[:, y : y + 1], right[:, y : y + 1], w, heads, mask).logits
         for y in range(3)]
    )
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    oracle = per_line_cross_scores(left, right, w, heads, mask)
    np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-5)


def test_score_weights_give_the_scores_of_the_full_weights():
    # the last layer's cross attention keeps only Wq, Wk and rel_pos
    c, heads, length = 8, 2, 48
    w = random_attention_weights(Rng(23), c, heads, span_of(length))
    scores_only = ScoreWeights(w.Wq, w.Wk, w.rel_pos)
    rng = Rng(24)
    left = seeded_normal(rng, (c, 3, length), 1.0)
    right = seeded_normal(rng, (c, 3, length), 1.0)
    mask = epipolar_mask(length, length)
    want = cross_scores(left, right, w, heads, mask).logits
    assert cross_scores(left, right, scores_only, heads, mask).logits.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="Wk must be"):
        ScoreWeights(w.Wq, w.Wk[:4], w.rel_pos)


@pytest.mark.parametrize(
    "mask",
    [
        np.zeros((3, 4), dtype=F32),  # mis-shaped
        np.triu(np.full((3, 3), -np.inf, dtype=F32)),  # row 0 keeps no key
    ],
    ids=["misshaped", "fully_masked_row"],
)
def test_cross_scores_rejects_masks_like_cross_attention(mask):
    w = random_attention_weights(Rng(21), 2, 1, span=8)
    f = seeded_normal(Rng(22), (2, 1, 3), 1.0)
    with pytest.raises(ValueError) as want:
        cross_attention(f, f, w, 1, mask)
    with pytest.raises(ValueError) as got:
        cross_scores(f, f, w, 1, mask)
    assert str(got.value) == str(want.value)


def test_cross_shape_mismatch():
    w = random_attention_weights(Rng(19), 2, 1, span=8)
    with pytest.raises(ValueError):
        cross_attention(
            np.zeros((2, 2, 3), dtype=F32), np.zeros((2, 2, 4), dtype=F32), w, 1
        )


# --- pixel norm ---


def test_pixel_norm_zero_mean_unit_variance():
    rng = Rng(20)
    f = seeded_normal(rng, (8, 3, 4), 2.0) + 1.5
    out = pixel_norm(f)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)


# --- pieces of lines and per-image tasks ---


def split_case(lines, length, c=16, heads=2, seed=0):
    w = random_attention_weights(Rng(100 + seed), c, heads, span=64)
    rng = Rng(110 + seed)
    x_q = seeded_normal(rng, (lines, length, c), 1.0)
    x_kv = seeded_normal(rng, (lines, length, c), 1.0)
    return x_q, x_kv, w, heads


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("length", [8, 16, 24, 64])
@pytest.mark.parametrize("lines", [1, 2, 3, 5, 32])
def test_multihead_split_bytes_equal_serial(two_way, monkeypatch, lines, length, masked):
    # pieces of 1, 2 and 3 lines, on the caller and as the helper's task,
    # give the bytes of one piece of all lines on one thread
    x_q, x_kv, w, heads = split_case(lines, length, seed=length)
    mask = epipolar_mask(length, length) if masked else None
    ch, table = attention._checked_window(w, heads, length, length, mask)
    args = (x_q, x_kv, w, ch, table, mask)
    monkeypatch.setattr(attention, "_PIECE_BYTES", x_q.nbytes)
    whole = attention._multihead(*args).tobytes()
    runs = two_way(True)
    for piece in (1, 2, 3):
        monkeypatch.setattr(attention, "_PIECE_BYTES", piece * x_q[0].nbytes)
        tasks = ndarray._both(attention._multihead, args, args, 0)
        assert [t.tobytes() for t in tasks] == [whole, whole]
    assert len(runs) == 3


@pytest.mark.parametrize("c", [128, 512])
@pytest.mark.parametrize("length", [8, 16, 24, 64, 128])
@pytest.mark.parametrize("lines", [1, 2, 3, 5, 32])
def test_projections_equal_per_line_products(lines, length, c):
    # one 2-D GEMM over all tokens of a stack gives each line the bytes of
    # its own product, for every projection
    w = random_attention_weights(Rng(130), c, 4, span=128)
    rng = Rng(131 + length)
    x_q = seeded_normal(rng, (lines, length, c), 1.0)
    x_kv = seeded_normal(rng, (lines, length, c), 1.0)
    for stack in (x_q, x_kv):
        for matrix in (w.Wq, w.Wk, w.Wv):
            got = attention._project(stack, matrix)
            assert got.shape == (lines, length, c)
            assert [line.tobytes() for line in got] == [(x @ matrix).tobytes() for x in stack]


def test_cross_scores_halves_as_two_tasks_equal_one_thread(two_way):
    # the two halves of the lines on two threads, on one thread, and as
    # one task below the threshold all give the same bytes
    left, right, w, heads = cross_case(5, 24, 16, 2)
    mask = epipolar_mask(24, 24)
    runs = two_way(True)
    threaded = cross_scores(left, right, w, heads, mask).logits.tobytes()
    assert len(runs) == 1
    with ndarray._one_thread():
        assert cross_scores(left, right, w, heads, mask).logits.tobytes() == threaded
    runs = two_way(False)
    assert cross_scores(left, right, w, heads, mask).logits.tobytes() == threaded
    assert runs == []


# 16 lines of 64 tokens at 128 channels reach the task threshold unforced
SPLIT_SIZE = (16, 64, 128, 4)


def cross_case(lines, length, c, heads):
    w = random_attention_weights(Rng(120), c, heads, span=64)
    rng = Rng(121)
    left = seeded_normal(rng, (c, lines, length), 1.0)
    right = seeded_normal(rng, (c, lines, length), 1.0)
    return left, right, w, heads


def test_concurrent_callers_get_the_serial_bytes(two_way, monkeypatch):
    left, right, w, heads = cross_case(*SPLIT_SIZE)
    mask = epipolar_mask(SPLIT_SIZE[1], SPLIT_SIZE[1])
    threshold = ndarray._TASK_WORK
    assert left.size >= threshold
    def run():
        # both directions, then the scores of the two halves of the lines
        out = [t.tobytes() for t in cross_attention(left, right, w, heads, mask)]
        return out + [cross_scores(left, right, w, heads, mask).logits.tobytes()]

    two_way(False)
    want = run()
    runs = two_way(True)
    # at the real threshold the calls hand over tasks on their size alone
    monkeypatch.setattr(ndarray, "_TASK_WORK", threshold)
    got = []

    def caller():
        for _ in range(3):
            got.append(run())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 12
    assert len(runs) == 24


def _names_in_fork_child(left, right, w, heads, want):
    ran = threading.Event()

    def task(part):
        # the first task waits for the second, so only a helper can run it
        if part == "first":
            ran.wait(timeout=30)
        else:
            ran.set()
        return threading.current_thread().name

    fresh = ndarray._helper is None
    names = ndarray._both(task, ("first",), ("second",), 0)
    got = [t.tobytes() for t in cross_attention(left, right, w, heads)]
    sys.exit(0 if fresh and names[1] == "cstr-task" and got == want else 1)


@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks")
def test_fork_child_after_a_split_runs_its_own_split(two_way):
    runs = two_way(True)
    left, right, w, heads = cross_case(4, 16, 16, 2)
    want = [t.tobytes() for t in cross_attention(left, right, w, heads)]
    assert runs  # the parent's helper is running
    child = multiprocessing.get_context("fork").Process(
        target=_names_in_fork_child, args=(left, right, w, heads, want)
    )
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive
    assert child.exitcode == 0


@pytest.mark.parametrize("split", [False, True])
def test_bad_mask_raises_the_serial_message_in_the_caller(two_way, split):
    # both directions' masks are checked before either task starts
    runs = two_way(split)
    left, right, w, heads = cross_case(4, 8, 16, 2)
    with pytest.raises(ValueError, match=r"^mask must be \(8, 8\), got \(8, 7\)$"):
        cross_attention(left, right, w, heads, np.zeros((8, 7), dtype=F32))
    # every query row keeps a key, but the right-query rows (columns) do not
    mask = np.zeros((8, 8), dtype=F32)
    mask[:, 0] = -np.inf
    with pytest.raises(ValueError, match="^mask forbids every key of some query row$"):
        cross_attention(left, right, w, heads, mask)
    assert runs == []


# --- position operands kept on the weights ---


def operand_case(length, seed=0):
    # 2 heads of 4 channels; span 32 takes lines of one block and of two
    w = random_attention_weights(Rng(140 + seed), 8, 2, span=32)
    ch, table = attention._checked_window(w, 2, length, length, None)
    return w, ch, table


def test_short_lines_reuse_read_only_operands():
    # a second call, even for another line count, gets the objects the first built
    w, ch, table = operand_case(16)
    first = attention._head_operands(table, w, ch, 16, 16, 3)
    assert attention._head_operands(table, w, ch, 16, 16, 5) is first
    assert w._operands == {(ch, 16, 16): first}
    arrays = [a for pair in first for a in pair]
    assert len(arrays) == 4 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][0, 0] = 1


def test_long_lines_build_fresh_operands():
    # their operands hold per-call product buffers, so nothing is kept
    w, ch, table = operand_case(17)
    first = attention._head_operands(table, w, ch, 17, 17, 2)
    again = attention._head_operands(table, w, ch, 17, 17, 2)
    assert again is not first and w._operands == {}
    for old, new in zip(first, again):
        for old_term, new_term in zip(old, new):
            assert not np.shares_memory(old_term[1], new_term[1])


def test_weight_objects_never_share_operands():
    # equal weights over the very same arrays still keep their own entries
    w, ch, table = operand_case(8)
    twin = dataclasses.replace(w)
    assert twin == w and twin._operands is not w._operands
    ops = attention._head_operands(table, w, ch, 8, 8, 1)
    assert twin._operands == {}
    twin_ops = attention._head_operands(table, twin, ch, 8, 8, 1)
    assert twin_ops is not ops and w._operands[(ch, 8, 8)] is ops
    for pair, twin_pair in zip(ops, twin_ops):
        for a, b in zip(pair, twin_pair):
            assert not np.shares_memory(a, b) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("length", [1, 8, 16])
def test_kept_operands_give_the_bytes_of_built_ones(length):
    # the first calls build the operands, the second ones reuse them
    rng = Rng(150)
    w = random_attention_weights(rng, 8, 2, span=16)
    left = seeded_normal(rng, (8, 3, length), 1.0)
    right = seeded_normal(rng, (8, 3, length), 1.0)
    mask = epipolar_mask(length, length)

    def run():
        out = [axial_attention_width(left, w, 2), axial_attention_height(left, w, 2)]
        out += cross_attention(left, right, w, 2, mask)
        return [t.tobytes() for t in out] + [cross_scores(left, right, w, 2).logits.tobytes()]

    cold = run()
    assert len(w._operands) == 2  # lines of `length` and of 3
    assert run() == cold
