import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstr import (
    Rng,
    avgpool_width,
    bilinear_upsample,
    conv2d,
    linear_interp_1d,
    seeded_normal,
    softmax_axis,
    tensor,
)
from cstr import ndarray

F32 = np.float32


# --- tensor construction ---


def test_tensor_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        tensor([np.inf])


def test_tensor_rejects_zero_extent():
    with pytest.raises(ValueError):
        tensor(np.zeros((0, 3), dtype=F32))


def test_tensor_is_contiguous_float32():
    t = tensor(np.arange(6, dtype=np.float64).reshape(2, 3).T)
    assert t.dtype == np.float32
    assert t.flags.c_contiguous


# --- softmax ---


def test_softmax_symmetry():
    out = softmax_axis(np.array([0.0, 0.0], dtype=F32), 0)
    np.testing.assert_array_equal(out, [0.5, 0.5])


def test_softmax_large_logit_no_overflow():
    out = softmax_axis(np.array([1000.0, 0.0], dtype=F32), 0)
    assert abs(out[0] - 1.0) < 1e-6
    assert abs(out[1]) < 1e-6
    assert np.isfinite(out).all()


def test_softmax_hand_values():
    t = np.log(np.array([1.0, 2.0, 3.0])).astype(F32)
    np.testing.assert_allclose(softmax_axis(t, 0), [1 / 6, 2 / 6, 3 / 6], atol=1e-7)


def test_softmax_bad_axis():
    with pytest.raises(ValueError):
        softmax_axis(np.zeros((2, 2), dtype=F32), 2)


def _softmax_by_maximum(t, axis):
    # the row max by maximum.reduce, which propagates NaN
    shifted = t - np.maximum.reduce(t, axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=axis, keepdims=True)
    return shifted


@pytest.mark.filterwarnings("ignore:invalid value")
def test_softmax_rows_with_neg_inf_keep_the_maximum_bytes():
    # masked logits: rows with some, most and all entries at -inf
    t = (Rng(23).generator.random((3, 5, 40), dtype=F32) - 0.5) * 60
    t[0, :, ::3] = -np.inf
    t[1, :, 1:] = -np.inf
    t[2, 2] = -np.inf
    for axis in (2, 1):
        assert softmax_axis(t, axis).tobytes() == _softmax_by_maximum(t, axis).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value")
def test_softmax_nan_input_gives_an_all_nan_row():
    t = Rng(24).generator.random((4, 9), dtype=F32)
    t[1, 3] = np.nan
    t[3] = np.nan
    out = softmax_axis(t, 1)
    assert np.isnan(out[[1, 3]]).all()
    assert not np.isnan(out[[0, 2]]).any()
    assert out[[0, 2]].tobytes() == _softmax_by_maximum(t[[0, 2]], 1).tobytes()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_sum_to_one(seed):
    rng = Rng(seed)
    t = (rng.generator.random((4, 6), dtype=F32) - 0.5) * 100
    s = softmax_axis(t, axis=1)
    assert np.abs(s.sum(axis=1) - 1).max() < 1e-6
    assert (s >= 0).all()


# --- conv2d ---


def test_conv2d_identity_kernel_is_exact():
    rng = Rng(3)
    x = rng.generator.random((2, 5, 7), dtype=F32)
    kernel = np.zeros((2, 2, 1, 1), dtype=F32)
    kernel[0, 0] = 1.0
    kernel[1, 1] = 1.0
    out = conv2d(x, kernel, np.zeros(2, dtype=F32))
    np.testing.assert_array_equal(out, x)


def test_conv2d_zero_kernel_gives_bias():
    x = Rng(4).generator.random((1, 4, 4), dtype=F32)
    out = conv2d(x, np.zeros((3, 1, 3, 3), dtype=F32), np.array([1, 2, 3], dtype=F32))
    for c, b in enumerate([1.0, 2.0, 3.0]):
        np.testing.assert_array_equal(out[c], np.full((4, 4), b, dtype=F32))


def test_conv2d_averaging_kernel_on_constant():
    c = 2.0
    x = np.full((1, 5, 5), c, dtype=F32)
    kernel = np.full((1, 1, 3, 3), 1.0 / 9.0, dtype=F32)
    out = conv2d(x, kernel, np.zeros(1, dtype=F32))[0]
    # interior keeps the constant; edges lose the zero-padded fraction
    np.testing.assert_allclose(out[1:-1, 1:-1], c, rtol=1e-6)
    np.testing.assert_allclose(out[0, 0], c * 4 / 9, rtol=1e-6)
    np.testing.assert_allclose(out[0, 2], c * 6 / 9, rtol=1e-6)


def test_conv2d_rejects_even_kernel_and_channel_mismatch():
    x = np.zeros((2, 4, 4), dtype=F32)
    with pytest.raises(ValueError):
        conv2d(x, np.zeros((1, 2, 2, 3), dtype=F32), np.zeros(1, dtype=F32))
    with pytest.raises(ValueError):
        conv2d(x, np.zeros((1, 3, 3, 3), dtype=F32), np.zeros(1, dtype=F32))


def test_conv2d_rejects_stride_below_one():
    x = np.zeros((1, 4, 4), dtype=F32)
    with pytest.raises(ValueError, match="stride"):
        conv2d(x, np.zeros((1, 1, 3, 3), dtype=F32), np.zeros(1, dtype=F32), stride=0)


# (c_in, h, w, c_out): odd and even extents, one and many output channels,
# one input channel, and a 576-tap product like backbone stage 2
CONV_SHAPES = [
    (1, 9, 13, 16),
    (1, 16, 32, 1),
    (8, 7, 11, 1),
    (16, 12, 20, 32),
    (4, 15, 33, 24),
    (64, 10, 70, 128),
]


def _conv_case(c_in, h, w, c_out, seed=21):
    x = seeded_normal(Rng(seed), (c_in, h, w), 1.0)
    kernel = seeded_normal(Rng(seed + 1), (c_out, c_in, 3, 3), 0.5)
    bias = seeded_normal(Rng(seed + 2), (c_out,), 0.1)
    return x, kernel, bias


@pytest.mark.parametrize("shape", CONV_SHAPES)
@pytest.mark.parametrize("stride", [2, 3])
def test_conv2d_stride_keeps_the_bytes_of_the_sliced_full_output(shape, stride):
    x, kernel, bias = _conv_case(*shape)
    full = conv2d(x, kernel, bias)
    strided = conv2d(x, kernel, bias, stride=stride)
    expected = np.ascontiguousarray(full[:, ::stride, ::stride])
    assert strided.shape == expected.shape
    assert strided.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_conv2d_one_row_bands_keep_the_bytes(shape, monkeypatch):
    x, kernel, bias = _conv_case(*shape)
    default = [conv2d(x, kernel, bias, stride=s).tobytes() for s in (1, 2)]
    monkeypatch.setattr(ndarray, "_IM2COL_BYTES", 1)
    assert [conv2d(x, kernel, bias, stride=s).tobytes() for s in (1, 2)] == default


def test_conv2d_fusion_sized_peak_memory():
    # 256 -> 128 channels on a 32x64 grid, the shape of fusion conv1. A
    # full-image im2col alone is 18.9 MB; banded columns stay near 4 MiB.
    x, kernel, bias = _conv_case(256, 32, 64, 128)
    tracemalloc.start()
    try:
        conv2d(x, kernel, bias)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * 2**20


@pytest.mark.parametrize("c_out", [1, 128])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("bands", [1, 2, 3, 4, 5])
def test_conv2d_split_bytes_equal_serial(two_way, monkeypatch, bands, stride, c_out):
    # two images' convolutions as two tasks, one on the helper thread, give
    # the bytes of one-thread runs. 20x32 outputs at stride 1, 10x16 at
    # stride 2; whole-block rows, so the budget alone sets the band height:
    # ceil(out_h / bands) rows
    x, kernel, bias = _conv_case(4, 20, 32, c_out)
    x2 = x[:, ::-1].copy()
    out_h, out_w = 20 // stride, 32 // stride
    band = -(-out_h // bands)
    assert -(-out_h // band) == bands
    monkeypatch.setattr(ndarray, "_IM2COL_BYTES", 4 * 36 * out_w * band)
    serial = [conv2d(t, kernel, bias, stride=stride).tobytes() for t in (x, x2)]
    runs = two_way(True)
    tasks = ndarray._both(conv2d, (x, kernel, bias, stride), (x2, kernel, bias, stride), 0)
    assert len(runs) == 1
    assert [t.tobytes() for t in tasks] == serial


def raise_error(message):
    raise RuntimeError(message)


def test_split_errors_reach_the_caller_after_both_parts_end(two_way):
    two_way(True)
    started, finished = threading.Event(), []

    def slow_helper(part):
        if part == "caller":
            assert started.wait(timeout=60)
            raise_error("caller part")
        started.set()
        time.sleep(0.05)
        finished.append(True)

    with pytest.raises(RuntimeError, match="caller part"):
        ndarray._both(slow_helper, ("caller",), ("helper",), 0)
    assert finished == [True]
    started.clear()

    def failing_helper(part):
        if part == "caller":
            return started.wait(timeout=60)
        started.set()
        raise_error("helper part")

    with pytest.raises(RuntimeError, match="helper part"):
        ndarray._both(failing_helper, ("caller",), ("helper",), 0)


def _thread_name(_):
    return threading.current_thread().name


def test_caller_runs_a_second_part_the_helper_has_not_started(two_way):
    runs = two_way(True)
    busy, release = threading.Event(), threading.Event()

    def block(part):
        if part == "first":
            busy.wait(timeout=60)
        else:
            busy.set()
            release.wait(timeout=60)

    # the helper is busy with a task of another call until the release
    blocker = threading.Thread(target=ndarray._both, args=(block, ("first",), ("second",), 0))
    blocker.start()
    try:
        assert busy.wait(timeout=60)
        names = ndarray._both(_thread_name, (0,), (1,), 0)
    finally:
        release.set()
        blocker.join(timeout=60)
    assert not blocker.is_alive()
    assert names == (threading.current_thread().name,) * 2
    assert len(runs) == 2


def test_work_on_the_helper_never_splits_again(two_way):
    runs = two_way(True)
    helper = ndarray._task_helper()
    ran = threading.Event()

    def nested(part):
        if part == "first":
            ran.wait(timeout=60)
        else:
            ran.set()
        # a task's own tasks run whole on its thread
        names = ndarray._both(_thread_name, (0,), (1,), 0)
        return threading.current_thread().name, names, ndarray._task_helper()

    first, second = ndarray._both(nested, ("first",), ("second",), 0)
    here = threading.current_thread().name
    assert first == (here, (here, here), None)
    assert second == ("cstr-task", ("cstr-task", "cstr-task"), None)
    assert len(runs) == 1
    with ndarray._one_thread():
        assert ndarray._task_helper() is None
    assert ndarray._task_helper() is helper


def test_small_tasks_run_on_the_caller_without_the_helper(two_way, monkeypatch):
    runs = two_way(True)
    monkeypatch.setattr(ndarray, "_TASK_WORK", 100)
    here = threading.current_thread().name
    assert ndarray._both(_thread_name, (0,), (1,), 99) == (here, here)
    assert runs == []


# --- pooling ---


def test_avgpool_factor_one_is_identity():
    x = Rng(5).generator.random((2, 3, 4), dtype=F32)
    np.testing.assert_array_equal(avgpool_width(x, 1), x)


def test_avgpool_window_means():
    x = tensor([[[1, 2, 3, 4]]])
    np.testing.assert_array_equal(avgpool_width(x, 2)[0, 0], [1.5, 3.5])


def test_avgpool_truncated_right_edge():
    x = tensor([[[1, 2, 3, 4, 5]]])
    np.testing.assert_array_equal(avgpool_width(x, 2)[0, 0], [1.5, 3.5, 5.0])


def test_avgpool_equals_window_by_window_means():
    # the reshaped pooling sums each window in the same order as one slice
    rng = Rng(6)
    for _ in range(40):
        c, h, w = (int(e) for e in rng.generator.integers(1, 24, size=3))
        factor = int(rng.generator.integers(1, 20))
        x = seeded_normal(rng, (c, h, w), 10.0)
        windows = [x[:, :, j : j + factor].mean(axis=2) for j in range(0, w, factor)]
        assert avgpool_width(x, factor).tobytes() == np.stack(windows, axis=2).tobytes()


def test_avgpool_constant_stays_constant():
    x = np.full((1, 2, 7), 3.25, dtype=F32)
    for factor in (1, 2, 3, 7, 10):
        assert (avgpool_width(x, factor) == 3.25).all()


def test_avgpool_zero_factor():
    with pytest.raises(ValueError):
        avgpool_width(np.zeros((1, 1, 4), dtype=F32), 0)


# --- bilinear upsampling ---


def test_upsample_constant():
    x = np.full((1, 2, 2), 0.5, dtype=F32)
    out = bilinear_upsample(x, 4, 4)
    np.testing.assert_array_equal(out, np.full((1, 4, 4), 0.5, dtype=F32))


def test_upsample_same_size_identity():
    x = Rng(6).generator.random((3, 4, 5), dtype=F32)
    np.testing.assert_array_equal(bilinear_upsample(x, 4, 5), x)


def test_upsample_half_pixel_values():
    x = tensor([[[0.0, 1.0]]])
    np.testing.assert_allclose(
        bilinear_upsample(x, 1, 4)[0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-7
    )


def test_upsample_rejects_bad_targets():
    x = np.zeros((1, 2, 2), dtype=F32)
    with pytest.raises(ValueError):
        bilinear_upsample(x, 0, 4)
    with pytest.raises(ValueError):
        bilinear_upsample(x, 1, 4)


def test_upsample_mean_preserved_for_constant():
    x = np.full((1, 3, 3), 0.5, dtype=F32)
    out = bilinear_upsample(x, 7, 11)
    assert (out == 0.5).all()
    assert float(out.mean(dtype=np.float64)) == 0.5


# --- 1-D interpolation ---


def test_interp_midpoint():
    assert linear_interp_1d(tensor([0.0, 1.0]), 0.5) == 0.5


def test_interp_exact_at_nodes():
    vals = tensor([3.0, 1.0, 4.0, 1.5])
    for i, v in enumerate([3.0, 1.0, 4.0, 1.5]):
        assert linear_interp_1d(vals, i) == v


def test_interp_hand_value():
    got = linear_interp_1d(tensor([0.2, 0.8, 0.4]), 1.25)
    assert abs(got - 0.7) < 1e-7


def test_interp_out_of_range():
    with pytest.raises(ValueError):
        linear_interp_1d(tensor([0.0, 1.0]), -0.01)
    with pytest.raises(ValueError):
        linear_interp_1d(tensor([0.0, 1.0]), 1.01)


# --- seeded normal ---


def test_seeded_normal_zero_stddev():
    out = seeded_normal(Rng(9), (3, 3), 0.0)
    np.testing.assert_array_equal(out, np.zeros((3, 3), dtype=F32))


def test_seeded_normal_determinism():
    a = seeded_normal(Rng(123), (64,), 1.0)
    b = seeded_normal(Rng(123), (64,), 1.0)
    assert a.tobytes() == b.tobytes()


def test_seeded_normal_golden_transcript():
    # frozen once from the PCG64/ziggurat stream underneath Rng
    got = seeded_normal(Rng(42), (4,), 1.0)
    want = [0.14190717041492462, -1.6685079336166382, -1.3321080207824707, 0.5825534462928772]
    np.testing.assert_allclose(got.astype(np.float64), want, rtol=0, atol=0)


def test_seeded_normal_negative_stddev():
    with pytest.raises(ValueError):
        seeded_normal(Rng(0), (2,), -1.0)


def test_rng_rejects_bad_seed():
    with pytest.raises(ValueError):
        Rng(-1)
    with pytest.raises(ValueError):
        Rng(2**64)


# --- purity / determinism of the substrate ---


def test_ops_are_pure_and_bit_stable():
    rng = Rng(17)
    x = rng.generator.random((3, 6, 8), dtype=F32)
    kernel = seeded_normal(Rng(18), (2, 3, 3, 3), 0.5)
    bias = seeded_normal(Rng(19), (2,), 0.1)
    x_copy = x.copy()
    runs = [conv2d(x, kernel, bias).tobytes() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    np.testing.assert_array_equal(x, x_copy)
    a = softmax_axis(x, 2).tobytes()
    b = softmax_axis(x, 2).tobytes()
    assert a == b
