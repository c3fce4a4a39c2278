"""Dense float32 array substrate shared by the whole stereo pipeline.

Fixed conventions, chosen once so that outputs are reproducible bit for bit:

* tensors are C-contiguous float32 numpy arrays (row-major),
* "convolution" means cross-correlation with zero padding; stride s keeps
  only every s-th output row and column of the same-size output, and
  conv2d evaluates just those,
* conv2d builds its im2col columns in bands of whole output rows, each
  padded to whole pixel blocks, so BLAS sums every output with its main
  kernel over the same taps in the same order: the band height and the
  stride do not change the bytes,
* resampling is bilinear with the half-pixel (align-corners-false) mapping,
* reductions keep numpy's fixed evaluation order, so identical inputs give
  identical bits on a given platform regardless of caller threading.

All functions here are pure: no in-place mutation of inputs, and no global
state except one helper thread per process. A pipeline stage that runs once
per image hands both runs to ``_both``, which runs them at once as two
tasks: the left on the calling thread, the right on the helper. Each task
runs whole on its thread and makes the numpy calls a one-thread run makes,
so the bytes do not depend on which thread ran it. The helper starts on the
first large task, only where two CPUs are allowed; a fork child starts its
own.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from queue import SimpleQueue

import numpy as np

__all__ = [
    "Rng",
    "tensor",
    "softmax_axis",
    "conv2d",
    "avgpool_width",
    "bilinear_upsample",
    "linear_interp_1d",
    "seeded_normal",
    "relu",
    "sigmoid",
]


def tensor(data, shape=None) -> np.ndarray:
    """Build a float32 tensor from external data.

    Rejects non-finite values and non-positive extents; returns a C-contiguous
    float32 array.
    """
    arr = np.asarray(data, dtype=np.float32)
    if shape is not None:
        arr = arr.reshape(shape)
    arr = np.ascontiguousarray(arr)
    if any(e <= 0 for e in arr.shape):
        raise ValueError(f"tensor extents must be positive, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor rejects NaN/Inf values")
    return arr


class Rng:
    """Deterministic random stream: PCG64 bit generator, ziggurat normal sampler.

    The same seed yields the same value stream on every platform for a fixed
    numpy major series; every draw advances the stream.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"


def seeded_normal(rng: Rng, shape, stddev: float) -> np.ndarray:
    """Draw a float32 normal tensor with the given stddev from ``rng``.

    The stream is advanced even when stddev is 0, so tensor layouts stay
    aligned across configurations.
    """
    if stddev < 0:
        raise ValueError("stddev must be nonnegative")
    vals = rng.generator.standard_normal(size=tuple(shape), dtype=np.float32)
    return vals * np.float32(stddev)


def softmax_axis(t: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stabilized softmax along one axis (max-subtraction)."""
    rank = t.ndim
    if not -rank <= axis < rank:
        raise ValueError(f"axis {axis} out of range for rank {rank}")
    # fmax skips NaN, so it runs faster than maximum; a row holding NaN still
    # comes out all NaN, and on other rows the max and the bytes are the same
    shifted = t - np.fmax.reduce(t, axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=axis, keepdims=True)
    return shifted


# Values one task reads below which both tasks run on the caller. With the
# default config a 128x256 pair's stages read at least 32768 (the image);
# the 8-channel test config's read at most 512, less than a handoff costs.
_TASK_WORK = 16_384

# Per-thread flag: tasks handed over from here run on this thread. The helper
# sets it for itself, so its work never waits on its own queue.
_local = threading.local()


class _Helper:
    """One daemon thread that runs the second of two tasks, in the order the
    callers hand them over."""

    def __init__(self):
        self._jobs = SimpleQueue()
        threading.Thread(target=self._serve, name="cstr-task", daemon=True).start()

    def _serve(self) -> None:
        _local.serial = True
        while True:
            # one call per job, so that no job's arrays outlive it here
            self._run_one(*self._jobs.get())

    @staticmethod
    def _run_one(claim: threading.Lock, task, args: tuple, done: threading.Event, outcome: list):
        if not claim.acquire(blocking=False):
            return  # the caller ran the task itself
        try:
            outcome.append((True, task(*args)))
        except BaseException as exc:  # handed to the caller, which re-raises it
            outcome.append((False, exc))
        finally:
            done.set()

    def run(self, task, first: tuple, second: tuple) -> tuple:
        """Return ``(task(*first), task(*second))``, the first run here and the
        second on the helper, which leaves it to the caller if it has not
        started it when the first ends; raise the first error of the two
        once both have ended."""
        claim, done, outcome = threading.Lock(), threading.Event(), []
        self._jobs.put((claim, task, second, done, outcome))
        try:
            result = task(*first)
        except BaseException:
            # the helper's task may still read the caller's arrays: wait for it
            if not claim.acquire(blocking=False):
                done.wait()
            raise
        if claim.acquire(blocking=False):
            return result, task(*second)
        done.wait()
        ok, value = outcome[0]
        if not ok:
            raise value
        return result, value


_helper: _Helper | None = None
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    # a fork child inherits the handle but not the thread behind it
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _two_cpus() -> bool:
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) >= 2


def _task_helper() -> _Helper | None:
    """The process's helper, started on first use; None where this thread may
    not hand work over (one CPU, or the helper itself)."""
    global _helper
    if getattr(_local, "serial", False) or not _two_cpus():
        return None
    with _helper_lock:
        if _helper is None:
            _helper = _Helper()
        return _helper


@contextmanager
def _one_thread():
    """Run the tasks ``_both`` is given on this thread inside the block."""
    before = getattr(_local, "serial", False)
    _local.serial = True
    try:
        yield
    finally:
        _local.serial = before


def _both(task, first: tuple, second: tuple, work: int) -> tuple:
    """Return ``(task(*first), task(*second))``.

    ``work`` is the number of values one task reads. From ``_TASK_WORK`` on,
    where ``_task_helper`` gives a helper, the second task runs there
    (``_Helper.run``); each task runs in one-thread mode, so what it calls
    makes the numpy calls of a one-thread run and the bytes do not depend on
    the handoff. Otherwise both run here in turn.
    """
    helper = _task_helper() if work >= _TASK_WORK else None
    if helper is None:
        return task(*first), task(*second)
    with _one_thread():
        return helper.run(task, first, second)


# Byte budget of one band of conv2d's im2col columns. Two image tasks hold a
# band each at once, and the helper's malloc arena keeps its high-water mark,
# so bands are small: 1 MiB bands ran fusion's convolutions no slower.
_IM2COL_BYTES = 1 << 20
# conv2d hands BLAS whole blocks of this many pixels: edge blocks and tiny
# products take other kernels, whose rounding differs from the main one.
_PIXEL_BLOCK = 16


def conv2d(
    x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride: int = 1
) -> np.ndarray:
    """Zero-padded 2-D cross-correlation over a (channels, h, w) tensor.

    Kernel layout is (out_channels, in_channels, kh, kw) with odd kh/kw; the
    input is zero-padded by kh//2 and kw//2, and only output rows and columns
    0, stride, 2*stride, ... are evaluated, so the result has the same bytes
    as the same-size convolution sliced with ``[:, ::stride, ::stride]``.

    The im2col columns are built in bands of whole output rows, at most
    ``_IM2COL_BYTES`` per band, and each band's pixel count is padded to whole
    ``_PIXEL_BLOCK`` blocks; where the budget allows, bands span whole blocks,
    so only the last one is padded. Every output element is then one dot
    product over the same (in_channel, ky, kx) taps, summed by the same
    kernel in the same order, so neither the band height nor the stride
    changes its bytes. One
    known exception: OpenBLAS hands products below about 1e6 multiply-adds
    to a small-matrix kernel that sums more than a few hundred taps in
    another order, so with few output channels over many taps (2 outputs
    from 2304 taps, say) the last bits can depend on the band size.
    """
    if x.ndim != 3 or kernel.ndim != 4:
        raise ValueError("conv2d expects (c,h,w) input and (o,c,kh,kw) kernel")
    c_in, h, w = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel extents must be odd, got {kh}x{kw}")
    if kc != c_in:
        raise ValueError(f"channel mismatch: input {c_in}, kernel {kc}")
    if bias.shape != (c_out,):
        raise ValueError(f"bias must have shape ({c_out},), got {bias.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    ph, pw = kh // 2, kw // 2
    out_h, out_w = -(-h // stride), -(-w // stride)
    k = c_in * kh * kw
    taps = kernel.reshape(c_out, k)
    out = np.empty((c_out, out_h, out_w), dtype=np.float32)
    flat = out.reshape(c_out, out_h * out_w)

    band = max(1, _IM2COL_BYTES // (4 * k * out_w))
    step = _PIXEL_BLOCK // math.gcd(out_w, _PIXEL_BLOCK)
    if step <= band < out_h:
        # whole pixel blocks per band: only the last band needs the spill
        band -= band % step
    band = min(band, out_h)
    width = -(-band * out_w // _PIXEL_BLOCK) * _PIXEL_BLOCK
    # whole rows cover the padded width, so the flat view never copies
    grid = np.zeros((c_in, kh, kw, -(-width // out_w), out_w), dtype=np.float32)
    cols = grid.reshape(k, -1)
    # some band's pixels do not fill whole blocks, so its product goes to a spill
    spills = band * out_w % _PIXEL_BLOCK or out_h % band * out_w % _PIXEL_BLOCK
    spill = np.empty((c_out, width), dtype=np.float32) if spills else None
    # the zero-padded input rows of one band
    padded = np.zeros((c_in, (band - 1) * stride + kh, w + 2 * pw), dtype=np.float32)
    s_c, s_y, s_x = padded.strides
    for y0 in range(0, out_h, band):
        rows = min(band, out_h - y0)
        n = rows * out_w
        m = -(-n // _PIXEL_BLOCK) * _PIXEL_BLOCK
        top, need = y0 * stride - ph, (rows - 1) * stride + kh
        lo, hi = max(top, 0), min(top + need, h)
        if lo > top or hi < top + need:
            padded[:, :need] = 0  # rows above or below the input
        padded[:, lo - top : hi - top, pw : pw + w] = x[:, lo:hi]
        # windows[c, ky, kx, y, x] = padded[c, y * stride + ky, x * stride + kx]
        grid[:, :, :, :rows] = np.ndarray(
            (c_in, kh, kw, rows, out_w),
            dtype=np.float32,
            buffer=padded,
            strides=(s_c, s_y, s_x, stride * s_y, stride * s_x),
        )
        dest = flat[:, y0 * out_w : y0 * out_w + n]
        target = spill[:, :m] if m > n else dest
        if c_out == 1:
            # BLAS serves a one-row product with a threaded gemv whose rounding
            # depends on the thread count; einsum's own loop keeps bytes fixed.
            np.einsum("ok,kn->on", taps, cols[:, :m], out=target)
        else:
            np.matmul(taps, cols[:, :m], out=target)
        if m > n:
            dest[...] = target[:, :n]
    out += bias[:, None, None]
    return out


def avgpool_width(t: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool the width axis of a (c, h, w) tensor by an integer factor.

    The rightmost window is truncated: it averages only the cells that exist.
    """
    if factor < 1:
        raise ValueError("pooling factor must be >= 1")
    if t.ndim != 3:
        raise ValueError("avgpool_width expects a (c, h, w) tensor")
    c, h, w = t.shape
    full, rest = divmod(w, factor)
    out = np.empty((c, h, full + (rest > 0)), dtype=np.float32)
    out[:, :, :full] = t[:, :, : full * factor].reshape(c, h, full, factor).mean(axis=3)
    if rest:
        out[:, :, full] = t[:, :, full * factor :].mean(axis=2)
    return out


def _linear_coords(n_in: int, n_out: int):
    # half-pixel-centre source coordinates, clamped to the valid sample range
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, float(n_in - 1))
    lo = np.minimum(np.floor(pos).astype(np.int64), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (pos - lo).astype(np.float32)
    return lo, hi, frac


def bilinear_upsample(
    t: np.ndarray, out_h: int, out_w: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Bilinear upsampling of a (c, h, w) tensor to (c, out_h, out_w).

    Uses the half-pixel mapping; blending is written as v0 + f*(v1-v0) so a
    constant image stays exactly constant. ``out``, if given, receives the
    result.
    """
    if t.ndim != 3:
        raise ValueError("bilinear_upsample expects a (c, h, w) tensor")
    c, h, w = t.shape
    if out_h <= 0 or out_w <= 0:
        raise ValueError("target extents must be positive")
    if out_h < h or out_w < w:
        raise ValueError("target extents must not shrink the input")
    y0, y1, fy = _linear_coords(h, out_h)
    x0, x1, fx = _linear_coords(w, out_w)
    r0 = t[:, y0, :]
    rows = r0 + fy[None, :, None] * (t[:, y1, :] - r0)
    # c0 + fx * (c1 - c0), with c0 gathered straight into the result
    out = np.take(rows, x0, axis=2, out=out)
    step = rows[:, :, x1]
    step -= out
    step *= fx
    out += step
    return out


def linear_interp_1d(values: np.ndarray, x: float) -> float:
    """Linear interpolation into a 1-D tensor; exact at integer positions."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("linear_interp_1d expects a rank-1 tensor")
    n = values.shape[0]
    if not 0.0 <= x <= n - 1:
        raise ValueError(f"position {x} outside sampled range [0, {n - 1}]")
    lo = int(np.floor(x))
    if lo == n - 1:
        return float(values[n - 1])
    frac = float(x) - lo
    v0 = float(values[lo])
    return v0 + frac * (float(values[lo + 1]) - v0)


def relu(t: np.ndarray) -> np.ndarray:
    return np.maximum(t, np.float32(0))


def sigmoid(t: np.ndarray) -> np.ndarray:
    # clip keeps exp() finite in float32; saturation is far below 1 ulp
    z = np.clip(t, np.float32(-88), np.float32(88))
    return 1.0 / (1.0 + np.exp(-z))
