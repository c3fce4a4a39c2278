"""Dense float32 array substrate shared by the whole stereo pipeline.

Fixed conventions, chosen once so that outputs are reproducible bit for bit:

* tensors are C-contiguous float32 numpy arrays (row-major),
* "convolution" means cross-correlation with zero-padded same-size output,
* resampling is bilinear with the half-pixel (align-corners-false) mapping,
* reductions keep numpy's fixed evaluation order, so identical inputs give
  identical bits on a given platform regardless of caller threading.

All functions here are pure: no global state, no in-place mutation of inputs.
"""

from __future__ import annotations

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
    shifted = t - np.max(t, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Same-size 2-D cross-correlation over a (channels, h, w) tensor.

    Kernel layout is (out_channels, in_channels, kh, kw) with odd kh/kw; the
    input is zero-padded so the output keeps the spatial extents.
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

    ph, pw = kh // 2, kw // 2
    padded = np.zeros((c_in, h + 2 * ph, w + 2 * pw), dtype=np.float32)
    padded[:, ph : ph + h, pw : pw + w] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, h * w)
    taps = kernel.reshape(c_out, c_in * kh * kw)
    if c_out == 1:
        # BLAS serves a one-row product with a threaded gemv whose rounding
        # depends on the thread count; einsum's own loop keeps bytes fixed.
        flat = np.einsum("ok,kn->on", taps, cols)
    else:
        flat = taps @ np.ascontiguousarray(cols)
    return flat.reshape(c_out, h, w) + bias[:, None, None]


def avgpool_width(t: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool the width axis of a (c, h, w) tensor by an integer factor.

    The rightmost window is truncated: it averages only the cells that exist.
    """
    if factor < 1:
        raise ValueError("pooling factor must be >= 1")
    if t.ndim != 3:
        raise ValueError("avgpool_width expects a (c, h, w) tensor")
    c, h, w = t.shape
    out_w = -(-w // factor)
    out = np.empty((c, h, out_w), dtype=np.float32)
    for j in range(out_w):
        out[:, :, j] = t[:, :, j * factor : min(w, (j + 1) * factor)].mean(axis=2)
    return out


def _linear_coords(n_in: int, n_out: int):
    # half-pixel-centre source coordinates, clamped to the valid sample range
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, float(n_in - 1))
    lo = np.minimum(np.floor(pos).astype(np.int64), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (pos - lo).astype(np.float32)
    return lo, hi, frac


def bilinear_upsample(t: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear upsampling of a (c, h, w) tensor to (c, out_h, out_w).

    Uses the half-pixel mapping; blending is written as v0 + f*(v1-v0) so a
    constant image stays exactly constant.
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
    c0 = rows[:, :, x0]
    return c0 + fx[None, None, :] * (rows[:, :, x1] - c0)


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
