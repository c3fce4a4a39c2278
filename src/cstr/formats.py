"""File formats: PFM / PGM images, the CSTRW001 weight container, and the
key=value run configuration.

Layouts are fixed byte-for-byte so write-then-read round-trips are bit exact:

* PFM: header ``Pf\\n{w} {h}\\n{scale}\\n`` followed by w*h little/big-endian
  float32 samples, bottom image row first. The sign of the scale line encodes
  endianness (negative = little-endian); the writer always emits ``-1.0``.
  Color ("PF") files are rejected.
* PGM: binary ``P5`` with maxval <= 65535 (two-byte samples are big-endian);
  values are scaled to [0, 1] on read and quantized on write.
* Weight container: magic ``CSTRW001``; u32 tensor count; then per tensor a
  u16 name length, the UTF-8 name, a u8 rank, rank u32 extents and the
  float32 payload. All integers and floats are little-endian.

Malformed input of any kind surfaces as FormatError (files) or ConfigError
(configuration text), never as a low-level exception.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .ndarray import tensor

__all__ = [
    "FormatError",
    "ConfigError",
    "ImagePair",
    "WeightStore",
    "RunConfig",
    "read_pfm",
    "write_pfm",
    "read_pgm",
    "write_pgm",
    "read_weights",
    "write_weights",
    "parse_config",
    "rgb_to_gray",
]

WEIGHT_MAGIC = b"CSTRW001"

# ITU-R BT.601 luma weights, the fixed RGB -> gray reduction
_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float32)


class FormatError(Exception):
    """A file did not match its declared layout."""


class ConfigError(ValueError):
    """Configuration text could not be parsed or violates an invariant."""


def rgb_to_gray(t: np.ndarray) -> np.ndarray:
    """Reduce a (3, h, w) tensor to (1, h, w) with fixed luma weights."""
    if t.ndim != 3 or t.shape[0] != 3:
        raise ValueError(f"expected a (3, h, w) tensor, got {t.shape}")
    gray = np.tensordot(_LUMA, t, axes=(0, 0)).astype(np.float32)
    return gray[None, :, :]


@dataclass(frozen=True)
class ImagePair:
    """A rectified stereo pair, channel-first, values in [0, 1]."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.left.ndim != 3 or self.right.ndim != 3:
            raise ValueError("images must be (c, h, w) tensors")
        if self.left.shape != self.right.shape:
            raise ValueError(
                f"rectified pair must share one shape: left {self.left.shape} "
                f"vs right {self.right.shape}"
            )
        if self.left.shape[0] not in (1, 3):
            raise ValueError(f"channel count must be 1 or 3, got {self.left.shape[0]}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.left.shape


class WeightStore:
    """Ordered name -> tensor map for every learnable parameter."""

    def __init__(self, tensors: dict[str, np.ndarray] | None = None):
        self._tensors: dict[str, np.ndarray] = {}
        if tensors:
            for name, value in tensors.items():
                self[name] = value

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("tensor names must be nonempty strings")
        self._tensors[name] = tensor(value)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def items(self):
        return self._tensors.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightStore):
            return NotImplemented
        if list(self) != list(other):
            return False
        return all(
            a.shape == b.shape and np.array_equal(a, b)
            for (_, a), (_, b) in zip(self.items(), other.items())
        )


# ---------------------------------------------------------------------------
# PFM


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data) and data[pos : pos + 1].isspace():
        pos += 1
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("unexpected end of header")
    return data[start:pos], pos


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM file into an (h, w) tensor."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        magic, pos = _next_token(data, 0)
    except FormatError:
        raise FormatError(f"{path}: empty or truncated PFM header") from None
    if magic == b"PF":
        raise FormatError(f"{path}: color PFM ('PF') is not supported")
    if magic != b"Pf":
        raise FormatError(f"{path}: bad PFM magic {magic!r}")
    try:
        wtok, pos = _next_token(data, pos)
        htok, pos = _next_token(data, pos)
        stok, pos = _next_token(data, pos)
        w, h = int(wtok), int(htok)
        scale = float(stok)
    except (FormatError, ValueError) as exc:
        raise FormatError(f"{path}: malformed PFM header: {exc}") from None
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: nonpositive PFM dimensions {w}x{h}")
    if scale == 0:
        raise FormatError(f"{path}: PFM scale must be nonzero")
    payload = data[pos + 1 :]  # exactly one whitespace byte after the scale
    expected = w * h * 4
    if len(payload) < expected:
        raise FormatError(
            f"{path}: truncated PFM payload, expected {expected} bytes, "
            f"got {len(payload)}"
        )
    if len(payload) > expected:
        raise FormatError(f"{path}: trailing bytes after PFM payload")
    dtype = "<f4" if scale < 0 else ">f4"
    rows = np.frombuffer(payload, dtype=dtype).reshape(h, w)
    arr = np.flipud(rows)  # stored bottom row first
    try:
        return tensor(arr)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_pfm(path, t: np.ndarray) -> None:
    """Write an (h, w) tensor as a little-endian grayscale PFM file."""
    t = tensor(t)
    if t.ndim != 2:
        raise ValueError(f"write_pfm expects an (h, w) tensor, got {t.shape}")
    h, w = t.shape
    with open(path, "wb") as f:
        f.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(np.ascontiguousarray(np.flipud(t), dtype="<f4").tobytes())


# ---------------------------------------------------------------------------
# PGM


def _pgm_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    # header tokens may be separated by whitespace and '#' comment lines
    tokens: list[int] = []
    pos = 0
    while len(tokens) < count:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("unexpected end of PGM header")
        tokens.append(int(data[start:pos]))
    return tokens, pos


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into an (h, w) tensor scaled to [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: bad PGM magic {data[:2]!r}")
    try:
        (w, h, maxval), pos = _pgm_tokens(data[2:], 3)
    except (FormatError, ValueError) as exc:
        raise FormatError(f"{path}: malformed PGM header: {exc}") from None
    pos += 2  # offset of the header slice
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: nonpositive PGM dimensions {w}x{h}")
    if maxval <= 0:
        raise FormatError(f"{path}: PGM maxval must be positive")
    if maxval > 65535:
        raise FormatError(f"{path}: PGM maxval {maxval} exceeds 65535")
    payload = data[pos + 1 :]  # single whitespace byte ends the header
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = w * h * dtype.itemsize
    if len(payload) != expected:
        raise FormatError(
            f"{path}: PGM payload holds {len(payload)} bytes, expected {expected}"
        )
    raw = np.frombuffer(payload, dtype=dtype).reshape(h, w)
    return raw.astype(np.float32) / np.float32(maxval)


def write_pgm(path, t: np.ndarray, maxval: int = 255) -> None:
    """Quantize an (h, w) tensor in [0, 1] and write it as a binary PGM."""
    t = tensor(t)
    if t.ndim != 2:
        raise ValueError(f"write_pgm expects an (h, w) tensor, got {t.shape}")
    if not 1 <= maxval <= 65535:
        raise ValueError("maxval must be in [1, 65535]")
    h, w = t.shape
    levels = np.rint(np.clip(t, 0.0, 1.0) * np.float32(maxval))
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        f.write(levels.astype(dtype).tobytes())


# ---------------------------------------------------------------------------
# Weight container


def write_weights(path, store: WeightStore) -> None:
    """Serialize a WeightStore into the CSTRW001 container layout."""
    blob = bytearray()
    blob += WEIGHT_MAGIC
    blob += struct.pack("<I", len(store))
    for name, value in store.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name[:32]}...")
        if value.ndim > 0xFF:
            raise ValueError("tensor rank exceeds container limit")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", value.ndim)
        for extent in value.shape:
            blob += struct.pack("<I", extent)
        blob += np.ascontiguousarray(value, dtype="<f4").tobytes()
    with open(path, "wb") as f:
        f.write(blob)


def read_weights(path) -> WeightStore:
    """Parse a CSTRW001 container; every structural defect is a FormatError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != WEIGHT_MAGIC:
        raise FormatError(f"{path}: bad weight magic {data[:8]!r}")
    if len(data) < 12:
        raise FormatError(f"{path}: truncated container header")
    (count,) = struct.unpack_from("<I", data, 8)
    pos = 12
    store = WeightStore()
    for idx in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name_bytes = data[pos : pos + name_len]
            if len(name_bytes) != name_len:
                raise struct.error("name overruns file")
            pos += name_len
            (rank,) = struct.unpack_from("<B", data, pos)
            pos += 1
            extents = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
        except struct.error as exc:
            raise FormatError(f"{path}: tensor {idx} header: {exc}") from None
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor {idx} name is not UTF-8") from None
        if not name:
            raise FormatError(f"{path}: tensor {idx} has an empty name")
        if name in store:
            raise FormatError(f"{path}: duplicate tensor name {name!r}")
        if any(e == 0 for e in extents):
            raise FormatError(f"{path}: tensor {name!r} has a zero extent")
        size = 4 * int(np.prod(extents, dtype=np.int64)) if rank else 4
        if pos + size > len(data):
            raise FormatError(
                f"{path}: tensor {name!r} payload overruns file "
                f"(need {size} bytes at offset {pos})"
            )
        values = np.frombuffer(data[pos : pos + size], dtype="<f4")
        pos += size
        try:
            store[name] = values.reshape(extents) if rank else values.reshape(())
        except ValueError as exc:
            raise FormatError(f"{path}: tensor {name!r}: {exc}") from None
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes after payload")
    return store


# ---------------------------------------------------------------------------
# Run configuration


_SCALE_VALUES = {
    "1/2": 0.5,
    "1/4": 0.25,
    "1/8": 0.125,
    "0.5": 0.5,
    "0.25": 0.25,
    "0.125": 0.125,
}

_STRATEGIES = ("M1", "M2", "M3")


@dataclass(frozen=True)
class RunConfig:
    """Pipeline hyperparameters with their documented defaults."""

    layers: int = 6
    channels: int = 128
    heads: int = 4
    mmp_scale: float = 0.25
    cep_strategy: str = "M3"
    cep_width_factor: int = 2
    sinkhorn_iters: int = 10
    sinkhorn_epsilon: float = 0.1
    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.0
    w4: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.channels < 1 or self.heads < 1:
            raise ConfigError("channels and heads must be >= 1")
        if self.channels % self.heads != 0:
            raise ConfigError(
                f"channels ({self.channels}) must be divisible by heads ({self.heads})"
            )
        if self.mmp_scale not in (0.5, 0.25, 0.125):
            raise ConfigError(f"mmp_scale must be 1/2, 1/4 or 1/8, got {self.mmp_scale}")
        if self.cep_strategy not in _STRATEGIES:
            raise ConfigError(f"cep_strategy must be one of {_STRATEGIES}")
        if self.cep_width_factor < 1:
            raise ConfigError("cep_width_factor must be >= 1")
        if self.sinkhorn_iters < 1:
            raise ConfigError("sinkhorn_iters must be >= 1")
        if not np.isfinite(self.sinkhorn_epsilon) or self.sinkhorn_epsilon <= 0:
            raise ConfigError("sinkhorn_epsilon must be a positive finite real")
        for key in ("w1", "w2", "w3", "w4"):
            if not np.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")

    @property
    def scale_denominator(self) -> int:
        return round(1.0 / self.mmp_scale)

    @property
    def head_channels(self) -> int:
        return self.channels // self.heads


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a real number, got {raw!r}") from None


def _parse_scale(key: str, raw: str) -> float:
    if raw not in _SCALE_VALUES:
        raise ConfigError(f"{key}: expected one of {sorted(_SCALE_VALUES)}, got {raw!r}")
    return _SCALE_VALUES[raw]


def _parse_strategy(key: str, raw: str) -> str:
    if raw not in _STRATEGIES:
        raise ConfigError(f"{key}: expected one of {_STRATEGIES}, got {raw!r}")
    return raw


_CONFIG_PARSERS = {
    "layers": _parse_int,
    "channels": _parse_int,
    "heads": _parse_int,
    "mmp_scale": _parse_scale,
    "cep_strategy": _parse_strategy,
    "cep_width_factor": _parse_int,
    "sinkhorn_iters": _parse_int,
    "sinkhorn_epsilon": _parse_float,
    "w1": _parse_float,
    "w2": _parse_float,
    "w3": _parse_float,
    "w4": _parse_float,
    "seed": _parse_int,
}


def parse_config(text: str) -> RunConfig:
    """Parse key=value configuration text; unspecified keys take defaults."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _CONFIG_PARSERS[key](key, raw)
    return RunConfig(**values)
