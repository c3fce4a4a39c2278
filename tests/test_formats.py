import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstr import (
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
from cstr import Rng

F32 = np.float32


# --- PFM ---


def test_pfm_round_trip_random(tmp_path):
    rng = Rng(1)
    t = (rng.generator.random((5, 7), dtype=F32) - 0.5) * 200
    path = tmp_path / "map.pfm"
    write_pfm(path, t)
    got = read_pfm(path)
    assert got.tobytes() == t.tobytes()


def test_pfm_known_transcript(tmp_path):
    # 2x2 little-endian file assembled by hand; bottom row is stored first
    payload = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
    path = tmp_path / "hand.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
    got = read_pfm(path)
    np.testing.assert_array_equal(got, [[3.0, 4.0], [1.0, 2.0]])


def test_pfm_big_endian_byte_swap(tmp_path):
    values = [1.5, -2.25, 1e-3, 1e4]
    payload = struct.pack(">4f", *values)
    path = tmp_path / "big.pfm"
    path.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
    got = read_pfm(path)
    np.testing.assert_array_equal(
        got, np.array(values, dtype=F32).reshape(2, 2)[::-1]
    )


def test_pfm_rejects_color(tmp_path):
    path = tmp_path / "color.pfm"
    path.write_bytes(b"PF\n1 1\n-1.0\n" + b"\x00" * 12)
    with pytest.raises(FormatError):
        read_pfm(path)


def test_pfm_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 15)
    with pytest.raises(FormatError):
        read_pfm(path)


def test_pfm_rejects_nonfinite(tmp_path):
    path = tmp_path / "inf.pfm"
    path.write_bytes(b"Pf\n1 1\n-1.0\n" + struct.pack("<f", np.inf))
    with pytest.raises(FormatError):
        read_pfm(path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_pfm_round_trip_fuzz(tmp_path_factory, seed, h, w):
    rng = Rng(seed)
    t = (rng.generator.random((h, w), dtype=F32) - 0.5) * 1e6
    path = tmp_path_factory.mktemp("pfm") / "x.pfm"
    write_pfm(path, t)
    assert read_pfm(path).tobytes() == t.tobytes()


# --- PGM ---


def test_pgm_all_zero(tmp_path):
    path = tmp_path / "zero.pgm"
    write_pgm(path, np.zeros((3, 4), dtype=F32))
    np.testing.assert_array_equal(read_pgm(path), np.zeros((3, 4), dtype=F32))


def test_pgm_endpoints_and_ramp(tmp_path):
    path = tmp_path / "ramp.pgm"
    levels = np.array([[0, 51, 102], [153, 204, 255]])
    t = levels.astype(F32) / F32(255)
    write_pgm(path, t)
    got = read_pgm(path)
    want = np.array([[0.0, 0.2, 0.4], [0.6, 0.8, 1.0]], dtype=F32)
    np.testing.assert_array_equal(got, want)
    assert got[1, 2] == 1.0


def test_pgm_sixteen_bit(tmp_path):
    path = tmp_path / "deep.pgm"
    payload = struct.pack(">4H", 0, 1000, 30000, 65535)
    path.write_bytes(b"P5\n2 2\n65535\n" + payload)
    got = read_pgm(path)
    np.testing.assert_array_equal(
        got, np.array([0, 1000, 30000, 65535], dtype=F32).reshape(2, 2) / F32(65535)
    )


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(FormatError):
        read_pgm(path)


def test_pgm_rejects_magic_without_whitespace(tmp_path):
    # "P52" is not the magic "P5" followed by a width of 2
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P52 2 255\n" + bytes(4))
    with pytest.raises(FormatError, match="bad PGM magic"):
        read_pgm(path)


def test_pgm_rejects_sample_above_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 255]))
    with pytest.raises(FormatError, match="exceeds maxval 100"):
        read_pgm(path)


def test_pgm_rejects_zero_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n1 1\n0\n\x00")
    with pytest.raises(FormatError):
        read_pgm(path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_pgm_round_trip_on_grid(tmp_path_factory, seed, h, w):
    rng = Rng(seed)
    levels = rng.generator.integers(0, 256, size=(h, w))
    t = levels.astype(F32) / F32(255)
    path = tmp_path_factory.mktemp("pgm") / "x.pgm"
    write_pgm(path, t)
    assert read_pgm(path).tobytes() == t.tobytes()


# --- weight container ---


def test_weights_empty_store_is_twelve_bytes(tmp_path):
    path = tmp_path / "empty.w"
    write_weights(path, WeightStore())
    data = path.read_bytes()
    assert len(data) == 12
    assert data[:8] == b"CSTRW001"
    assert read_weights(path) == WeightStore()


def test_weights_single_tensor_layout(tmp_path):
    path = tmp_path / "one.w"
    write_weights(path, WeightStore({"b": np.array([1.0, 2.0], dtype=F32)}))
    data = path.read_bytes()
    assert len(data) == 28  # 12 header + 2 + 1 + 1 + 4 + 8
    assert data[8:12] == struct.pack("<I", 1)
    assert data[12:14] == struct.pack("<H", 1)
    assert data[14:15] == b"b"
    assert data[15] == 1
    assert struct.unpack_from("<I", data, 16)[0] == 2
    np.testing.assert_array_equal(
        np.frombuffer(data[20:], dtype="<f4"), [1.0, 2.0]
    )


def test_weights_full_model_round_trip(tmp_path):
    from cstr import init_weights

    store = init_weights(RunConfig(layers=2, channels=8, heads=2), span=8, seed=3)
    path = tmp_path / "model.w"
    write_weights(path, store)
    again = read_weights(path)
    assert again == store


def test_weights_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.w"
    path.write_bytes(b"CSTRW002" + b"\x00" * 4)
    with pytest.raises(FormatError):
        read_weights(path)


def test_weights_rejects_overrun(tmp_path):
    path = tmp_path / "bad.w"
    blob = b"CSTRW001" + struct.pack("<I", 1)
    blob += struct.pack("<H", 1) + b"a" + struct.pack("<B", 1) + struct.pack("<I", 100)
    blob += b"\x00" * 8  # declares 400 payload bytes, supplies 8
    path.write_bytes(blob)
    with pytest.raises(FormatError):
        read_weights(path)


def test_weights_rejects_extents_whose_size_wraps_int64(tmp_path):
    # 4 * (3 << 30) * 0xFFFFFFFF wraps negative in int64 arithmetic
    path = tmp_path / "bad.w"
    blob = b"CSTRW001" + struct.pack("<I", 1)
    blob += struct.pack("<H", 1) + b"a" + struct.pack("<B", 2)
    blob += struct.pack("<2I", 3 << 30, 0xFFFFFFFF) + b"\x00" * 8
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="overruns"):
        read_weights(path)


def test_weights_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "bad.w"
    blob = b"CSTRW001" + struct.pack("<I", 1)
    blob += struct.pack("<H", 1) + b"a" + struct.pack("<B", 1) + struct.pack("<I", 1)
    path.write_bytes(blob + struct.pack("<f", float("nan")))
    with pytest.raises(FormatError, match="NaN"):
        read_weights(path)


def test_weights_are_read_only_views_of_one_buffer(tmp_path):
    from cstr import init_weights

    path = tmp_path / "model.w"
    write_weights(path, init_weights(RunConfig(layers=2, channels=8, heads=2), span=8))
    tensors = [t for _, t in read_weights(path).items()]
    assert not any(t.flags.writeable for t in tensors)
    base = tensors[0].base
    assert base is not None and all(t.base is base for t in tensors)


def test_weights_rejects_duplicate_names(tmp_path):
    path = tmp_path / "bad.w"
    one = struct.pack("<H", 1) + b"a" + struct.pack("<B", 1) + struct.pack("<I", 1)
    one += struct.pack("<f", 1.0)
    path.write_bytes(b"CSTRW001" + struct.pack("<I", 2) + one + one)
    with pytest.raises(FormatError):
        read_weights(path)


def test_weights_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "bad.w"
    path.write_bytes(b"CSTRW001" + struct.pack("<I", 0) + b"\x00")
    with pytest.raises(FormatError):
        read_weights(path)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_weights_round_trip_fuzz(tmp_path_factory, seed):
    rng = Rng(seed)
    store = WeightStore()
    for k in range(int(rng.generator.integers(0, 5))):
        rank = int(rng.generator.integers(1, 4))
        shape = tuple(int(rng.generator.integers(1, 5)) for _ in range(rank))
        store[f"tensor.{k}"] = rng.generator.standard_normal(shape).astype(F32)
    path = tmp_path_factory.mktemp("w") / "fuzz.w"
    write_weights(path, store)
    assert read_weights(path) == store


def test_reader_never_crashes_on_fuzzed_garbage(tmp_path):
    rng = Rng(99)
    path = tmp_path / "garbage"
    for _ in range(60):
        n = int(rng.generator.integers(0, 64))
        path.write_bytes(rng.generator.integers(0, 256, size=n).astype(np.uint8).tobytes())
        for reader in (read_pfm, read_pgm, read_weights):
            with pytest.raises(FormatError):
                reader(path)


# --- config ---


def test_config_defaults_from_empty_text():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert (cfg.layers, cfg.channels, cfg.heads) == (6, 128, 4)
    assert cfg.mmp_scale == 0.25
    assert cfg.sinkhorn_iters == 10
    assert cfg.cep_strategy == "M3"
    assert cfg.cep_width_factor == 2
    assert cfg.sinkhorn_epsilon == 0.1
    assert (cfg.w1, cfg.w2, cfg.w3, cfg.w4) == (1.0, 1.0, 1.0, 1.0)
    assert cfg.seed == 0


def test_config_divisibility_error():
    with pytest.raises(ConfigError):
        parse_config("heads=5\nchannels=128")


def test_config_single_override():
    cfg = parse_config("cep_strategy=M2")
    assert cfg.cep_strategy == "M2"
    assert cfg == RunConfig(cep_strategy="M2")


def test_config_comments_and_blank_lines():
    cfg = parse_config("# full line comment\n\nlayers=3  # inline\n")
    assert cfg.layers == 3


def test_config_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("depth=6")


def test_config_unparsable_value():
    with pytest.raises(ConfigError):
        parse_config("layers=six")
    with pytest.raises(ConfigError):
        parse_config("mmp_scale=1/3")
    with pytest.raises(ConfigError):
        parse_config("cep_strategy=M4")


def test_config_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config("layers=2\nlayers=3")


def test_config_scale_spellings():
    assert parse_config("mmp_scale=1/8").mmp_scale == 0.125
    assert parse_config("mmp_scale=0.5").mmp_scale == 0.5


# --- image pair and gray conversion ---


def test_image_pair_shape_mismatch():
    with pytest.raises(ValueError):
        ImagePair(np.zeros((1, 4, 4), dtype=F32), np.zeros((1, 4, 5), dtype=F32))


def test_image_pair_channel_check():
    with pytest.raises(ValueError):
        ImagePair(np.zeros((2, 4, 4), dtype=F32), np.zeros((2, 4, 4), dtype=F32))


def test_rgb_to_gray_luma_weights():
    img = np.zeros((3, 1, 1), dtype=F32)
    img[0] = 1.0
    assert abs(rgb_to_gray(img)[0, 0, 0] - 0.299) < 1e-6
    img = np.ones((3, 2, 2), dtype=F32)
    np.testing.assert_allclose(rgb_to_gray(img), np.ones((1, 2, 2)), atol=1e-6)
