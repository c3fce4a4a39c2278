import numpy as np
import pytest

from cstr import (
    ContextState,
    FusionWeights,
    PathWeights,
    Rng,
    cep_step,
    make_context_features,
    path_fusion,
    seeded_normal,
)
from cstr.selftest import random_attention_weights, random_path_weights

F32 = np.float32


def run_schedule(strategy: str, layers: int) -> list[bool]:
    rng = Rng(31)
    c, heads = 4, 2
    feat = seeded_normal(Rng(32), (c, 4, 8), 1.0)
    state = make_context_features(feat, feat, 1, strategy)
    flags = []
    for layer in range(layers):
        weights = random_path_weights(rng, c, heads, 8)
        state, payload = cep_step(state, layer, layers, weights, heads)
        flags.append(payload is not None)
    return flags


# --- context construction ---


def test_context_width_is_pooled_by_2k():
    feat = seeded_normal(Rng(1), (4, 3, 8), 1.0)
    state = make_context_features(feat, feat, 1)
    assert state.left_ctx.shape == (4, 3, 4)
    state = make_context_features(feat, feat, 2)
    assert state.left_ctx.shape == (4, 3, 2)


def test_context_of_constant_is_constant():
    feat = np.full((2, 3, 8), 1.25, dtype=F32)
    state = make_context_features(feat, feat, 2)
    assert (state.left_ctx == 1.25).all()


def test_context_collapses_to_single_column():
    feat = seeded_normal(Rng(2), (2, 3, 8), 1.0)
    state = make_context_features(feat, feat, 16)
    assert state.left_ctx.shape == (2, 3, 1)


def test_context_rejects_zero_factor():
    feat = np.zeros((2, 2, 4), dtype=F32)
    with pytest.raises(ValueError):
        make_context_features(feat, feat, 0)


# --- strategy schedules ---


def test_m1_emits_every_layer():
    assert run_schedule("M1", 6) == [True] * 6


def test_m2_emits_only_last_layer():
    assert run_schedule("M2", 6) == [False] * 5 + [True]


def test_m3_emits_every_layer():
    assert run_schedule("M3", 6) == [True] * 6


def test_single_layer_strategies_coincide_in_schedule():
    for strategy in ("M1", "M2", "M3"):
        assert run_schedule(strategy, 1) == [True]


def test_single_layer_strategies_coincide_in_value():
    c, heads = 4, 2
    feat_l = seeded_normal(Rng(33), (c, 2, 8), 1.0)
    feat_r = seeded_normal(Rng(34), (c, 2, 8), 1.0)
    weights = random_path_weights(Rng(35), c, heads, 8)
    payloads = {}
    for strategy in ("M1", "M2", "M3"):
        state = make_context_features(feat_l, feat_r, 1, strategy)
        _, payload = cep_step(state, 0, 1, weights, heads)
        payloads[strategy] = payload
    for strategy in ("M2", "M3"):
        np.testing.assert_array_equal(payloads["M1"][0], payloads[strategy][0])
        np.testing.assert_array_equal(payloads["M1"][1], payloads[strategy][1])


def test_m1_carries_pre_cross_state():
    # under M1 the carried state must not depend on the cross-attention
    # parameters, which only shape the payload
    c, heads = 4, 2
    feat = seeded_normal(Rng(36), (c, 2, 8), 1.0)
    base = random_path_weights(Rng(37), c, heads, 8)
    other_cross = random_attention_weights(Rng(38), c, heads, 8)
    variant = PathWeights(wax=base.wax, hax=base.hax, cross=other_cross)
    state = make_context_features(feat, feat, 1, "M1")
    next_a, payload_a = cep_step(state, 0, 6, base, heads)
    next_b, payload_b = cep_step(state, 0, 6, variant, heads)
    np.testing.assert_array_equal(next_a.left_ctx, next_b.left_ctx)
    assert not np.array_equal(payload_a[0], payload_b[0])


def test_m3_carries_the_payload():
    c, heads = 4, 2
    feat = seeded_normal(Rng(39), (c, 2, 8), 1.0)
    state = make_context_features(feat, feat, 1, "M3")
    weights = random_path_weights(Rng(40), c, heads, 8)
    next_state, payload = cep_step(state, 0, 6, weights, heads)
    np.testing.assert_array_equal(next_state.left_ctx, payload[0])
    np.testing.assert_array_equal(next_state.right_ctx, payload[1])


def test_cep_step_is_pure():
    c, heads = 4, 2
    feat = seeded_normal(Rng(41), (c, 2, 8), 1.0)
    weights = random_path_weights(Rng(42), c, heads, 8)
    state = make_context_features(feat, feat, 1, "M3")
    a = cep_step(state, 0, 6, weights, heads)
    b = cep_step(state, 0, 6, weights, heads)
    assert a[0].left_ctx.tobytes() == b[0].left_ctx.tobytes()
    assert a[1][0].tobytes() == b[1][0].tobytes()


def test_cep_step_rejects_out_of_range_layer():
    feat = np.zeros((4, 2, 4), dtype=F32)
    state = make_context_features(feat, feat, 1)
    with pytest.raises(ValueError):
        cep_step(state, 6, 6, random_path_weights(Rng(43), 4, 2, 8), 2)


def test_context_state_validates_strategy():
    feat = np.zeros((2, 2, 2), dtype=F32)
    with pytest.raises(ValueError):
        ContextState(feat, feat, "M4")


# --- path fusion ---


def fusion_weights(c: int, rng: Rng | None = None) -> FusionWeights:
    if rng is None:
        return FusionWeights(
            conv1_kernel=np.zeros((c, 2 * c, 3, 3), dtype=F32),
            conv1_bias=np.zeros(c, dtype=F32),
            conv2_kernel=np.zeros((c, c, 3, 3), dtype=F32),
            conv2_bias=np.zeros(c, dtype=F32),
        )
    return FusionWeights(
        conv1_kernel=seeded_normal(rng, (c, 2 * c, 3, 3), 0.1),
        conv1_bias=seeded_normal(rng, (c,), 0.1),
        conv2_kernel=seeded_normal(rng, (c, c, 3, 3), 0.1),
        conv2_bias=seeded_normal(rng, (c,), 0.1),
    )


def test_fusion_zero_second_conv_gives_zero():
    c = 4
    rng = Rng(50)
    w = fusion_weights(c, rng)
    w = FusionWeights(w.conv1_kernel, w.conv1_bias,
                      np.zeros_like(w.conv2_kernel), np.zeros_like(w.conv2_bias))
    mmp = seeded_normal(rng, (c, 4, 8), 1.0)
    ctx = seeded_normal(rng, (c, 4, 2), 1.0)
    out = path_fusion(mmp, ctx, w)
    np.testing.assert_array_equal(out, np.zeros((c, 4, 8), dtype=F32))


def test_fusion_identity_kernels_copy_mmp():
    c = 3
    conv1 = np.zeros((c, 2 * c, 3, 3), dtype=F32)
    for o in range(c):
        conv1[o, o, 1, 1] = 1.0  # pass matching channels, ignore context
    conv2 = np.zeros((c, c, 3, 3), dtype=F32)
    for o in range(c):
        conv2[o, o, 1, 1] = 1.0
    w = FusionWeights(conv1, np.zeros(c, dtype=F32), conv2, np.zeros(c, dtype=F32))
    mmp = Rng(51).generator.random((c, 4, 8), dtype=F32) + 0.5  # positive
    ctx = seeded_normal(Rng(52), (c, 4, 2), 1.0)
    out = path_fusion(mmp, ctx, w)
    np.testing.assert_array_equal(out, mmp)


def test_fusion_output_shape_matches_mmp():
    c = 128
    w = fusion_weights(c)
    mmp = np.zeros((c, 4, 8), dtype=F32)
    ctx = np.zeros((c, 4, 2), dtype=F32)
    assert path_fusion(mmp, ctx, w).shape == (c, 4, 8)


def test_fusion_single_column_context_broadcasts():
    c = 4
    w = fusion_weights(c, Rng(53))
    mmp = seeded_normal(Rng(54), (c, 3, 8), 1.0)
    ctx = seeded_normal(Rng(55), (c, 3, 1), 1.0)
    out = path_fusion(mmp, ctx, w)
    assert out.shape == mmp.shape
    assert np.isfinite(out).all()


def test_fusion_channel_mismatch():
    w = fusion_weights(4)
    with pytest.raises(ValueError):
        path_fusion(np.zeros((4, 2, 4), dtype=F32), np.zeros((2, 2, 2), dtype=F32), w)
