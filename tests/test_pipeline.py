import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cstr import (
    AttentionWeights,
    GtBundle,
    ImagePair,
    ModelDescription,
    Rng,
    RunConfig,
    ScoreMatrix,
    ScoreWeights,
    WeightStore,
    backbone_forward,
    cep_step,
    cross_attention,
    cross_scores,
    cstr_layer,
    epipolar_mask,
    forward,
    init_weights,
    pad_pair_to_multiple,
    path_fusion,
    read_weights,
    refine_full_res,
    rgb_to_gray,
    seeded_normal,
    weight_spec,
    write_weights,
)
import cstr.attention
import cstr.losses
import cstr.matching
import cstr.ndarray
import cstr.pipeline
from cstr.pipeline import DEFAULT_SPAN, _axial_half, _layout, _line_plans
from cstr.matching import regress_raw

F32 = np.float32

TINY = RunConfig(layers=2, channels=8, heads=2)


def seeded_model(seed=0, config=TINY, span=16):
    return ModelDescription(config, init_weights(config, span=span, seed=seed))


def seeded_pair(seed=0, shape=(1, 16, 32)):
    rng = Rng(seed)
    return ImagePair(
        rng.generator.random(shape, dtype=F32),
        rng.generator.random(shape, dtype=F32),
    )


# --- weight schema and validation ---


def test_weight_spec_default_config_counts():
    spec = weight_spec(RunConfig())
    layer_names = [n for n in spec if n.startswith("layer")]
    # layers x paths x sublayers x tensors, less the last layer's context
    # path and its mmp.cross.Wv/Wo, which forward never reads
    assert len(layer_names) == 6 * 2 * 3 * 5 - 3 * 5 - 2 == 163
    assert "backbone.conv1.kernel" in spec and "backbone.conv2.kernel" in spec
    assert "backbone.conv3.kernel" not in spec  # 1/4 scale needs two stages
    assert spec["layer0.mmp.wax.Wq"] == (128, 128)
    assert spec["layer0.mmp.wax.rel"] == (127, 32)
    assert spec["fusion4.conv1.kernel"] == (128, 256, 3, 3)
    assert not [n for n in spec if n.startswith("fusion5.")]
    # a change that brings back unread tensors fails here, not only in the
    # benchmark's peak memory
    assert len(spec) == 193
    assert sum(4 * int(np.prod(shape)) for shape in spec.values()) == 18_208_464


def test_weight_spec_m2_config_counts():
    # M2 emits context only at the last layer, so layers 0 .. 4 hold no
    # context cross pass (5 tensors) and no fusion block (4 tensors)
    spec = weight_spec(RunConfig(cep_strategy="M2"))
    assert len(spec) == 193 - 5 * (5 + 4) == 148
    assert not [n for n in spec if n.startswith("fusion") or ".cep.cross." in n]
    assert "layer4.cep.hax.rel" in spec
    assert sum(4 * int(np.prod(shape)) for shape in spec.values()) == 7_963_984


# sha256 of the kept tensors' bytes in weight_spec order, frozen from the
# store of the full layer layout before the last layer's unread tensors
# were dropped: dropping them moved none of the others. The M2 digest was
# frozen the same way before M2's non-emitting layers lost their context
# cross pass and fusion block.
KEPT_STORE_DIGESTS = {
    "default": (
        RunConfig(),
        DEFAULT_SPAN,
        "bbc87729c41ee02120ee4f96e914ff97bb2037bdfc208d4791ec6e2eafa8e4c3",
    ),
    "tiny": (TINY, 16, "948f5b168519f40cb5e7ef01745c51b10b852263cc798ee666cfaf35a5a57064"),
    "m2": (
        RunConfig(cep_strategy="M2"),
        DEFAULT_SPAN,
        "b6c55edfdf4f4202d9c6b72ec73e3188f7fae4a8dd6372687e2f129015f688ee",
    ),
}


@pytest.mark.parametrize("name", list(KEPT_STORE_DIGESTS))
def test_init_weights_keeps_the_bytes_of_every_kept_tensor(name):
    config, span, digest = KEPT_STORE_DIGESTS[name]
    store = init_weights(config, span=span, seed=0)
    names = list(weight_spec(config, span))
    assert list(store) == names
    assert hashlib.sha256(b"".join(store[n].tobytes() for n in names)).hexdigest() == digest


def test_weight_spec_scale_controls_backbone_depth():
    spec = weight_spec(RunConfig(mmp_scale=0.125))
    assert "backbone.conv3.kernel" in spec
    assert spec["backbone.conv1.kernel"] == (32, 1, 3, 3)
    assert spec["backbone.conv3.kernel"] == (128, 64, 3, 3)


def test_init_weights_deterministic():
    a = init_weights(TINY, span=8, seed=5)
    b = init_weights(TINY, span=8, seed=5)
    assert a == b
    c = init_weights(TINY, span=8, seed=6)
    assert not a == c


def test_validation_rejects_missing_tensor():
    store = init_weights(TINY, span=8)
    broken = WeightStore({k: v for k, v in store.items() if k != "layer1.mmp.hax.Wo"})
    with pytest.raises(ValueError, match="missing"):
        ModelDescription(TINY, broken)


def test_validation_rejects_renamed_tensor():
    store = init_weights(TINY, span=8)
    tensors = dict(store.items())
    tensors["layer0.mmp.wax.Qw"] = tensors.pop("layer0.mmp.wax.Wq")
    with pytest.raises(ValueError):
        ModelDescription(TINY, WeightStore(tensors))


def test_validation_rejects_misshaped_tensor():
    store = init_weights(TINY, span=8)
    tensors = dict(store.items())
    tensors["refine.conv2.bias"] = np.zeros(2, dtype=F32)
    with pytest.raises(ValueError, match="shape"):
        ModelDescription(TINY, WeightStore(tensors))


def full_layout_store(config, span):
    """A store in the layout before the last layer's unread tensors were
    dropped: every layer with its context path, fusion block and
    mmp.cross.Wv/Wo."""
    store = init_weights(config, span=span)
    layout = _layout(config, span, last_in_full=True)
    assert len(layout) == len(store) + 21
    return WeightStore(
        {n: store[n] if n in store else np.zeros(shape, F32) for n, shape in layout.items()}
    )


def test_validation_rejects_the_full_layout():
    with pytest.raises(ValueError, match=r"unexpected tensors: .*'(layer1\.cep\.|fusion1\.)"):
        ModelDescription(TINY, full_layout_store(TINY, 8))


def test_validation_rejects_an_m2_store_in_the_full_layout():
    # an M2 file from before its non-emitting layers lost their context cross
    # pass and fusion block, and an M3 file, both hold layer 0's; an M2 file
    # lacks what M3 reads
    config = dataclasses.replace(TINY, cep_strategy="M2")
    store = init_weights(config, span=8)
    layout = _layout(config, 8, last_in_full=True)
    assert len(layout) == len(store) + 21 + 9
    full = WeightStore(
        {n: store[n] if n in store else np.zeros(shape, F32) for n, shape in layout.items()}
    )
    first_dropped = r"\['layer0\.cep\.cross\.Wq'"
    with pytest.raises(ValueError, match="unexpected tensors: " + first_dropped):
        ModelDescription(config, full)
    with pytest.raises(ValueError, match="unexpected tensors: " + first_dropped):
        ModelDescription(config, init_weights(TINY, span=8))
    with pytest.raises(ValueError, match="missing tensors: " + first_dropped):
        ModelDescription(TINY, store)


def test_last_layer_computes_only_scores(tiny_model, tiny_pair):
    feat_l, feat_r, ctx = backbone_forward(tiny_pair, tiny_model)
    with pytest.raises(ValueError, match="last layer, which computes only scores"):
        cstr_layer(feat_l, feat_r, ctx, 1, tiny_model)
    scores_only = tiny_model.layers[1].mmp.cross
    assert isinstance(scores_only, ScoreWeights)
    with pytest.raises(ValueError, match="last layer, which computes only scores"):
        cross_attention(feat_l, feat_r, scores_only, TINY.heads)


def test_validation_rejects_extra_tensor():
    store = init_weights(TINY, span=8)
    tensors = dict(store.items())
    tensors["debug.scratch"] = np.zeros(3, dtype=F32)
    with pytest.raises(ValueError, match="unexpected"):
        ModelDescription(TINY, WeightStore(tensors))


def typed_arrays(value):
    """Every array of nested typed weights, in field order."""
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in typed_arrays(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [a for item in value for a in typed_arrays(item)]
    return [value]


@pytest.mark.parametrize(
    "config", [TINY, RunConfig(layers=1, channels=32, mmp_scale=0.125)], ids=["tiny", "eighth"]
)
def test_typed_weights_are_the_stores_arrays_in_naming_order(config):
    model = ModelDescription(config, init_weights(config, span=8))
    typed = typed_arrays((model.backbone, model.layers, model.refine))
    stored = [model.weights[name] for name in weight_spec(config, span=8)]
    assert len(typed) == len(stored)
    assert all(a is b for a, b in zip(typed, stored))
    assert model.span == 8


# --- backbone ---


def test_backbone_shapes_at_quarter_scale(tiny_pair):
    config = RunConfig(layers=1, channels=128, heads=4)
    model = ModelDescription(config, init_weights(config, span=16, seed=1))
    feat_l, feat_r, ctx = backbone_forward(tiny_pair, model)
    assert feat_l.shape == (128, 4, 8)
    assert feat_r.shape == (128, 4, 8)
    assert ctx.left_ctx.shape == (128, 4, 2)  # width pooled by 2K = 4


def test_backbone_weight_sharing_swaps_outputs():
    model = seeded_model(seed=2)
    pair = seeded_pair(seed=3)
    feat_l, feat_r, _ = backbone_forward(pair, model)
    swapped = ImagePair(pair.right, pair.left)
    sw_l, sw_r, _ = backbone_forward(swapped, model)
    np.testing.assert_array_equal(feat_l, sw_r)
    np.testing.assert_array_equal(feat_r, sw_l)


def test_backbone_zero_input_zero_biases_gives_zeros():
    model = seeded_model(seed=4)
    pair = ImagePair(np.zeros((1, 16, 32), dtype=F32), np.zeros((1, 16, 32), dtype=F32))
    feat_l, feat_r, ctx = backbone_forward(pair, model)
    assert (feat_l == 0).all() and (feat_r == 0).all()
    assert (ctx.left_ctx == 0).all()


def test_backbone_rejects_indivisible_extents(tiny_model):
    pair = ImagePair(np.zeros((1, 15, 32), dtype=F32), np.zeros((1, 15, 32), dtype=F32))
    with pytest.raises(ValueError, match="pad"):
        backbone_forward(pair, tiny_model)


def test_pad_pair_replicates_and_reports_original():
    pair = seeded_pair(shape=(1, 15, 30))
    padded, (h, w) = pad_pair_to_multiple(pair, 4)
    assert (h, w) == (15, 30)
    assert padded.shape == (1, 16, 32)
    np.testing.assert_array_equal(padded.left[:, :15, :30], pair.left)
    np.testing.assert_array_equal(padded.left[:, 15, :30], pair.left[:, 14, :])


# --- layer stack ---


def reference_scores(config, model, pair):
    """The matching scores: every layer but the last through cstr_layer,
    then the last layer's axial half and its cross_scores line by line."""
    feat_l, feat_r, ctx = backbone_forward(pair, model)
    last = config.layers - 1
    for layer in range(last):
        feat_l, feat_r, ctx = cstr_layer(feat_l, feat_r, ctx, layer, model)
    weights = model.layers[last].mmp
    left, right = _axial_half(feat_l, feat_r, weights, config.heads)
    mask = epipolar_mask(left.shape[2], right.shape[2])
    lines = [
        cross_scores(left[:, y : y + 1], right[:, y : y + 1], weights.cross, config.heads, mask)
        for y in range(left.shape[1])
    ]
    return ScoreMatrix(np.concatenate([line.logits for line in lines]))


@pytest.mark.parametrize("strategy, calls", [("M1", 4), ("M2", 0), ("M3", 4)])
def test_forward_path_fusion_calls(strategy, calls, monkeypatch):
    # layers 0 and 1 fuse both images under M1 and M3; the last layer computes
    # only scores, so M2, which emits only there, never fuses
    config = RunConfig(layers=3, channels=8, heads=2, cep_strategy=strategy)
    seen = []

    def counted(*args):
        seen.append(args)
        return path_fusion(*args)

    monkeypatch.setattr(cstr.pipeline, "path_fusion", counted)
    forward(seeded_pair(seed=6), seeded_model(seed=5, config=config))
    assert len(seen) == calls


@pytest.mark.parametrize("layers", [1, 2, 3, 4])
@pytest.mark.parametrize("strategy", ["M1", "M2", "M3"])
def test_fusion_weights_are_held_exactly_where_forward_fuses(strategy, layers, monkeypatch):
    # one schedule: the layers that fuse in forward, the layers that hold a
    # fusion block and a context cross pass, and the layers before the last
    # at which cep_step emits are the same
    config = RunConfig(layers=layers, channels=8, heads=2, cep_strategy=strategy)
    current, fused, emitted = [], set(), set()

    def layer_of(*args):
        current[:] = [args[3]]
        return cstr_layer(*args)

    def step(state, layer, *args):
        state, payload = cep_step(state, layer, *args)
        if payload is not None:
            emitted.add(layer)
        return state, payload

    def fusion(*args):
        fused.add(current[0])
        return path_fusion(*args)

    monkeypatch.setattr(cstr.pipeline, "cstr_layer", layer_of)
    monkeypatch.setattr(cstr.pipeline, "cep_step", step)
    monkeypatch.setattr(cstr.pipeline, "path_fusion", fusion)
    forward(seeded_pair(seed=7), seeded_model(seed=8, config=config))
    spec = weight_spec(config, span=16)
    for prefix in ("fusion{}.conv1.kernel", "layer{}.cep.cross.Wq"):
        assert fused == {i for i in range(layers) if prefix.format(i) in spec}
    assert fused == emitted
    want = set() if strategy == "M2" else set(range(layers - 1))
    assert fused == want


def test_final_scores_shape_and_mask():
    model = seeded_model(seed=9)
    pair = seeded_pair(seed=10)
    scores = reference_scores(TINY, model, pair)
    assert scores.logits.shape == (4, 8, 8)
    lower = np.tril_indices(8, k=-1)
    assert np.isneginf(scores.logits[:, lower[0], lower[1]]).all()
    upper_ok = np.isfinite(scores.logits[:, np.triu_indices(8)[0], np.triu_indices(8)[1]])
    assert upper_ok.all()


def test_identical_images_give_symmetric_prematch_logits():
    # with identical inputs, zero position tables, and tied query/key
    # projections, the matching logits form a symmetric bilinear form
    config = RunConfig(layers=1, channels=8, heads=2)
    store = init_weights(config, span=16, seed=11)
    tensors = dict(store.items())
    tensors["layer0.mmp.cross.Wk"] = tensors["layer0.mmp.cross.Wq"]
    tensors["layer0.mmp.cross.rel"] = np.zeros_like(tensors["layer0.mmp.cross.rel"])
    model = ModelDescription(config, WeightStore(tensors))
    img = Rng(12).generator.random((1, 16, 16), dtype=F32)
    pair = ImagePair(img, img.copy())
    feat_l, feat_r, ctx = backbone_forward(pair, model)
    from cstr.attention import pixel_norm
    from cstr import axial_attention_height, axial_attention_width

    heads = config.heads
    weights = model.layers[0].mmp
    stream = pixel_norm(axial_attention_width(feat_l, weights.wax, heads))
    stream = pixel_norm(axial_attention_height(stream, weights.hax, heads))
    logits = cross_scores(stream, stream, weights.cross, heads).logits
    np.testing.assert_allclose(logits, logits.transpose(0, 2, 1), atol=1e-5)


def test_layer_out_of_range_rejected(tiny_model, tiny_pair):
    feat_l, feat_r, ctx = backbone_forward(tiny_pair, tiny_model)
    with pytest.raises(ValueError):
        cstr_layer(feat_l, feat_r, ctx, 2, tiny_model)


def test_layer_count_one_runs():
    config = RunConfig(layers=1, channels=8, heads=2)
    model = ModelDescription(config, init_weights(config, span=16, seed=13))
    disp, occ, _ = forward(seeded_pair(seed=14), model)
    assert disp.values.shape == (16, 32)
    assert np.isfinite(disp.values).all()


def test_layer_count_zero_rejected():
    from cstr import ConfigError

    with pytest.raises(ConfigError):
        RunConfig(layers=0)


# --- forward ---


def test_forward_outputs_in_range(tiny_model, tiny_pair):
    disp, occ, breakdown = forward(tiny_pair, tiny_model)
    assert disp.values.shape == (16, 32)
    assert occ.probs.shape == (16, 32)
    assert np.isfinite(disp.values).all()
    assert disp.values.min() >= 0 and disp.values.max() < 32
    assert occ.probs.min() >= 0 and occ.probs.max() <= 1
    assert breakdown is None


def test_forward_bit_identical_across_runs(tiny_model, tiny_pair):
    a = forward(tiny_pair, tiny_model)
    b = forward(tiny_pair, tiny_model)
    assert a[0].values.tobytes() == b[0].values.tobytes()
    assert a[1].probs.tobytes() == b[1].probs.tobytes()


def test_forward_thread_pool_matches_sequential(tiny_model, tiny_pair):
    from concurrent.futures import ThreadPoolExecutor

    base = forward(tiny_pair, tiny_model)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: forward(tiny_pair, tiny_model), range(4)))
    for disp, occ, _ in results:
        assert disp.values.tobytes() == base[0].values.tobytes()
        assert occ.probs.tobytes() == base[1].probs.tobytes()


def test_forward_pads_and_crops_awkward_sizes(tiny_model):
    pair = seeded_pair(seed=15, shape=(1, 15, 30))
    disp, occ, _ = forward(pair, tiny_model)
    assert disp.values.shape == (15, 30)
    assert occ.probs.shape == (15, 30)
    assert disp.values.max() < 30


def test_identical_images_self_match_below_one_pixel():
    config = RunConfig(layers=2, channels=8, heads=2)
    model = ModelDescription(config, init_weights(config, span=16, seed=1))
    img = Rng(7).generator.random((1, 16, 32), dtype=F32)
    pair = ImagePair(img, img.copy())
    plans = _line_plans(reference_scores(config, model, pair), config)
    raw_disp, _ = regress_raw(plans, scale=config.mmp_scale)
    assert float(np.median(raw_disp.values)) < 1.0


def test_forward_with_ground_truth_returns_breakdown(tiny_model, tiny_pair):
    rng = Rng(16)
    gt_disp = rng.generator.random((16, 32), dtype=F32) * 3
    gt_occ = rng.generator.random((16, 32)) < 0.2
    disp, occ, breakdown = forward(tiny_pair, tiny_model, GtBundle(gt_disp, gt_occ))
    assert breakdown is not None
    parts = (breakdown.rr_raw, breakdown.d1_raw, breakdown.d1_final, breakdown.be_final)
    assert all(np.isfinite(p) and p >= 0 for p in parts)
    assert breakdown.total == sum(parts)  # unit default weights


def test_mask_regression_and_loss_share_one_stereo_convention(
    tiny_model, tiny_pair, monkeypatch
):
    # every reader of x_R = x_L - d calls the one helper; a reader that
    # writes its own copy drops out of the set
    callers = set()
    convention = cstr.matching._epipolar

    def traced(*args):
        callers.add(sys._getframe(1).f_code.co_name)
        return convention(*args)

    for module in (cstr.matching, cstr.losses, cstr.pipeline):
        monkeypatch.setattr(module, "_epipolar", traced)
    gt = GtBundle(np.zeros((16, 32), dtype=F32), np.zeros((16, 32), dtype=bool))
    forward(tiny_pair, tiny_model, gt)
    assert callers == {
        "epipolar_mask",
        "regress_raw",
        "relative_response_loss",
        "_loss_breakdown",
    }


def test_forward_loss_respects_weights(tiny_pair):
    config = RunConfig(layers=2, channels=8, heads=2, w1=0.0, w2=0.0, w3=1.0, w4=0.0)
    model = ModelDescription(config, init_weights(config, span=16, seed=0))
    rng = Rng(17)
    gt_disp = rng.generator.random((16, 32), dtype=F32) * 3
    gt_occ = np.zeros((16, 32), dtype=bool)
    _, _, breakdown = forward(tiny_pair, model, GtBundle(gt_disp, gt_occ))
    assert breakdown.total == breakdown.d1_final


def test_forward_gt_shape_mismatch_rejected(tiny_model, tiny_pair):
    gt = GtBundle(np.zeros((8, 8), dtype=F32), np.zeros((8, 8)))
    with pytest.raises(ValueError):
        forward(tiny_pair, tiny_model, gt)


def test_forward_rejects_indivisible_gt_before_any_compute(tiny_model, monkeypatch):
    ran = []

    def backbone(*args):
        ran.append(True)
        return backbone_forward(*args)

    monkeypatch.setattr(cstr.pipeline, "backbone_forward", backbone)
    gt = GtBundle(np.zeros((15, 30), dtype=F32), np.zeros((15, 30)))
    with pytest.raises(ValueError, match="divisible"):
        forward(seeded_pair(shape=(1, 15, 30)), tiny_model, gt)
    assert ran == []


def test_forward_rgb_pair_equals_its_luma_pair(tiny_model):
    pair = seeded_pair(seed=18, shape=(3, 16, 32))
    gray = ImagePair(rgb_to_gray(pair.left), rgb_to_gray(pair.right))
    disp, occ, _ = forward(pair, tiny_model)
    want_disp, want_occ, _ = forward(gray, tiny_model)
    assert disp.values.tobytes() == want_disp.values.tobytes()
    assert occ.probs.tobytes() == want_occ.probs.tobytes()


GOLDEN_FORWARD = "7668d55d42cf8dda0b577700355de284c4bdcbb8fce89e3cff73cf0b9081407a"


def test_forward_golden_transcript(tiny_model, tiny_pair):
    disp, occ, _ = forward(tiny_pair, tiny_model)
    digest = hashlib.sha256(disp.values.tobytes() + occ.probs.tobytes()).hexdigest()
    assert digest == GOLDEN_FORWARD


def forward_in_fresh_process(config, span, shape, prints, setup="", threads=None):
    """Words printed by a fresh Python process that runs ``setup``, then
    forward on seed-0 weights of ``span`` for ``config`` (source text) and a
    seed-0 random pair of ``shape``, then ``prints``, in which ``sha``
    hashes bytes. ``threads`` pins the BLAS pool size."""
    script = setup + (
        "import hashlib, os, numpy as np\n"
        "from cstr import ImagePair, ModelDescription, Rng, RunConfig, init_weights, forward\n"
        "from cstr import ndarray\n"
        f"config = {config}\n"
        f"model = ModelDescription(config, init_weights(config, span={span}, seed=0))\n"
        "rng = Rng(0)\n"
        f"pair = ImagePair(rng.generator.random({shape}, dtype=np.float32),\n"
        f"                 rng.generator.random({shape}, dtype=np.float32))\n"
        "disp, occ, _ = forward(pair, model)\n"
        "def sha(data): return hashlib.sha256(data).hexdigest()\n"
    ) + prints
    env = dict(os.environ)
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_forward_single_thread_process_reproduces_golden():
    # pin the BLAS pool to one thread in a fresh process; the transcript
    # hash must not move
    words = forward_in_fresh_process(
        "RunConfig(layers=2, channels=8, heads=2)",
        16,
        (1, 16, 32),
        "print(sha(disp.values.tobytes() + occ.probs.tobytes()))\n",
        threads="1",
    )
    assert words == [GOLDEN_FORWARD]


def test_default_forward_bytes_independent_of_blas_threads():
    # default config on a 128x256 pair: the same bytes with 1 and 2 BLAS threads
    prints = "print(sha(disp.values.tobytes()))\nprint(sha(occ.probs.tobytes()))\n"
    digests = [
        forward_in_fresh_process("RunConfig()", DEFAULT_SPAN, (1, 128, 256), prints, threads=threads)
        for threads in ("1", "2")
    ]
    assert digests[0] == digests[1]


# Shapes whose stages run on two threads, as (config, span, pair seed, pair
# shape). The first two were frozen before the per-image tasks replaced the
# per-call split: the default M3 config on a 128x256 pair, and M1 with 3
# layers on a 68x132 pair that forward pads to 72x136. The third, M2 with
# span 128 on a 64x512 pair, runs 128-token lines; it was frozen before the
# projections became one 2-D GEMM per piece.
THREADED_SHAPES = {
    "default_m3": (RunConfig(), DEFAULT_SPAN, 0, (1, 128, 256)),
    "m1_padded": (RunConfig(layers=3, cep_strategy="M1"), DEFAULT_SPAN, 7, (1, 68, 132)),
    "wide_m2": (RunConfig(cep_strategy="M2"), 128, 5, (1, 64, 512)),
}
THREADED_DIGESTS = {
    "default_m3": "7c7c692bd422ebd1bc17d861ff1c266489aec771c86bb041d6a4ca975aa4fb16",
    "m1_padded": "48762553296992a68ec8408a668ae482ea6fa9873ee01164ccb6da6f09debb9a",
    "wide_m2": "c80ea307835a73f9d53b19073fcebeda4cd358d1a5b8555ab5230a6a945d0e2f",
}


@pytest.mark.parametrize("name", list(THREADED_SHAPES))
def test_threaded_shape_forward_digest(name):
    config, span, seed, shape = THREADED_SHAPES[name]
    model = ModelDescription(config, init_weights(config, span=span, seed=0))
    disp, occ, _ = forward(seeded_pair(seed=seed, shape=shape), model)
    digest = hashlib.sha256(disp.values.tobytes() + occ.probs.tobytes()).hexdigest()
    assert digest == THREADED_DIGESTS[name]


def test_one_cpu_process_reproduces_the_default_digest():
    # a fresh process allowed one CPU before cstr loads starts no helper
    # thread and gives the frozen default digest
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity call on this platform")
    words = forward_in_fresh_process(
        "RunConfig()",
        DEFAULT_SPAN,
        (1, 128, 256),
        "print(sha(disp.values.tobytes() + occ.probs.tobytes()))\n"
        "print(len(os.sched_getaffinity(0)), ndarray._helper is None)\n",
        setup="import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n",
    )
    assert words == [THREADED_DIGESTS["default_m3"], "1", "True"]


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("strategy", ["M1", "M2", "M3"])
def test_forward_bytes_independent_of_the_image_tasks(two_way, strategy, layers):
    # threshold 0, so every stage of these tiny shapes runs as two tasks; the
    # 18x34 pair is padded to 20x36
    config = RunConfig(layers=layers, channels=8, heads=2, cep_strategy=strategy)
    model = seeded_model(seed=70 + layers, config=config)
    pair = seeded_pair(seed=71, shape=(1, 18, 34))
    outputs = []
    for on in (False, True):
        runs = two_way(on)
        disp, occ, _ = forward(pair, model)
        outputs.append(disp.values.tobytes() + occ.probs.tobytes())
        assert bool(runs) == on
    assert outputs[0] == outputs[1]


def test_default_forward_bytes_independent_of_the_two_way_split(two_way):
    config = RunConfig()
    model = ModelDescription(config, init_weights(config, seed=0))
    pair = seeded_pair(shape=(1, 128, 256))
    digests = []
    for on in (False, True):
        runs = two_way(on)
        disp, occ, _ = forward(pair, model)
        digests.append(disp.values.tobytes() + occ.probs.tobytes())
        assert bool(runs) == on
    assert digests[0] == digests[1]


def test_rgb_forward_converts_each_image_to_luma_once(tiny_model, monkeypatch):
    calls = []
    luma = cstr.pipeline.rgb_to_gray

    def counted(image):
        calls.append(image.shape)
        return luma(image)

    monkeypatch.setattr(cstr.pipeline, "rgb_to_gray", counted)
    forward(seeded_pair(seed=18, shape=(3, 16, 32)), tiny_model)
    assert calls == [(3, 16, 32)] * 2


def test_default_forward_peak_memory():
    # default config on a 128x256 pair; conv2d's banded im2col keeps the
    # traced peak well below the 33 MiB of full-image columns
    config = RunConfig()
    model = ModelDescription(config, init_weights(config, seed=0))
    rng = Rng(0)
    pair = ImagePair(
        rng.generator.random((1, 128, 256), dtype=F32),
        rng.generator.random((1, 128, 256), dtype=F32),
    )
    tracemalloc.start()
    try:
        forward(pair, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26 * 2**20


# --- lean last layer ---


def full_layers_reference(pair, model):
    """forward from reference parts: the scores of reference_scores, then the
    unchanged matching head and the clip."""
    config = model.config
    scores = reference_scores(config, model, pair)
    raw_disp, raw_occ = regress_raw(_line_plans(scores, config), scale=config.mmp_scale)
    disp, occ = refine_full_res(raw_disp, raw_occ, pair.left, model.refine)
    w = pair.shape[2]
    return np.clip(disp.values, F32(0), F32(w - 1)), occ.probs


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("strategy", ["M1", "M2", "M3"])
def test_forward_bytes_equal_full_last_layer_reference(strategy, layers):
    config = RunConfig(layers=layers, channels=8, heads=2, cep_strategy=strategy)
    model = seeded_model(seed=40 + layers, config=config)
    pair = seeded_pair(seed=50 + layers)
    want_disp, want_occ = full_layers_reference(pair, model)
    disp, occ, _ = forward(pair, model)
    assert disp.values.tobytes() == want_disp.tobytes()
    assert occ.probs.tobytes() == want_occ.tobytes()


# The weight files hold only what forward reads, so under M1 and M3 every
# tensor moves the output. M2 emits its only context payload at the last
# layer, which computes only scores, and its files hold no context cross
# pass or fusion block before it. The context axial tensors of layers
# 0 .. L-2 (20 here) still feed only the state carried to that layer, so
# they are dead; which M2 is meant is open (ROADMAP item 1).
DEAD_TENSORS = {
    "M1": set(),
    "M2": {
        f"layer{i}.cep.{sub}.{t}"
        for i in (0, 1)
        for sub in ("wax", "hax")
        for t in ("Wq", "Wk", "Wv", "Wo", "rel")
    },
    "M3": set(),
}


@pytest.mark.parametrize("strategy", ["M1", "M2", "M3"])
def test_every_tensor_outside_the_dead_set_moves_the_output(strategy):
    # seeded noise, not scaling: biases are zero at init
    config = RunConfig(layers=3, channels=8, heads=2, cep_strategy=strategy)
    store = init_weights(config, span=16, seed=60)
    pair = seeded_pair(seed=61)

    def output_bytes(tensors):
        disp, occ, _ = forward(pair, ModelDescription(config, WeightStore(tensors)))
        return disp.values.tobytes() + occ.probs.tobytes()

    tensors = dict(store.items())
    base = output_bytes(tensors)
    rng = Rng(62)
    dead = set()
    for name, value in store.items():
        noisy = dict(tensors)
        noisy[name] = value + seeded_normal(rng, value.shape, 0.1)
        if output_bytes(noisy) == base:
            dead.add(name)
    assert len(tensors) == (73 if strategy == "M2" else 91)
    assert dead == DEAD_TENSORS[strategy]


# --- package surface ---


def test_package_reexports_only_names_in_their_modules_all():
    # a name deleted from its module's __all__ cannot linger in the package
    import ast
    import importlib
    import inspect

    tree = ast.parse(inspect.getsource(cstr))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cstr.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"cstr.{node.module}.{alias.name}"


# --- what a forward builds once per weight object and extents ---


def attention_weights_of(model):
    # every attention weight object of a resolved model, in a fixed order
    paths = [p for layer in model.layers for p in (layer.mmp, getattr(layer, "cep", None)) if p]
    return [w for p in paths for w in (p.wax, p.hax, p.cross) if w is not None]


def kept_operands(model):
    return {
        (i, key): ops
        for i, w in enumerate(attention_weights_of(model))
        for key, ops in w._operands.items()
    }


@pytest.mark.parametrize("source", ["init_weights", "read_weights"])
def test_resolved_attention_tensors_are_read_only(tmp_path, source):
    # the kept position operands are built from these tensors
    store = init_weights(TINY, span=16, seed=0)
    if source == "read_weights":
        write_weights(tmp_path / "tiny.bin", store)
        store = read_weights(tmp_path / "tiny.bin")
    model = ModelDescription(TINY, store)
    assert len(attention_weights_of(model)) == 9
    names = [n for n in store if n.startswith("layer")]
    assert len(names) == 43
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            store[name][0, 0] = 1


def test_first_forward_of_a_fresh_model_under_two_tasks_gives_the_serial_bytes(two_way):
    # every stage hands its second task to the helper, so both image tasks
    # fill the fresh model's empty operand entries at once
    pair = seeded_pair(seed=80)
    two_way(False)
    disp, occ, _ = forward(pair, seeded_model(seed=81))
    want = disp.values.tobytes() + occ.probs.tobytes()
    cstr.ndarray._linear_coords.cache_clear()
    cstr.matching._log_masses.cache_clear()
    model = seeded_model(seed=81)
    runs = two_way(True)
    disp, occ, _ = forward(pair, model)
    assert runs and kept_operands(model)
    assert disp.values.tobytes() + occ.probs.tobytes() == want


def test_a_forward_builds_only_what_no_earlier_forward_built(monkeypatch):
    # position operands, upsample coordinates and Sinkhorn marginals depend on
    # the weights and extents alone. An lru_cache holds its own reference to
    # the function it wraps, so its misses count the builds of the last two.
    built, asked = [], {"coords": [], "masses": []}

    def counted(build, log):
        def wrapper(*args):
            log.append(args)
            return build(*args)
        return wrapper

    coords, masses = cstr.ndarray._linear_coords, cstr.matching._log_masses
    coords.cache_clear()
    masses.cache_clear()
    monkeypatch.setattr(cstr.attention, "_position_operand", counted(
        cstr.attention._position_operand, built))
    monkeypatch.setattr(cstr.ndarray, "_linear_coords", counted(coords, asked["coords"]))
    monkeypatch.setattr(cstr.matching, "_log_masses", counted(masses, asked["masses"]))

    def builds():
        return len(built), coords.cache_info().misses, masses.cache_info().misses

    model = seeded_model(seed=82)
    forward(seeded_pair(seed=83), model)
    first, kept = builds(), kept_operands(model)
    assert min(first) > 0 and kept
    forward(seeded_pair(seed=84), model)
    assert builds() == first
    assert kept_operands(model).keys() == kept.keys()

    seen = {name: set(log) for name, log in asked.items()}
    forward(seeded_pair(seed=85, shape=(1, 16, 48)), model)
    grown = kept_operands(model)
    new = grown.keys() - kept.keys()
    assert new and all(grown[key] is ops for key, ops in kept.items())
    new_coords = set(asked["coords"]) - seen["coords"]
    new_masses = set(asked["masses"]) - seen["masses"]
    assert new_coords and new_masses
    assert builds() == (
        first[0] + sum(2 * len(grown[key]) for key in new),
        first[1] + len(new_coords),
        first[2] + len(new_masses),
    )
    # what the caches hand every caller is read-only
    for cache, log in ((coords, asked["coords"]), (masses, asked["masses"])):
        assert not any(a.flags.writeable for args in set(log) for a in cache(*args))
