import hashlib
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
    WeightStore,
    backbone_forward,
    cstr_layer,
    epipolar_mask,
    forward,
    init_weights,
    pad_pair_to_multiple,
    refine_full_res,
    relative_logits,
    seeded_normal,
    weight_spec,
)
from cstr.pipeline import _axial_half, _line_plans
from cstr.matching import regress_raw
from cstr.selftest import per_line_cross_scores

F32 = np.float32

TINY = RunConfig(layers=2, channels=8, heads=2)


def tiny_model(seed=0, config=TINY, span=16):
    return ModelDescription(config, init_weights(config, span=span, seed=seed))


def random_pair(seed=0, shape=(1, 16, 32)):
    rng = Rng(seed)
    return ImagePair(
        rng.generator.random(shape, dtype=F32),
        rng.generator.random(shape, dtype=F32),
    )


# --- weight schema and validation ---


def test_weight_spec_default_config_counts():
    spec = weight_spec(RunConfig())
    layer_names = [n for n in spec if n.startswith("layer")]
    assert len(layer_names) == 6 * 2 * 3 * 5  # layers x paths x sublayers x tensors
    assert "backbone.conv1.kernel" in spec and "backbone.conv2.kernel" in spec
    assert "backbone.conv3.kernel" not in spec  # 1/4 scale needs two stages
    assert spec["layer0.mmp.wax.Wq"] == (128, 128)
    assert spec["layer0.mmp.wax.rel"] == (127, 32)
    assert spec["fusion5.conv1.kernel"] == (128, 256, 3, 3)


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


def test_validation_rejects_extra_tensor():
    store = init_weights(TINY, span=8)
    tensors = dict(store.items())
    tensors["debug.scratch"] = np.zeros(3, dtype=F32)
    with pytest.raises(ValueError, match="unexpected"):
        ModelDescription(TINY, WeightStore(tensors))


# --- backbone ---


def test_backbone_shapes_at_quarter_scale():
    config = RunConfig(layers=1, channels=128, heads=4)
    model = ModelDescription(config, init_weights(config, span=16, seed=1))
    pair = random_pair(shape=(1, 16, 32))
    feat_l, feat_r, ctx = backbone_forward(pair, model)
    assert feat_l.shape == (128, 4, 8)
    assert feat_r.shape == (128, 4, 8)
    assert ctx.left_ctx.shape == (128, 4, 2)  # width pooled by 2K = 4


def test_backbone_weight_sharing_swaps_outputs():
    model = tiny_model(seed=2)
    pair = random_pair(seed=3)
    feat_l, feat_r, _ = backbone_forward(pair, model)
    swapped = ImagePair(pair.right, pair.left)
    sw_l, sw_r, _ = backbone_forward(swapped, model)
    np.testing.assert_array_equal(feat_l, sw_r)
    np.testing.assert_array_equal(feat_r, sw_l)


def test_backbone_zero_input_zero_biases_gives_zeros():
    model = tiny_model(seed=4)
    pair = ImagePair(np.zeros((1, 16, 32), dtype=F32), np.zeros((1, 16, 32), dtype=F32))
    feat_l, feat_r, ctx = backbone_forward(pair, model)
    assert (feat_l == 0).all() and (feat_r == 0).all()
    assert (ctx.left_ctx == 0).all()


def test_backbone_rejects_indivisible_extents():
    model = tiny_model()
    pair = ImagePair(np.zeros((1, 15, 32), dtype=F32), np.zeros((1, 15, 32), dtype=F32))
    with pytest.raises(ValueError, match="pad"):
        backbone_forward(pair, model)


def test_pad_pair_replicates_and_reports_original():
    pair = random_pair(shape=(1, 15, 30))
    padded, (h, w) = pad_pair_to_multiple(pair, 4)
    assert (h, w) == (15, 30)
    assert padded.shape == (1, 16, 32)
    np.testing.assert_array_equal(padded.left[:, :15, :30], pair.left)
    np.testing.assert_array_equal(padded.left[:, 15, :30], pair.left[:, 14, :])


# --- layer stack ---


def reference_scores(config, model, pair):
    """The matching scores: every layer but the last through cstr_layer,
    then the last layer's axial half and the per-line reference score sum."""
    feat_l, feat_r, ctx = backbone_forward(pair, model)
    last = config.layers - 1
    for layer in range(last):
        feat_l, feat_r, ctx = cstr_layer(feat_l, feat_r, ctx, layer, config, model)
    left, right = _axial_half(feat_l, feat_r, last, config.heads, model)
    mask = epipolar_mask(left.shape[2], right.shape[2])
    cross = model.attn(f"layer{last}.mmp.cross")
    return ScoreMatrix(per_line_cross_scores(left, right, cross, config.heads, mask))


def test_m2_fuses_only_at_last_layer():
    # payload presence is what gates fusion; M2 emits only at the last layer
    from cstr import cep_step

    config = RunConfig(layers=6, channels=8, heads=2, cep_strategy="M2")
    model = ModelDescription(config, init_weights(config, span=16, seed=5))
    pair = random_pair(seed=6)
    state = backbone_forward(pair, model)[2]
    flags = []
    for layer in range(config.layers):
        state, payload = cep_step(state, layer, config.layers, model.cep_weights(layer), 2)
        flags.append(payload is not None)
    assert flags == [False] * 5 + [True]


def test_m3_fuses_every_layer():
    config = RunConfig(layers=3, channels=8, heads=2, cep_strategy="M3")
    model = ModelDescription(config, init_weights(config, span=16, seed=7))
    pair = random_pair(seed=8)
    from cstr import cep_step

    state = backbone_forward(pair, model)[2]
    flags = []
    for layer in range(config.layers):
        state, payload = cep_step(state, layer, config.layers, model.cep_weights(layer), 2)
        flags.append(payload is not None)
    assert flags == [True] * 3


def test_final_scores_shape_and_mask():
    model = tiny_model(seed=9)
    pair = random_pair(seed=10)
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
    wax = model.attn("layer0.mmp.wax")
    hax = model.attn("layer0.mmp.hax")
    cross = model.attn("layer0.mmp.cross")
    stream = pixel_norm(axial_attention_width(feat_l, wax, heads))
    stream = pixel_norm(axial_attention_height(stream, hax, heads))
    line = stream[:, 0, :].T
    for head in range(heads):
        logits = relative_logits(line, cross, head)
        np.testing.assert_allclose(logits, logits.T, atol=1e-5)


def test_layer_out_of_range_rejected():
    model = tiny_model()
    pair = random_pair()
    feat_l, feat_r, ctx = backbone_forward(pair, model)
    with pytest.raises(ValueError):
        cstr_layer(feat_l, feat_r, ctx, 2, TINY, model)


def test_layer_count_one_runs():
    config = RunConfig(layers=1, channels=8, heads=2)
    model = ModelDescription(config, init_weights(config, span=16, seed=13))
    disp, occ, _ = forward(random_pair(seed=14), model)
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
    pair = random_pair(seed=15, shape=(1, 15, 30))
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


GOLDEN_FORWARD = "7668d55d42cf8dda0b577700355de284c4bdcbb8fce89e3cff73cf0b9081407a"


def test_forward_golden_transcript(tiny_model, tiny_pair):
    disp, occ, _ = forward(tiny_pair, tiny_model)
    digest = hashlib.sha256(disp.values.tobytes() + occ.probs.tobytes()).hexdigest()
    assert digest == GOLDEN_FORWARD


def test_forward_single_thread_process_reproduces_golden():
    # pin the BLAS pool to one thread in a fresh process; the transcript
    # hash must not move
    import os
    import subprocess
    import sys

    script = (
        "import hashlib, numpy as np\n"
        "from cstr import ImagePair, ModelDescription, Rng, RunConfig, init_weights, forward\n"
        "config = RunConfig(layers=2, channels=8, heads=2)\n"
        "model = ModelDescription(config, init_weights(config, span=16, seed=0))\n"
        "rng = Rng(0)\n"
        "pair = ImagePair(rng.generator.random((1, 16, 32), dtype=np.float32),\n"
        "                 rng.generator.random((1, 16, 32), dtype=np.float32))\n"
        "disp, occ, _ = forward(pair, model)\n"
        "print(hashlib.sha256(disp.values.tobytes() + occ.probs.tobytes()).hexdigest())\n"
    )
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == GOLDEN_FORWARD


def test_default_forward_bytes_independent_of_blas_threads():
    # default config on a 128x256 pair: the same bytes with 1 and 2 BLAS threads
    import os
    import subprocess
    import sys

    script = (
        "import hashlib, numpy as np\n"
        "from cstr import ImagePair, ModelDescription, Rng, RunConfig, init_weights, forward\n"
        "config = RunConfig()\n"
        "model = ModelDescription(config, init_weights(config, seed=0))\n"
        "rng = Rng(0)\n"
        "pair = ImagePair(rng.generator.random((1, 128, 256), dtype=np.float32),\n"
        "                 rng.generator.random((1, 128, 256), dtype=np.float32))\n"
        "disp, occ, _ = forward(pair, model)\n"
        "print(hashlib.sha256(disp.values.tobytes()).hexdigest())\n"
        "print(hashlib.sha256(occ.probs.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1]


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
    disp, occ = refine_full_res(raw_disp, raw_occ, pair.left, model.refine_weights())
    w = pair.shape[2]
    return np.clip(disp.values, F32(0), F32(w - 1)), occ.probs


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("strategy", ["M1", "M2", "M3"])
def test_forward_bytes_equal_full_last_layer_reference(strategy, layers):
    config = RunConfig(layers=layers, channels=8, heads=2, cep_strategy=strategy)
    model = tiny_model(seed=40 + layers, config=config)
    pair = random_pair(seed=50 + layers)
    want_disp, want_occ = full_layers_reference(pair, model)
    disp, occ, _ = forward(pair, model)
    assert disp.values.tobytes() == want_disp.tobytes()
    assert occ.probs.tobytes() == want_occ.tobytes()


LIVENESS = RunConfig(layers=3, channels=8, heads=2)
# The last layer feeds the matching head its scores only, so its context
# path, its fusion and its value/output projections never reach an output.
LAST_LAYER_DEAD = {
    *(f"fusion2.conv{i}.{p}" for i in (1, 2) for p in ("kernel", "bias")),
    *(
        f"layer2.cep.{sub}.{mat}"
        for sub in ("wax", "hax", "cross")
        for mat in ("Wq", "Wk", "Wv", "Wo", "rel")
    ),
    "layer2.mmp.cross.Wv",
    "layer2.mmp.cross.Wo",
}
DEAD_TENSORS = {
    "M1": LAST_LAYER_DEAD,
    # M2 emits its only context payload at the last layer, so its whole
    # context path is dead; which M2 is meant is open (ROADMAP item 2).
    "M2": LAST_LAYER_DEAD
    | {n for n in weight_spec(LIVENESS) if n.startswith("fusion") or ".cep." in n},
    "M3": LAST_LAYER_DEAD,
}


@pytest.mark.parametrize("strategy", ["M1", "M2", "M3"])
def test_every_tensor_outside_the_dead_set_moves_the_output(strategy):
    # seeded noise, not scaling: biases are zero at init
    config = RunConfig(layers=3, channels=8, heads=2, cep_strategy=strategy)
    store = init_weights(config, span=16, seed=60)
    pair = random_pair(seed=61)

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
    assert len(tensors) == 112
    assert dead == DEAD_TENSORS[strategy]
