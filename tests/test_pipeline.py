import dataclasses
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
    path_fusion,
    refine_full_res,
    relative_logits,
    rgb_to_gray,
    seeded_normal,
    weight_spec,
)
import cstr.pipeline
from cstr.pipeline import DEFAULT_SPAN, _axial_half, _line_plans
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
        feat_l, feat_r, ctx = cstr_layer(feat_l, feat_r, ctx, layer, model)
    weights = model.layers[last].mmp
    left, right = _axial_half(feat_l, feat_r, weights, config.heads)
    mask = epipolar_mask(left.shape[2], right.shape[2])
    return ScoreMatrix(per_line_cross_scores(left, right, weights.cross, config.heads, mask))


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
    forward(random_pair(seed=6), tiny_model(seed=5, config=config))
    assert len(seen) == calls


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
    weights = model.layers[0].mmp
    stream = pixel_norm(axial_attention_width(feat_l, weights.wax, heads))
    stream = pixel_norm(axial_attention_height(stream, weights.hax, heads))
    line = stream[:, 0, :].T
    for head in range(heads):
        logits = relative_logits(line, weights.cross, head)
        np.testing.assert_allclose(logits, logits.T, atol=1e-5)


def test_layer_out_of_range_rejected():
    model = tiny_model()
    pair = random_pair()
    feat_l, feat_r, ctx = backbone_forward(pair, model)
    with pytest.raises(ValueError):
        cstr_layer(feat_l, feat_r, ctx, 2, model)


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


def test_forward_rejects_indivisible_gt_before_any_compute(tiny_model, monkeypatch):
    ran = []

    def backbone(*args):
        ran.append(True)
        return backbone_forward(*args)

    monkeypatch.setattr(cstr.pipeline, "backbone_forward", backbone)
    gt = GtBundle(np.zeros((15, 30), dtype=F32), np.zeros((15, 30)))
    with pytest.raises(ValueError, match="divisible"):
        forward(random_pair(shape=(1, 15, 30)), tiny_model, gt)
    assert ran == []


def test_forward_rgb_pair_equals_its_luma_pair(tiny_model):
    pair = random_pair(seed=18, shape=(3, 16, 32))
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
    disp, occ, _ = forward(random_pair(seed=seed, shape=shape), model)
    digest = hashlib.sha256(disp.values.tobytes() + occ.probs.tobytes()).hexdigest()
    assert digest == THREADED_DIGESTS[name]


def test_one_cpu_process_reproduces_the_default_digest():
    # a fresh process allowed one CPU before cstr loads starts no helper
    # thread and gives the frozen default digest
    import os
    import subprocess
    import sys

    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity call on this platform")
    script = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import hashlib, numpy as np\n"
        "from cstr import ImagePair, ModelDescription, Rng, RunConfig, init_weights, forward\n"
        "from cstr import ndarray\n"
        "config = RunConfig()\n"
        "model = ModelDescription(config, init_weights(config, seed=0))\n"
        "rng = Rng(0)\n"
        "pair = ImagePair(rng.generator.random((1, 128, 256), dtype=np.float32),\n"
        "                 rng.generator.random((1, 128, 256), dtype=np.float32))\n"
        "disp, occ, _ = forward(pair, model)\n"
        "print(hashlib.sha256(disp.values.tobytes() + occ.probs.tobytes()).hexdigest())\n"
        "print(len(os.sched_getaffinity(0)), ndarray._helper is None)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [THREADED_DIGESTS["default_m3"], "1", "True"]


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("strategy", ["M1", "M2", "M3"])
def test_forward_bytes_independent_of_the_image_tasks(two_way, strategy, layers):
    # threshold 0, so every stage of these tiny shapes runs as two tasks; the
    # 18x34 pair is padded to 20x36
    config = RunConfig(layers=layers, channels=8, heads=2, cep_strategy=strategy)
    model = tiny_model(seed=70 + layers, config=config)
    pair = random_pair(seed=71, shape=(1, 18, 34))
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
    pair = random_pair(shape=(1, 128, 256))
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
    forward(random_pair(seed=18, shape=(3, 16, 32)), tiny_model)
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
    # context path is dead; which M2 is meant is open (ROADMAP item 1).
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
