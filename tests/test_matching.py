import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cstr import (
    AssignmentVolume,
    DisparityMap,
    OcclusionMap,
    RefineWeights,
    Rng,
    epipolar_mask,
    refine_full_res,
    regress_raw,
    seeded_normal,
    sinkhorn,
)
from cstr.selftest import direct_regression, reference_sinkhorn

F32 = np.float32


# --- epipolar mask ---


def test_mask_three_by_three_enumeration():
    mask = epipolar_mask(3, 3)
    allowed = np.isfinite(mask)
    assert int(allowed.sum()) == 6
    for i in range(3):
        for j in range(3):
            assert allowed[i, j] == (i - j <= 0)
    assert (mask[allowed] == 0).all()
    assert np.isneginf(mask[~allowed]).all()


def test_mask_flip_is_complement_plus_diagonal():
    normal = np.isfinite(epipolar_mask(3, 3))
    flipped = np.isfinite(epipolar_mask(3, 3, flip=True))
    assert (normal & flipped).sum() == 3  # the diagonal
    assert (normal | flipped).all()


def test_mask_one_by_one_allowed():
    assert np.isfinite(epipolar_mask(1, 1)).all()


def test_mask_single_right_column():
    mask = epipolar_mask(4, 1)
    allowed = np.isfinite(mask[:, 0])
    np.testing.assert_array_equal(allowed, [True, False, False, False])


def test_mask_rejects_empty():
    with pytest.raises(ValueError):
        epipolar_mask(0, 3)


# --- sinkhorn ---


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32])
def test_sinkhorn_plan_is_float32_for_any_cost_dtype(dtype):
    cost = (Rng(4).generator.random((3, 5)) * 4).astype(dtype)
    plan = sinkhorn(cost, iters=3, epsilon=np.float64(0.1))
    assert plan.dtype == np.float32


def test_sinkhorn_symmetric_cost_symmetric_plan():
    # every cell (including the dustbins) carries the same cost, so the
    # problem is symmetric under transposition and the plan must be too
    cost = np.zeros((2, 2), dtype=F32)
    plan = sinkhorn(cost, iters=10, epsilon=0.1)
    np.testing.assert_allclose(plan, plan.T, atol=1e-6)


def test_sinkhorn_diagonal_cost_structure():
    cost = np.array([[0.0, 10.0], [10.0, 0.0]], dtype=F32)
    plan = sinkhorn(cost, iters=10, epsilon=0.1)
    assert plan[0, 1] < 1e-3 and plan[1, 0] < 1e-3
    assert plan[0, 0] > 100 * plan[0, 1]  # diagonal dominates the real cells
    want = reference_sinkhorn(cost, 10, 0.1)
    np.testing.assert_allclose(plan, want, atol=1e-5)


def test_sinkhorn_matches_reference_on_random_costs():
    rng = Rng(5)
    for _ in range(10):
        n = int(rng.generator.integers(1, 8))
        m = int(rng.generator.integers(1, 8))
        cost = rng.generator.random((n, m), dtype=F32) * 6
        got = sinkhorn(cost, iters=10, epsilon=0.1)
        want = reference_sinkhorn(cost, 10, 0.1)
        np.testing.assert_allclose(got, want, atol=1e-4)


def test_sinkhorn_row_marginals_and_mass_conservation():
    rng = Rng(6)
    for _ in range(20):
        n = int(rng.generator.integers(1, 65))
        m = int(rng.generator.integers(1, 65))
        cost = rng.generator.random((n, m), dtype=F32) * 10
        plan = sinkhorn(cost, iters=10, epsilon=0.1)
        assert (plan >= 0).all()
        np.testing.assert_allclose(plan[:n].sum(axis=1), 1.0, atol=1e-4)
        assert abs(plan.sum() - (n + m)) < 1e-4


def test_sinkhorn_masked_cells_carry_no_mass():
    rng = Rng(7)
    cost = rng.generator.random((6, 6), dtype=F32)
    cost = cost - epipolar_mask(6, 6)  # forbidden cells become +inf
    plan = sinkhorn(cost, iters=10, epsilon=0.1)
    forbidden = np.isposinf(cost)
    assert plan[:6, :6][forbidden].max() < 1e-8


def test_sinkhorn_entropy_decreases_with_epsilon():
    rng = Rng(8)
    cost = rng.generator.random((8, 8), dtype=F32) * 4

    def entropy(eps):
        plan = sinkhorn(cost, iters=50, epsilon=eps).astype(np.float64)
        p = plan / plan.sum()
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    h = [entropy(eps) for eps in (0.5, 0.15, 0.05)]
    assert h[0] >= h[1] >= h[2]


def test_sinkhorn_rejects_bad_arguments():
    cost = np.zeros((2, 2), dtype=F32)
    with pytest.raises(ValueError):
        sinkhorn(cost, iters=0, epsilon=0.1)
    with pytest.raises(ValueError):
        sinkhorn(cost, iters=5, epsilon=0.0)
    with pytest.raises(ValueError):
        sinkhorn(cost, iters=5, epsilon=np.inf)
    bad = cost.copy()
    bad[0, 0] = -np.inf
    with pytest.raises(ValueError):
        sinkhorn(bad, iters=5, epsilon=0.1)


# --- raw regression ---


def one_line_volume(rows: np.ndarray) -> AssignmentVolume:
    """Wrap an (n, m) real-candidate block into a plan volume with dustbins."""
    n, m = rows.shape
    plan = np.zeros((1, n + 1, m + 1), dtype=F32)
    plan[0, :n, :m] = rows
    return AssignmentVolume(plan)


def test_regression_worked_example():
    # window scores 0.2/0.5/0.3 over candidate disparities 4/5/6
    rows = np.zeros((8, 8), dtype=F32)
    rows[:, 7] = 0.01
    rows[7, 3] = 0.2
    rows[7, 2] = 0.5
    rows[7, 1] = 0.3
    disp, occ = regress_raw(one_line_volume(rows))
    assert abs(float(disp.values[0, 7]) - 5.1) < 1e-6
    assert float(occ.probs[0, 7]) == 0.0


def test_regression_one_hot_plan():
    rows = np.zeros((5, 8), dtype=F32)
    for i in range(5):
        rows[i, i + 3] = 1.0  # disparity exactly 3
    disp, occ = regress_raw(one_line_volume(rows))
    np.testing.assert_array_equal(disp.values[0], np.full(5, 3.0, dtype=F32))
    np.testing.assert_array_equal(occ.probs[0], np.zeros(5, dtype=F32))


def test_regression_window_mass_below_one():
    # weights 0.1/0.4/0.1 at disparities 2/3/4: renormalized mean is 3.0,
    # occlusion is the missing 0.4
    rows = np.zeros((6, 8), dtype=F32)
    rows[5, 3] = 0.1  # |5-3| = 2
    rows[5, 2] = 0.4  # |5-2| = 3
    rows[5, 1] = 0.1  # |5-1| = 4
    rows[:5, 7] = 1.0
    disp, occ = regress_raw(one_line_volume(rows))
    assert abs(float(disp.values[0, 5]) - 3.0) < 1e-6
    assert abs(float(occ.probs[0, 5]) - 0.4) < 1e-6


def test_regression_matches_direct_window_arithmetic():
    rng = Rng(9)
    worst = 0.0
    for _ in range(100):
        n = int(rng.generator.integers(2, 13))
        m = int(rng.generator.integers(2, 13))
        rows = rng.generator.random((n, m), dtype=F32)
        disp, occ = regress_raw(one_line_volume(rows))
        for i in range(n):
            want_d, want_o = direct_regression(rows[i], i)
            worst = max(worst, abs(float(disp.values[0, i]) - want_d))
            worst = max(worst, abs(float(occ.probs[0, i]) - want_o))
    assert worst < 1e-7


def test_regression_of_many_lines_equals_each_line_alone():
    rng = Rng(12)
    for lines, n, m in [(2, 3, 5), (4, 8, 8), (7, 12, 9), (16, 32, 32)]:
        plan = rng.generator.random((lines, n + 1, m + 1), dtype=F32)
        disp, occ = regress_raw(AssignmentVolume(plan), scale=0.25)
        assert disp.scale == 0.25
        for y in range(lines):
            d_one, o_one = regress_raw(AssignmentVolume(plan[y : y + 1]))
            assert disp.values[y].tobytes() == d_one.values[0].tobytes()
            assert occ.probs[y].tobytes() == o_one.probs[0].tobytes()


def test_regression_unimodal_rows_stay_near_argmax():
    rng = Rng(10)
    for _ in range(30):
        m = int(rng.generator.integers(3, 12))
        center = int(rng.generator.integers(0, m))
        j = np.arange(m)
        row = np.exp(-((j - center) ** 2) / 2.0).astype(F32)  # strictly unimodal
        rows = row[None, :]
        disp, _ = regress_raw(one_line_volume(rows))
        assert abs(float(disp.values[0, 0]) - abs(0 - center)) <= 1.0


def test_regression_rejects_fully_masked_line():
    rows = np.zeros((3, 4), dtype=F32)
    rows[0, 0] = 1.0
    rows[2, 1] = 1.0  # row 1 has no candidate mass at all
    with pytest.raises(ValueError):
        regress_raw(one_line_volume(rows))


@given(
    arrays(
        F32,
        st.tuples(st.integers(2, 5), st.integers(2, 5)),
        elements=st.floats(0.0, 4.0, width=32),
    )
)
@settings(max_examples=60, deadline=None)
def test_regression_occlusion_always_in_unit_interval(rows):
    if (rows.sum(axis=1) == 0).any():
        rows = rows + F32(0.01)
    _, occ = regress_raw(one_line_volume(rows))
    assert (occ.probs >= 0).all() and (occ.probs <= 1).all()


# --- assignment volume invariants ---


def test_volume_rejects_negative_mass():
    plan = np.full((1, 3, 3), -0.1, dtype=F32)
    with pytest.raises(ValueError):
        AssignmentVolume(plan)


def test_volume_real_entries_in_unit_interval_after_sinkhorn():
    rng = Rng(11)
    cost = rng.generator.random((5, 7), dtype=F32) * 3
    plan = sinkhorn(cost, iters=10, epsilon=0.1)
    n, m = 5, 7
    assert plan[:n, :].max() <= 1 + 1e-5
    assert plan[:, :m].max() <= 1 + 1e-5  # only the corner may exceed 1


# --- refinement ---


def zero_refine_weights(hidden: int = 4) -> RefineWeights:
    return RefineWeights(
        conv1_kernel=np.zeros((hidden, 2, 3, 3), dtype=F32),
        conv1_bias=np.zeros(hidden, dtype=F32),
        conv2_kernel=np.zeros((1, hidden, 3, 3), dtype=F32),
        conv2_bias=np.zeros(1, dtype=F32),
        occ_kernel=np.zeros((1, 2, 3, 3), dtype=F32),
        occ_bias=np.zeros(1, dtype=F32),
    )


def random_refine_weights(rng: Rng, hidden: int = 4) -> RefineWeights:
    return RefineWeights(
        conv1_kernel=seeded_normal(rng, (hidden, 2, 3, 3), 0.1),
        conv1_bias=seeded_normal(rng, (hidden,), 0.1),
        conv2_kernel=seeded_normal(rng, (1, hidden, 3, 3), 0.1),
        conv2_bias=seeded_normal(rng, (1,), 0.1),
        occ_kernel=seeded_normal(rng, (1, 2, 3, 3), 0.1),
        occ_bias=seeded_normal(rng, (1,), 0.1),
    )


def test_refine_zero_weights_is_plain_upsampling():
    from cstr import bilinear_upsample

    rng = Rng(12)
    raw_d = DisparityMap(rng.generator.random((4, 8), dtype=F32) * 3, scale=0.25)
    raw_o = OcclusionMap(rng.generator.random((4, 8), dtype=F32))
    image = rng.generator.random((1, 16, 32), dtype=F32)
    disp, occ = refine_full_res(raw_d, raw_o, image, zero_refine_weights())
    want_d = bilinear_upsample(raw_d.values[None], 16, 32)[0] * 4
    np.testing.assert_array_equal(disp.values, want_d)
    want_o = bilinear_upsample(raw_o.probs[None], 16, 32)[0]
    np.testing.assert_allclose(occ.probs, want_o, atol=1e-6)
    assert disp.scale == 1.0


def test_refine_constant_scales_values():
    raw_d = DisparityMap(np.full((4, 8), 2.0, dtype=F32), scale=0.25)
    raw_o = OcclusionMap(np.zeros((4, 8), dtype=F32))
    image = np.zeros((1, 16, 32), dtype=F32)
    disp, _ = refine_full_res(raw_d, raw_o, image, zero_refine_weights())
    np.testing.assert_array_equal(disp.values, np.full((16, 32), 8.0, dtype=F32))


def test_refine_output_is_finite_and_bounded_with_random_weights():
    rng = Rng(13)
    raw_d = DisparityMap(rng.generator.random((4, 8), dtype=F32) * 4, scale=0.25)
    raw_o = OcclusionMap(rng.generator.random((4, 8), dtype=F32))
    image = rng.generator.random((1, 16, 32), dtype=F32)
    disp, occ = refine_full_res(raw_d, raw_o, image, random_refine_weights(rng))
    assert np.isfinite(disp.values).all()
    assert disp.values.min() >= 0 and disp.values.max() <= 31
    assert occ.probs.min() >= 0 and occ.probs.max() <= 1


def test_refine_rejects_scale_mismatch():
    raw_d = DisparityMap(np.zeros((4, 8), dtype=F32), scale=0.5)
    raw_o = OcclusionMap(np.zeros((4, 8), dtype=F32))
    image = np.zeros((1, 16, 32), dtype=F32)  # implies scale 1/4
    with pytest.raises(ValueError):
        refine_full_res(raw_d, raw_o, image, zero_refine_weights())


def test_refine_rejects_indivisible_extents():
    raw_d = DisparityMap(np.zeros((4, 8), dtype=F32), scale=0.25)
    raw_o = OcclusionMap(np.zeros((4, 8), dtype=F32))
    image = np.zeros((1, 15, 32), dtype=F32)
    with pytest.raises(ValueError):
        refine_full_res(raw_d, raw_o, image, zero_refine_weights())


def test_refine_rejects_rgb_image():
    raw_d = DisparityMap(np.zeros((4, 8), dtype=F32), scale=0.25)
    raw_o = OcclusionMap(np.zeros((4, 8), dtype=F32))
    image = np.zeros((3, 16, 32), dtype=F32)
    with pytest.raises(ValueError, match="1, h, w"):
        refine_full_res(raw_d, raw_o, image, zero_refine_weights())


def test_refine_golden_transcript():
    # frozen output hash of a fixed-seed refinement (regression tripwire)
    import hashlib

    rng = Rng(123)
    raw_d = DisparityMap(rng.generator.random((4, 8), dtype=F32) * 4, scale=0.25)
    raw_o = OcclusionMap(rng.generator.random((4, 8), dtype=F32))
    image = rng.generator.random((1, 16, 32), dtype=F32)
    disp, occ = refine_full_res(raw_d, raw_o, image, random_refine_weights(Rng(7)))
    digest = hashlib.sha256(disp.values.tobytes() + occ.probs.tobytes()).hexdigest()
    assert digest == "e804103076b65b85e3de36b0f2e670b15fb3360bf10a4212f0ecaad229654088"
