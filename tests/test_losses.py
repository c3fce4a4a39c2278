import hashlib

import numpy as np
import pytest

from cstr import (
    AssignmentVolume,
    GtBundle,
    Rng,
    binary_entropy_loss,
    finite_diff_check,
    forward,
    relative_response_loss,
    smooth_l1,
    total_loss,
)

F32 = np.float32


def volume_from_rows(rows: np.ndarray, dustbin: np.ndarray | None = None):
    n, m = rows.shape
    plan = np.zeros((1, n + 1, m + 1), dtype=F32)
    plan[0, :n, :m] = rows
    if dustbin is not None:
        plan[0, :n, m] = dustbin
    return AssignmentVolume(plan)


# --- relative response loss ---


def test_rr_one_hot_at_truth_is_zero():
    rows = np.zeros((3, 5), dtype=F32)
    gt_d = np.array([[0.0, 1.0, 2.0]], dtype=F32)
    for i in range(3):
        rows[i, i - int(gt_d[0, i])] = 1.0
    gt = GtBundle(gt_d, np.zeros((1, 3)))
    value, grad = relative_response_loss(volume_from_rows(rows), gt)
    assert value == 0.0
    assert grad.shape == (1, 4, 6)


def test_rr_midway_half_mass():
    # truth halfway between two entries holding 0.5 each: t* = 0.5 and the
    # pixel contributes -log(0.5)/N_M
    rows = np.zeros((4, 4), dtype=F32)
    rows[3, 1] = 0.5
    rows[3, 2] = 0.5
    rows[:3, 0] = 1.0
    gt_d = np.array([[0.0, 1.0, 2.0, 1.5]], dtype=F32)  # pixel 3: pos = 3 - 1.5
    gt = GtBundle(gt_d, np.zeros((1, 4)))
    value, _ = relative_response_loss(volume_from_rows(rows), gt)
    contribution = -np.log(0.5) / 4
    got_pixel3 = value - (-np.log(1.0) * 3 / 4)
    assert abs(got_pixel3 - contribution) < 1e-12


def test_rr_unmatched_uses_dustbin():
    rows = np.full((2, 3), 0.2, dtype=F32)
    dust = np.array([0.7, 0.3], dtype=F32)
    vol = volume_from_rows(rows, dust)
    gt = GtBundle(np.zeros((1, 2), dtype=F32), np.ones((1, 2)))
    value, grad = relative_response_loss(vol, gt)
    want = (-np.log(np.float64(F32(0.7))) - np.log(np.float64(F32(0.3)))) / 2
    assert abs(value - want) < 1e-9
    assert grad[0, 0, 3] != 0 and grad[0, 1, 3] != 0
    assert (grad[0, :, :3] == 0).all()


def test_rr_probability_floor():
    rows = np.zeros((1, 3), dtype=F32)
    rows[0, 0] = 1e-30  # far below the floor
    rows[0, 1] = 1.0
    gt = GtBundle(np.zeros((1, 1), dtype=F32), np.zeros((1, 1)))
    value, grad = relative_response_loss(volume_from_rows(rows), gt)
    assert abs(value - (-np.log(1e-12))) < 1e-6
    assert (grad == 0).all()  # floored pixels carry no gradient


def test_rr_out_of_range_truth_raises():
    rows = np.full((2, 3), 0.5, dtype=F32)
    gt = GtBundle(np.array([[1.0, 0.0]], dtype=F32), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        relative_response_loss(volume_from_rows(rows), gt)  # pixel 0: pos = -1


def test_rr_requires_some_pixels():
    rows = np.full((2, 3), 0.5, dtype=F32)
    gt = GtBundle(np.zeros((1, 2), dtype=F32), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        relative_response_loss(
            volume_from_rows(rows), gt, valid=np.zeros((1, 2), dtype=bool)
        )


def test_rr_rejects_a_valid_mask_of_another_shape():
    rows = np.full((2, 3), 0.5, dtype=F32)
    vol = AssignmentVolume(np.stack([volume_from_rows(rows).plans[0]] * 3))
    gt = GtBundle(np.zeros((3, 2), dtype=F32), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"valid mask \(1, 2\) does not match plans \(3, 2\)"):
        relative_response_loss(vol, gt, valid=np.ones((1, 2), dtype=bool))


def test_rr_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(20):
        rng = Rng(1000 + seed)
        plan = rng.generator.random((1, 6, 6), dtype=F32) + 0.05
        slack = rng.generator.random((1, 5), dtype=F32)
        gt_d = slack * np.arange(5, dtype=F32)[None, :]
        gt_o = rng.generator.random((1, 5)) < 0.4
        gt = GtBundle(gt_d, gt_o)
        _, grad = relative_response_loss(AssignmentVolume(plan), gt)
        err = finite_diff_check(
            lambda arr: relative_response_loss(AssignmentVolume(arr), gt)[0],
            plan,
            grad,
            step=1e-4,
        )
        worst = max(worst, err)
    assert worst < 1e-3


# --- pinned supervision bytes ---


def test_forward_loss_terms_are_pinned(tiny_model, tiny_pair):
    # some matched pixels map off the raw line, where _loss_breakdown drops
    # them, and some are unmatched
    rng = Rng(19)
    gt_disp = rng.generator.random((16, 32), dtype=F32) * 12
    gt_occ = rng.generator.random((16, 32)) < 0.2
    _, _, b = forward(tiny_pair, tiny_model, GtBundle(gt_disp, gt_occ))
    assert (b.rr_raw, b.d1_raw, b.d1_final, b.be_final) == (
        22.226932199732506,
        0.9385384755213579,
        5.170140748982974,
        1.040248119162717,
    )


def test_rr_gradient_is_pinned():
    plan = Rng(23).generator.random((2, 6, 6), dtype=F32)
    plan[0, 1, :5] = 0  # pixel (0, 1) is floored
    gt_d = np.array([[0.0, 0.5, 1.25, 2.0, 0.0], [3.5, 0.75, 0.0, 2.5, 4.0]], dtype=F32)
    gt_o = np.array([[0, 0, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=bool)
    # pixel (0, 4) sits on the line's last column, lo == m - 1
    value, grad = relative_response_loss(AssignmentVolume(plan), GtBundle(gt_d, gt_o))
    assert value == 7.385561783349681
    assert hashlib.sha256(grad.tobytes()).hexdigest() == (
        "7301c1fab272827575f389ead1d55ab047abc2ef50cc4c692190a2b9de077260"
    )


# --- smooth L1 ---


def test_smooth_l1_zero_at_equality():
    x = Rng(1).generator.random((3, 3), dtype=F32)
    value, grad = smooth_l1(x, x, np.ones((3, 3), dtype=bool))
    assert value == 0.0
    assert (grad == 0).all()


def test_smooth_l1_quadratic_region():
    pred = np.array([[0.5]], dtype=F32)
    gt = np.array([[0.0]], dtype=F32)
    value, grad = smooth_l1(pred, gt, np.ones((1, 1), dtype=bool))
    assert abs(value - 0.125) < 1e-9
    assert abs(grad[0, 0] - 0.5) < 1e-9


def test_smooth_l1_linear_region():
    pred = np.array([[3.0]], dtype=F32)
    gt = np.array([[0.0]], dtype=F32)
    value, grad = smooth_l1(pred, gt, np.ones((1, 1), dtype=bool))
    assert abs(value - 2.5) < 1e-9
    assert grad[0, 0] == 1.0


def test_smooth_l1_masked_mean():
    pred = np.array([[3.0, 100.0]], dtype=F32)
    gt = np.zeros((1, 2), dtype=F32)
    mask = np.array([[True, False]])
    value, grad = smooth_l1(pred, gt, mask)
    assert abs(value - 2.5) < 1e-9
    assert grad[0, 1] == 0.0


def test_smooth_l1_empty_mask_raises():
    with pytest.raises(ValueError):
        smooth_l1(np.zeros((2, 2), dtype=F32), np.zeros((2, 2), dtype=F32),
                  np.zeros((2, 2), dtype=bool))


def test_smooth_l1_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(20):
        rng = Rng(2000 + seed)
        pred = rng.generator.random((4, 4), dtype=F32) * 4
        gt = rng.generator.random((4, 4), dtype=F32) * 4
        mask = rng.generator.random((4, 4)) < 0.8
        if not mask.any():
            mask[0, 0] = True
        _, grad = smooth_l1(pred, gt, mask)
        err = finite_diff_check(
            lambda arr: smooth_l1(arr, gt, mask)[0], pred, grad, step=1e-4
        )
        worst = max(worst, err)
    assert worst < 1e-3


# --- binary entropy ---


def test_bce_perfect_prediction_is_clamp_small():
    gt = np.array([[0.0, 1.0]], dtype=F32)
    value, _ = binary_entropy_loss(gt.copy(), gt)
    assert value < 1e-6


def test_bce_half_probability_is_ln2():
    pred = np.full((3, 3), 0.5, dtype=F32)
    gt = (Rng(2).generator.random((3, 3)) < 0.5).astype(F32)
    value, _ = binary_entropy_loss(pred, gt)
    assert abs(value - np.log(2)) < 1e-7


def test_bce_gradient_formula():
    pred = np.array([[0.25]], dtype=F32)
    gt = np.array([[1.0]], dtype=F32)
    _, grad = binary_entropy_loss(pred, gt)
    p = np.float64(F32(0.25))
    assert abs(grad[0, 0] - (p - 1) / (p * (1 - p))) < 1e-9


def test_bce_gradient_matches_finite_differences():
    worst = 0.0
    for seed in range(20):
        rng = Rng(3000 + seed)
        pred = rng.generator.random((4, 4), dtype=F32) * 0.9 + 0.05
        gt = (rng.generator.random((4, 4)) < 0.5).astype(F32)
        _, grad = binary_entropy_loss(pred, gt)
        err = finite_diff_check(
            lambda arr: binary_entropy_loss(arr, gt)[0], pred, grad, step=1e-4
        )
        worst = max(worst, err)
    assert worst < 1e-3


# --- total loss ---


def test_total_loss_zero_parts():
    assert total_loss(0.0, 0.0, 0.0, 0.0).total == 0.0


def test_total_loss_unit_weights():
    assert total_loss(1.0, 2.0, 3.0, 4.0).total == 10.0


def test_total_loss_selector_weights():
    out = total_loss(5.0, 5.0, 2.0, 5.0, 0.0, 0.0, 1.0, 0.0)
    assert out.total == 2.0
    assert out.d1_final == 2.0


def test_total_loss_exact_invariant():
    parts = (0.7, 1.3, 2.9, 0.11)
    weights = (0.5, 2.0, 0.0, 3.0)
    out = total_loss(*parts, *weights)
    assert out.total == sum(w * p for w, p in zip(weights, parts))


def test_total_loss_linearity_by_perturbation():
    parts = (1.5, 2.5, 3.5, 4.5)
    base = total_loss(*parts).total
    for k in range(4):
        w = [1.0, 1.0, 1.0, 1.0]
        w[k] += 0.125
        assert total_loss(*parts, *w).total - base == pytest.approx(
            0.125 * parts[k], abs=1e-12
        )


# --- finite difference checker ---


def test_fd_check_quadratic_is_exact():
    x = Rng(3).generator.random((8,), dtype=F32)

    def loss(arr):
        return 0.5 * float((arr.astype(np.float64) ** 2).sum())

    err = finite_diff_check(loss, x, x.astype(np.float64), step=1e-4)
    assert err < 1e-6


def test_fd_check_detects_wrong_gradient():
    x = Rng(4).generator.random((8,), dtype=F32) + 0.5

    def loss(arr):
        return 0.5 * float((arr.astype(np.float64) ** 2).sum())

    err = finite_diff_check(loss, x, 2.0 * x.astype(np.float64), step=1e-4)
    assert abs(err - 0.5) < 0.05  # |2x - x| / max(|2x|, |x|) = 1/2


def test_fd_check_subsamples_large_tensors():
    x = Rng(5).generator.random((40, 40), dtype=F32)

    def loss(arr):
        return float(arr.astype(np.float64).sum())

    err = finite_diff_check(loss, x, np.ones((40, 40)), step=1e-4, max_coords=32)
    assert err < 1e-6


def test_fd_check_checks_every_coordinate_of_a_tensor_below_32_elements():
    # at least 32 coordinates are checked, so max_coords below the size of a
    # small tensor still checks all of it, two loss calls each
    x = Rng(6).generator.random((4, 5), dtype=F32)
    calls = []

    def loss(arr):
        calls.append(arr)
        return float(arr.astype(np.float64).sum())

    assert finite_diff_check(loss, x, np.ones((4, 5)), step=1e-4, max_coords=4) < 1e-6
    assert len(calls) == 40


def test_fd_check_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_check(lambda a: 0.0, np.zeros(3, dtype=F32), np.zeros(3), step=0.0)


def test_fd_check_rejects_nonfinite_loss():
    with pytest.raises(ValueError):
        finite_diff_check(
            lambda a: float("nan"), np.zeros(3, dtype=F32), np.zeros(3), step=1e-4
        )
