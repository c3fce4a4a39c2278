"""Mutation test: breaking a core primitive makes named self-test checks fail."""

import sys

import numpy as np
import pytest

from cstr import attention, matching, ndarray, selftest


def patch_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` in every loaded cstr module."""
    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "cstr" or name.startswith("cstr."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
                    patched += 1
    # other modules import the primitives by name; the checks call those too
    assert patched >= 2


def break_softmax(monkeypatch):
    softmax = ndarray.softmax_axis
    patch_everywhere(
        monkeypatch, softmax, lambda t, axis: softmax(t, axis) + np.float32(0.01)
    )
    return ["softmax_normalization", "axial_width_dense_oracle",
            "axial_height_dense_oracle", "cross_attention_dense_oracle"]


def flip_mask(monkeypatch):
    mask = matching.epipolar_mask
    patch_everywhere(monkeypatch, mask, lambda n, m, flip=False: mask(n, m, not flip))
    return ["epipolar_mask_convention"]


def drop_sinkhorn_sweep(monkeypatch):
    sinkhorn = matching.sinkhorn

    def short(cost, iters, *args, **kwargs):
        return sinkhorn(cost, iters - 1, *args, **kwargs)

    patch_everywhere(monkeypatch, sinkhorn, short)
    return ["sinkhorn_reference_agreement"]


def narrow_regression_window(monkeypatch):
    monkeypatch.setattr(matching, "_WINDOW_OFFSETS", np.array([0, 1]))
    return ["disparity_regression_oracle"]


def regress_from_line_zero(monkeypatch):
    regress_raw = matching.regress_raw

    def line_zero(plans, scale=1.0):
        copies = np.repeat(plans.plans[:1], plans.lines, axis=0)
        return regress_raw(matching.AssignmentVolume(copies), scale)

    patch_everywhere(monkeypatch, regress_raw, line_zero)
    return ["disparity_regression_oracle"]


def scale_conv2d(monkeypatch):
    conv2d = ndarray.conv2d
    patch_everywhere(
        monkeypatch, conv2d, lambda *args, **kwargs: conv2d(*args, **kwargs) * np.float32(1.01)
    )
    return ["conv2d_direct_oracle"]


def scale_pixel_norm(monkeypatch):
    pixel_norm = attention.pixel_norm
    patch_everywhere(monkeypatch, pixel_norm, lambda *args: pixel_norm(*args) * np.float32(1.1))
    return ["pixel_norm_oracle"]


def shift_bilinear_upsample(monkeypatch):
    upsample = ndarray.bilinear_upsample
    patch_everywhere(monkeypatch, upsample, lambda *args: upsample(*args) + np.float32(1e-2))
    return ["bilinear_upsample_oracle", "refinement_zero_weights_identity"]


def halve_avgpool_width(monkeypatch):
    avgpool = ndarray.avgpool_width
    patch_everywhere(monkeypatch, avgpool, lambda *args: avgpool(*args) * np.float32(0.5))
    return ["avgpool_width_oracle"]


def scale_cross_scores(monkeypatch):
    scores = attention.cross_scores
    patch_everywhere(
        monkeypatch,
        scores,
        lambda *args: attention.ScoreMatrix(scores(*args).logits * np.float32(1.01)),
    )
    return ["cross_attention_dense_oracle"]


def skip_position_tail(monkeypatch):
    # lines longer than one block lose the position term of their ragged tail
    add = attention._add_position_term
    block = attention._BLOCK

    def no_tail(logits, rows, u, by_key):
        count = rows.shape[1]
        tail = slice(count - count % block, count) if count > block else slice(0)
        kept = logits[:, :, tail] if by_key else logits[:, tail]
        before = kept.copy()
        add(logits, rows, u, by_key)
        kept[...] = before

    monkeypatch.setattr(attention, "_add_position_term", no_tail)
    return ["axial_width_dense_oracle", "axial_height_dense_oracle",
            "cross_attention_dense_oracle"]


def give_helper_the_first_image(monkeypatch):
    # the task handed to the helper gets the first task's arguments, so one
    # image's result comes back for both
    both = ndarray._both

    def first_twice(task, first, second, work):
        if work >= ndarray._TASK_WORK and ndarray._task_helper() is not None:
            second = first
        return both(task, first, second, work)

    patch_everywhere(monkeypatch, both, first_twice)
    monkeypatch.setattr(ndarray, "_two_cpus", lambda: True)
    return ["image_tasks_match_one_thread"]


# each mutation patches the package and returns the checks it must fail
@pytest.mark.parametrize(
    "mutate",
    [break_softmax, flip_mask, drop_sinkhorn_sweep, narrow_regression_window,
     regress_from_line_zero, scale_conv2d, scale_pixel_norm, shift_bilinear_upsample,
     halve_avgpool_width, scale_cross_scores, skip_position_tail,
     give_helper_the_first_image],
    ids=lambda mutate: mutate.__name__,
)
def test_mutation_fails_named_checks(monkeypatch, mutate):
    for name in mutate(monkeypatch):
        passed, detail = dict(selftest.CHECKS)[name]()
        assert not passed, f"{name} passed under the mutation: {detail}"
