"""Mutation test: breaking a core primitive makes named self-test checks fail."""

import sys

import numpy as np
import pytest

from cstr import matching, ndarray, selftest


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


# each mutation patches the package and returns the checks it must fail
@pytest.mark.parametrize(
    "mutate",
    [break_softmax, flip_mask, drop_sinkhorn_sweep, narrow_regression_window],
    ids=lambda mutate: mutate.__name__,
)
def test_mutation_fails_named_checks(monkeypatch, mutate):
    for name in mutate(monkeypatch):
        passed, detail = dict(selftest.CHECKS)[name]()
        assert not passed, f"{name} passed under the mutation: {detail}"
