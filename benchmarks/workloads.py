"""Workload definitions and the seeded stereo-pair generator.

Every workload is one process, one client, one pair at a time (closed loop).
The pair generator draws a left image of 8-bit noise from the seed and builds
the right image as the left shifted by a fixed disparity ``d``
(``right[y, x] = left[y, x + d]``), so left pixels with ``x < d`` have no
counterpart and are the ground-truth occlusions. Weights do not depend on the
seed: they are the package's seeded initialisation at config seed 0.

This module imports nothing heavy: `run.py` imports it before any worker
process has pinned its BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass

# The default seed; outputs on it are frozen in reference/<workload>.npz.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str  # cstr key=value config
    span: int  # position-embedding span of the weight file
    height: int
    width: int
    shift: int  # disparity d of the generated pair, in full-resolution pixels
    supervised: bool  # forward also gets ground truth; op adds the metrics
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="default_m3",
            config_text="",
            span=64,
            height=128,
            width=256,
            shift=8,
            supervised=False,
            why=(
                "default M3 config on a 128x256 pair (32x64 matching grid): "
                "the baseline shape, where fusion convolutions and the "
                "per-layer context path show next to attention"
            ),
        ),
        Workload(
            name="wide_m2",
            config_text="cep_strategy=M2\n",
            span=128,
            height=64,
            width=512,
            shift=8,
            supervised=False,
            why=(
                "M2 with span 128 on a 64x512 pair (16x128 grid): long lines "
                "make width-axial and cross attention dominate and fusion "
                "runs once"
            ),
        ),
        Workload(
            name="tiny_supervised",
            config_text="layers=2\nchannels=8\nheads=2\n",
            span=16,
            height=16,
            width=32,
            shift=4,
            supervised=True,
            why=(
                "2-layer 8-channel test config on a 16x32 pair with ground "
                "truth: per-call overhead, the per-line Sinkhorn loop, file "
                "formats, losses and metrics dominate"
            ),
        ),
    )
}


def make_pair(workload: Workload, seed: int):
    """Left/right images in [0, 1] (8-bit levels) and ground truth.

    Returns ``(left, right, gt_disparity, gt_occlusion)`` as (h, w) float32
    arrays. The same seed always gives the same arrays.
    """
    import numpy as np

    h, w, d = workload.height, workload.width, workload.shift
    rng = np.random.Generator(np.random.PCG64(seed))
    levels = rng.integers(0, 256, size=(h, w + d)).astype(np.float32)
    left = levels[:, :w] / np.float32(255)
    right = levels[:, d : w + d] / np.float32(255)
    gt_disp = np.full((h, w), np.float32(d), dtype=np.float32)
    gt_occ = np.zeros((h, w), dtype=np.float32)
    gt_occ[:, :d] = 1.0
    return (
        np.ascontiguousarray(left),
        np.ascontiguousarray(right),
        gt_disp,
        gt_occ,
    )
