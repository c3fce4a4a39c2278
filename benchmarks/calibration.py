"""Machine-speed calibration for the end-to-end timings.

On a shared host the same operation runs up to 1.5x slower for minutes at a
time while neighbouring machines are busy, so the median of one run moves by
10-25% between runs of the same code. A fixed numpy kernel that does the kind
of work a forward pass does (batched line attention with relative-position
logits, an im2col-style convolution GEMM, normalisation passes over a few MB,
and many small calls) slows down with it. The benchmark runs this kernel
between operations and scales its timings by ``NOMINAL_S`` over the run's
median kernel time, so a timing reads as seconds on the machine at its
nominal speed.

The kernel runs in a child process that never imports cstr, so nothing the
program under test does to numpy or BLAS (thread counts, allocators) changes
it. The child starts with the parent's environment, BLAS pin included, and
waits on stdin: each line ``run`` runs the kernel once and answers with its
seconds; end of input ends the child.

    python3 benchmarks/calibration.py serve
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median kernel seconds on a quiet 2-core Intel Xeon (Sapphire Rapids) KVM
# guest with numpy 2.4.6 and OpenBLAS 0.3.31 pinned to one thread. It only
# sets the scale of the normalised timings; any fixed value would do.
NOMINAL_S = 0.075
# Seconds to wait for the child to end once its input is closed.
CHILD_TIMEOUT_S = 60


def make_inputs():
    rng = np.random.default_rng(0)

    def draw(*shape):
        return rng.standard_normal(shape, dtype=np.float32)

    return {
        "lines": draw(4, 32, 64, 32),  # heads x lines x width x channels
        "positions": draw(127, 32),
        "patches": draw(2048, 1152),  # 32x64 grid, 3x3x128 taps
        "filters": draw(1152, 128),
        "features": draw(128, 32, 1024),
        "small": draw(3, 8, 8),
    }


def kernel(x) -> float:
    """One pass of fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for _ in range(2):
        for q in x["lines"]:
            logits = q @ q.transpose(0, 2, 1)
            rel = np.einsum("lnc,pc->lnp", q, x["positions"])[:, :, :64]
            logits += rel + rel.transpose(0, 2, 1)
            logits -= logits.max(-1, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(-1, keepdims=True)
            acc += float((logits @ q)[0, 0, 0])
        acc += float((x["patches"] @ x["filters"])[0, 0])
        f = x["features"]
        centred = f - f.mean(axis=0, keepdims=True)
        scale = np.sqrt((centred * centred).mean(axis=0, keepdims=True) + 1e-5)
        acc += float((centred / scale)[0, 0, 0])
        a, b, c = x["small"]
        for _ in range(300):
            acc += float((a @ b + c).sum())
    return acc


def serve() -> int:
    x = make_inputs()
    kernel(x)  # warm-up: page in the inputs, load BLAS kernels
    for line in sys.stdin:
        if line.strip() != "run":
            print(f"calibration: unknown request {line.strip()!r}", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        kernel(x)
        print(time.perf_counter() - t0, flush=True)
    return 0


class Calibrator:
    """Runs the kernel in a child process on request and keeps its times.

    Use as a context manager: on exit the child's input is closed and the
    child is waited for, or killed if it does not end.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._child = None

    def __enter__(self):
        self._child = subprocess.Popen(
            [sys.executable, __file__, "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        child, self._child = self._child, None
        try:
            child.stdin.close()
            child.wait(timeout=CHILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            child.kill()
            child.wait()
        finally:
            child.stdout.close()
        return False

    def run(self) -> float:
        """Run the kernel once; returns its seconds and keeps them."""
        self._child.stdin.write("run\n")
        self._child.stdin.flush()
        answer = self._child.stdout.readline()
        if not answer:
            raise RuntimeError("calibration child ended without an answer")
        seconds = float(answer)
        self.samples.append(seconds)
        return seconds

    def seconds(self) -> float:
        """Kernel seconds spent so far."""
        return sum(self.samples)


if __name__ == "__main__":
    if sys.argv[1:] != ["serve"]:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(serve())
