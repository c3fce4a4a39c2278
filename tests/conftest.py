import numpy as np
import pytest

from cstr import ImagePair, ModelDescription, Rng, RunConfig, init_weights
from cstr import ndarray


TINY_CONFIG = RunConfig(layers=2, channels=8, heads=2)


@pytest.fixture(scope="session")
def tiny_model() -> ModelDescription:
    return ModelDescription(TINY_CONFIG, init_weights(TINY_CONFIG, span=16, seed=0))


@pytest.fixture()
def tiny_pair() -> ImagePair:
    rng = Rng(0)
    left = rng.generator.random((1, 16, 32), dtype=np.float32)
    right = rng.generator.random((1, 16, 32), dtype=np.float32)
    return ImagePair(left, right)


@pytest.fixture()
def two_way(monkeypatch):
    """``two_way(True)`` makes every ``ndarray._both`` call hand its second task
    to the helper thread (threshold 0, two CPUs); ``two_way(False)`` runs both
    tasks on the caller (no second CPU, so no helper). Each call returns a
    list that counts the handoffs from then on."""
    runs = []
    run = ndarray._run_both
    threshold = ndarray._TASK_WORK

    def counted(*args):
        runs.append(1)
        return run(*args)

    monkeypatch.setattr(ndarray, "_run_both", counted)

    def force(on: bool) -> list:
        monkeypatch.setattr(ndarray, "_two_cpus", lambda: on)
        monkeypatch.setattr(ndarray, "_TASK_WORK", 0 if on else threshold)
        runs.clear()
        return runs

    return force
