"""Shared helpers for the test suite."""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise: the suite's matrix
# products are small, and extra threads only contend for the cores when two
# test runs share a host.  BLAS reads these when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from calerr import PredictionSet


def random_prediction_set(rng: np.random.Generator) -> PredictionSet:
    """Random probabilities with exact-tie and one-hot rows sprinkled in.

    The special rows exercise the boundary rules: argmax ties resolve to the
    lowest index, a score of exactly 1.0 lands in the last even bin, and
    zero entries survive a zero threshold but not a positive one.
    """
    n = int(rng.integers(1, 51))
    k = int(rng.integers(2, 6))
    probs = rng.dirichlet(np.ones(k), size=n)
    for i in range(n):
        r = rng.random()
        if r < 0.05:
            probs[i] = np.full(k, 1.0 / k)
        elif r < 0.10:
            probs[i] = np.eye(k)[rng.integers(0, k)]
    labels = rng.integers(0, k, size=n)
    return PredictionSet(probs, labels)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def tiny_preds() -> PredictionSet:
    # four points, two classes, max probs 0.8 / 0.7 / 0.6 / 0.9
    probs = np.array(
        [[0.8, 0.2], [0.7, 0.3], [0.4, 0.6], [0.9, 0.1]]
    )
    labels = np.array([0, 1, 1, 0])
    return PredictionSet(probs, labels)
