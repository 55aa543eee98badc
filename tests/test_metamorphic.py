"""Metamorphic properties of the 32 variants at ImageNet-like K = 1000.

The brute-force oracle is too slow at this size, so these tests check
relations between scores instead: reordering rows, duplicating the data set,
relabeling classes and shifting logits must leave scores unchanged, and
adaptive bins must stay balanced within every pool.  Inputs are tie-free Dirichlet draws, so
the stable tie order of adaptive binning plays no part.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calerr import (
    EmptyMeasurementError,
    LogitSet,
    PredictionSet,
    all_configs,
    gce,
    gce_with_bins,
    softmax,
)

K = 1000
EXAMPLES = 5
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def draw(seed: int) -> tuple[PredictionSet, int]:
    """N around 200 peaked, tie-free rows over K classes, and a bin count."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 251))
    probs = rng.dirichlet(np.full(K, 0.1), size=n)
    assert np.unique(probs).size == probs.size
    # labels drawn from each row's own distribution, with every fourth
    # label replaced by a uniform draw so the set is not perfectly calibrated
    labels = (rng.random(n)[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    labels = np.minimum(labels, K - 1)
    labels[::4] = rng.integers(0, K, labels[::4].shape[0])
    return PredictionSet(probs, labels), int(rng.choice([5, 15, 30]))


def scores(p: PredictionSet, n_bins: int, kinds=("even", "adaptive")) -> dict:
    """Index -> (value, per_class) for every variant of the given bin kinds."""
    out = {}
    for i, cfg in enumerate(all_configs(n_bins)):
        if cfg.binning.kind in kinds:
            s = gce(p, cfg)
            out[i] = (s.value, s.per_class)
    return out


def assert_same(got: dict, want: dict, relabel=None) -> None:
    assert got.keys() == want.keys()
    for i, (value, per_class) in want.items():
        assert got[i][0] == pytest.approx(value, abs=1e-12), i
        if per_class is None:
            assert got[i][1] is None
            continue
        mapped = {relabel[k] if relabel is not None else k: v
                  for k, v in per_class.items()}
        assert got[i][1].keys() == mapped.keys(), i
        for k, v in mapped.items():
            assert got[i][1][k] == pytest.approx(v, abs=1e-12), (i, k)


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_row_permutation_invariance(seed):
    p, b = draw(seed)
    perm = np.random.default_rng(seed).permutation(p.n_points)
    shuffled = PredictionSet(p.probs[perm], p.labels[perm])
    assert_same(scores(shuffled, b), scores(p, b))


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_duplicated_rows_keep_even_scores(seed):
    p, b = draw(seed)
    doubled = PredictionSet(np.vstack([p.probs, p.probs]),
                            np.concatenate([p.labels, p.labels]))
    assert_same(scores(doubled, b, ("even",)), scores(p, b, ("even",)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_class_relabeling_invariance(seed):
    p, b = draw(seed)
    # new class j is old class sigma[j]; old class c becomes new class where[c]
    sigma = np.random.default_rng(seed).permutation(K)
    where = np.argsort(sigma)
    relabeled = PredictionSet(p.probs[:, sigma], where[p.labels])
    assert_same(scores(relabeled, b), scores(p, b),
                relabel={int(c): int(where[c]) for c in range(K)})


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_adaptive_runs_balanced_in_every_pool(seed):
    p, b = draw(seed)
    for cfg in all_configs(b):
        if cfg.binning.kind != "adaptive":
            continue
        try:
            stats = gce_with_bins(p, cfg)[1]
        except EmptyMeasurementError:
            continue
        pools: dict = {}
        for s in stats:
            pools.setdefault(s.class_index, []).append(s.count)
        for counts in pools.values():
            if sum(counts) == 0:  # a class with no entries: one placeholder
                assert counts == [0]
                continue
            assert len(counts) == b
            assert max(counts) - min(counts) <= 1, cfg.label()


@settings(max_examples=EXAMPLES, deadline=None)
@given(seeds)
def test_softmax_shift_invariance(seed):
    # Logits on a 1/1024 grid: adding an integer and subtracting the row max
    # are exact, so every score and bin must keep its bits.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 251))
    z = np.round(rng.normal(0.0, 3.0, (n, K)) * 1024) / 1024
    labels = rng.integers(0, K, n)
    shift = int(rng.integers(-1000, 1001))
    b = int(rng.choice([5, 15, 30]))
    p, moved = softmax(LogitSet(z, labels)), softmax(LogitSet(z + shift, labels))
    for cfg in all_configs(b):
        want, got = gce(p, cfg), gce(moved, cfg)
        assert got.value == want.value, cfg.label()
        assert got.per_class == want.per_class, cfg.label()
        if cfg.norm == "l1":  # the bins do not depend on the norm
            assert gce_with_bins(moved, cfg)[1] == gce_with_bins(p, cfg)[1], cfg.label()
