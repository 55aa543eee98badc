"""Even and adaptive bin construction."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from calerr import (
    BinScheme,
    BinStats,
    PredictionSet,
    all_configs,
    bin_stats,
    gce_many,
    row_softmax,
)
from calerr.binning import (
    PooledScores,
    adaptive_counts,
    adaptive_edges,
    assign_even_bins,
    even_edges,
)
from calerr.predictions import ScoredPredictions


def view_of(scores, correct):
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    return ScoredPredictions(
        scores, np.zeros(n, dtype=int), np.asarray(correct, dtype=bool)
    )


class TestBinScheme:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            BinScheme("quantile", 10)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            BinScheme("even", 0)

    @pytest.mark.parametrize("n_bins", [10.5, True, "10", None])
    def test_rejects_non_integer_bins(self, n_bins):
        with pytest.raises(ValueError, match="n_bins must be an integer"):
            BinScheme("even", n_bins)

    @pytest.mark.parametrize("kind", ["even", "adaptive"])
    def test_numpy_integer_bins_score_like_ints(self, kind):
        rng = np.random.default_rng(3)
        p = PredictionSet(row_softmax(rng.standard_normal((40, 4))), rng.integers(0, 4, 40))
        ints = [cfg for cfg in all_configs(7) if cfg.binning.kind == kind]
        numpy_ints = [dataclasses.replace(cfg, binning=BinScheme(kind, np.int64(7)))
                      for cfg in ints]
        got, want = gce_many(p, numpy_ints), gce_many(p, ints)
        assert [(s.value, s.per_class) for s in got] == [(s.value, s.per_class) for s in want]


class TestEvenEdges:
    def test_endpoints(self):
        edges = even_edges(15)
        assert edges[0] == 0.0
        assert edges[-1] == 1.0
        assert len(edges) == 16

    def test_assignment_boundaries(self):
        # a score on an interior edge belongs to the bin above it
        assert assign_even_bins(np.array([0.0]), 10)[0] == 0
        assert assign_even_bins(np.array([0.1]), 10)[0] == 1
        assert assign_even_bins(np.array([0.999]), 10)[0] == 9
        assert assign_even_bins(np.array([1.0]), 10)[0] == 9

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=60),
    )
    def test_score_lies_inside_its_bin(self, score, n_bins):
        edges = even_edges(n_bins)
        b = int(assign_even_bins(np.array([score]), n_bins)[0])
        assert edges[b] <= score
        assert score < edges[b + 1] or b == n_bins - 1


class TestAdaptiveCounts:
    def test_exact_division(self):
        assert np.array_equal(adaptive_counts(10, 5), [2, 2, 2, 2, 2])

    def test_remainder_goes_to_leading_bins(self):
        assert np.array_equal(adaptive_counts(7, 3), [3, 2, 2])

    def test_more_bins_than_scores(self):
        assert np.array_equal(adaptive_counts(2, 5), [1, 1, 0, 0, 0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=60),
    )
    def test_sizes_sum_and_balance(self, n, b):
        counts = adaptive_counts(n, b)
        assert counts.sum() == n
        assert counts.max() - counts.min() <= 1


class TestAdaptiveEdges:
    def test_midpoints(self):
        edges = adaptive_edges(np.array([0.1, 0.2, 0.3, 0.4]), 2)
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert edges[1] == pytest.approx(0.25)

    def test_degenerate_more_bins_than_scores(self):
        edges = adaptive_edges(np.array([0.5]), 3)
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            adaptive_edges(np.array([]), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_edges_non_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(int(rng.integers(1, 40)))
        b = int(rng.integers(1, 20))
        edges = adaptive_edges(scores, b)
        assert np.all(np.diff(edges) >= 0)


class TestBinStats:
    def test_even_totals(self):
        scores = [0.05, 0.15, 0.17, 0.95]
        stats = bin_stats(view_of(scores, [1, 0, 1, 1]), BinScheme("even", 10))
        assert len(stats) == 10
        assert sum(s.count for s in stats) == 4
        assert stats[1].count == 2
        assert stats[1].accuracy == pytest.approx(0.5)
        assert stats[1].confidence == pytest.approx(0.16)

    def test_even_empty_bins_are_zeroed(self):
        stats = bin_stats(view_of([0.95], [1]), BinScheme("even", 10))
        empty = stats[0]
        assert empty.count == 0
        assert empty.accuracy == 0.0 and empty.confidence == 0.0

    def test_gap_property(self):
        st_ = BinStats(0.0, 0.1, 3, accuracy=0.9, confidence=0.7)
        assert st_.gap == pytest.approx(0.2)

    def test_adaptive_equal_count(self):
        scores = [0.9, 0.1, 0.5, 0.3]
        stats = bin_stats(view_of(scores, [1, 0, 1, 0]), BinScheme("adaptive", 2))
        assert [s.count for s in stats] == [2, 2]
        # sorted order: 0.1, 0.3 | 0.5, 0.9
        assert stats[0].confidence == pytest.approx(0.2)
        assert stats[1].confidence == pytest.approx(0.7)
        assert stats[1].accuracy == pytest.approx(1.0)

    def test_adaptive_ties_keep_original_order(self):
        # all scores equal: membership must follow input position
        scores = [0.5, 0.5, 0.5, 0.5]
        stats = bin_stats(view_of(scores, [1, 1, 0, 0]), BinScheme("adaptive", 2))
        assert stats[0].accuracy == pytest.approx(1.0)
        assert stats[1].accuracy == pytest.approx(0.0)

    def test_adaptive_rejects_empty_view(self):
        with pytest.raises(ValueError):
            bin_stats(view_of([], []), BinScheme("adaptive", 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_mass_conservation(self, seed):
        """Counts cover the view; count-weighted means recover the sums."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        scores = rng.random(n)
        correct = rng.random(n) < 0.5
        for kind in ("even", "adaptive"):
            b = int(rng.integers(1, 25))
            stats = bin_stats(view_of(scores, correct), BinScheme(kind, b))
            assert sum(s.count for s in stats) == n
            conf_sum = sum(s.count * s.confidence for s in stats)
            acc_sum = sum(s.count * s.accuracy for s in stats)
            assert conf_sum == pytest.approx(scores.sum(), abs=1e-9)
            assert acc_sum == pytest.approx(correct.sum(), abs=1e-9)


def _order_inputs() -> dict:
    """Score matrices (rows by pools) with and without ties."""
    rng = np.random.default_rng(7)
    signed_zeros = np.where(rng.random((300, 4)) < 0.5, 0.0, -0.0)
    signed_zeros[rng.random((300, 4)) < 0.1] = 0.25
    return {
        "distinct": rng.random((300, 4)),
        "tie-heavy": rng.integers(0, 4, (300, 4)) / 4,
        # softmax of logits near +-1e4: one 1.0 per row, exact zeros elsewhere
        "saturated": row_softmax(1e4 * rng.standard_normal((300, 4))),
        "signed-zeros": signed_zeros,
        "one-row": rng.random((1, 2)),
    }


ORDER_INPUTS = _order_inputs()


class TestPooledOrder:
    """``PooledScores.order`` is the stable sort, whichever argsort made it."""

    @pytest.mark.parametrize("name", sorted(ORDER_INPUTS))
    def test_order_is_the_stable_sort(self, name):
        matrix = ORDER_INPUTS[name]
        n, k = matrix.shape
        flat = matrix.ravel()
        hits = np.arange(0)
        for scores, n_pools in ((flat, 1), (matrix, k)):
            order = PooledScores(scores, hits, None, n_pools).order
            np.testing.assert_array_equal(
                order, np.argsort(scores, axis=0, kind="stable")
            )
        pools = np.tile(np.arange(k), n)
        order = PooledScores(flat, hits, pools, k).order
        np.testing.assert_array_equal(order, np.lexsort((flat, pools)))

    def test_nan_scores_bin_in_stable_order(self):
        rng = np.random.default_rng(11)
        scores = rng.random(200)
        scores[rng.choice(200, 30, replace=False)] = np.nan
        correct = rng.random(200) < 0.5
        stats = bin_stats(
            ScoredPredictions(scores, np.zeros(200, dtype=int), correct),
            BinScheme("adaptive", 7),
        )
        order = np.argsort(scores, kind="stable")
        runs = np.split(order, np.cumsum(adaptive_counts(200, 7))[:-1])
        assert [st_.count for st_ in stats] == [len(run) for run in runs]
        for st_, run in zip(stats, runs):
            assert st_.accuracy == correct[run].sum() / len(run)
        assert np.isnan(stats[-1].confidence)

    @pytest.mark.parametrize("n_bins", [2, 15])
    def test_saturated_k1000_all_configs_match_oracle(self, n_bins):
        rng = np.random.default_rng(1000)
        z = 1e4 * rng.standard_normal((8, 1000))
        p = PredictionSet(row_softmax(z), rng.integers(0, 1000, 8))
        assert (p.probs == 0.0).mean() > 0.99
        for score in gce_many(p, all_configs(n_bins)):
            binning, mp, cc, thr, norm = score.config.axis_tuple()
            ref = oracle.brute_force_gce(
                p.probs, p.labels, binning, mp, cc, thr, norm, n_bins
            )
            assert score.value == pytest.approx(ref, abs=1e-10), score.config
