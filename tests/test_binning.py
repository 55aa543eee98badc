"""Even and adaptive bin construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calerr import BinScheme, BinStats, bin_stats
from calerr.binning import (
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
