"""Even and adaptive bin construction."""

from __future__ import annotations

import dataclasses
import tracemalloc

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
    gce,
    gce_many,
    row_softmax,
)
from calerr import binning
from calerr.binning import (
    PooledScores,
    adaptive_counts,
    assign_even_bins,
    bin_totals,
    even_edges,
    pool_bin_stats,
)


def bins_of(scores, correct, scheme):
    """The bins of one pool of ``scores``; ``correct`` marks the hits."""
    view = PooledScores(np.asarray(scores, dtype=float), np.flatnonzero(correct), None, 1)
    return pool_bin_stats(view, scheme, bin_totals(view, scheme))[0]


def reference_even_bins(scores, n_bins):
    """The even bin of each score: last edge at or below it, within [0, B)."""
    idx = np.searchsorted(even_edges(n_bins), scores, side="right") - 1
    return np.clip(idx, 0, n_bins - 1)


def reference_even_totals(view, n_bins):
    """Even ``bin_totals`` by definition: one key per entry, three bincounts."""
    scores = view.scores
    if scores.ndim == 2:
        pools = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    else:
        pools = np.zeros(scores.shape, int) if view.pools is None else view.pools
    keys = (pools * n_bins + reference_even_bins(scores, n_bins)).ravel()
    size, shape = view.n_pools * n_bins, (view.n_pools, n_bins)
    return (
        np.bincount(keys, minlength=size).reshape(shape),
        np.bincount(keys, weights=scores.ravel(), minlength=size).reshape(shape),
        np.bincount(keys[view.hits], minlength=size).reshape(shape),
    )


def assert_same_totals(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def adaptive_edges(scores, n_bins):
    """The edges of the adaptive bins of ``scores``, read from the bins."""
    stats = bins_of(scores, [], BinScheme("adaptive", n_bins))
    return np.array([stats[0].lower] + [st_.upper for st_ in stats])


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

    @pytest.mark.parametrize("n_bins", [1, 2, 10, 15, 30, 150])
    def test_assignment_of_any_float(self, n_bins):
        # Edges, 1.0, both zeros, values outside [0, 1], infinities and NaN
        # take the bin of the search over all edges, shifted and clipped.
        scores = np.concatenate([
            even_edges(n_bins), np.nextafter(even_edges(n_bins), 2.0),
            [-0.0, -1e-300, -0.5, 1.5, np.inf, -np.inf, np.nan],
        ])
        np.testing.assert_array_equal(
            assign_even_bins(scores, n_bins), reference_even_bins(scores, n_bins)
        )

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
        stats = bins_of(scores, [1, 0, 1, 1], BinScheme("even", 10))
        assert len(stats) == 10
        assert sum(s.count for s in stats) == 4
        assert stats[1].count == 2
        assert stats[1].accuracy == pytest.approx(0.5)
        assert stats[1].confidence == pytest.approx(0.16)

    def test_even_empty_bins_are_zeroed(self):
        stats = bins_of([0.95], [1], BinScheme("even", 10))
        empty = stats[0]
        assert empty.count == 0
        assert empty.accuracy == 0.0 and empty.confidence == 0.0

    def test_gap_property(self):
        st_ = BinStats(0.0, 0.1, 3, accuracy=0.9, confidence=0.7)
        assert st_.gap == pytest.approx(0.2)

    def test_adaptive_equal_count(self):
        scores = [0.9, 0.1, 0.5, 0.3]
        stats = bins_of(scores, [1, 0, 1, 0], BinScheme("adaptive", 2))
        assert [s.count for s in stats] == [2, 2]
        # sorted order: 0.1, 0.3 | 0.5, 0.9
        assert stats[0].confidence == pytest.approx(0.2)
        assert stats[1].confidence == pytest.approx(0.7)
        assert stats[1].accuracy == pytest.approx(1.0)

    def test_adaptive_ties_keep_original_order(self):
        # all scores equal: membership must follow input position
        scores = [0.5, 0.5, 0.5, 0.5]
        stats = bins_of(scores, [1, 1, 0, 0], BinScheme("adaptive", 2))
        assert stats[0].accuracy == pytest.approx(1.0)
        assert stats[1].accuracy == pytest.approx(0.0)

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
            stats = bins_of(scores, correct, BinScheme(kind, b))
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

    @pytest.mark.parametrize("name", sorted(ORDER_INPUTS))
    @pytest.mark.parametrize("n_bins", [1, 3, 7])
    def test_adaptive_bins_of_pools_are_those_of_each_pool(self, name, n_bins):
        # The columns of a matrix, and the labelled pools of a flat view,
        # bin as each pool binned on its own: edges gathered through the
        # shared order, signed zeros included.
        matrix = ORDER_INPUTS[name]
        n, k = matrix.shape
        flat = matrix.ravel()
        hits = np.flatnonzero(np.random.default_rng(5).random(flat.size) < 0.3)
        correct = np.isin(np.arange(flat.size), hits).reshape(n, k)
        scheme = BinScheme("adaptive", n_bins)
        pools = np.tile(np.arange(k), n)
        for view in (PooledScores(matrix, hits, None, k), PooledScores(flat, hits, pools, k)):
            stats = pool_bin_stats(view, scheme, bin_totals(view, scheme))
            for j in range(k):
                want = bins_of(matrix[:, j], correct[:, j], scheme)
                assert [repr(dataclasses.replace(st_, class_index=None)) for st_ in stats[j]] \
                    == [repr(st_) for st_ in want]

    def test_nan_scores_bin_in_stable_order(self):
        rng = np.random.default_rng(11)
        scores = rng.random(200)
        scores[rng.choice(200, 30, replace=False)] = np.nan
        correct = rng.random(200) < 0.5
        stats = bins_of(scores, correct, BinScheme("adaptive", 7))
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


def _edge_matrix(n, k, n_bins, seed):
    """Softmax rows with entries set to i / B, 1.0, 0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    probs = row_softmax(3.0 * rng.standard_normal((n, k)))
    u = rng.random((n, k))
    probs[u < 0.05] = rng.integers(0, n_bins + 1, (n, k))[u < 0.05] / n_bins
    probs[(u >= 0.05) & (u < 0.07)] = 1.0
    probs[(u >= 0.07) & (u < 0.09)] = 0.0
    probs[(u >= 0.09) & (u < 0.11)] = -0.0
    return probs, rng.integers(0, k, n)


def _views(probs, labels):
    """1-D single-pool, 1-D pool-label and 2-D column views of one matrix."""
    n, k = probs.shape
    flat = probs.ravel()
    hits = np.arange(n) * k + labels
    # a pool-labelled subset, as a thresholded class-conditional view is
    keep = np.flatnonzero(np.random.default_rng(n * k).random(flat.size) < 0.7)
    hit = np.zeros(flat.size, dtype=bool)
    hit[hits] = True
    return {
        "single-pool": PooledScores(flat, hits, None, 1),
        "pool-label": PooledScores(flat[keep], np.flatnonzero(hit[keep]), keep % k, k),
        "columns": PooledScores(probs, hits, None, k),
        "columns-F": PooledScores(np.asfortranarray(probs), hits, None, k),
    }


SHAPES = {2: 1500, 10: 400, 1000: 8}


class TestEvenTotals:
    """Even totals are those of one key per entry, to the last bit."""

    @pytest.mark.parametrize("side", ["split", "keyed"])
    @pytest.mark.parametrize("k", sorted(SHAPES))
    @pytest.mark.parametrize("n_bins", [1, 2, 15, 30, 150])
    def test_both_sides_of_the_split_size(self, monkeypatch, side, k, n_bins):
        probs, labels = _edge_matrix(SHAPES[k], k, n_bins, seed=k + n_bins)
        # 0 sends every view without pool labels down the split path, a size
        # above any view none; the pool-labelled view is keyed either way.
        split_min = 0 if side == "split" else probs.size + 1
        monkeypatch.setattr(binning, "SPLIT_EVEN_MIN_LOW", split_min)
        for name, view in _views(probs, labels).items():
            got = bin_totals(view, BinScheme("even", n_bins))
            assert_same_totals(got, reference_even_totals(view, n_bins))

    @pytest.mark.parametrize("n_bins", [1, 15])
    def test_split_at_its_own_size(self, n_bins):
        # At K = 1000 every view here holds far more than SPLIT_EVEN_MIN_LOW
        # entries in bin 0, so all but the pool-labelled one take the split.
        probs, labels = _edge_matrix(50, 1000, n_bins, seed=3)
        assert (probs < 1 / n_bins).sum() > binning.SPLIT_EVEN_MIN_LOW
        for view in _views(probs, labels).values():
            assert_same_totals(
                bin_totals(view, BinScheme("even", n_bins)),
                reference_even_totals(view, n_bins),
            )

    def test_one_bin_counts_ones_in_order(self):
        # With one bin there is no inner edge: an entry of 1.0 is in bin 0
        # like every other, and its sum must be added in input order.
        rng = np.random.default_rng(20)
        probs = row_softmax(np.where(rng.random((20_000, 10)) < 0.3, 1e4, 1.0)
                            * rng.standard_normal((20_000, 10)))
        assert (probs == 1.0).any()
        labels = rng.integers(0, 10, 20_000)
        hits = np.arange(20_000) * 10 + labels
        for view in (PooledScores(probs.ravel(), hits, None, 1),
                     PooledScores(probs, hits, None, 10)):
            assert_same_totals(
                bin_totals(view, BinScheme("even", 1)), reference_even_totals(view, 1)
            )

    def test_flat_bin0_sum_is_sequential(self):
        # A pairwise sum of bin 0 moves its last bits at this size, where
        # numpy's 1-D add.reduce blocks its sum even with where=.
        rng = np.random.default_rng(2000)
        probs = row_softmax(3.0 * rng.standard_normal((2000, 1000)))
        view = PooledScores(probs.ravel(), np.arange(2000) * 1000, None, 1)
        got = bin_totals(view, BinScheme("even", 15))
        assert_same_totals(got, reference_even_totals(view, 15))

    @pytest.mark.parametrize("index", [8, 9, 12, 13])
    def test_full_view_peak_memory_stays_under_half_the_input(self, index):
        # Even unthresholded full views at K = 1000 build no key per entry.
        rng = np.random.default_rng(13)
        p = PredictionSet(row_softmax(3.0 * rng.standard_normal((500, 1000))),
                          rng.integers(0, 1000, 500))
        cfg = all_configs()[index]
        assert cfg.binning.kind == "even" and not cfg.max_probs and cfg.threshold == 0.0
        tracemalloc.start()
        try:
            gce(p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * p.probs.nbytes
