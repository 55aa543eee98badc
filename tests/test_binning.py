"""Even and adaptive bin construction."""

from __future__ import annotations

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from calerr import (
    BinScheme,
    PredictionSet,
    all_configs,
    gce,
    gce_many,
    gce_with_bins,
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
from calerr.metrics import _pooled_view


def totals_of(view, scheme):
    """``bin_totals`` of ``view`` under one scheme, as ``(n_pools, n_bins)`` arrays."""
    return tuple(t[0] for t in bin_totals(view, scheme.kind, (scheme.n_bins,)))


def bins_of(scores, correct, scheme):
    """The bin table of one pool of ``scores``; ``correct`` marks the hits."""
    view = PooledScores(np.asarray(scores, dtype=float), np.flatnonzero(correct), None, 1)
    return pool_bin_stats(view, scheme, totals_of(view, scheme))


def table_bytes(table):
    """Each column of a bin table as bytes (None stays None), for exact comparison."""
    return [None if column is None else column.tobytes() for column in table]


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


def reference_adaptive_totals(view, bins):
    """Adaptive ``bin_totals`` of a view without pool labels by definition.

    Each pool's stable argsort gives every entry its run, and intp keys go
    through three bincounts per bin count, padded to ``max(bins)``.
    """
    scores = view.scores.reshape(view.scores.shape[0], -1)
    n, k = scores.shape
    order = np.argsort(scores, axis=0, kind="stable")
    top = max(bins)
    size, shape = k * top, (k, top)
    totals = []
    for b in bins:
        runs = np.empty(scores.shape, dtype=np.intp)
        np.put_along_axis(runs, order, np.repeat(np.arange(b), adaptive_counts(n, b))[:, None],
                          axis=0)
        keys = (np.arange(k) * top + runs).ravel()
        totals.append((
            np.bincount(keys, minlength=size).reshape(shape),
            np.bincount(keys, weights=scores.ravel(), minlength=size).reshape(shape),
            np.bincount(keys[view.hits], minlength=size).reshape(shape),
        ))
    return tuple(np.stack(t) for t in zip(*totals))


def assert_same_totals(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def adaptive_edges(scores, n_bins):
    """The edges of the adaptive bins of ``scores``, read from the bins."""
    table = bins_of(scores, [], BinScheme("adaptive", n_bins))
    return np.append(table.lower[:1], table.upper)


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
        table = bins_of(scores, [1, 0, 1, 1], BinScheme("even", 10))
        assert all(len(column) == 10 for column in table[1:])
        assert table.class_index is None
        assert table.count.sum() == 4
        assert table.count[1] == 2
        assert table.accuracy[1] == pytest.approx(0.5)
        assert table.confidence[1] == pytest.approx(0.16)

    def test_even_empty_bins_are_zeroed(self):
        table = bins_of([0.95], [1], BinScheme("even", 10))
        assert table.count[0] == 0
        assert table.accuracy[0] == 0.0 and table.confidence[0] == 0.0

    def test_adaptive_equal_count(self):
        scores = [0.9, 0.1, 0.5, 0.3]
        table = bins_of(scores, [1, 0, 1, 0], BinScheme("adaptive", 2))
        assert table.count.tolist() == [2, 2]
        # sorted order: 0.1, 0.3 | 0.5, 0.9
        assert table.confidence[0] == pytest.approx(0.2)
        assert table.confidence[1] == pytest.approx(0.7)
        assert table.accuracy[1] == pytest.approx(1.0)

    def test_adaptive_ties_keep_original_order(self):
        # all scores equal: membership must follow input position
        scores = [0.5, 0.5, 0.5, 0.5]
        table = bins_of(scores, [1, 1, 0, 0], BinScheme("adaptive", 2))
        assert table.accuracy[0] == pytest.approx(1.0)
        assert table.accuracy[1] == pytest.approx(0.0)

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
            table = bins_of(scores, correct, BinScheme(kind, b))
            assert table.count.sum() == n
            conf_sum = sum(c * conf for c, conf in zip(table.count, table.confidence))
            acc_sum = sum(c * acc for c, acc in zip(table.count, table.accuracy))
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
            table = pool_bin_stats(view, scheme, totals_of(view, scheme))
            assert table.class_index.tolist() == np.repeat(np.arange(k), n_bins).tolist()
            for j in range(k):
                rows = slice(j * n_bins, (j + 1) * n_bins)
                want = bins_of(matrix[:, j], correct[:, j], scheme)
                assert [column[rows].tobytes() for column in table[1:]] == table_bytes(want)[1:]

    def test_nan_scores_bin_in_stable_order(self):
        rng = np.random.default_rng(11)
        scores = rng.random(200)
        scores[rng.choice(200, 30, replace=False)] = np.nan
        correct = rng.random(200) < 0.5
        table = bins_of(scores, correct, BinScheme("adaptive", 7))
        order = np.argsort(scores, kind="stable")
        runs = np.split(order, np.cumsum(adaptive_counts(200, 7))[:-1])
        assert table.count.tolist() == [len(run) for run in runs]
        for accuracy, run in zip(table.accuracy, runs):
            assert accuracy == correct[run].sum() / len(run)
        assert np.isnan(table.confidence[-1])

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
            got = totals_of(view, BinScheme("even", n_bins))
            assert_same_totals(got, reference_even_totals(view, n_bins))

    @pytest.mark.parametrize("n_bins", [1, 15])
    def test_split_at_its_own_size(self, n_bins):
        # At K = 1000 every view here holds far more than SPLIT_EVEN_MIN_LOW
        # entries in bin 0, so all but the pool-labelled one take the split.
        probs, labels = _edge_matrix(50, 1000, n_bins, seed=3)
        assert (probs < 1 / n_bins).sum() > binning.SPLIT_EVEN_MIN_LOW
        for view in _views(probs, labels).values():
            assert_same_totals(
                totals_of(view, BinScheme("even", n_bins)),
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
                totals_of(view, BinScheme("even", 1)), reference_even_totals(view, 1)
            )

    def test_flat_bin0_sum_is_sequential(self):
        # A pairwise sum of bin 0 moves its last bits at this size, where
        # numpy's 1-D add.reduce blocks its sum even with where=.
        rng = np.random.default_rng(2000)
        probs = row_softmax(3.0 * rng.standard_normal((2000, 1000)))
        view = PooledScores(probs.ravel(), np.arange(2000) * 1000, None, 1)
        got = totals_of(view, BinScheme("even", 15))
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


GRID_BINS = (15, 1, 7, 15, 2)  # unsorted, with a duplicate and one bin


def _grid_views() -> dict:
    """Views of every form, on the split route, and over the stack limit."""
    small = _views(*_edge_matrix(400, 10, 7, seed=21))
    views = {name: small[name] for name in ("single-pool", "pool-label", "columns", "columns-F")}
    split = _views(*_edge_matrix(50, 1000, 15, seed=22))
    views["split"] = split["single-pool"]
    views["split-columns"] = split["columns"]
    big = _views(*_edge_matrix(3000, 10, 15, seed=23))
    views["over-limit"] = big["pool-label"]
    # top probabilities: only B = 1 leaves enough entries in bin 0 to split
    rng = np.random.default_rng(24)
    top = rng.uniform(0.5, 1.0, 5000)
    views["split-and-keyed"] = PooledScores(top, np.flatnonzero(rng.random(5000) < top), None, 1)
    return views


GRID_VIEWS = _grid_views()


class TestGridTotals:
    """One call over a bin-count grid gives each bin count's own totals."""

    def test_views_cover_both_limits(self):
        for name in ("split", "split-columns"):
            scores = GRID_VIEWS[name].scores
            assert (scores < 1 / max(GRID_BINS)).sum() >= binning.SPLIT_EVEN_MIN_LOW
        assert (len(GRID_BINS) * GRID_VIEWS["over-limit"].scores.size
                > binning.STACK_ENTRIES)
        mixed = GRID_VIEWS["split-and-keyed"].scores
        assert mixed.size >= binning.SPLIT_EVEN_MIN_LOW > (mixed < 1 / 2).sum()
        assert GRID_VIEWS["over-limit"].scores.size <= binning.STACK_ENTRIES

    @pytest.mark.parametrize("kind", ["even", "adaptive"])
    @pytest.mark.parametrize("name", sorted(GRID_VIEWS))
    def test_each_slice_is_its_own_call(self, kind, name):
        view = GRID_VIEWS[name]
        grid = bin_totals(view, kind, GRID_BINS)
        for g in grid:
            assert g.shape == (len(GRID_BINS), view.n_pools, max(GRID_BINS))
        for j, b in enumerate(GRID_BINS):
            alone = bin_totals(view, kind, (b,))
            assert_same_totals([g[j, :, :b] for g in grid], [t[0] for t in alone])
            assert not any(g[j, :, b:].any() for g in grid)
            if kind == "even":
                assert_same_totals([g[j, :, :b] for g in grid],
                                   reference_even_totals(view, b))


# COMPARE_MIN_ENTRIES that sends every view without pool labels down each
# adaptive route it may take: the comparison passes, or the argsort.
ROUTES = {"compare": 0, "argsort": np.iinfo(np.intp).max}
ROUTE_BINS = (1, 2, 3, 7, 15, 30, 150, 300)  # 300 runs need a uint16 count


def _fresh(view):
    """A copy of ``view`` with nothing cached, so each route sorts anew."""
    return dataclasses.replace(view)


def _on_route(monkeypatch, route, view, bins):
    """``bin_totals`` of a fresh view on ``route`` and, for one bin count, its stats.

    The stats are the edges' bytes and the bytes of each column of the
    ``pool_bin_stats`` table.
    """
    monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", ROUTES[route])
    view = _fresh(view)
    totals = bin_totals(view, "adaptive", bins)
    stats = None
    if len(bins) == 1:
        stats = [binning._midpoint_edges(view, bins[0]).tobytes(), *table_bytes(pool_bin_stats(
            view, BinScheme("adaptive", bins[0]), [t[0] for t in totals]))]
    return view, totals, stats


def assert_same_on_both_routes(monkeypatch, view, bins):
    """Both routes give the same totals and stats; return the compare route's view."""
    compared, got, got_stats = _on_route(monkeypatch, "compare", view, bins)
    _, want, want_stats = _on_route(monkeypatch, "argsort", view, bins)
    assert_same_totals(got, want)
    assert got_stats == want_stats
    return compared


def _keyed_blocks(monkeypatch, view, bins):
    """Adaptive ``bin_totals`` of ``view``: (blocks keyed, blocks keyed by passes).

    A pool-labelled view is keyed through its order, in no block.
    """
    blocks, compared = [], []
    block_keys, compared_runs = binning._block_keys, binning._compared_runs
    with monkeypatch.context() as patch:
        patch.setattr(binning, "_block_keys", lambda *a: blocks.append(1) or block_keys(*a))
        patch.setattr(binning, "_compared_runs",
                      lambda *a: compared.append(1) or compared_runs(*a))
        bin_totals(view, "adaptive", bins)
    return len(blocks), len(compared)


def _fixed_entries(monkeypatch, view, bins):
    """Adaptive ``bin_totals`` of ``view`` with the passes allowed everywhere.

    Returns, per block, how many entries the exact check of tied float32
    proxies fixed, or None where the block took the argsort instead.
    """
    found = []
    proxy_passes = binning._proxy_passes

    def spy(*args):
        passes = proxy_passes(*args)
        found.append(None if passes is None else
                     sum(rows.size for fixed in passes[2] for _, rows in fixed))
        return passes

    with monkeypatch.context() as patch:
        patch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        patch.setattr(binning, "_proxy_passes", spy)
        bin_totals(_fresh(view), "adaptive", bins)
    return found


def _float32_cluster(column, at, size, rng):
    """Set the ``size`` entries of ``column`` around sorted rank ``at`` to
    distinct float64 scores that round to one float32, in shuffled order."""
    order = np.argsort(column, kind="stable")
    rows = order[at - size // 2:at - size // 2 + size]
    base = float(np.float32(column[order[at]]))
    column[rows] = base + rng.permutation(size) * 2.3e-16
    assert np.unique(column[rows]).size == size
    assert (column[rows].astype(np.float32) == np.float32(base)).all()


def _proxy_tie_matrix():
    """600 x 6 distinct scores; columns 0, 2 and 4 hold a float32 cluster
    across run starts, column 1 is one cluster from end to end."""
    rng = np.random.default_rng(51)
    matrix = rng.random((600, 6))
    for j, at, size in ((0, 300, 250), (2, 200, 41), (4, 400, 13)):
        _float32_cluster(matrix[:, j], at, size, rng)
    matrix[:, 1] = 0.25 + rng.permutation(600) * 2.3e-16
    assert np.unique(matrix).size == matrix.size
    return matrix


def _peak(run):
    """The ``tracemalloc`` peak of ``run()``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nan_view():
    rng = np.random.default_rng(11)
    scores = rng.random(2000)
    scores[rng.choice(2000, 300, replace=False)] = np.nan
    return PooledScores(scores, np.flatnonzero(rng.random(2000) < 0.5), None, 1)


def _order_views():
    views = {}
    for name, matrix in ORDER_INPUTS.items():
        hits = np.flatnonzero(np.random.default_rng(5).random(matrix.size) < 0.3)
        views[f"{name}-flat"] = PooledScores(matrix.ravel(), hits, None, 1)
        views[f"{name}-columns"] = PooledScores(matrix, hits, None, matrix.shape[1])
    return views


ORDER_VIEWS = _order_views()


class TestAdaptiveRoutes:
    """Comparison passes at the run starts key as the stable sort does."""

    @pytest.mark.parametrize("n_bins", ROUTE_BINS)
    @pytest.mark.parametrize("name", sorted(ORDER_VIEWS))
    def test_order_inputs(self, monkeypatch, name, n_bins):
        view = assert_same_on_both_routes(monkeypatch, ORDER_VIEWS[name], (n_bins,))
        if name.startswith("distinct") and n_bins <= len(view.scores):
            assert "order" not in view.__dict__  # the compare route ran

    @pytest.mark.parametrize("n_bins", ROUTE_BINS)
    @pytest.mark.parametrize("k", sorted(SHAPES))
    def test_edge_matrix_views(self, monkeypatch, k, n_bins):
        probs, labels = _edge_matrix(SHAPES[k], k, n_bins, seed=k + n_bins)
        for view in _views(probs, labels).values():  # columns-F among them
            assert_same_on_both_routes(monkeypatch, view, (n_bins,))

    @pytest.mark.parametrize("n_bins", ROUTE_BINS)
    def test_nan_view_keeps_the_argsort(self, monkeypatch, n_bins):
        view = assert_same_on_both_routes(monkeypatch, _nan_view(), (n_bins,))
        assert ("order" in view.__dict__) == (n_bins > 1)

    @pytest.mark.parametrize("n_bins", ROUTE_BINS)
    def test_view_over_the_stack_limit(self, monkeypatch, n_bins):
        # More entries than bin_totals stacks at once, on either route.
        rng = np.random.default_rng(17)
        scores = rng.random(binning.STACK_ENTRIES + 1000)
        view = PooledScores(scores, np.flatnonzero(rng.random(scores.size) < 0.3), None, 1)
        assert_same_on_both_routes(monkeypatch, view, (n_bins,))

    @pytest.mark.parametrize("name", sorted(GRID_VIEWS))
    def test_grid(self, monkeypatch, name):
        assert_same_on_both_routes(monkeypatch, GRID_VIEWS[name], GRID_BINS)

    def test_tie_across_a_run_start_keeps_the_argsort(self, monkeypatch):
        # Twelve entries in three runs of four: the two 0.45 entries sort to
        # ranks 3 and 4, one each side of the first start, and the stable
        # order puts the first of them (a hit) in run 0.
        scores = np.array([0.9, 0.45, 0.1, 0.2, 0.45, 0.7, 0.3, 0.8, 0.6, 0.95, 0.5, 0.85])
        view = PooledScores(scores, np.array([1]), None, 1)
        s = np.sort(scores)
        assert s[3] == s[4]
        compared = assert_same_on_both_routes(monkeypatch, view, (3,))
        assert "order" in compared.__dict__
        counts, _, hits = totals_of(_fresh(view), BinScheme("adaptive", 3))
        assert counts.tolist() == [[4, 4, 4]] and hits.tolist() == [[1, 0, 0]]

    def test_tie_inside_a_run_takes_the_comparison(self, monkeypatch):
        # The two 0.45 entries sort to ranks 5 and 6, both in run 1.
        scores = np.array([0.9, 0.45, 0.1, 0.2, 0.45, 0.7, 0.3, 0.8, 0.05, 0.95, 0.15, 0.85])
        view = PooledScores(scores, np.array([1, 4]), None, 1)
        s = np.sort(scores)
        assert s[5] == s[6] and s[3] < s[4] and s[7] < s[8]
        compared = assert_same_on_both_routes(monkeypatch, view, (3,))
        assert "order" not in compared.__dict__
        counts, _, hits = totals_of(_fresh(view), BinScheme("adaptive", 3))
        assert counts.tolist() == [[4, 4, 4]] and hits.tolist() == [[0, 2, 0]]

    def test_routes_at_benchmark_shapes(self, monkeypatch):
        # Unthresholded full views at 200 x 1000 skip the argsort in every
        # block; the views of a 150 x 10 set, binned over a five-count grid,
        # keep it.
        rng = np.random.default_rng(0)
        wide = PredictionSet(row_softmax(3.0 * rng.standard_normal((200, 1000))),
                             rng.integers(0, 1000, 200))
        for n_bins in (15, 30):
            for index in (24, 25, 28, 29):
                view = _pooled_view(wide, all_configs(n_bins)[index])
                blocks, compared = _keyed_blocks(monkeypatch, view, (n_bins,))
                assert compared == blocks > 0, index
                assert "order" not in view.__dict__, index
        small = PredictionSet(row_softmax(3.0 * rng.standard_normal((150, 10))),
                              rng.integers(0, 10, 150))
        for cfg in all_configs()[16:]:
            view = _pooled_view(small, cfg)
            assert _keyed_blocks(monkeypatch, view, (10, 20, 30, 40, 50))[1] == 0, cfg

    def test_matrix_needs_more_entries_per_pass(self, monkeypatch):
        # 15,000 entries: as columns of 1,500 x 10 they hold 1,071 entries per
        # pass at B = 15 and 517 at B = 30; as one flat pool, 517 at B = 30.
        rng = np.random.default_rng(3)
        matrix = row_softmax(3.0 * rng.standard_normal((1500, 10)))
        hits = np.flatnonzero(rng.random(matrix.size) < 0.3)
        cases = [(PooledScores(matrix, hits, None, 10), 15, False),
                 (PooledScores(matrix, hits, None, 10), 30, True),
                 (PooledScores(matrix.ravel(), hits, None, 1), 30, False)]
        for view, n_bins, sorted_ in cases:
            assert _keyed_blocks(monkeypatch, view, (n_bins,)) == (1, int(not sorted_)), \
                (view.scores.ndim, n_bins)

    @pytest.mark.parametrize("n_bins", [1, 7, 15, 30])
    @pytest.mark.parametrize("block_entries, n_blocks", [(1, 10), (1200, 4), (4000, 1)])
    @pytest.mark.parametrize("name", ["columns", "columns-F"])
    @pytest.mark.parametrize("source", ["edge", "softmax"])
    def test_column_blocks(self, monkeypatch, source, name, block_entries, n_blocks, n_bins):
        # 400 x 10 columns in blocks of one column, of 3, 3, 3 and 1 columns,
        # and in one block; the edge matrix ties across starts in some.
        if source == "edge":
            probs, labels = _edge_matrix(400, 10, n_bins, seed=31 + n_bins)
        else:
            rng = np.random.default_rng(31 + n_bins)
            probs, labels = row_softmax(3.0 * rng.standard_normal((400, 10))), rng.integers(0, 10, 400)
        view = _views(probs, labels)[name]
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", block_entries)
        assert_same_on_both_routes(monkeypatch, view, (n_bins,))
        monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        blocks, compared = _keyed_blocks(monkeypatch, _fresh(view), (n_bins,))
        assert blocks == n_blocks
        if source == "softmax":
            assert compared == n_blocks
        assert_same_totals(bin_totals(_fresh(view), "adaptive", (n_bins,)),
                           reference_adaptive_totals(view, (n_bins,)))

    @pytest.mark.parametrize("flaw", ["tie", "nan"])
    def test_one_flawed_block_takes_the_argsort(self, monkeypatch, flaw):
        # 300 x 6 distinct scores in three blocks of two columns; column 3
        # alone gets a tie across its first run start (B = 3), or a NaN.
        rng = np.random.default_rng(41)
        matrix = rng.random((300, 6))
        column = matrix[:, 3]
        s = np.sort(column)
        if flaw == "tie":
            column[column == s[100]] = s[99]
        else:
            column[7] = np.nan
        view = PooledScores(matrix, np.flatnonzero(rng.random(matrix.size) < 0.3), None, 6)
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", 600)
        assert_same_on_both_routes(monkeypatch, view, (3,))
        monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        assert _keyed_blocks(monkeypatch, _fresh(view), (3,)) == (3, 2)
        assert_same_totals(bin_totals(_fresh(view), "adaptive", (3,)),
                           reference_adaptive_totals(view, (3,)))

    @pytest.mark.parametrize("n_bins", [30, 300])
    def test_fewer_entries_than_bins(self, monkeypatch, n_bins):
        rng = np.random.default_rng(43)
        probs = row_softmax(3.0 * rng.standard_normal((20, 300)))
        hits = np.arange(20) * 300 + rng.integers(0, 300, 20)
        views = [PooledScores(probs, hits, None, 300),
                 PooledScores(np.asfortranarray(probs), hits, None, 300),
                 PooledScores(probs[:, 0], np.arange(0, 20, 3), None, 1)]
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", 1000)
        for view in views:
            assert_same_on_both_routes(monkeypatch, view, (n_bins,))
            assert_same_totals(bin_totals(_fresh(view), "adaptive", (n_bins,)),
                               reference_adaptive_totals(view, (n_bins,)))

    @pytest.mark.parametrize("name", ["single-pool", "columns", "columns-F"])
    def test_grid_in_blocks(self, monkeypatch, name):
        # Five bin counts stacked into one key array, in blocks of 3, 3, 3
        # and 1 columns.
        view = GRID_VIEWS[name]
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", 1200)
        assert_same_on_both_routes(monkeypatch, view, GRID_BINS)
        assert_same_totals(bin_totals(_fresh(view), "adaptive", GRID_BINS),
                           reference_adaptive_totals(view, GRID_BINS))

    @pytest.mark.parametrize("shape, bins, dtype", [
        ((2000,), (256,), np.uint8), ((2000,), (257,), np.uint16),
        ((100, 10), (25,), np.uint8), ((100, 10), (26,), np.uint16),
        ((30, 1000), (30, 40), np.uint32),
    ])
    def test_narrowest_key_type(self, monkeypatch, shape, bins, dtype):
        rng = np.random.default_rng(47)
        scores = rng.random(shape)
        n_pools = shape[1] if len(shape) == 2 else 1
        view = PooledScores(scores, np.flatnonzero(rng.random(scores.size) < 0.3), None, n_pools)
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", scores.size // 4)
        counts = binning._padded_counts(view.sizes, bins, max(bins))
        assert binning._stacked_keys(view, "adaptive", bins, max(bins), counts).dtype == dtype
        assert_same_on_both_routes(monkeypatch, view, bins)
        assert_same_totals(bin_totals(_fresh(view), "adaptive", bins),
                           reference_adaptive_totals(view, bins))

    @pytest.mark.parametrize("n_bins", [3, 15, 50, 300])  # counts of uint8 and uint16, in place or not
    @pytest.mark.parametrize("name", ["flat", "columns", "columns-F"])
    def test_float32_ties_are_refined(self, monkeypatch, name, n_bins):
        # Distinct float64 scores that tie as float32 proxies across run
        # starts keep the passes, in each of three blocks, and key exactly.
        matrix = _proxy_tie_matrix()
        hits = np.flatnonzero(np.random.default_rng(52).random(matrix.size) < 0.3)
        if name == "flat":
            view = PooledScores(matrix.ravel(), hits, None, 1)
        else:
            order = "F" if name == "columns-F" else "C"
            view = PooledScores(np.asarray(matrix, order=order), hits, None, 6)
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", 1200)
        fixed = _fixed_entries(monkeypatch, view, (n_bins,))
        assert len(fixed) == (1 if name == "flat" else 3)
        assert all(f is not None and f > 0 for f in fixed), fixed
        assert_same_on_both_routes(monkeypatch, view, (n_bins,))
        monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        assert_same_totals(bin_totals(_fresh(view), "adaptive", (n_bins,)),
                           reference_adaptive_totals(view, (n_bins,)))

    @pytest.mark.parametrize("name", ["flat", "columns"])
    def test_float32_ties_in_a_grid(self, monkeypatch, name):
        matrix = _proxy_tie_matrix()
        hits = np.flatnonzero(np.random.default_rng(52).random(matrix.size) < 0.3)
        view = (PooledScores(matrix.ravel(), hits, None, 1) if name == "flat"
                else PooledScores(matrix, hits, None, 6))
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", 1200)
        assert all(f for f in _fixed_entries(monkeypatch, view, GRID_BINS))
        assert_same_on_both_routes(monkeypatch, view, GRID_BINS)
        monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        assert_same_totals(bin_totals(_fresh(view), "adaptive", GRID_BINS),
                           reference_adaptive_totals(view, GRID_BINS))

    def test_float32_tie_in_one_block(self, monkeypatch):
        # 300 x 6 distinct scores in three blocks of two columns; column 3
        # alone ties as float32 across its first run start (B = 3).
        rng = np.random.default_rng(41)
        matrix = rng.random((300, 6))
        _float32_cluster(matrix[:, 3], 100, 7, rng)
        view = PooledScores(matrix, np.flatnonzero(rng.random(matrix.size) < 0.3), None, 6)
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", 600)
        assert _fixed_entries(monkeypatch, view, (3,)) == [0, 3, 0]
        assert_same_on_both_routes(monkeypatch, view, (3,))
        monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        assert_same_totals(bin_totals(_fresh(view), "adaptive", (3,)),
                           reference_adaptive_totals(view, (3,)))

    @pytest.mark.parametrize("scale", [1e-50, 1e39])
    def test_proxies_out_of_float32_range(self, monkeypatch, scale):
        # Distinct scores whose proxies all underflow to 0 or overflow to
        # inf: one tied group across every start, refined without a warning.
        rng = np.random.default_rng(53)
        scores = scale * (1.0 + rng.permutation(2000))
        view = PooledScores(scores, np.flatnonzero(rng.random(2000) < 0.3), None, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _fixed_entries(monkeypatch, view, (15,))[0] > 0
        assert_same_on_both_routes(monkeypatch, view, (15,))
        monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        assert_same_totals(bin_totals(_fresh(view), "adaptive", (15,)),
                           reference_adaptive_totals(view, (15,)))

    @pytest.mark.parametrize("flaw", ["signed-zeros", "equal", "nan"])
    @pytest.mark.parametrize("name", ["flat", "columns"])
    def test_float64_tie_or_nan_takes_the_argsort(self, monkeypatch, name, flaw):
        # 600 x 2 scores, column 1 with 300 below 0 and 300 above.  Its ranks
        # 299 and 300, one each side of its run start (B = 2), become 0.0 and
        # -0.0 (in that input order), or one score twice within a float32
        # cluster of nine; or the column takes a NaN.  The first two tie as
        # float64 too, and a NaN can't be ordered, so the block takes the
        # argsort.
        rng = np.random.default_rng(55)
        matrix = rng.uniform(-1.0, 1.0, (600, 2))
        column = matrix[:, 1]
        column[:] = rng.permutation(np.r_[-0.5 - rng.random(300), 0.5 + rng.random(300)])
        if flaw == "equal":
            _float32_cluster(column, 300, 9, rng)
        lo, hi = np.argsort(column, kind="stable")[[299, 300]]
        if flaw == "signed-zeros":
            column[min(lo, hi)], column[max(lo, hi)] = 0.0, -0.0
        elif flaw == "equal":
            column[hi] = column[lo]
        else:
            column[7] = np.nan
        hits = np.flatnonzero(rng.random(matrix.size) < 0.3)
        view = (PooledScores(column.copy(), hits[hits < 600], None, 1) if name == "flat"
                else PooledScores(matrix, hits, None, 2))
        monkeypatch.setattr(binning, "BLOCK_ENTRIES", 600)
        assert _fixed_entries(monkeypatch, view, (2,)) == ([None] if name == "flat" else [0, None])
        compared = assert_same_on_both_routes(monkeypatch, view, (2,))
        if name == "flat":
            assert "order" in compared.__dict__
        monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        assert_same_totals(bin_totals(_fresh(view), "adaptive", (2,)),
                           reference_adaptive_totals(view, (2,)))

    @pytest.mark.parametrize("flaw", [None, "equal"])
    def test_sorted_view_compares_its_scores(self, monkeypatch, flaw):
        # A 1-D view whose float64 sorted copy is made compares its own
        # scores: its float32 clusters need no fixes, and a float64 tie
        # across a run start (B = 15) still takes the argsort.
        scores = _proxy_tie_matrix().ravel()
        if flaw == "equal":
            lo, hi = np.argsort(scores, kind="stable")[[239, 240]]
            scores[hi] = scores[lo]
        view = PooledScores(scores, np.flatnonzero(scores > 0.5), None, 1)
        view.sorted_scores
        seen = []
        proxy_passes = binning._proxy_passes

        def spy(v, starts):
            passes = proxy_passes(v, starts)
            seen.append(None if passes is None else
                        (passes[0] is v.scores, sum(len(fixed) for fixed in passes[2])))
            return passes

        monkeypatch.setattr(binning, "COMPARE_MIN_ENTRIES", 0)
        monkeypatch.setattr(binning, "_proxy_passes", spy)
        got = bin_totals(view, "adaptive", (15,))
        assert seen == ([None] if flaw else [(True, 0)])
        assert_same_totals(got, reference_adaptive_totals(view, (15,)))
        edges = binning._midpoint_edges(view, 15)
        _, want, want_stats = _on_route(monkeypatch, "argsort", view, (15,))
        assert_same_totals(got, want)
        assert edges.tobytes() == want_stats[0]

    def test_reports_key_a_flat_view_from_its_sorted_copy(self, monkeypatch):
        # The edges of gce_with_bins read a flat view's float64 sorted copy,
        # so it is made first and the keys compare the scores, not proxies.
        rng = np.random.default_rng(0)
        p = PredictionSet(row_softmax(3.0 * rng.standard_normal((200, 1000))),
                          rng.integers(0, 1000, 200))
        seen = []
        proxy_passes = binning._proxy_passes
        monkeypatch.setattr(binning, "_proxy_passes", lambda v, starts: seen.append(
            "sorted_scores" in v.__dict__) or proxy_passes(v, starts))
        for index in (28, 29):
            cfg = all_configs(15)[index]
            assert gce_with_bins(p, cfg)[0] == gce(p, cfg)
        assert seen == [True, False, True, False]

    def test_full_view_peak_memory(self):
        # Narrow keys, and a matrix keyed block by block: no N·K intp array,
        # and no sorted copy of a whole matrix.
        rng = np.random.default_rng(0)
        p = PredictionSet(row_softmax(3.0 * rng.standard_normal((500, 1000))),
                          rng.integers(0, 1000, 500))
        bounds = {24: 0.55, 25: 0.55, 28: 1.2, 29: 1.2}
        for n_bins in (15, 30):
            for index, bound in bounds.items():
                peak = _peak(functools.partial(gce, p, all_configs(n_bins)[index]))
                assert peak <= bound * p.probs.nbytes, (index, n_bins)
        assert _peak(functools.partial(gce_many, p, all_configs())) <= 1.4 * p.probs.nbytes

    def test_tied_full_view_peak_memory(self):
        # Saturated rows tie as float64 at every run start, so their views
        # take the stable argsort, with no float64 sorted copy beside it.
        rng = np.random.default_rng(13)
        p = PredictionSet(row_softmax(1e4 * rng.standard_normal((500, 1000))),
                          rng.integers(0, 1000, 500))
        bounds = {24: 0.6, 25: 0.6, 28: 1.9, 29: 1.9}
        for n_bins in (15, 30):
            for index, bound in bounds.items():
                peak = _peak(functools.partial(gce, p, all_configs(n_bins)[index]))
                assert peak <= bound * p.probs.nbytes, (index, n_bins)
        assert _peak(functools.partial(gce_many, p, all_configs())) <= 2.1 * p.probs.nbytes
