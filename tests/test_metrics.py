"""Metric family indexing and the generalized scorer."""

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
    EmptyMeasurementError,
    MetricConfig,
    PredictionSet,
    all_configs,
    brier_score,
    gce,
    gce_many,
    gce_table,
    gce_with_bins,
    index_to_config,
    metric_index,
    named_metric,
    read_prediction_file,
    row_softmax,
    sample_mixed_difficulty_logits,
    softmax,
    write_prediction_file,
)
from calerr import analysis, binning, metrics
from calerr.metrics import NAMED_METRICS

from conftest import random_prediction_set


class TestIndexing:
    def test_round_trip_all_32(self):
        for i in range(32):
            assert metric_index(index_to_config(i)) == i

    def test_axis_tuples_match_canonical_order(self):
        expected = oracle.all_variant_axes()
        for i, cfg in enumerate(all_configs()):
            assert cfg.axis_tuple() == expected[i]

    def test_named_map(self):
        assert NAMED_METRICS == {
            "ECE": 4,
            "CCECE": 0,
            "SCE": 8,
            "ACE": 24,
            "TACE": 26,
            "RMSCE": 21,
        }

    def test_named_metric_lookup(self):
        cfg = named_metric("ece")
        assert cfg.axis_tuple() == ("even", True, False, 0.0, "l1")
        with pytest.raises(ValueError, match="unknown metric"):
            named_metric("BRIER")

    def test_label_strings(self):
        assert index_to_config(0).label() == "('even', True, True, 0.0, 'l1')"
        assert (
            index_to_config(31).label()
            == "('adaptive', False, False, 0.01, 'l2')"
        )

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            index_to_config(32)
        with pytest.raises(ValueError):
            index_to_config(-1)

    def test_off_grid_threshold_has_no_index(self):
        cfg = MetricConfig(BinScheme("even", 15), threshold=0.5)
        with pytest.raises(ValueError, match="off the standard grid"):
            metric_index(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MetricConfig(BinScheme("even", 15), norm="linf")
        with pytest.raises(ValueError):
            MetricConfig(BinScheme("even", 15), threshold=1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("threshold", "0.01", "threshold must be a real number"),
        ("threshold", True, "threshold must be a real number"),
        ("max_probs", "no", "max_probs must be a bool"),
        ("class_conditional", 1, "class_conditional must be a bool"),
    ])
    def test_config_rejects_wrong_types(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            MetricConfig(BinScheme("even", 15), **{field: value})

    def test_named_metric_rejects_non_string(self):
        with pytest.raises(ValueError, match="metric name must be a string"):
            named_metric(5)


class TestGce:
    def test_ece_hand_example(self, tiny_preds):
        # B=2: bin 1 holds all four max probs (0.8, 0.7, 0.6, 0.9);
        # acc 3/4, conf 0.75 -> ECE = 0
        score = gce(tiny_preds, named_metric("ECE", 2))
        assert score.value == pytest.approx(0.0, abs=1e-12)

    def test_ece_two_bin_example(self):
        # bins [0, .5) and [.5, 1]: three entries at .6 (2 correct),
        # one at .9 (correct) -> single occupied bin, gap |0.75 - 0.675|
        p = PredictionSet(
            np.array([[0.6, 0.4], [0.6, 0.4], [0.6, 0.4], [0.9, 0.1]]),
            np.array([0, 0, 1, 0]),
        )
        score = gce(p, named_metric("ECE", 2))
        assert score.value == pytest.approx(abs(0.75 - 0.675), abs=1e-12)

    def test_threshold_ignored_under_max_probs(self, rng):
        p = random_prediction_set(rng)
        for base in (0, 1, 4, 5, 16, 17, 20, 21):
            with_zero = gce(p, index_to_config(base, 5)).value
            with_eps = gce(p, index_to_config(base + 2, 5)).value
            assert with_zero == with_eps

    def test_per_class_mean_is_value(self, rng):
        p = random_prediction_set(rng)
        score = gce(p, named_metric("SCE", 5))
        assert score.per_class is not None
        mean = sum(score.per_class.values()) / len(score.per_class)
        assert score.value == pytest.approx(mean, abs=1e-12)

    def test_unconditional_score_has_no_per_class(self, tiny_preds):
        assert gce(tiny_preds, named_metric("ECE")).per_class is None

    def test_empty_view_raises(self):
        p = PredictionSet(np.array([[0.6, 0.4]]), np.array([0]))
        cfg = MetricConfig(
            BinScheme("even", 10), max_probs=False, threshold=0.7
        )
        with pytest.raises(EmptyMeasurementError):
            gce(p, cfg)

    def test_empty_class_excluded_from_mean(self):
        # class 2's column is all zeros; with a positive threshold its pool
        # empties and only classes 0 and 1 are averaged
        p = PredictionSet(
            np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]]),
            np.array([0, 1]),
        )
        cfg = MetricConfig(
            BinScheme("even", 5),
            max_probs=False,
            class_conditional=True,
            threshold=0.01,
        )
        score = gce(p, cfg)
        assert sorted(score.per_class) == [0, 1]

    def test_binned_stats_tags_classes(self, tiny_preds):
        cfg = MetricConfig(BinScheme("even", 2), class_conditional=True)
        table = gce_with_bins(tiny_preds, cfg)[1]
        assert table.class_index.tolist() == [0, 0, 1, 1]

    def test_binned_stats_placeholder_for_empty_class(self):
        p = PredictionSet(
            np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]]),
            np.array([0, 1]),
        )
        cfg = MetricConfig(
            BinScheme("even", 5),
            max_probs=False,
            class_conditional=True,
            threshold=0.01,
        )
        table = gce_with_bins(p, cfg)[1]
        placeholder = table.count[table.class_index == 2]
        assert placeholder.tolist() == [0]


class TestBrier:
    def test_hand_value(self):
        p = PredictionSet(np.array([[0.8, 0.2]]), np.array([0]))
        assert brier_score(p) == pytest.approx(0.04 + 0.04, abs=1e-12)

    def test_perfect_prediction_is_zero(self):
        p = PredictionSet(np.array([[1.0, 0.0]]), np.array([0]))
        assert brier_score(p) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_scores_bounded_and_deterministic(seed):
    rng = np.random.default_rng(seed)
    p = random_prediction_set(rng)
    b = int(rng.integers(1, 6))
    for cfg in all_configs(b):
        first = gce(p, cfg).value
        assert 0.0 <= first <= 1.0
        assert gce(p, cfg).value == first


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    p = random_prediction_set(rng)
    b = int(rng.integers(1, 6))
    for cfg in all_configs(b):
        got = gce(p, cfg).value
        binning, mp, cc, thr, norm = cfg.axis_tuple()
        ref = oracle.brute_force_gce(
            p.probs, p.labels, binning, mp, cc, thr, norm, b
        )
        assert got == pytest.approx(ref, abs=1e-10)


def _edge_inputs() -> dict:
    rng = np.random.default_rng(7)
    edges = [[i / 10, 1.0 - i / 10] for i in range(11)]
    # three histogram-binned outputs, each repeated with mixed labels, so
    # equal scores straddle adaptive run boundaries
    tied_rows = [[0.6, 0.3, 0.1]] * 7 + [[0.2, 0.5, 0.3]] * 6 + [[0.1, 0.1, 0.8]] * 7
    tied_labels = [0, 1, 0, 2, 0, 1, 1] + [1, 1, 0, 2, 1, 2] + [2, 0, 2, 2, 1, 2, 0]
    return {
        "single-row": ([[0.3, 0.7]], [1]),
        "even-edges": (edges + [[0.5, 0.5]], [i % 2 for i in range(12)]),
        "heavy-ties": (tied_rows, tied_labels),
        "one-hot": (np.eye(3)[[0, 1, 2, 0, 0, 1]], [0, 1, 0, 0, 2, 1]),
        "two-classes": (rng.dirichlet(np.ones(2), size=30), rng.integers(0, 2, 30)),
        "empty-class-at-threshold": (
            [[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.49, 0.5, 0.01], [0.6, 0.4, 0.0]],
            [0, 1, 2, 1],
        ),
        "empty-view-at-threshold": (np.full((2, 100), 0.01), [3, 99]),
    }


EDGE_INPUTS = _edge_inputs()


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_edge_inputs_match_brute_force_oracle(name):
    probs, labels = EDGE_INPUTS[name]
    p = PredictionSet(np.asarray(probs, dtype=float), np.asarray(labels))
    for b in (1, 2, 3, 5, 10, 15):
        for cfg in all_configs(b):
            binning, mp, cc, thr, norm = cfg.axis_tuple()
            # the classes that keep at least one entry of the view
            if mp:
                live = set(np.argmax(p.probs, axis=1).tolist())
            elif thr == 0.0:
                live = set(range(p.n_classes))
            else:
                live = set(np.flatnonzero((p.probs > thr).any(axis=0)).tolist())
            try:
                ref = oracle.brute_force_gce(
                    p.probs, p.labels, binning, mp, cc, thr, norm, b
                )
            except ValueError:
                assert not live
                with pytest.raises(EmptyMeasurementError):
                    gce(p, cfg)
                with pytest.raises(EmptyMeasurementError):
                    gce_with_bins(p, cfg)
                continue
            score, table = gce_with_bins(p, cfg)
            assert score == gce(p, cfg)
            assert score.value == pytest.approx(ref, abs=1e-10), (name, b, cfg.label())
            if not cc:
                continue
            assert sorted(score.per_class) == sorted(live)
            for k in range(p.n_classes):
                pool = table.class_index == k
                if k in live:
                    assert pool.sum() == b
                else:
                    placeholder = zip(table.lower[pool].tolist(), table.upper[pool].tolist(),
                                      table.count[pool].tolist())
                    assert list(placeholder) == [(0.0, 1.0, 0)]



def _many_inputs() -> dict:
    sets = {
        f"random-{seed}": random_prediction_set(np.random.default_rng(seed))
        for seed in range(8)
    }
    # K = 1000 with a clear top class, so entries survive 0.01 and 0.2
    rng = np.random.default_rng(1000)
    n, k = 12, 1000
    z = 2.0 * rng.standard_normal((n, k))
    top = rng.integers(0, k, n)
    z[np.arange(n), top] += 9.0
    labels = np.where(rng.random(n) < 0.5, top, rng.integers(0, k, n))
    sets["k1000"] = PredictionSet(row_softmax(z), labels)
    return sets


MANY_INPUTS = _many_inputs()


class TestGceMany:
    @pytest.mark.parametrize("name", sorted(MANY_INPUTS))
    def test_each_score_equals_a_fresh_gce(self, name):
        p = MANY_INPUTS[name]
        grid = [cfg for b in (1, 2, 5, 15) for cfg in all_configs(b)]
        grid += [dataclasses.replace(cfg, threshold=0.2) for cfg in grid]
        refs = {}
        for cfg in grid:
            binning, mp, cc, thr, norm = cfg.axis_tuple()
            try:
                refs[cfg] = oracle.brute_force_gce(
                    p.probs, p.labels, binning, mp, cc, thr, norm, cfg.binning.n_bins
                )
            except ValueError:  # the threshold empties the view
                with pytest.raises(EmptyMeasurementError):
                    gce(p, cfg)
        assert any(not cfg.max_probs and cfg.threshold == 0.2 for cfg in refs)
        configs = list(refs) + list(refs)[::3]
        shuffle = np.random.default_rng(5).permutation(len(configs))
        configs = [configs[i] for i in shuffle]
        scores = gce_many(p, configs)
        assert [score.config for score in scores] == configs
        for cfg, score in zip(configs, scores):
            fresh = gce(p, cfg)
            assert score.value == fresh.value, cfg
            assert score.per_class == fresh.per_class, cfg
            assert score.value == pytest.approx(refs[cfg], abs=1e-10), cfg

    def test_class_mean_covers_only_live_classes_at_k1000(self):
        rng = np.random.default_rng(42)
        n, k = 200, 1000
        z = 2.0 * rng.standard_normal((n, k))
        top = rng.integers(0, 150, n)
        z[np.arange(n), top] += 8.0
        p = PredictionSet(row_softmax(z), np.where(rng.random(n) < 0.6, top, 0))
        predicted = np.argmax(p.probs, axis=1)
        live = sorted(set(predicted.tolist()))
        assert len(live) <= 0.2 * k
        configs = [
            cfg for b in (3, 15) for cfg in all_configs(b)
            if cfg.max_probs and cfg.class_conditional
        ]
        for cfg, score in zip(configs, gce_many(p, configs)):
            binning, mp, cc, thr, norm = cfg.axis_tuple()
            assert sorted(score.per_class) == live, cfg
            assert score.per_class == gce(p, cfg).per_class, cfg
            for c in live:
                rows = predicted == c
                ref = oracle.brute_force_gce(
                    p.probs[rows], p.labels[rows], binning, True, False, thr, norm,
                    cfg.binning.n_bins,
                )
                assert score.per_class[c] == pytest.approx(ref, abs=1e-10), (cfg, c)
            ref = oracle.brute_force_gce(
                p.probs, p.labels, binning, mp, cc, thr, norm, cfg.binning.n_bins
            )
            assert score.value == pytest.approx(ref, abs=1e-10), cfg

    def test_empty_list_scores_nothing(self, tiny_preds):
        assert gce_many(tiny_preds, []) == []

    def test_threshold_that_empties_the_view_raises_like_gce(self):
        p = PredictionSet(np.full((5, 200), 1 / 200), np.array([0, 3, 50, 199, 7]))
        first_empty = next(
            cfg for cfg in all_configs() if cfg.threshold and not cfg.max_probs
        )
        with pytest.raises(EmptyMeasurementError) as single:
            gce(p, first_empty)
        with pytest.raises(EmptyMeasurementError) as many:
            gce_many(p, all_configs())
        assert str(many.value) == str(single.value)
        assert str(many.value) == "no predictions survive threshold 0.01"


def _table_sets() -> list:
    """Sets of equal and unequal shapes for gce_table, with the edge cases stacked.

    Equal shapes stack, and shapes that share N or K do not; within them,
    one set's 0.01 threshold empties class 1 while its neighbours' keep it,
    saturated rows put exact zeros beside ones, and at K = 1000 most classes
    are never the top one.
    """
    rng = np.random.default_rng(77)
    sets = []
    shapes = ((40, 2, 3), (30, 10, 4), (1, 7, 3), (2, 1000, 3), (6, 3, 1), (7, 10, 2), (1, 3, 2))
    for n, k, count in shapes:
        for _ in range(count):
            z = 3.0 * rng.standard_normal((n, k))
            z[rng.random(n) < 0.2, rng.integers(0, k)] += 1e4  # saturated rows
            sets.append(PredictionSet(row_softmax(z), rng.integers(0, k, n)))
    starved = np.array(sets[0].probs)
    starved[:, 1] = np.minimum(starved[:, 1], 0.005)
    starved[:, 0] = 1.0 - starved[:, 1]
    sets[1] = PredictionSet(starved, sets[1].labels)
    return sets


TABLE_SETS = _table_sets()
TABLE_GRID = [cfg for b in (1, 7, 15, 30) for cfg in all_configs(b)]


class TestGceTable:
    """gce_table stacks same-shape sets yet gives each gce's bits."""

    @pytest.mark.parametrize("budget", ["default", "one group per shape"])
    def test_each_entry_is_its_sets_gce(self, monkeypatch, budget):
        if budget != "default":  # every same-shape set in one view, on either even route
            monkeypatch.setattr(binning, "SPLIT_EVEN_MIN_LOW", 10**9)
        got = gce_table(TABLE_SETS, TABLE_GRID)
        assert got.shape == (len(TABLE_SETS), len(TABLE_GRID)) and got.dtype == float
        want = np.array([[gce(p, cfg).value for cfg in TABLE_GRID] for p in TABLE_SETS])
        assert got.tobytes() == want.tobytes()

    def test_sets_stack_in_groups(self, monkeypatch):
        # The inputs above do stack: at the default budget, views of several sets are scored.
        widths = []
        real = metrics.bin_totals
        monkeypatch.setattr(metrics, "bin_totals", lambda view, kind, bins: (
            widths.append(view.n_pools) or real(view, kind, bins)))
        gce_table(TABLE_SETS, TABLE_GRID)
        assert max(widths) >= 3 * 10 and 3 in widths and 3 * 1000 not in widths
        thresholded = all_configs()[2]
        assert metrics._pooled_view(TABLE_SETS[1], thresholded).sizes.tolist() == [40, 0]
        assert metrics._pooled_view(TABLE_SETS[0], thresholded).sizes[1] > 0

    def test_a_set_with_an_empty_view_raises_like_gce(self):
        rng = np.random.default_rng(5)
        good = PredictionSet(row_softmax(9.0 * rng.standard_normal((5, 200))), np.arange(5))
        empty = PredictionSet(np.full((5, 200), 1 / 200), np.array([0, 3, 50, 199, 7]))
        cfg = next(cfg for cfg in all_configs() if cfg.threshold and not cfg.max_probs)
        with pytest.raises(EmptyMeasurementError) as single:
            gce(empty, cfg)
        with pytest.raises(EmptyMeasurementError) as table:
            gce_table([good, empty, good], all_configs())
        assert str(table.value) == str(single.value) == "no predictions survive threshold 0.01"

    def test_empty_inputs(self):
        assert gce_table([], all_configs()).shape == (0, 32)
        assert gce_table(TABLE_SETS[:2], []).shape == (2, 0)

    def test_one_set_groups_are_todays_views(self, monkeypatch):
        # At score-wide's shape every full view and the class-conditional
        # max-prob view hold one set a group: each view bin_totals sees is
        # the one a lone gce_many builds, the unthresholded full views read
        # the set's own matrix, and the split even route runs as often.
        # Only the pooled max-prob view, N entries a set, stacks.
        rng = np.random.default_rng(9)
        sets = [PredictionSet(row_softmax(3.0 * rng.standard_normal((200, 1000))),
                              rng.integers(0, 1000, 200)) for _ in range(2)]
        seen, split = [], []
        totals, split_totals = metrics.bin_totals, binning._split_even_totals
        monkeypatch.setattr(metrics, "bin_totals",
                            lambda view, kind, bins: seen.append(view) or totals(view, kind, bins))
        monkeypatch.setattr(binning, "_split_even_totals",
                            lambda *args: split.append(args[2]) or split_totals(*args))
        configs = all_configs(15)
        for p in sets:
            gce_many(p, configs)
        alone, alone_split = seen[:], split[:]
        seen.clear(), split.clear()
        gce_table(sets, configs)
        assert split == alone_split and len(split) == 2 * 2
        stacked = [view for view in seen if view.n_pools == len(sets)]
        assert [view.scores.shape for view in stacked] == [(200, 2)] * 2
        rest = [view for view in seen if view.n_pools != len(sets)]
        assert len(rest) == len(alone) - 2 * len(stacked) == 2 * 5 * 2
        for view in rest:
            assert any(mine.n_pools == view.n_pools
                       and mine.scores.tobytes() == view.scores.tobytes()
                       and mine.hits.tobytes() == view.hits.tobytes()
                       and (mine.pools is None) == (view.pools is None) for mine in alone)
            if view.pools is None and view.scores.size == 200 * 1000:
                assert any(np.shares_memory(view.scores, p.probs) for p in sets)

    def test_sweep_peak_memory(self):
        # Nine sets at the benchmark study's shape, at the default bin counts.
        rng = np.random.default_rng(11)
        sets = [softmax(sample_mixed_difficulty_logits(150, 10, int(seed)))
                for seed in rng.integers(0, 999, 9)]
        analysis.bin_sensitivity_sweep(sets[0], sets[1:])
        tracemalloc.start()
        try:
            analysis.bin_sensitivity_sweep(sets[0], sets[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20


def _peak_over_input(p, score) -> float:
    """``tracemalloc`` peak of ``score()``, in units of ``p.probs.nbytes``."""
    tracemalloc.start()
    try:
        score()
        return tracemalloc.get_traced_memory()[1] / p.probs.nbytes
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def imagenet_like():
    return softmax(sample_mixed_difficulty_logits(2000, 1000, 0))


# Peak bounds in units of the input matrix at 2,000 x 1,000, by variant.
SINGLE_PEAK_BOUNDS = {
    **dict.fromkeys([*range(0, 8), *range(16, 24)], 0.1),
    **dict.fromkeys([*range(8, 16), 26, 27, 30, 31], 0.3),
    **dict.fromkeys([24, 25, 28, 29], 3.1),
}


class TestPeakMemory:
    """Scoring memory stays a bounded multiple of the input at K = 1000."""

    def test_bin_count_sweep(self, imagenet_like):
        configs = [cfg for b in (10, 20, 30, 40, 50) for cfg in all_configs(b)]
        assert _peak_over_input(imagenet_like, lambda: gce_many(imagenet_like, configs)) <= 4.2

    def test_all_variants_at_one_bin_count(self, imagenet_like):
        configs = all_configs(10)
        assert _peak_over_input(imagenet_like, lambda: gce_many(imagenet_like, configs)) <= 4.2

    @pytest.mark.parametrize("index", sorted(SINGLE_PEAK_BOUNDS))
    def test_single_variant(self, imagenet_like, index):
        cfg = index_to_config(index)
        peak = _peak_over_input(imagenet_like, lambda: gce(imagenet_like, cfg))
        assert peak <= SINGLE_PEAK_BOUNDS[index], cfg


class TestFilePeakMemory:
    """A prediction file costs its matrix plus one block to read or write."""

    def test_write(self, imagenet_like, tmp_path):
        path = tmp_path / "preds.csv"
        peak = _peak_over_input(imagenet_like, lambda: write_prediction_file(path, imagenet_like))
        assert peak <= 1.5

    def test_read(self, imagenet_like, tmp_path):
        path = tmp_path / "preds.csv"
        write_prediction_file(path, imagenet_like)
        assert _peak_over_input(imagenet_like, lambda: read_prediction_file(path)) <= 3.5
