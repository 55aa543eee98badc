"""Metric family indexing and the generalized scorer."""

from __future__ import annotations

import dataclasses

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
    gce_with_bins,
    index_to_config,
    metric_index,
    named_metric,
    row_softmax,
)
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
        stats = gce_with_bins(tiny_preds, cfg)[1]
        assert {s.class_index for s in stats} == {0, 1}

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
        stats = gce_with_bins(p, cfg)[1]
        placeholder = [s for s in stats if s.class_index == 2]
        assert len(placeholder) == 1
        assert placeholder[0].count == 0


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
            score, stats = gce_with_bins(p, cfg)
            assert score == gce(p, cfg)
            assert score.value == pytest.approx(ref, abs=1e-10), (name, b, cfg.label())
            if not cc:
                continue
            assert sorted(score.per_class) == sorted(live)
            for k in range(p.n_classes):
                pool = [s for s in stats if s.class_index == k]
                if k in live:
                    assert len(pool) == b
                else:
                    placeholder = [(s.lower, s.upper, s.count) for s in pool]
                    assert placeholder == [(0.0, 1.0, 0)]



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
