"""Rank statistics, sweeps, and the synthetic experiment harnesses."""

from __future__ import annotations

import numpy as np
import pytest

import oracle
from calerr import (
    PredictionSet,
    average_ranks,
    bin_sensitivity_sweep,
    label_noise_experiment,
    make_pathology,
    rank_correlation,
    rank_methods,
    recalibrate_suite,
    sample_mixed_difficulty_logits,
    sample_overconfident_logits,
    split_validation,
)

SUITE_KEYS = {
    "histogram",
    "bootstrap-histogram",
    "isotonic",
    "temperature-gce",
    "temperature-nll",
    "vector",
    "matrix",
    "mlp",
}


class TestAverageRanks:
    def test_hand_example(self):
        got = average_ranks(np.array([10.0, 20.0, 20.0, 30.0]))
        assert np.allclose(got, [1.0, 2.5, 2.5, 4.0])

    def test_all_tied(self):
        got = average_ranks(np.array([5.0, 5.0, 5.0]))
        assert np.allclose(got, [2.0, 2.0, 2.0])

    def test_matches_reference(self, rng):
        for _ in range(20):
            v = rng.integers(0, 5, size=10).astype(float)  # many ties
            assert np.allclose(
                average_ranks(v), oracle.reference_average_ranks(v)
            )

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            average_ranks(np.array([1.0, np.nan, 0.5]))


class TestRankCorrelation:
    # inputs are rank vectors, as produced by average_ranks
    def test_perfect_agreement(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(a, a.copy()) == pytest.approx(1.0)

    def test_perfect_reversal_spearman(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(a, a[::-1]) == pytest.approx(-1.0)

    def test_footrule_reversal_hand_value(self):
        # reversed ranks of length 4: sum |d| = 8 -> 1 - 48/60
        a = np.array([1.0, 2.0, 3.0, 4.0])
        got = rank_correlation(a, a[::-1], variant="footrule")
        assert got == pytest.approx(1.0 - 48.0 / 60.0)

    def test_matches_reference_spearman(self, rng):
        for _ in range(20):
            a = rng.random(8)
            b = rng.random(8)
            got = rank_correlation(average_ranks(a), average_ranks(b))
            assert got == pytest.approx(oracle.reference_spearman(a, b), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_correlation(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            rank_correlation(np.arange(3.0), np.arange(4.0))
        with pytest.raises(ValueError):
            rank_correlation(np.arange(3.0), np.arange(3.0), variant="kendall")


def small_suite(seed=0, n=240, k=3):
    logits = sample_overconfident_logits(n, k, seed)
    fit, ev = split_validation(logits)
    return recalibrate_suite(fit, ev, seed=seed, n_bins=5, bootstrap=10)


class TestRecalibrateSuite:
    def test_method_keys(self):
        suite = small_suite()
        assert set(suite) == SUITE_KEYS

    def test_outputs_are_prediction_sets(self):
        suite = small_suite()
        for p in suite.values():
            assert isinstance(p, PredictionSet)
            assert p.n_points == 120


class TestBinSensitivitySweep:
    def test_shapes_and_groups(self):
        suite = small_suite()
        res = bin_sensitivity_sweep(
            None, list(suite.values()), bins=(5, 10), method_names=list(suite)
        )
        assert res.scores.shape == (32, 2, 8)
        assert res.ranks.shape == (32, 2, 8)
        assert res.mean_pairwise_correlation.shape == (32,)
        assert set(res.group_correlation) == {
            "binning",
            "max_probs",
            "class_conditional",
            "threshold",
            "norm",
        }
        assert set(res.group_correlation["binning"]) == {"even", "adaptive"}
        assert set(res.group_correlation["norm"]) == {"l1", "l2"}

    def test_single_bin_count_is_vacuously_stable(self):
        suite = small_suite()
        res = bin_sensitivity_sweep(None, list(suite.values()), bins=(10,))
        assert np.allclose(res.mean_pairwise_correlation, 1.0)

    def test_baseline_scores_when_uncalibrated_given(self):
        suite = small_suite()
        logits = sample_overconfident_logits(240, 3, 0)
        _, ev = split_validation(logits)
        from calerr import softmax

        res = bin_sensitivity_sweep(
            softmax(ev), list(suite.values()), bins=(5,)
        )
        assert res.baseline_scores is not None
        assert res.baseline_scores.shape == (32, 1)

    def test_needs_two_methods(self):
        suite = small_suite()
        with pytest.raises(ValueError):
            bin_sensitivity_sweep(None, [list(suite.values())[0]])

    def test_footrule_variant(self):
        suite = small_suite()
        res = bin_sensitivity_sweep(
            None, list(suite.values()), bins=(5, 10), variant="footrule"
        )
        assert res.variant == "footrule"


class TestRankMethods:
    def test_table_structure(self):
        suite = small_suite()
        table = rank_methods(suite, n_bins=5)
        assert table.scores.shape == (8, 32)
        assert table.ranks.shape == (8, 32)
        assert len(table.configs) == 32
        rows = table.rows()
        assert len(rows) == 8  # one row per rank position
        assert all(len(r) == 32 for r in rows)
        # under each config the ordering is a permutation of the methods
        for per_config in table.order:
            assert sorted(per_config) == sorted(table.methods)

    def test_order_sorted_by_score(self):
        suite = small_suite()
        table = rank_methods(suite, n_bins=5)
        name_to_idx = {m: i for i, m in enumerate(table.methods)}
        for c, per_config in enumerate(table.order):
            col = [table.scores[name_to_idx[m], c] for m in per_config]
            assert np.all(np.diff(col) >= 0)

    def test_needs_two_methods(self):
        suite = small_suite()
        one = {"histogram": suite["histogram"]}
        with pytest.raises(ValueError):
            rank_methods(one, n_bins=5)

    def test_empty_config_list_rejected(self):
        sets = {
            "a": PredictionSet(np.array([[0.8, 0.2], [0.3, 0.7]]), np.array([0, 1])),
            "b": PredictionSet(np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([1, 1])),
        }
        with pytest.raises(ValueError, match="configs list must be non-empty"):
            rank_methods(sets, configs=[])


class TestLabelNoise:
    def test_small_run_fields_and_determinism(self):
        kwargs = dict(
            levels=[0.0, 0.05],
            n_train=300,
            n_test=150,
            n_classes=3,
            n_features=8,
            train_iterations=40,
        )
        rows_a = label_noise_experiment(seed=1, **kwargs)
        rows_b = label_noise_experiment(seed=1, **kwargs)
        assert len(rows_a) == 2
        for ra, rb in zip(rows_a, rows_b):
            assert ra == rb
        first = rows_a[0]
        assert 0.0 <= first.omitted_fraction <= 1.0
        assert 0.0 < first.accuracy <= 1.0
        assert first.ece >= 0.0 and first.sce >= 0.0 and first.ace >= 0.0

    def test_noise_levels_recorded(self):
        rows = label_noise_experiment(
            seed=0,
            levels=[0.0, 0.02, 0.04],
            n_train=200,
            n_test=100,
            n_classes=3,
            n_features=6,
            train_iterations=20,
        )
        assert [r.noise for r in rows] == [0.0, 0.02, 0.04]

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError, match="at least one noise level"):
            label_noise_experiment(levels=[])

    @pytest.mark.parametrize("split", ["n_train", "n_test"])
    def test_rejects_empty_split(self, split):
        with pytest.raises(ValueError, match=f"^{split} must be >= 1, got 0$"):
            label_noise_experiment(levels=[0.0], **{split: 0})


class TestPathology:
    def test_composition(self):
        p = make_pathology()
        assert p.n_points == 1000
        assert np.all(p.probs[:450, 0] == 0.52)
        assert np.all(p.probs[450:, 0] == 0.58)
        assert np.all(p.labels[:450] == 1)
        assert np.all(p.labels[450:] == 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_pathology(p_wrong=0.5)
        with pytest.raises(ValueError):
            make_pathology(p_right=1.0)
        with pytest.raises(ValueError):
            make_pathology(n_wrong=0, n_right=0)


class TestSamplers:
    def test_overconfident_deterministic(self):
        a = sample_overconfident_logits(50, 4, 9)
        b = sample_overconfident_logits(50, 4, 9)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.labels, b.labels)
        assert a.labels.min() >= 0 and a.labels.max() < 4

    def test_mixed_difficulty_deterministic(self):
        a = sample_mixed_difficulty_logits(60, 5, 3)
        b = sample_mixed_difficulty_logits(60, 5, 3)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.labels, b.labels)

    def test_mixed_difficulty_validates_fraction(self):
        with pytest.raises(ValueError):
            sample_mixed_difficulty_logits(10, 3, 0, hard_fraction=1.5)

    def test_mixed_difficulty_spreads_confidence(self):
        from calerr import max_prob_view, softmax

        p = softmax(sample_mixed_difficulty_logits(2000, 10, 0))
        conf = max_prob_view(p).scores
        # the hard sub-population pulls a solid mass below 0.9
        assert (conf < 0.9).mean() > 0.2
        assert (conf > 0.9).mean() > 0.2
