"""Container validation and score-view construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calerr import (
    LogitSet,
    PredictionSet,
    ValidationError,
    as_probs,
    full_prob_view,
    max_prob_view,
    row_softmax,
    softmax,
    split_validation,
)
from calerr.predictions import ScoredPredictions

from conftest import random_prediction_set


class TestPredictionSet:
    def test_valid_set(self, tiny_preds):
        assert tiny_preds.n_points == 4
        assert tiny_preds.n_classes == 2

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValidationError):
            PredictionSet(np.array([[1.2, -0.2]]), np.array([0]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError, match="row 0 sums to"):
            PredictionSet(np.array([[0.5, 0.4]]), np.array([0]))

    def test_accepts_tiny_row_sum_slack(self):
        probs = np.array([[0.6, 0.4 + 5e-7]])
        PredictionSet(probs, np.array([0]))

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValidationError, match="labels must lie in"):
            PredictionSet(np.array([[0.5, 0.5]]), np.array([2]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            PredictionSet(np.array([[0.5, 0.5]]), np.array([0, 1]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            PredictionSet(np.array([0.5, 0.5]), np.array([0]))

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            PredictionSet(np.array([[1.0]]), np.array([0]))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            PredictionSet(np.array([[np.nan, 1.0]]), np.array([0]))

    def test_arrays_are_frozen_copies(self):
        src = np.array([[0.5, 0.5]])
        p = PredictionSet(src, np.array([0]))
        src[0, 0] = 0.9
        assert p.probs[0, 0] == 0.5
        with pytest.raises(ValueError):
            p.probs[0, 0] = 0.1

    def test_renormalized(self):
        p = PredictionSet(np.array([[0.5, 0.5]]), np.array([0]))
        q = p.renormalized()
        assert np.allclose(q.probs.sum(axis=1), 1.0)


# Each rule's input, per container, and the exact message it raises.
_ONE_ROW = np.array([[0.5, 0.5]])
_VALIDATION_CASES = [
    ("not-2d", np.array([0.5, 0.5]), [0], "{m} must be 2-D, got shape (2,)"),
    ("no-rows", np.zeros((0, 2)), np.zeros(0, dtype=int), "need at least one {row} row"),
    ("one-class", np.array([[1.0]]), [0], "need at least two classes, got 1"),
    ("non-finite", np.array([[np.nan, 1.0]]), [0], "{m} contain non-finite entries"),
    ("label-shape", _ONE_ROW, [[0]], "labels must be 1-D, got shape (1, 1)"),
    ("label-count", _ONE_ROW, [0, 1], "got 2 labels for 1 prediction rows"),
    ("label-range", _ONE_ROW, [2], "labels must lie in [0, 1], got range [2, 2]"),
    ("label-fraction", _ONE_ROW, [1.7], "labels must be integers, got 1.7"),
    ("label-bool", _ONE_ROW, [True], "labels must be integers, got True"),
    ("label-nan", _ONE_ROW, [np.nan], "labels must be integers, got nan"),
]
_CONTAINERS = [(PredictionSet, "probs", "prediction"), (LogitSet, "logits", "logit")]


class TestValidationMessages:
    @pytest.mark.parametrize("container, m, row", _CONTAINERS, ids=["probs", "logits"])
    @pytest.mark.parametrize("matrix, labels, message",
                             [case[1:] for case in _VALIDATION_CASES],
                             ids=[case[0] for case in _VALIDATION_CASES])
    def test_shared_rules(self, container, m, row, matrix, labels, message):
        with pytest.raises(ValidationError) as exc:
            container(matrix, np.array(labels))
        assert str(exc.value) == message.format(m=m, row=row)

    @pytest.mark.parametrize("probs, message", [
        ([[1.2, -0.2]], "probs must lie in [0, 1]"),
        ([[0.5, 0.4]], "row 0 sums to 0.9, outside 1 +/- 1e-06"),
    ], ids=["out-of-range", "row-sum"])
    def test_probability_rules(self, probs, message):
        with pytest.raises(ValidationError) as exc:
            PredictionSet(np.array(probs), np.array([0]))
        assert str(exc.value) == message

    @pytest.mark.parametrize("container", [PredictionSet, LogitSet])
    @pytest.mark.parametrize("dtype", [float, np.float32, np.int8, np.uint16, np.int64])
    def test_whole_number_labels_of_any_numeric_dtype_pass(self, container, dtype):
        p = container(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([1, 0], dtype=dtype))
        assert p.labels.tolist() == [1, 0] and p.labels.dtype == int

    def test_probability_rules_come_before_labels(self):
        with pytest.raises(ValidationError, match="sums to"):
            PredictionSet(np.array([[0.5, 0.4]]), np.array([7]))

    def test_logits_skip_probability_rules(self):
        ls = LogitSet(np.array([[1.2, -0.2]]), np.array([0]))
        assert ls.logits.tolist() == [[1.2, -0.2]]
        assert not ls.logits.flags.writeable and not ls.labels.flags.writeable


class TestLogitSet:
    def test_valid(self):
        ls = LogitSet(np.array([[1.0, -2.0]]), np.array([1]))
        assert ls.n_points == 1 and ls.n_classes == 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            LogitSet(np.array([[np.inf, 0.0]]), np.array([0]))


class TestSoftmax:
    def test_matches_direct_formula(self, rng):
        z = rng.standard_normal((20, 4))
        expect = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        assert np.allclose(row_softmax(z), expect, atol=1e-12)

    def test_translation_invariant(self, rng):
        z = rng.standard_normal((5, 3))
        shifted = z + 123.4
        assert np.allclose(row_softmax(z), row_softmax(shifted), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        out = row_softmax(np.array([[1e4, 0.0], [-1e4, 0.0]]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_preserves_argmax_and_labels(self, rng):
        ls = LogitSet(rng.standard_normal((30, 5)), rng.integers(0, 5, 30))
        p = softmax(ls)
        assert np.array_equal(
            np.argmax(p.probs, axis=1), np.argmax(ls.logits, axis=1)
        )
        assert np.array_equal(p.labels, ls.labels)

    def test_as_probs_takes_either_container(self, rng):
        ls = LogitSet(rng.standard_normal((6, 3)), rng.integers(0, 3, 6))
        p = as_probs(ls)
        assert np.array_equal(p.probs, softmax(ls).probs)
        assert as_probs(p) is p


class TestMaxProbView:
    def test_scores_and_outcomes(self, tiny_preds):
        view = max_prob_view(tiny_preds)
        assert np.allclose(view.scores, [0.8, 0.7, 0.6, 0.9])
        assert np.array_equal(view.class_index, [0, 0, 1, 0])
        assert np.array_equal(view.correct, [True, False, True, True])

    def test_tie_takes_lowest_class(self):
        p = PredictionSet(np.array([[0.5, 0.5]]), np.array([1]))
        view = max_prob_view(p)
        assert view.class_index[0] == 0
        assert not view.correct[0]


class TestFullProbView:
    def test_zero_threshold_keeps_everything(self, tiny_preds):
        view = full_prob_view(tiny_preds, 0.0)
        assert len(view) == 8
        assert np.allclose(view.scores, tiny_preds.probs.ravel())
        assert np.array_equal(view.class_index, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_zero_entries_survive_zero_threshold(self):
        p = PredictionSet(np.array([[1.0, 0.0]]), np.array([0]))
        assert len(full_prob_view(p, 0.0)) == 2

    def test_threshold_is_strict(self):
        p = PredictionSet(np.array([[0.99, 0.01]]), np.array([0]))
        view = full_prob_view(p, 0.01)
        # the entry equal to the threshold is dropped
        assert len(view) == 1
        assert view.scores[0] == 0.99

    def test_rejects_threshold_of_one(self, tiny_preds):
        with pytest.raises(ValidationError):
            full_prob_view(tiny_preds, 1.0)

    def test_correct_marks_scored_class(self):
        p = PredictionSet(np.array([[0.3, 0.7]]), np.array([0]))
        view = full_prob_view(p)
        assert np.array_equal(view.correct, [True, False])

    def test_thresholded_view_matches_filtered_full_view(self):
        # K = 1000: the surviving positions give the records, in the order,
        # of the full N * K view filtered by score.
        rng = np.random.default_rng(4)
        n, k = 200, 1000
        p = PredictionSet(rng.dirichlet(np.full(k, 0.1), size=n), rng.integers(0, k, n))
        class_index = np.tile(np.arange(k), n)
        full = ScoredPredictions(p.probs.ravel(), class_index,
                                 class_index == np.repeat(p.labels, k))
        want = full.filter(full.scores > 0.01)
        got = full_prob_view(p, 0.01)
        assert 0 < len(got) < n * k
        for attr in ("scores", "class_index", "correct"):
            assert getattr(got, attr).dtype == getattr(want, attr).dtype
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


class TestScoredPredictions:
    def test_filter(self, tiny_preds):
        view = max_prob_view(tiny_preds)
        kept = view.filter(view.scores >= 0.8)
        assert len(kept) == 2
        assert np.array_equal(kept.scores, [0.8, 0.9])

    def test_rejects_ragged_arrays(self):
        with pytest.raises(ValidationError):
            ScoredPredictions(np.array([0.5]), np.array([0, 1]), np.array([True]))


class TestSplitValidation:
    def test_odd_split_gives_fit_half_the_extra(self):
        p = PredictionSet(np.full((5, 2), 0.5), np.zeros(5, dtype=int))
        fit, ev = split_validation(p)
        assert fit.n_points == 3 and ev.n_points == 2

    def test_positional_order(self, rng):
        p = random_prediction_set(rng)
        while p.n_points < 2:
            p = random_prediction_set(rng)
        fit, ev = split_validation(p)
        assert np.array_equal(
            np.vstack([fit.probs, ev.probs]), p.probs
        )

    def test_works_on_logits(self, rng):
        ls = LogitSet(rng.standard_normal((7, 3)), rng.integers(0, 3, 7))
        fit, ev = split_validation(ls)
        assert isinstance(fit, LogitSet)
        assert fit.n_points == 4 and ev.n_points == 3

    def test_rejects_single_row(self):
        p = PredictionSet(np.array([[0.5, 0.5]]), np.array([0]))
        with pytest.raises(ValidationError):
            split_validation(p)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_halves_of_both_containers(self, rng, n):
        labels = rng.integers(0, 3, n)
        logits = LogitSet(rng.standard_normal((n, 3)), labels)
        probs = softmax(logits)
        cut = (n + 1) // 2
        for data, field in ((logits, "logits"), (probs, "probs")):
            fit, ev = split_validation(data)
            for half, rows in ((fit, slice(cut)), (ev, slice(cut, None))):
                assert type(half) is type(data)
                assert np.array_equal(getattr(half, field), getattr(data, field)[rows])
                assert np.array_equal(half.labels, labels[rows])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_views_partition_consistently(seed):
    """Full view at zero threshold covers every entry; max view one per row."""
    rng = np.random.default_rng(seed)
    p = random_prediction_set(rng)
    full = full_prob_view(p, 0.0)
    top = max_prob_view(p)
    assert len(full) == p.n_points * p.n_classes
    assert len(top) == p.n_points
    # the max view's score is the top of its datapoint's full-view scores
    rows = full.scores.reshape(p.n_points, p.n_classes)
    assert np.array_equal(top.scores, rows.max(axis=1))
