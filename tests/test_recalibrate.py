"""Post-hoc recalibrators: histogram binning, isotonic, temperature, scaling."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import oracle
from calerr import (
    EmptyMeasurementError,
    LogitSet,
    PredictionSet,
    SgdConfig,
    ValidationError,
    affine_objective,
    apply_affine,
    apply_histogram_binning,
    apply_isotonic,
    apply_isotonic_multiclass,
    apply_mlp_scaling,
    apply_temperature,
    fit_affine_scaling,
    fit_histogram_binning,
    fit_isotonic,
    fit_isotonic_multiclass,
    fit_mlp_scaling,
    fit_temperature,
    gce,
    grad_check,
    init_mlp_params,
    mlp_objective,
    model_from_dict,
    model_to_dict,
    named_metric,
    nll,
    row_softmax,
    sample_overconfident_logits,
    softmax,
)
from calerr.binning import assign_even_bins, even_edges
from calerr.recalibrate import (
    EMPTY_BIN_FALLBACKS,
    RECALIBRATORS,
    IsotonicModel,
    IsotonicMulticlassModel,
    TemperatureModel,
    _nll_and_grad,
    _pava,
    run_recalibrator,
)


def overconfident_probs(n, k, seed):
    return softmax(sample_overconfident_logits(n, k, seed))


class TestNll:
    def test_hand_value(self):
        p = PredictionSet(np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0, 1]))
        expect = -(np.log(0.5) + np.log(0.75)) / 2.0
        assert nll(p) == pytest.approx(expect, abs=1e-12)

    def test_floor_blocks_infinity(self):
        p = PredictionSet(np.array([[1.0, 0.0]]), np.array([1]))
        assert np.isfinite(nll(p))


class TestHistogramBinning:
    def test_bin_values_are_validation_accuracy(self):
        # two points in bin [0.5, 0.75) of 4 bins: one right, one wrong
        p = PredictionSet(
            np.array([[0.6, 0.4], [0.7, 0.3], [0.9, 0.1]]),
            np.array([0, 1, 0]),
        )
        model = fit_histogram_binning(p, n_bins=4)
        assert model.bin_values[2] == pytest.approx(0.5)
        assert model.bin_values[3] == pytest.approx(1.0)

    def test_empty_bin_center_fallback(self):
        p = PredictionSet(np.array([[0.9, 0.1]]), np.array([0]))
        model = fit_histogram_binning(p, n_bins=4, empty_bin="center")
        assert model.bin_values[0] == pytest.approx(0.125)
        assert model.bin_values[1] == pytest.approx(0.375)

    def test_empty_bin_nearest_fallback_tie_takes_lower(self):
        # 5 bins: the tied first row lands in bin 2 (argmax tie -> class 0,
        # wrong), 0.95 lands in bin 4 (right); bins 0, 1, 3 are empty
        p = PredictionSet(
            np.array([[0.5, 0.5], [0.95, 0.05]]), np.array([1, 0])
        )
        model = fit_histogram_binning(p, n_bins=5, empty_bin="nearest")
        assert model.bin_values[2] == pytest.approx(0.0)
        assert model.bin_values[4] == pytest.approx(1.0)
        # bin 3 is equidistant from occupied bins 2 and 4: takes the lower
        assert model.bin_values[3] == pytest.approx(0.0)

    def test_rejects_unknown_fallback(self):
        p = PredictionSet(np.array([[0.9, 0.1]]), np.array([0]))
        with pytest.raises(ValueError):
            fit_histogram_binning(p, empty_bin="zero")

    def test_class_conditional_tables(self):
        p = overconfident_probs(400, 3, 3)
        model = fit_histogram_binning(p, n_bins=10, class_conditional=True)
        assert model.class_conditional
        assert set(model.class_values) == {0, 1, 2}
        # the pooled table stays around for class indices missing from
        # class_values, as in a hand-built model
        assert model.bin_values.shape == (10,)

    def test_bootstrap_deterministic_and_seed_sensitive(self):
        p = overconfident_probs(300, 3, 7)
        a = fit_histogram_binning(p, n_bins=10, bootstrap=50, seed=1)
        b = fit_histogram_binning(p, n_bins=10, bootstrap=50, seed=1)
        c = fit_histogram_binning(p, n_bins=10, bootstrap=50, seed=2)
        assert np.array_equal(a.bin_values, b.bin_values)
        assert not np.array_equal(a.bin_values, c.bin_values)

    def test_bootstrap_approaches_plain_fit(self):
        p = overconfident_probs(4000, 2, 11)
        plain = fit_histogram_binning(p, n_bins=5)
        boot = fit_histogram_binning(p, n_bins=5, bootstrap=200, seed=0)
        assert np.allclose(plain.bin_values, boot.bin_values, atol=0.05)

    def test_bootstrap_count_validated(self):
        p = overconfident_probs(50, 2, 0)
        with pytest.raises(ValueError):
            fit_histogram_binning(p, bootstrap=0)

    def test_apply_replaces_max_and_rescales_rest(self):
        val = overconfident_probs(500, 3, 5)
        model = fit_histogram_binning(val, n_bins=10)
        test = PredictionSet(
            np.array([[0.6, 0.3, 0.1]]), np.array([0])
        )
        out = apply_histogram_binning(model, test)
        v = out.probs[0, 0]
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
        # non-max entries keep their 3:1 ratio
        assert out.probs[0, 1] == pytest.approx(3 * out.probs[0, 2], abs=1e-12)
        assert out.probs[0, 1] == pytest.approx((1 - v) * 0.75, abs=1e-12)

    def test_apply_saturated_row_spreads_uniformly(self):
        val = overconfident_probs(500, 3, 5)
        model = fit_histogram_binning(val, n_bins=10)
        test = PredictionSet(np.array([[1.0, 0.0, 0.0]]), np.array([0]))
        out = apply_histogram_binning(model, test)
        v = out.probs[0, 0]
        assert out.probs[0, 1] == pytest.approx((1 - v) / 2, abs=1e-12)
        assert out.probs[0, 2] == pytest.approx((1 - v) / 2, abs=1e-12)

    def test_apply_output_is_valid(self):
        val = overconfident_probs(500, 4, 9)
        test = overconfident_probs(500, 4, 10)
        model = fit_histogram_binning(val, n_bins=20)
        out = apply_histogram_binning(model, test)
        assert np.allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)
        assert out.probs.min() >= 0.0

    @pytest.mark.parametrize(
        "options", [{}, {"class_conditional": True}, {"bootstrap": 10}]
    )
    def test_apply_k2_zero_bin_value_stays_in_unit_interval(self, options):
        # Bins whose validation accuracy is 0 used to push the other class
        # to 1 + a few ulp, which PredictionSet rejects.
        rng = np.random.default_rng(0)
        z = rng.standard_normal((60, 2))
        y = rng.integers(0, 2, 60)
        p = softmax(LogitSet(z, y))
        val = PredictionSet(p.probs[:30], y[:30])
        test = PredictionSet(p.probs[30:], y[30:])
        model = fit_histogram_binning(val, **options)
        assert np.any(model.bin_values == 0.0)
        out = apply_histogram_binning(model, test)
        assert out.probs.max() <= 1.0
        assert np.allclose(out.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_apply_lookup_matches_per_row_reference(self):
        # Class-conditional tables for classes 0 and 2 only: predicted class
        # 1 falls back to the pooled table.
        val = overconfident_probs(400, 3, 21)
        test = overconfident_probs(400, 3, 22)
        fitted = fit_histogram_binning(val, n_bins=10, class_conditional=True)
        model = dataclasses.replace(
            fitted, class_values={k: fitted.class_values[k] for k in (0, 2)}
        )
        out = apply_histogram_binning(model, test)
        top = test.probs.argmax(axis=1)
        bins = np.minimum((test.probs.max(axis=1) * 10).astype(int), 9)
        for i in range(test.n_points):
            table = model.class_values.get(int(top[i]), model.bin_values)
            assert out.probs[i, top[i]] == table[bins[i]]


def histogram_reference(p, n_bins, class_conditional, bootstrap, seed, empty_bin):
    """Histogram tables counted one resample at a time, in draw order."""
    scores = p.probs.max(axis=1)
    top = p.probs.argmax(axis=1)
    bins = assign_even_bins(scores, n_bins)
    correct = (top == p.labels).astype(float)
    edges = even_edges(n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])

    def table(members):
        if bootstrap is None:
            counts = np.bincount(bins[members], minlength=n_bins)
            sums = np.bincount(bins[members], weights=correct[members], minlength=n_bins)
        else:
            rng = np.random.default_rng(seed)
            sums, counts = np.zeros(n_bins), np.zeros(n_bins)
            for _ in range(bootstrap):
                draw = members[rng.integers(0, members.size, members.size)]
                c = np.bincount(bins[draw], minlength=n_bins)
                w = np.bincount(bins[draw], weights=correct[draw], minlength=n_bins)
                sums[c > 0] += w[c > 0] / c[c > 0]
                counts += c > 0
        values = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        occupied = np.flatnonzero(counts > 0)
        for b in np.flatnonzero(counts == 0):
            if occupied.size == 0 or empty_bin == "center":
                values[b] = centers[b]
            else:
                values[b] = values[occupied[np.argmin(np.abs(occupied - b))]]
        return values

    pooled = table(np.arange(p.n_points))
    if not class_conditional:
        return pooled, None
    return pooled, {k: table(np.flatnonzero(top == k)) for k in range(p.n_classes)}


class TestHistogramReference:
    @pytest.mark.parametrize("bootstrap", [None, 1, 7, 100])
    @pytest.mark.parametrize("class_conditional", [False, True])
    @pytest.mark.parametrize("k", [2, 10, 1000])
    def test_matches_per_resample_loop(self, k, class_conditional, bootstrap):
        rng = np.random.default_rng(k)
        n = 200
        probs = rng.dirichlet(np.full(k, 0.5), size=n)
        if k == 10:
            probs[:, 4] = 0.0  # class 4 is never predicted: an empty pool
            probs /= probs.sum(axis=1, keepdims=True)
        p = PredictionSet(probs, rng.integers(0, k, n))
        for empty_bin in EMPTY_BIN_FALLBACKS:
            model = fit_histogram_binning(p, 15, class_conditional, bootstrap, 3, empty_bin)
            pooled, per_class = histogram_reference(
                p, 15, class_conditional, bootstrap, 3, empty_bin)
            assert model.bin_values.tobytes() == pooled.tobytes()
            if per_class is None:
                assert model.class_values is None
                continue
            assert model.class_values.keys() == per_class.keys()
            for c, values in per_class.items():
                assert model.class_values[c].tobytes() == values.tobytes(), c


class TestIsotonic:
    def test_pava_pools_decreasing_pair(self):
        fit = _pava(np.array([3.0, 1.0, 2.0]), np.ones(3))
        assert np.allclose(fit, [2.0, 2.0, 2.0])

    def test_pava_respects_weights(self):
        fit = _pava(np.array([1.0, 0.0]), np.array([3.0, 1.0]))
        assert np.allclose(fit, [0.75, 0.75])

    def test_pava_matches_exhaustive_on_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            y = rng.random(n)
            w = rng.uniform(0.5, 2.0, n)
            assert np.allclose(
                _pava(y, w), oracle.exhaustive_isotonic(y, w), atol=1e-9
            )

    def test_fit_pools_duplicate_scores(self):
        model = fit_isotonic(
            np.array([0.3, 0.3, 0.7]), np.array([0.0, 1.0, 1.0])
        )
        assert np.array_equal(model.breakpoints, [0.3, 0.7])
        assert np.allclose(model.fitted_values, [0.5, 1.0])

    def test_fit_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            fit_isotonic(np.array([0.1, 0.2]), np.array([1.0]))
        with pytest.raises(ValidationError):
            fit_isotonic(np.array([]), np.array([]))

    def test_apply_is_stepwise_right_continuous(self):
        model = IsotonicModel(
            breakpoints=np.array([0.2, 0.6]),
            fitted_values=np.array([0.1, 0.9]),
        )
        got = apply_isotonic(model, np.array([0.0, 0.2, 0.4, 0.6, 1.0]))
        assert np.allclose(got, [0.1, 0.1, 0.1, 0.9, 0.9])

    def test_multiclass_rows_sum_to_one(self):
        val = overconfident_probs(300, 4, 1)
        test = overconfident_probs(300, 4, 2)
        models = fit_isotonic_multiclass(val)
        assert len(models.models) == 4
        out = apply_isotonic_multiclass(models, test)
        assert np.allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_multiclass_zero_row_goes_uniform(self):
        models = IsotonicMulticlassModel((
            IsotonicModel(np.array([0.5]), np.array([0.0])),
            IsotonicModel(np.array([0.5]), np.array([0.0])),
        ))
        test = PredictionSet(np.array([[0.6, 0.4]]), np.array([0]))
        out = apply_isotonic_multiclass(models, test)
        assert np.allclose(out.probs[0], [0.5, 0.5])

    def test_multiclass_model_count_checked(self):
        test = PredictionSet(np.array([[0.6, 0.4]]), np.array([0]))
        with pytest.raises(ValidationError):
            apply_isotonic_multiclass(IsotonicMulticlassModel(()), test)


class TestTemperature:
    def test_recovers_distortion_factor(self):
        lg = sample_overconfident_logits(2000, 5, 0, miscalibration=2.0)
        model = fit_temperature(lg, objective="nll")
        assert 1.6 < model.temperature < 2.4

    def test_identity_when_calibrated(self):
        lg = sample_overconfident_logits(4000, 5, 1, miscalibration=1.0)
        model = fit_temperature(lg, objective="nll")
        assert 0.85 < model.temperature < 1.15

    def test_gce_objective_runs(self):
        lg = sample_overconfident_logits(500, 3, 2)
        model = fit_temperature(lg, objective="gce")
        assert model.temperature > 0

    def test_gce_objective_scores_an_emptied_view_as_worst(self):
        # At T = 20 every probability of these K = 1000 rows is about 0.001,
        # so the TACE threshold of 0.01 empties the view; the fit must pass
        # over such temperatures rather than raise.
        rng = np.random.default_rng(0)
        lg = LogitSet(rng.standard_normal((30, 1000)), rng.integers(0, 1000, 30))
        cfg = named_metric("TACE")
        with pytest.raises(EmptyMeasurementError):
            gce(apply_temperature(TemperatureModel(20.0), lg), cfg)
        model = fit_temperature(lg, "gce", cfg)
        assert math.isfinite(gce(apply_temperature(model, lg), cfg).value)

    def test_gce_objective_raises_when_every_grid_temperature_empties(self):
        # Equal logits give 1 / 1000 to every class at any T.
        lg = LogitSet(np.zeros((5, 1000)), np.arange(5))
        with pytest.raises(EmptyMeasurementError, match="at any grid temperature"):
            fit_temperature(lg, "gce", named_metric("TACE"))

    def test_rejects_unknown_objective(self):
        lg = sample_overconfident_logits(50, 3, 0)
        with pytest.raises(ValueError):
            fit_temperature(lg, objective="brier")

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            TemperatureModel(temperature=0.0)
        with pytest.raises(ValidationError):
            TemperatureModel(temperature=float("nan"))

    def test_apply_divides_logits(self):
        lg = LogitSet(np.array([[2.0, 0.0]]), np.array([0]))
        out = apply_temperature(TemperatureModel(temperature=2.0), lg)
        expect = 1.0 / (1.0 + np.exp(-1.0))
        assert out.probs[0, 0] == pytest.approx(expect, abs=1e-12)

    def test_apply_preserves_argmax(self):
        lg = sample_overconfident_logits(200, 4, 3)
        out = apply_temperature(TemperatureModel(temperature=7.5), lg)
        assert np.array_equal(
            np.argmax(out.probs, axis=1), np.argmax(lg.logits, axis=1)
        )


class TestAffine:
    def test_objective_gradients(self, rng):
        z = rng.standard_normal((12, 3))
        y = rng.integers(0, 3, 12)
        for kind in ("platt", "vector", "matrix"):
            f, x0 = affine_objective(z, y, kind)
            assert grad_check(f, x0 + rng.normal(0, 0.1, x0.shape)) < 1e-5

    def test_binary_platt_gradient(self, rng):
        z = rng.standard_normal((15, 2))
        y = rng.integers(0, 2, 15)
        f, x0 = affine_objective(z, y, "platt")
        assert grad_check(f, np.array([0.7, -0.2])) < 1e-5

    def test_parameter_shapes(self):
        # The weight's shape is the kind; only Platt at K = 2 is binary.
        quick = SgdConfig(iterations=5)
        for k in (2, 4):
            lg = sample_overconfident_logits(200, k, 0)
            for kind, w_shape, b_shape in (
                ("platt", (), ()), ("vector", (k,), (k,)), ("matrix", (k, k), (k,)),
            ):
                model = fit_affine_scaling(lg, kind, quick)
                assert model.weight.shape == w_shape
                assert model.bias.shape == b_shape
                assert model.binary == (kind == "platt" and k == 2)

    def test_shared_forms_match_per_kind_formulas(self, rng):
        # The per-kind objectives and maps the shared forms replaced, bit for bit.
        z = 3.0 * rng.standard_normal((40, 5))
        y = rng.integers(0, 5, 40)

        def platt(params):
            a, b = params
            loss, gout = _nll_and_grad(a * z + b, y)
            return loss, np.array([float((gout * z).sum()), float(gout.sum())])

        def vector(params):
            loss, gout = _nll_and_grad(z * params[:5] + params[5:], y)
            return loss, np.concatenate([(gout * z).sum(axis=0), gout.sum(axis=0)])

        for kind, reference in (("platt", platt), ("vector", vector)):
            f, x0 = affine_objective(z, y, kind)
            for params in (x0, x0 + rng.standard_normal(x0.shape)):
                loss, grad = f(params)
                want_loss, want_grad = reference(params)
                assert loss == want_loss
                assert np.array_equal(grad, want_grad)
        lg = LogitSet(z, y)
        quick = SgdConfig(iterations=20)
        m = fit_affine_scaling(lg, "platt", quick)
        want = row_softmax(float(m.weight) * z + float(m.bias))
        assert np.array_equal(apply_affine(m, lg).probs, want)
        m = fit_affine_scaling(lg, "vector", quick)
        assert np.array_equal(apply_affine(m, lg).probs, row_softmax(z * m.weight + m.bias))
        m = fit_affine_scaling(lg, "matrix", quick)
        assert np.array_equal(apply_affine(m, lg).probs, row_softmax(z @ m.weight.T + m.bias))

    def test_binary_platt_depends_on_logit_difference(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((100, 2))
        y = rng.integers(0, 2, 100)
        model = fit_affine_scaling(LogitSet(z, y), "platt", SgdConfig(iterations=50))
        assert model.binary
        shifted = LogitSet(z + 3.7, y)  # same z1 - z0 everywhere
        out_a = apply_affine(model, LogitSet(z, y))
        out_b = apply_affine(model, shifted)
        assert np.allclose(out_a.probs, out_b.probs, atol=1e-12)

    def test_vector_scaling_reduces_nll(self):
        lg = sample_overconfident_logits(2000, 5, 4, miscalibration=2.0)
        model = fit_affine_scaling(lg, "vector")
        before = nll(softmax(lg))
        after = nll(apply_affine(model, lg))
        assert after < before

    def test_vector_recovers_inverse_temperature(self):
        # labels drawn from softmax(z / 2): the optimal diagonal is near 0.5
        lg = sample_overconfident_logits(4000, 5, 0, miscalibration=2.0)
        model = fit_affine_scaling(lg, "vector")
        assert np.all(np.abs(model.weight - 0.5) < 0.15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            affine_objective(np.zeros((2, 2)), np.zeros(2, dtype=int), "cubic")


class TestMlp:
    def test_objective_gradient(self, rng):
        z = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, 8)
        f = mlp_objective(z, y, hidden=4, layers=2)
        x0 = init_mlp_params(3, 0, hidden=4, layers=2)
        assert grad_check(f, x0) < 1e-4

    def test_near_zero_init_outputs_near_uniform(self):
        lg = sample_overconfident_logits(100, 5, 0)
        params = init_mlp_params(5, 0, scale=1e-4)
        f = mlp_objective(lg.logits, lg.labels)
        loss, _ = f(params)
        assert loss == pytest.approx(np.log(5), abs=1e-3)

    def test_training_reduces_nll(self):
        lg = sample_overconfident_logits(600, 4, 1, miscalibration=2.0)
        model = fit_mlp_scaling(lg, seed=0)
        assert nll(apply_mlp_scaling(model, lg)) < nll(softmax(lg))

    def test_deterministic_for_seed(self):
        lg = sample_overconfident_logits(150, 3, 2)
        quick = SgdConfig(iterations=20)
        a = fit_mlp_scaling(lg, seed=5, sgd=quick)
        b = fit_mlp_scaling(lg, seed=5, sgd=quick)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_architecture_shapes(self):
        lg = sample_overconfident_logits(50, 4, 0)
        model = fit_mlp_scaling(lg, sgd=SgdConfig(iterations=1))
        shapes = [w.shape for w in model.weights]
        assert shapes == [(50, 4), (50, 50), (50, 50), (4, 50)]


class TestSerialization:
    def test_round_trips_every_model(self):
        lg = sample_overconfident_logits(300, 3, 0)
        p = softmax(lg)
        quick = SgdConfig(iterations=10)
        models = [
            fit_histogram_binning(p, n_bins=10),
            fit_histogram_binning(p, n_bins=10, class_conditional=True),
            fit_histogram_binning(p, n_bins=10, bootstrap=20, seed=0),
            fit_isotonic(p.probs[:, 0], (p.labels == 0).astype(float)),
            fit_isotonic_multiclass(p),
            fit_temperature(lg),
            fit_affine_scaling(lg, "platt", quick),
            fit_affine_scaling(lg, "vector", quick),
            fit_affine_scaling(lg, "matrix", quick),
            fit_mlp_scaling(lg, sgd=quick),
        ]
        for model in models:
            doc = json.loads(json.dumps(model_to_dict(model)))
            restored = model_from_dict(doc)
            assert type(restored) is type(model)
            again = model_to_dict(restored)
            assert json.dumps(again, sort_keys=True) == json.dumps(
                model_to_dict(model), sort_keys=True
            )

    def test_restored_model_applies_identically(self):
        lg = sample_overconfident_logits(200, 3, 1)
        test = sample_overconfident_logits(100, 3, 2)
        model = fit_affine_scaling(lg, "vector", SgdConfig(iterations=20))
        restored = model_from_dict(model_to_dict(model))
        assert np.allclose(
            apply_affine(model, test).probs,
            apply_affine(restored, test).probs,
            atol=1e-15,
        )

    def test_unknown_method_tag_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"method": "spline"})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            model_to_dict(object())


class TestRecalibratorTable:
    """Every method in the table at the extremes of its input: valid rows,
    the eval labels kept, no numpy warnings, and a model that round-trips."""

    @staticmethod
    def extreme_split(case: str) -> tuple[LogitSet, LogitSet]:
        rng = np.random.default_rng(5)
        if case == "saturated":
            # max-probs of exactly 1 (the rest ~1e-44), right and wrong
            z = np.where(np.eye(3)[rng.integers(0, 3, 40)] > 0, 50.0, -50.0)
            y = rng.integers(0, 3, 40)
        elif case == "absent class":
            # class 3 is never predicted nor the label in the fit half
            z = rng.standard_normal((40, 4))
            y = rng.integers(0, 3, 40)
            z[:20, 3] = -10.0
            z[20:, 3] = 10.0
            y[20:] = 3
        elif case == "K=2":
            z = 3.0 * rng.standard_normal((40, 2))
            y = rng.integers(0, 2, 40)
        else:  # logits of +-1e4 (exact one-hot softmax rows or ties in the max)
            k = 2 if case == "1e4 K=2" else 3
            z = rng.choice([-1e4, 1e4], size=(40, k))
            y = rng.integers(0, k, 40)
        return LogitSet(z[:20], y[:20]), LogitSet(z[20:], y[20:])

    def test_table_order_and_input_spaces(self):
        # argparse lists the --method choices in this order
        assert list(RECALIBRATORS) == [
            "histogram", "cc-histogram", "bootstrap-histogram", "isotonic",
            "platt", "temperature", "vector", "matrix", "mlp",
        ]
        assert {m for m, e in RECALIBRATORS.items() if e.logits} == {
            "platt", "temperature", "vector", "matrix", "mlp"
        }

    @pytest.mark.parametrize("method", [m for m, e in RECALIBRATORS.items() if e.logits])
    def test_logit_method_rejects_probabilities(self, method):
        fit, ev = (softmax(half) for half in self.extreme_split("K=2"))
        with pytest.raises(ValidationError, match=f"method '{method}' requires logits"):
            run_recalibrator(method, fit, ev)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "case", ["saturated", "absent class", "K=2", "1e4", "1e4 K=2"]
    )
    @pytest.mark.parametrize("method", list(RECALIBRATORS))
    def test_valid_rows_at_extremes(self, method, case):
        fit, ev = self.extreme_split(case)
        model, out = run_recalibrator(method, fit, ev, bootstrap=10)
        assert np.array_equal(out.labels, ev.labels)
        assert np.all(np.isfinite(out.probs))
        assert out.probs.min() >= 0.0 and out.probs.max() <= 1.0
        assert np.allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)
        restored = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        again = RECALIBRATORS[method].apply(
            restored, ev if RECALIBRATORS[method].logits else softmax(ev)
        )
        assert np.array_equal(again.probs, out.probs)
