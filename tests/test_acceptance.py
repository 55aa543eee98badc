"""End-to-end checks: known values, oracle equivalence, directional effects.

Each test prints a one-line measurement summary before asserting, so a
failure report carries the observed numbers.  The sweep and label-noise
harnesses dominate the suite's runtime; their budgets are asserted here.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracle
from conftest import random_prediction_set

from calerr import (
    NAMED_METRICS,
    EmptyMeasurementError,
    PredictionSet,
    all_configs,
    apply_histogram_binning,
    apply_isotonic_multiclass,
    apply_temperature,
    average_ranks,
    bin_sensitivity_sweep,
    fit_histogram_binning,
    fit_isotonic_multiclass,
    fit_temperature,
    gce,
    gce_with_bins,
    index_to_config,
    label_noise_experiment,
    make_pathology,
    metric_index,
    named_metric,
    rank_correlation,
    recalibrate_suite,
    sample_mixed_difficulty_logits,
    sample_overconfident_logits,
    softmax,
    split_validation,
    write_prediction_file,
)
from calerr.cli import main
from calerr.optimize import grad_check
from calerr.predictions import LogitSet, row_softmax
from calerr.recalibrate import (
    _pava,
    affine_objective,
    init_mlp_params,
    mlp_objective,
)


class TestPathologyCancellation:
    def test_coarse_bins_hide_what_fine_bins_expose(self):
        t0 = time.monotonic()
        p = make_pathology()
        coarse = gce(p, named_metric("ECE", 10)).value
        fine = gce(p, named_metric("ECE", 50)).value
        sce_fine = gce(p, named_metric("SCE", 50)).value
        ace_fine = gce(p, named_metric("ACE", 50)).value
        elapsed = time.monotonic() - t0
        print(
            f"ECE(10)={coarse:.6f} ECE(50)={fine:.4f} "
            f"SCE(50)={sce_fine:.4f} ACE(50)={ace_fine:.4f} [{elapsed:.3f}s]"
        )
        assert coarse == pytest.approx(0.003, abs=1e-9)
        assert fine >= 0.2
        assert sce_fine >= 0.2
        assert ace_fine >= 0.2
        assert elapsed < 1.0


# The canonical enumeration, hard-coded so a regression in either the
# indexing arithmetic or the label formatting fails loudly.
EXPECTED_LABELS = (
    "('even', True, True, 0.0, 'l1')",
    "('even', True, True, 0.0, 'l2')",
    "('even', True, True, 0.01, 'l1')",
    "('even', True, True, 0.01, 'l2')",
    "('even', True, False, 0.0, 'l1')",
    "('even', True, False, 0.0, 'l2')",
    "('even', True, False, 0.01, 'l1')",
    "('even', True, False, 0.01, 'l2')",
    "('even', False, True, 0.0, 'l1')",
    "('even', False, True, 0.0, 'l2')",
    "('even', False, True, 0.01, 'l1')",
    "('even', False, True, 0.01, 'l2')",
    "('even', False, False, 0.0, 'l1')",
    "('even', False, False, 0.0, 'l2')",
    "('even', False, False, 0.01, 'l1')",
    "('even', False, False, 0.01, 'l2')",
    "('adaptive', True, True, 0.0, 'l1')",
    "('adaptive', True, True, 0.0, 'l2')",
    "('adaptive', True, True, 0.01, 'l1')",
    "('adaptive', True, True, 0.01, 'l2')",
    "('adaptive', True, False, 0.0, 'l1')",
    "('adaptive', True, False, 0.0, 'l2')",
    "('adaptive', True, False, 0.01, 'l1')",
    "('adaptive', True, False, 0.01, 'l2')",
    "('adaptive', False, True, 0.0, 'l1')",
    "('adaptive', False, True, 0.0, 'l2')",
    "('adaptive', False, True, 0.01, 'l1')",
    "('adaptive', False, True, 0.01, 'l2')",
    "('adaptive', False, False, 0.0, 'l1')",
    "('adaptive', False, False, 0.0, 'l2')",
    "('adaptive', False, False, 0.01, 'l1')",
    "('adaptive', False, False, 0.01, 'l2')",
)


class TestVariantEnumeration:
    def test_all_32_labels_verbatim(self):
        labels = [index_to_config(i).label() for i in range(32)]
        print(f"first={labels[0]} last={labels[31]}")
        assert tuple(labels) == EXPECTED_LABELS
        for i in range(32):
            assert metric_index(index_to_config(i)) == i

    def test_named_metrics_sit_at_their_indices(self):
        expected = {
            "ECE": 4,
            "CCECE": 0,
            "SCE": 8,
            "ACE": 24,
            "TACE": 26,
            "RMSCE": 21,
        }
        print(f"named map: {sorted(NAMED_METRICS.items())}")
        assert NAMED_METRICS == expected
        for name, idx in expected.items():
            assert named_metric(name).label() == EXPECTED_LABELS[idx]


@pytest.mark.slow
class TestOracleEquivalence:
    def test_1000_random_sets_match_brute_force(self):
        rng = np.random.default_rng(20260814)
        t0 = time.monotonic()
        worst = 0.0
        checked = 0
        for _ in range(1000):
            p = random_prediction_set(rng)
            n_bins = int(rng.integers(1, 6))
            for idx, axes in enumerate(oracle.all_variant_axes()):
                cfg = index_to_config(idx, n_bins)
                try:
                    ref = oracle.brute_force_gce(p.probs, p.labels, *axes, n_bins)
                except ValueError:
                    with pytest.raises(EmptyMeasurementError):
                        gce(p, cfg)
                    continue
                got = gce(p, cfg).value
                worst = max(worst, abs(got - ref))
                checked += 1
        elapsed = time.monotonic() - t0
        print(f"{checked} scores, worst |diff| = {worst:.2e} [{elapsed:.1f}s]")
        assert checked > 0
        assert worst <= 1e-10
        assert elapsed < 30.0


class TestOracleBins:
    # The first sets of TestOracleEquivalence's input stream: all 1,000
    # take about 8 s, too long for the fast loop this test runs in.
    N_SETS = 400

    def test_reports_match_brute_force(self):
        rng = np.random.default_rng(20260814)
        t0 = time.monotonic()
        worst = 0.0
        checked = 0
        for _ in range(self.N_SETS):
            p = random_prediction_set(rng)
            n_bins = int(rng.integers(1, 6))
            wanted = {}  # the bins do not depend on the norm
            for cfg, axes in zip(all_configs(n_bins), oracle.all_variant_axes(), strict=True):
                assert cfg.axis_tuple() == axes
                binning, _, class_conditional, _, _ = axes
                try:
                    if axes[:4] not in wanted:
                        wanted[axes[:4]] = oracle.brute_force_bins(
                            p.probs, p.labels, *axes[:4], n_bins)
                except ValueError:
                    with pytest.raises(EmptyMeasurementError):
                        gce_with_bins(p, cfg)
                    continue
                classes, lower, upper, counts, accuracy, confidence = (
                    np.array(column) for column in zip(*wanted[axes[:4]]))
                table = gce_with_bins(p, cfg)[1]
                if class_conditional:
                    assert table.class_index.tolist() == classes.tolist()
                else:
                    assert table.class_index is None
                assert table.count.tolist() == counts.tolist(), cfg.label()
                # Even edges are exact; adaptive midpoints are one rounding
                # of the same two scores, so they match too.
                assert table.lower.tolist() == lower.tolist(), cfg.label()
                assert table.upper.tolist() == upper.tolist(), cfg.label()
                if binning == "adaptive":
                    for c in set(classes.tolist()):
                        pool = table.count[classes == c]
                        assert pool.max() - pool.min() <= 1, cfg.label()
                worst = max(worst, np.abs(table.accuracy - accuracy).max(),
                            np.abs(table.confidence - confidence).max())
                checked += 1
        elapsed = time.monotonic() - t0
        print(f"{checked} reports, worst |diff| of means = {worst:.2e} [{elapsed:.1f}s]")
        assert checked > 0
        assert worst <= 1e-10


@pytest.mark.slow
class TestIsotonicAgainstExhaustiveSearch:
    def test_every_grid_instance_up_to_length_six(self):
        grid = np.round(np.arange(11) / 10.0, 10)
        worst = 0.0
        total = 0
        for n in range(1, 7):
            instances, fits = oracle.grid_isotonic_all(n, grid)
            ones = np.ones(n)
            for row, ref in zip(instances, fits):
                diff = float(np.max(np.abs(_pava(row, ones) - ref)))
                if diff > worst:
                    worst = diff
            total += len(instances)
        print(f"{total} instances, worst |diff| = {worst:.2e}")
        assert total == 1_948_716
        assert worst <= 1e-9


class TestScalingGradients:
    @pytest.mark.parametrize("kind", ["vector", "matrix"])
    def test_affine_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(5, 30))
            k = int(rng.integers(2, 6))
            z = rng.standard_normal((n, k))
            y = rng.integers(0, k, n)
            f_and_grad, x0 = affine_objective(z, y, kind)
            point = x0 + 0.3 * rng.standard_normal(x0.shape)
            worst = max(worst, grad_check(f_and_grad, point))
        print(f"{kind}: worst relative error {worst:.2e}")
        assert worst < 1e-4

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(5, 25))
            k = int(rng.integers(2, 5))
            z = rng.standard_normal((n, k))
            y = rng.integers(0, k, n)
            f_and_grad = mlp_objective(z, y, hidden=8, layers=2)
            point = init_mlp_params(
                k, seed=int(rng.integers(0, 10**6)), hidden=8, layers=2
            )
            worst = max(worst, grad_check(f_and_grad, point))
        print(f"mlp: worst relative error {worst:.2e}")
        assert worst < 1e-3


def _asymmetric_mixture(n: int, k: int, seed: int) -> LogitSet:
    """Half near-calibrated soft logits, half sharp and heavily distorted.

    The mixture's reliability curve is not a pure temperature distortion, so
    the cross-entropy and binned-error minimizers land at visibly different
    temperatures.
    """
    a = sample_overconfident_logits(
        n // 2, k, seed, miscalibration=1.0, sharpness=1.0
    )
    b = sample_overconfident_logits(
        n - n // 2, k, seed + 1000, miscalibration=4.0, sharpness=4.0
    )
    return LogitSet(
        np.vstack([a.logits, b.logits]), np.concatenate([a.labels, b.labels])
    )


class TestTemperatureRecovery:
    def test_nll_fit_recovers_the_distortion(self):
        temps = []
        for seed in range(3):
            lg = sample_overconfident_logits(10000, 5, seed)
            temps.append(fit_temperature(lg, objective="nll").temperature)
        print(f"recovered temperatures: {[f'{t:.4f}' for t in temps]}")
        for t in temps:
            assert 1.9 <= t <= 2.1

    def test_gce_fit_matches_dense_grid_scan(self):
        lg = sample_overconfident_logits(10000, 5, 0)
        fitted = fit_temperature(lg, objective="gce").temperature
        cfg = named_metric("ECE")

        def score(temp: float) -> float:
            probs = row_softmax(lg.logits / temp)
            return gce(PredictionSet(probs, lg.labels), cfg).value

        grid = np.exp(np.linspace(math.log(0.25), math.log(8.0), 241))
        values = np.array([score(t) for t in grid])
        best = float(grid[int(np.argmin(values))])
        step = math.log(grid[1]) - math.log(grid[0])
        distance = abs(math.log(fitted) - math.log(best))
        print(
            f"fitted T={fitted:.4f} grid best={best:.4f} "
            f"log-distance={distance:.4f} (step {step:.4f})"
        )
        assert distance <= step
        assert score(fitted) <= float(values.min()) + 1e-12

    def test_objectives_disagree_on_an_asymmetric_mixture(self):
        diffs = []
        for seed in range(3):
            lg = _asymmetric_mixture(4000, 5, seed)
            t_nll = fit_temperature(lg, objective="nll").temperature
            t_gce = fit_temperature(lg, objective="gce").temperature
            diffs.append(abs(t_nll - t_gce))
        print(f"|T_nll - T_gce|: {[f'{d:.4f}' for d in diffs]}")
        for d in diffs:
            assert d > 0.05


@pytest.mark.slow
class TestBinSensitivityDirection:
    def test_adaptive_rankings_are_more_stable_across_bin_counts(self):
        t0 = time.monotonic()
        wins = 0
        gaps = []
        for seed in range(20):
            logits = sample_mixed_difficulty_logits(2000, 10, seed)
            fit, ev = split_validation(logits)
            suite = recalibrate_suite(fit, ev, seed=seed)
            res = bin_sensitivity_sweep(
                None, list(suite.values()), method_names=list(suite)
            )
            g = res.group_correlation["binning"]
            wins += g["adaptive"] >= g["even"]
            gaps.append(g["adaptive"] - g["even"])
        elapsed = time.monotonic() - t0
        print(
            f"adaptive >= even in {wins}/20 seeds, "
            f"mean gap {np.mean(gaps):+.4f} [{elapsed:.0f}s]"
        )
        assert wins >= 14
        assert elapsed < 300.0


def _heterogeneous_accuracy_set(n: int, seed: int) -> PredictionSet:
    """Two-class predictions whose accuracy depends on the predicted class.

    Confidence is uniform on [0.55, 0.95] regardless of class, so pooled
    binning mixes a 90%-accurate group with a 55%-accurate one and the
    per-class miscalibrations partially cancel.
    """
    rng = np.random.default_rng(seed)
    pred = np.arange(n) % 2
    p = rng.uniform(0.55, 0.95, n)
    probs = np.where(
        pred[:, None] == 0,
        np.column_stack([p, 1 - p]),
        np.column_stack([1 - p, p]),
    )
    accuracy = np.where(pred == 0, 0.9, 0.55)
    correct = rng.random(n) < accuracy
    labels = np.where(correct, pred, 1 - pred)
    return PredictionSet(probs, labels.astype(int))


class TestClassConditionalityGap:
    def test_pooled_ece_flatters_unconditional_histogram_binning(self):
        for seed in range(5):
            fit = _heterogeneous_accuracy_set(2000, seed)
            ev = _heterogeneous_accuracy_set(2000, seed + 500)
            model = fit_histogram_binning(fit, 20)
            recal = apply_histogram_binning(model, ev)
            ece = gce(recal, named_metric("ECE")).value
            ccece = gce(recal, named_metric("CCECE")).value
            print(f"seed {seed}: ECE={ece:.4f} CCECE={ccece:.4f}")
            assert ece < ccece


@pytest.mark.slow
class TestLabelNoiseMonotonicity:
    def test_omitted_fraction_rises_with_noise(self):
        t0 = time.monotonic()
        correlations = []
        for seed in range(10):
            results = label_noise_experiment(seed=seed)
            assert len(results) == 40
            noise = np.array([r.noise for r in results])
            omitted = np.array([r.omitted_fraction for r in results])
            correlations.append(
                rank_correlation(average_ranks(noise), average_ranks(omitted))
            )
        elapsed = time.monotonic() - t0
        print(
            f"rank correlations: min {min(correlations):.4f}, "
            f"max {max(correlations):.4f} [{elapsed:.0f}s]"
        )
        for c in correlations:
            assert c > 0.8


class TestCliDeterminism:
    """Every subcommand, run twice at a fixed seed, must emit identical bytes."""

    def _assert_deterministic(self, tmp_path, capsys, build_argv):
        outputs = []
        for run in ("a", "b"):
            run_dir = tmp_path / run
            run_dir.mkdir(exist_ok=True)
            assert main(build_argv(run_dir)) == 0
            # echoed artifact paths differ by run dir; nothing else may
            outputs.append(capsys.readouterr().out.replace(str(run_dir), "DIR"))
        assert outputs[0] == outputs[1]
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        assert files_a
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name
        print(f"identical artifacts: {[f.name for f in files_a]}")

    @pytest.fixture
    def probs_csv(self, tmp_path):
        p = softmax(sample_overconfident_logits(60, 3, 0))
        path = tmp_path / "probs.csv"
        write_prediction_file(path, p)
        return str(path)

    @pytest.fixture
    def logits_csv(self, tmp_path):
        lg = sample_overconfident_logits(80, 3, 1)
        path = tmp_path / "logits.csv"
        write_prediction_file(path, lg)
        return str(path)

    @pytest.fixture
    def method_files(self, tmp_path):
        logits = sample_overconfident_logits(120, 3, 2)
        fit, ev = split_validation(logits)
        fit_p, ev_p = softmax(fit), softmax(ev)
        outputs = {
            "histogram": apply_histogram_binning(
                fit_histogram_binning(fit_p, 5), ev_p
            ),
            "isotonic": apply_isotonic_multiclass(
                fit_isotonic_multiclass(fit_p), ev_p
            ),
            "temperature": apply_temperature(fit_temperature(fit), ev),
        }
        pairs = []
        for name, preds in outputs.items():
            path = tmp_path / f"{name}.csv"
            write_prediction_file(path, preds)
            pairs.append(f"{name}={path}")
        return pairs

    def test_measure(self, tmp_path, capsys, probs_csv):
        self._assert_deterministic(
            tmp_path, capsys,
            lambda d: [
                "measure", probs_csv, "--named", "SCE", "--seed", "0",
                "--output", str(d / "report.json"),
            ],
        )

    def test_recalibrate(self, tmp_path, capsys, probs_csv):
        self._assert_deterministic(
            tmp_path, capsys,
            lambda d: [
                "recalibrate", probs_csv, "--method", "bootstrap-histogram",
                "--histogram-bins", "5", "--bootstrap", "10", "--seed", "0",
                "--output-prefix", str(d / "out"),
            ],
        )

    def test_sweep_bins(self, tmp_path, capsys, method_files):
        self._assert_deterministic(
            tmp_path, capsys,
            lambda d: [
                "sweep-bins", "--inputs", *method_files,
                "--bins", "5", "10", "--seed", "0",
                "--output-prefix", str(d / "sweep"),
            ],
        )

    def test_rank_methods(self, tmp_path, capsys, method_files):
        self._assert_deterministic(
            tmp_path, capsys,
            lambda d: [
                "rank-methods", "--inputs", *method_files,
                "--bins", "5", "--seed", "0",
                "--output-prefix", str(d / "rank"),
            ],
        )

    def test_label_noise(self, tmp_path, capsys):
        self._assert_deterministic(
            tmp_path, capsys,
            lambda d: [
                "label-noise", "--levels", "3", "--max-noise", "0.04",
                "--n-train", "200", "--n-test", "100",
                "--train-iterations", "20", "--seed", "0",
                "--output", str(d / "noise.csv"),
            ],
        )

    def test_reliability(self, tmp_path, capsys, probs_csv):
        self._assert_deterministic(
            tmp_path, capsys,
            lambda d: [
                "reliability", probs_csv, "--named", "ECE", "--bins", "10",
                "--seed", "0", "--output", str(d / "rel.csv"),
            ],
        )

    def test_pathology(self, tmp_path, capsys):
        self._assert_deterministic(
            tmp_path, capsys,
            lambda d: ["pathology", "--seed", "0", "--output", str(d / "path.csv")],
        )
