"""Simplex and momentum-descent optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from calerr import (
    DivergenceError,
    SgdConfig,
    grad_check,
    nelder_mead,
    sgd_minimize,
)


class TestNelderMead:
    def test_quadratic_1d(self):
        res = nelder_mead(lambda x: (x[0] - 3.0) ** 2, np.array([0.0]))
        assert res.converged
        assert res.x[0] == pytest.approx(3.0, abs=1e-3)

    def test_quadratic_2d(self):
        def f(x):
            return (x[0] - 1.0) ** 2 + 10.0 * (x[1] + 2.0) ** 2

        res = nelder_mead(f, np.array([5.0, 5.0]), max_iter=2000)
        assert res.converged
        assert res.x == pytest.approx([1.0, -2.0], abs=1e-3)

    def test_never_worse_than_best_initial_vertex(self):
        # one step on a hostile function cannot lose ground
        def f(x):
            return float(np.sin(50 * x[0]) + x[0] ** 2)

        x0 = np.array([0.7])
        start_best = min(f(x0), f(np.array([0.7 * 1.05])))
        res = nelder_mead(f, x0, max_iter=3)
        assert res.value <= start_best + 1e-15

    def test_constant_function_converges_immediately(self):
        res = nelder_mead(lambda x: 1.0, np.array([2.0]))
        assert res.converged
        assert res.iterations == 0
        assert res.value == 1.0

    def test_iteration_budget_respected(self):
        res = nelder_mead(lambda x: x[0] ** 2, np.array([100.0]), max_iter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_non_finite_objective_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            nelder_mead(lambda x: float("nan"), np.array([1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            nelder_mead(lambda x: -float("inf"), np.array([1.0]))

    def test_plus_inf_is_worse_than_any_value(self):
        # +inf marks points outside the domain; the search stays inside it.
        def f(x):
            return (x[0] - 0.9) ** 2 if x[0] < 1.0 else float("inf")

        res = nelder_mead(f, np.array([0.98]))
        assert res.converged
        assert res.x[0] == pytest.approx(0.9, abs=1e-3)

    def test_zero_coordinate_gets_absolute_perturbation(self):
        # from exactly 0 the simplex must still have positive volume
        res = nelder_mead(lambda x: (x[0] - 0.001) ** 2, np.array([0.0]))
        assert res.x[0] == pytest.approx(0.001, abs=1e-4)


class TestSgdConfig:
    def test_defaults(self):
        cfg = SgdConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.momentum == 0.9
        assert cfg.nesterov is True
        assert cfg.iterations == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            SgdConfig(momentum=1.0)
        with pytest.raises(ValueError):
            SgdConfig(iterations=-1)


class TestSgdMinimize:
    def test_nesterov_trajectory_matches_hand_computation(self):
        # f(x) = x^2 / 2, grad f = x; lr 0.1, momentum 0.5, x0 = 1
        def f(x):
            return 0.5 * float(x[0] ** 2), x.copy()

        cfg = SgdConfig(learning_rate=0.1, momentum=0.5, iterations=3)
        x, v = 1.0, 0.0
        for _ in range(3):
            g = x + 0.5 * v  # gradient at lookahead
            v = 0.5 * v - 0.1 * g
            x = x + v
        got = sgd_minimize(f, np.array([1.0]), cfg)
        assert got[0] == pytest.approx(x, abs=1e-15)

    def test_plain_momentum_differs_from_nesterov(self):
        def f(x):
            return 0.5 * float(x[0] ** 2), x.copy()

        nest = sgd_minimize(
            f, np.array([1.0]), SgdConfig(learning_rate=0.1, iterations=5)
        )
        plain = sgd_minimize(
            f,
            np.array([1.0]),
            SgdConfig(learning_rate=0.1, iterations=5, nesterov=False),
        )
        assert nest[0] != plain[0]

    def test_runs_exact_iteration_count(self):
        calls = []

        def f(x):
            return float(x[0] ** 2), 2.0 * x

        sgd_minimize(
            f,
            np.array([1.0]),
            SgdConfig(iterations=7),
            callback=lambda t, loss, x: calls.append(t),
        )
        assert calls == list(range(7))

    def test_zero_iterations_returns_start(self):
        out = sgd_minimize(
            lambda x: (0.0, np.zeros_like(x)),
            np.array([4.0, 5.0]),
            SgdConfig(iterations=0),
        )
        assert np.array_equal(out, [4.0, 5.0])

    def test_converges_on_quadratic(self):
        def f(x):
            return float(np.sum(x**2)), 2.0 * x

        out = sgd_minimize(
            f, np.array([3.0, -2.0]), SgdConfig(learning_rate=0.05, iterations=500)
        )
        assert np.allclose(out, 0.0, atol=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_error_names_step_and_rate(self):
        # maximizing curvature with a huge step blows up fast
        def f(x):
            return -float(x[0] ** 2) * 1e8, -2e8 * x

        cfg = SgdConfig(learning_rate=1e30, iterations=50)
        with pytest.raises(DivergenceError, match=r"iteration \d+"):
            sgd_minimize(f, np.array([1.0]), cfg)
        try:
            sgd_minimize(f, np.array([1.0]), cfg)
        except DivergenceError as exc:
            assert "1e+30" in str(exc)


class TestGradCheck:
    def test_correct_gradient_passes(self):
        def f(x):
            return float(np.sum(x**3)), 3.0 * x**2

        assert grad_check(f, np.array([0.5, -1.2])) < 1e-6

    def test_wrong_gradient_fails(self):
        def f(x):
            return float(np.sum(x**2)), 3.0 * x  # should be 2x

        assert grad_check(f, np.array([1.0])) > 0.1
