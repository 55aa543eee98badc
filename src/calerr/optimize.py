"""Minimal optimizers used by the recalibrators: Nelder-Mead and momentum SGD.

Both are deliberately small and deterministic.  Nelder-Mead drives the
one-parameter temperature fits (including non-smooth binned objectives where
gradients do not exist); full-batch SGD with Nesterov momentum trains the
affine and MLP scalers.  :func:`grad_check` compares an analytic gradient
against central differences and is used by the tests to certify every
hand-derived gradient in the package.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

Objective = Callable[[np.ndarray], float]
# Returns (loss, gradient) at a parameter vector.
ObjectiveWithGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


class NelderMeadResult(NamedTuple):
    x: np.ndarray
    value: float
    converged: bool
    iterations: int


def nelder_mead(
    f: Objective,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> NelderMeadResult:
    """Downhill simplex minimization of ``f`` from ``x0``.

    Standard coefficients: reflection 1, expansion 2, contraction 0.5,
    shrink 0.5.  The initial simplex perturbs each coordinate of ``x0`` by
    5 percent (or by 0.00025 where the coordinate is zero).  Iteration stops
    once the spread between the best and worst vertex values drops below
    ``tol`` (converged) or after ``max_iter`` iterations (not converged).
    The returned vertex is never worse than the best initial vertex.  A
    value of +inf marks a point outside the objective's domain, worse than
    any other; NaN and -inf raise.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.shape[0]

    def evaluate(x: np.ndarray) -> float:
        v = float(f(x))
        if math.isnan(v) or v == -math.inf:
            raise ValueError(f"objective returned non-finite value {v} at {x}")
        return v

    simplex = [x0.copy()]
    for i in range(dim):
        vertex = x0.copy()
        vertex[i] = x0[i] * 1.05 if x0[i] != 0.0 else 0.00025
        simplex.append(vertex)
    values = [evaluate(v) for v in simplex]

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < tol:
            converged = True
            break
        iterations += 1

        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = evaluate(reflected)

        if values[0] <= f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = evaluate(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
            continue
        # Reflection did not beat the second-worst vertex: contract.
        if f_r < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
            f_c = evaluate(contracted)
            if f_c <= f_r:
                simplex[-1], values[-1] = contracted, f_c
                continue
        else:
            contracted = centroid - 0.5 * (centroid - worst)
            f_c = evaluate(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
                continue
        # Shrink every vertex toward the best one.
        for i in range(1, dim + 1):
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            values[i] = evaluate(simplex[i])
    else:
        # Loop exhausted max_iter without meeting the spread tolerance.
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]

    return NelderMeadResult(
        x=simplex[0], value=values[0], converged=converged, iterations=iterations
    )


@dataclasses.dataclass(frozen=True)
class SgdConfig:
    """Full-batch gradient descent hyperparameters."""

    learning_rate: float = 0.001
    momentum: float = 0.9
    nesterov: bool = True
    iterations: int = 1000

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")


def sgd_minimize(
    f_and_grad: ObjectiveWithGrad,
    params0: np.ndarray,
    cfg: SgdConfig = SgdConfig(),
    callback: Callable[[int, float, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Run exactly ``cfg.iterations`` full-batch gradient steps.

    Nesterov update: the gradient is taken at the lookahead point
    x + momentum * v, then v <- momentum * v - lr * grad and x <- x + v.
    With ``nesterov=False`` the gradient is taken at x itself.  Momentum 0
    reduces both to plain gradient descent.  A non-finite loss or gradient
    aborts with :class:`DivergenceError` naming the step and learning rate.

    ``callback(iteration, loss, params)`` is invoked once per step with the
    loss just evaluated (at the lookahead point when nesterov) and the
    parameters after the step.
    """
    momentum, learning_rate = cfg.momentum, cfg.learning_rate
    x = np.array(params0, dtype=float)
    v = np.zeros_like(x)
    for t in range(cfg.iterations):
        probe = x + momentum * v if cfg.nesterov else x
        loss, grad = f_and_grad(probe)
        grad = np.asarray(grad, dtype=float)
        if not (math.isfinite(loss) and np.isfinite(grad).all()):
            raise DivergenceError(
                f"non-finite loss or gradient at iteration {t} "
                f"(learning_rate={learning_rate})"
            )
        # The arithmetic of v = momentum v - lr grad, with v updated in
        # place; x is a new array each step, since callback may keep it.
        v *= momentum
        v -= learning_rate * grad
        x = x + v
        if callback is not None:
            callback(t, loss, x)
    return x


def grad_check(
    f_and_grad: ObjectiveWithGrad,
    point: np.ndarray,
    h: float = 1e-5,
) -> float:
    """Worst-coordinate relative error of an analytic gradient.

    Compares against central differences (f(x + h e_i) - f(x - h e_i)) / 2h
    with relative error |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8).
    """
    x = np.array(point, dtype=float)
    _, analytic = f_and_grad(x)
    analytic = np.asarray(analytic, dtype=float)
    worst = 0.0
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = h
        hi, _ = f_and_grad(x + step)
        lo, _ = f_and_grad(x - step)
        numeric = (hi - lo) / (2.0 * h)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
