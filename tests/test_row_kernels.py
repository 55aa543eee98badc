"""The softmax and NLL-gradient row kernels against their plain expressions.

``reference_row_softmax`` and ``reference_nll_and_grad`` are the kernels as
first written, one numpy expression per step.  The kernels may read each
row's max in any order and reuse their buffers, but every output must keep
its bits and its memory layout, and no kernel may write into its input.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from calerr import LogitSet, affine_objective, fit_temperature, mlp_objective, row_softmax
from calerr import recalibrate
from calerr.predictions import _ROW_MAX_COPY_BELOW
from calerr.recalibrate import (
    _CLASS_MAJOR_MIN_ROWS_PER_CLASS,
    _CLASS_SUMS_BELOW,
    _class_sums,
    _nll_and_grad,
)


def reference_row_softmax(logits):
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_nll_and_grad(out_logits, labels):
    n = out_logits.shape[0]
    z = out_logits - out_logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(n), labels]))
    p = np.exp(z - lse[:, None])
    p[np.arange(n), labels] -= 1.0
    return loss, p / n


# Every K to 17: numpy's pairwise row sum changes shape at K = 8, and the
# class-major NLL path ends at _CLASS_SUMS_BELOW (16).
CLASS_COUNTS = sorted({*range(2, 18), 100, 1000, _ROW_MAX_COPY_BELOW - 1, _ROW_MAX_COPY_BELOW})
ROW_COUNTS = (1, 7, 600)


def logits_cases(n, k, seed=0):
    """Named (n, k) logit matrices: plain, ±1e4, tied maxima and signed zeros."""
    rng = np.random.default_rng(seed)
    plain = 3.0 * rng.standard_normal((n, k))
    tied = np.round(rng.standard_normal((n, k)))
    tied[:, -1] = tied.max(axis=1)  # every row's max appears at least twice
    zeros = np.where(rng.random((n, k)) < 0.5, 0.0, -0.0)
    zeros[:, 0] = rng.choice([0.0, -0.0, -1.0], n)  # max of +0 and -0 entries
    return {
        "plain": plain,
        "saturated": 1e4 * np.sign(rng.standard_normal((n, k))),
        "tied-max": tied,
        "signed-zeros": zeros,
    }


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def assert_same_nll(got, want):
    assert got[0] == want[0]
    assert_same_array(got[1], want[1])


@pytest.mark.parametrize("k", CLASS_COUNTS)
@pytest.mark.parametrize("n", ROW_COUNTS)
class TestBitIdentity:
    def test_row_softmax(self, n, k):
        for name, z in logits_cases(n, k).items():
            before = z.copy()
            assert_same_array(row_softmax(z), reference_row_softmax(z))
            assert before.tobytes() == z.tobytes(), name

    def test_nll_and_grad(self, n, k):
        labels = np.random.default_rng(1).integers(0, k, n)
        for name, z in logits_cases(n, k).items():
            before = z.copy()
            assert_same_nll(_nll_and_grad(z, labels), reference_nll_and_grad(z, labels))
            assert before.tobytes() == z.tobytes(), name

    def test_fortran_ordered(self, n, k):
        labels = np.random.default_rng(1).integers(0, k, n)
        for z in logits_cases(n, k).values():
            zf = np.asfortranarray(z)
            assert_same_array(row_softmax(zf), reference_row_softmax(zf))
            assert_same_nll(_nll_and_grad(zf, labels), reference_nll_and_grad(zf, labels))


@pytest.mark.parametrize("k", range(2, _CLASS_SUMS_BELOW))
def test_nll_and_grad_either_side_of_the_row_count(k):
    """Bits on both sides of the class-major kernel's minimum row count."""
    for n in (_CLASS_MAJOR_MIN_ROWS_PER_CLASS * k - 1, _CLASS_MAJOR_MIN_ROWS_PER_CLASS * k):
        labels = np.random.default_rng(1).integers(0, k, n)
        for z in logits_cases(n, k).values():
            assert_same_nll(_nll_and_grad(z, labels), reference_nll_and_grad(z, labels))


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_class_sums_follow_numpys_row_sum_order(n):
    """The class-major row sums equal numpy's ``sum(axis=1)`` bit for bit.

    Rows span 1e-8 to 1e8 in both signs and hold inf, NaN and signed zeros,
    so any change in numpy's pairwise order or in its starting value shows
    here before it moves a golden file.
    """
    rng = np.random.default_rng(7)
    for k in range(2, _CLASS_SUMS_BELOW):
        x = rng.choice([-1.0, 1.0], (n, k)) * 10.0 ** rng.uniform(-8, 8, (n, k))
        kind = rng.random((n, k))
        x[kind < 0.05] = np.inf
        x[(kind >= 0.05) & (kind < 0.1)] = -np.inf
        x[(kind >= 0.1) & (kind < 0.15)] = np.nan
        x[(kind >= 0.15) & (kind < 0.25)] = 0.0
        x[(kind >= 0.25) & (kind < 0.35)] = -0.0
        x[0] = -0.0  # an all -0.0 row sums to +0.0
        with np.errstate(invalid="ignore"):
            want = x.sum(axis=1)
            got = _class_sums(x.T.copy())
        assert got.tobytes() == want.tobytes(), (
            f"K = {k}, N = {n}: numpy {np.__version__} sums rows in another order")


class TestRowSoftmaxInputs:
    def test_strided(self):
        z = logits_cases(600, 2 * _ROW_MAX_COPY_BELOW)["plain"]
        for view in (z[:, ::2], z[::3], z[::-1, 1::3]):
            assert_same_array(row_softmax(view), reference_row_softmax(view))

    def test_int(self):
        z = np.random.default_rng(2).integers(-50, 50, (600, 10))
        before = z.copy()
        assert_same_array(row_softmax(z), reference_row_softmax(z))
        assert np.array_equal(z, before)


class TestObjectivesOnReferenceKernel:
    """The objectives, rebuilt from the reference kernel, bit for bit."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", ["platt", "vector", "matrix"])
    def test_affine(self, kind, order):
        rng = np.random.default_rng(3)
        z = np.asarray(3.0 * rng.standard_normal((600, 10)), order=order)
        y = rng.integers(0, 10, 600)
        n_w, axis = {"platt": (1, None), "vector": (10, 0), "matrix": (100, 0)}[kind]
        f, x0 = affine_objective(z, y, kind)
        for params in (x0, x0 + rng.standard_normal(x0.shape)):
            if kind == "matrix":
                w = params[:n_w].reshape(10, 10)
                loss, gout = reference_nll_and_grad(z @ w.T + params[n_w:], y)
                want = np.hstack([(gout.T @ z).ravel(), gout.sum(axis=0)])
            else:
                loss, gout = reference_nll_and_grad(z * params[:n_w] + params[n_w:], y)
                want = np.hstack([(gout * z).sum(axis=axis), gout.sum(axis=axis)])
            got_loss, got = f(params)
            assert got_loss == loss
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, order", [
        ((1500, 10), "C"), ((150, 10), "C"), ((1500, 10), "F"), ((300, 3), "C"), ((300, 20), "C"),
    ])
    def test_temperature_nll(self, monkeypatch, shape, order):
        rng = np.random.default_rng(5)
        z = np.asarray(3.0 * rng.standard_normal(shape), order=order)
        y = rng.integers(0, shape[1], shape[0])
        kernel, calls, objectives = recalibrate._nll_and_grad, [], []
        monkeypatch.setattr(recalibrate, "_nll_and_grad",
                            lambda out, labels: calls.append(1) or kernel(out, labels))
        search = recalibrate.nelder_mead
        monkeypatch.setattr(recalibrate, "nelder_mead",
                            lambda f, x0: objectives.append(f) or search(f, x0))
        fit_temperature(LogitSet(z, y))
        # A class-major objective scales its own copy and skips the kernel.
        assert bool(calls) != recalibrate._runs_class_major(z)
        for log_t in np.linspace(-3.0, 3.0, 41):
            loss, _ = reference_nll_and_grad(z * math.exp(-log_t), y)
            assert objectives[0](np.array([log_t])) == loss

    def test_dense(self):
        rng = np.random.default_rng(4)
        widths = (10, 8, 8, 10)
        z = 3.0 * rng.standard_normal((300, 10))
        y = rng.integers(0, 10, 300)
        params = rng.standard_normal(sum(o * i + o for i, o in zip(widths[:-1], widths[1:])))
        weights, biases, pos = [], [], 0
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            weights.append(params[pos : pos + n_in * n_out].reshape(n_out, n_in))
            biases.append(params[pos + n_in * n_out : pos + n_in * n_out + n_out])
            pos += n_in * n_out + n_out
        inputs = [z]
        for w, b in zip(weights[:-1], biases[:-1]):
            inputs.append(np.maximum(inputs[-1] @ w.T + b, 0.0))
        loss, grad = reference_nll_and_grad(inputs[-1] @ weights[-1].T + biases[-1], y)
        want = []
        for layer in range(len(weights) - 1, -1, -1):
            want[:0] = [(grad.T @ inputs[layer]).ravel(), grad.sum(axis=0)]
            if layer:
                grad = (grad @ weights[layer]) * (inputs[layer] > 0.0)
        got_loss, got = mlp_objective(z, y, hidden=8, layers=2)(params)
        assert got_loss == loss
        assert got.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_labels_outside_the_classes_are_refused(self, bad):
        # The flat label index would read another row's entry, so the
        # objectives check their labels once, when they are built.
        z = np.zeros((3, 4))
        y = np.array([0, bad, 1])
        for kind in ("platt", "vector", "matrix"):
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
                affine_objective(z, y, kind)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
            mlp_objective(z, y, hidden=2, layers=1)


def _peak_over_input(z, run) -> float:
    """``tracemalloc`` peak of ``run()``, in units of ``z.nbytes``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / z.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(2000, 1000), (20_000, 10)])
class TestKernelPeakMemory:
    """Softmax holds one output matrix; the NLL step adds one exp buffer."""

    def test_row_softmax(self, shape):
        z = 3.0 * np.random.default_rng(5).standard_normal(shape)
        assert _peak_over_input(z, lambda: row_softmax(z)) <= 1.25

    def test_nll_and_grad(self, shape):
        z = 3.0 * np.random.default_rng(5).standard_normal(shape)
        labels = np.random.default_rng(6).integers(0, shape[1], shape[0])
        assert _peak_over_input(z, lambda: _nll_and_grad(z, labels)) <= 2.25
