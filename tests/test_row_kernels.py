"""The softmax and NLL-gradient row kernels against their plain expressions.

``reference_row_softmax`` and ``reference_nll_and_grad`` are the kernels as
first written, one numpy expression per step.  The kernels may read each
row's max in any order and reuse their buffers, but every output must keep
its bits and its memory layout, and no kernel may write into its input.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from calerr import affine_objective, mlp_objective, row_softmax
from calerr.predictions import _ROW_MAX_COPY_BELOW
from calerr.recalibrate import _nll_and_grad


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


CLASS_COUNTS = sorted({2, 10, 100, 1000, _ROW_MAX_COPY_BELOW - 1, _ROW_MAX_COPY_BELOW})
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
    @pytest.mark.parametrize("kind", ["platt", "vector"])
    def test_affine(self, kind, order):
        rng = np.random.default_rng(3)
        z = np.asarray(3.0 * rng.standard_normal((600, 10)), order=order)
        y = rng.integers(0, 10, 600)
        n_w, axis = (1, None) if kind == "platt" else (10, 0)
        f, x0 = affine_objective(z, y, kind)
        for params in (x0, x0 + rng.standard_normal(x0.shape)):
            loss, gout = reference_nll_and_grad(z * params[:n_w] + params[n_w:], y)
            want = np.hstack([(gout * z).sum(axis=axis), gout.sum(axis=axis)])
            got_loss, got = f(params)
            assert got_loss == loss
            assert got.tobytes() == want.tobytes()

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
