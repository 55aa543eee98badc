"""Post-hoc recalibrators: fit on a validation half, apply to held-out data.

Methods, with their standard hyperparameters:

- histogram binning (20 even bins over max-probs, optionally per predicted
  class, optionally averaged over bootstrap resamples),
- isotonic regression (exact pool-adjacent-violators fit, one-versus-all in
  multiclass mode),
- temperature scaling (Nelder-Mead on log T, objective = NLL or any binned
  calibration error),
- Platt / vector / matrix scaling (affine maps on logits trained by
  full-batch Nesterov SGD: lr 0.001, momentum 0.9, 1000 iterations),
- MLP scaling (three 50-unit rectified-linear layers, same SGD recipe).

Every ``fit_*`` returns an immutable model; every ``apply_*`` is pure and
returns a valid :class:`~calerr.predictions.PredictionSet`.  Models own a
``to_dict`` / ``from_dict`` pair: JSON-ready dicts tagged with a ``method``
key.  :data:`RECALIBRATORS` is the one table of methods by name, which
:func:`run_recalibrator` fits and applies.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from typing import Callable, ClassVar

import numpy as np

from .binning import assign_even_bins, even_edges
from .metrics import EmptyMeasurementError, MetricConfig, gce, named_metric
from .optimize import SgdConfig, nelder_mead, sgd_minimize
from .predictions import (
    LogitSet,
    PredictionSet,
    ValidationError,
    _minus_row_max,
    as_probs,
    max_prob_view,
    row_softmax,
)

HISTOGRAM_BINS = 20
BOOTSTRAP_RESAMPLES = 100
EMPTY_BIN_FALLBACKS = ("center", "nearest")
TEMPERATURE_OBJECTIVES = ("nll", "gce")

MLP_HIDDEN_WIDTH = 50
MLP_HIDDEN_LAYERS = 3


# ---------------------------------------------------------------------------
# Shared NLL plumbing: softmax cross-entropy and dense relu networks
# ---------------------------------------------------------------------------

# _class_sums follows numpy's pairwise row sum only below this many classes.
_CLASS_SUMS_BELOW = 16
# The class-major NLL kernel pays one ufunc call per class, so it gains only
# from about 20 rows per class.  Against the row-major kernel (one BLAS
# thread, median of 21 interleaved rounds) it took 1.08x at 50 rows and 0.96x
# at 100 for K = 3, 1.13x at 100 and 0.96x at 200 for K = 10, and 1.03x at
# 200 and 0.95x at 300 for K = 15.
_CLASS_MAJOR_MIN_ROWS_PER_CLASS = 20


def _class_sums(e: np.ndarray) -> np.ndarray:
    """Sum the K rows of a class-major (K, N) buffer in place, in numpy's order.

    Returns the sums, in ``e[0]``.  For K < 16 they equal ``x.sum(axis=1)``
    of the C-ordered (N, K) matrix ``x = e.T.copy()`` bit for bit.  numpy
    sums a contiguous row pairwise: fewer than 8 entries in order; 8 to 15
    entries as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    rest in order.  At 16 its eight partial sums each take a second entry,
    which this order does not follow.  The reduction starts from +0.0, which
    turns a sum of -0.0 entries into +0.0.
    """
    rows = list(e)  # views, added in place without a write-back per add
    if len(rows) >= 8:
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            rows[a] += rows[b]
    total = rows[0]
    for row in rows[8 if len(rows) >= 8 else 1:]:
        total += row
    total += 0.0
    return total


def _class_major_nll(out_t: np.ndarray, at_label: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`_nll_and_grad` of class-major logits (K < 16, C-ordered (K, N)).

    ``at_label`` is ``labels * N + arange(N)``, the flat index of each row's
    label entry.  ``out_t`` becomes the class-major gradient in place.  Every
    step is elementwise, and the row sums follow numpy's order through
    :func:`_class_sums`, so the bits are those of the row-major kernel.
    """
    n = out_t.shape[1]
    out_t -= out_t.max(axis=0)
    lse = np.log(_class_sums(np.exp(out_t)))
    flat = out_t.ravel()
    loss = float(np.add.reduce(lse - flat[at_label]) / n)  # np.mean's arithmetic
    out_t -= lse
    np.exp(out_t, out=out_t)
    np.subtract.at(flat, at_label, 1.0)
    out_t /= n
    return loss, out_t


def _is_narrow(z: np.ndarray) -> bool:
    """Whether :func:`_class_major_nll` reproduces the row sums of ``z``'s layout."""
    return z.dtype == np.float64 and z.flags.c_contiguous and z.shape[1] < _CLASS_SUMS_BELOW


def _runs_class_major(z: np.ndarray) -> bool:
    """Whether :func:`_nll_and_grad` runs the logits ``z`` class-major."""
    return _is_narrow(z) and len(z) >= _CLASS_MAJOR_MIN_ROWS_PER_CLASS * z.shape[1]


def _nll_and_grad(out_logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean NLL of softmax(out_logits) and its gradient w.r.t. the logits.

    ``labels`` must index a class of every row.  The gradient comes back
    laid out like ``out_logits``.  Narrow C-ordered float64 logits (K < 16)
    with at least 20 rows per class run class-major, where each step treats
    all N rows at once, and their row sums are taken in numpy's pairwise
    order (:func:`_class_sums`).
    Other layouts keep :func:`~calerr.predictions.row_softmax`'s rules: the
    row max may be read in any order, since a zero max's sign never reaches
    a value, but the row sums run on the shifted buffer as it is laid out,
    because numpy's order within a row is what the bits depend on.  The
    shifted buffer becomes the gradient in place.
    """
    n = len(out_logits)
    if _runs_class_major(out_logits):
        loss, grad_t = _class_major_nll(out_logits.T.copy(), labels * n + np.arange(n))
        return loss, grad_t.T.copy()
    z = _minus_row_max(out_logits)
    lse = np.log(np.exp(z).sum(axis=1))
    # z is a new C- or F-contiguous array: one flat index in its memory
    # order reaches each row's label entry.
    row_step, col_step = (step // z.itemsize for step in z.strides)
    at_label = np.arange(0, n * row_step, row_step) + labels * col_step
    flat = z.ravel(order="K")
    loss = float(np.add.reduce(lse - flat[at_label]) / n)  # np.mean's arithmetic
    z -= lse[:, None]
    np.exp(z, out=z)
    flat[at_label] -= 1.0
    z /= n
    return loss, z


def _class_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """``labels`` as ints, checked to index one of ``k`` classes."""
    y = np.asarray(labels, dtype=int)
    if y.size and not 0 <= y.min() <= y.max() < k:
        raise ValueError(f"labels must lie in [0, {k}), got {y.min()} to {y.max()}")
    return y


def _dense_shapes(widths) -> list[tuple[tuple[int, int], tuple[int]]]:
    """(weight shape, bias shape) per layer of a dense network over ``widths``."""
    return [((n_out, n_in), (n_out,)) for n_in, n_out in zip(widths[:-1], widths[1:])]


def _pack(weights, biases) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def _unpack(params: np.ndarray, widths) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights, biases, pos = [], [], 0
    for w_shape, b_shape in _dense_shapes(widths):
        w_size = w_shape[0] * w_shape[1]
        weights.append(params[pos : pos + w_size].reshape(w_shape))
        pos += w_size
        biases.append(params[pos : pos + b_shape[0]])
        pos += b_shape[0]
    return weights, biases


def _dense_forward(weights, biases, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """(each layer's input, output logits): relu hidden layers, linear output."""
    inputs = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        h = inputs[-1] @ w.T
        h += b
        inputs.append(np.maximum(h, 0.0, out=h))
    out = inputs[-1] @ weights[-1].T
    out += biases[-1]
    return inputs, out


def _dense_objective(x: np.ndarray, labels: np.ndarray, widths):
    """f_and_grad for the NLL of a dense relu network.

    ``widths`` is ``(d_in, hidden..., n_out)``.  Parameters travel as one
    flat vector: per layer, W row-major, then b.
    """
    x = np.asarray(x, dtype=float)
    labels = _class_labels(labels, widths[-1])

    def f_and_grad(params: np.ndarray) -> tuple[float, np.ndarray]:
        weights, biases = _unpack(params, widths)
        # Saturated inputs can overflow to inf or nan here.  No warning is
        # needed: sgd_minimize turns a non-finite loss or gradient into
        # DivergenceError.
        with np.errstate(over="ignore", invalid="ignore"):
            inputs, out = _dense_forward(weights, biases, x)
            loss, grad = _nll_and_grad(out, labels)
            grad_w, grad_b = [], []
            # grad is the loss gradient w.r.t. each layer's output, last layer first.
            for layer in range(len(weights) - 1, -1, -1):
                grad_w.append(grad.T @ inputs[layer])
                grad_b.append(grad.sum(axis=0))
                if layer:
                    grad = grad @ weights[layer]
                    grad *= inputs[layer] > 0.0
        return loss, _pack(grad_w[::-1], grad_b[::-1])

    return f_and_grad


def linear_objective(x: np.ndarray, labels: np.ndarray, n_out: int):
    """f_and_grad for the NLL of softmax(x @ W.T + b), W of shape (n_out, D).

    Parameters travel as one flat vector: W row-major, then b.
    """
    return _dense_objective(x, labels, (np.shape(x)[1], n_out))


def linear_probs(params: np.ndarray, x: np.ndarray, n_out: int) -> np.ndarray:
    """softmax(x @ W.T + b) for the flat parameters of :func:`linear_objective`."""
    weights, biases = _unpack(params, (np.shape(x)[1], n_out))
    return row_softmax(_dense_forward(weights, biases, x)[1])


def nll(p: PredictionSet, floor: float = 1e-12) -> float:
    """Mean negative log likelihood of the true labels under ``p``."""
    picked = p.probs[np.arange(p.n_points), p.labels]
    return float(-np.mean(np.log(np.maximum(picked, floor))))


def _plain(value):
    """JSON-ready copy: dataclasses become dicts of their fields, arrays lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


class _Model:
    """Base of the fitted models: ``to_dict`` tags the fields with ``method``."""

    tag: ClassVar[str]

    def to_dict(self) -> dict:
        return {"method": self.tag, **_plain(self)}


# ---------------------------------------------------------------------------
# Histogram binning
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class HistogramBinningModel(_Model):
    """Even-bin lookup table replacing each max-prob with validation accuracy.

    ``bin_values`` is the pooled table; a class-conditional fit also maps
    every class to its own table in ``class_values``, so the pooled table
    serves only class indices missing from it (a hand-built or edited model).
    ``empty_bin`` records the fallback rule used for bins with no validation
    points: their own center, or the value of the nearest occupied bin.
    """

    tag: ClassVar[str] = "histogram-binning"
    edges: np.ndarray
    bin_values: np.ndarray
    class_conditional: bool = False
    class_values: dict[int, np.ndarray] | None = None
    empty_bin: str = EMPTY_BIN_FALLBACKS[0]

    @classmethod
    def from_dict(cls, doc: dict) -> HistogramBinningModel:
        per_class = doc["class_values"]
        if per_class is not None:
            per_class = {int(k): _floats(v) for k, v in per_class.items()}
        return cls(_floats(doc["edges"]), _floats(doc["bin_values"]),
                   doc["class_conditional"], per_class, doc["empty_bin"])


def _fill_empty_bins(
    sums: np.ndarray, counts: np.ndarray, edges: np.ndarray, empty_bin: str
) -> np.ndarray:
    values = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    occupied = np.flatnonzero(counts > 0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    if occupied.size == 0:
        return centers
    for b in np.flatnonzero(counts == 0):
        if empty_bin == "center":
            values[b] = centers[b]
        else:
            # Nearest occupied bin by index; equidistant ties take the lower.
            nearest = occupied[np.argmin(np.abs(occupied - b))]
            values[b] = values[nearest]
    return values


def fit_histogram_binning(
    val: PredictionSet,
    n_bins: int = HISTOGRAM_BINS,
    class_conditional: bool = False,
    bootstrap: int | None = None,
    seed: int = 0,
    empty_bin: str = EMPTY_BIN_FALLBACKS[0],
) -> HistogramBinningModel:
    """Learn per-bin replacement probabilities from validation accuracy.

    Max-prob scores are placed into ``n_bins`` even bins; each occupied bin
    stores the mean correctness of its members.  With ``class_conditional``
    every class gets its own table; one that no validation point predicts
    gets the ``empty_bin`` fallback in every bin.  With ``bootstrap`` = R the
    validation view is resampled with replacement R times (seeded) and each
    bin stores its mean accuracy over the resamples in which it was occupied.
    Bins occupied in no resample use the ``empty_bin`` fallback.
    """
    if empty_bin not in EMPTY_BIN_FALLBACKS:
        raise ValueError(
            f"empty_bin must be one of {EMPTY_BIN_FALLBACKS}, got {empty_bin!r}"
        )
    if bootstrap is not None and bootstrap < 1:
        raise ValueError(f"bootstrap resample count must be >= 1, got {bootstrap}")
    view = max_prob_view(val)
    edges = even_edges(n_bins)
    bin_idx = assign_even_bins(view.scores, n_bins)

    pools: list[tuple[int | None, np.ndarray]] = [(None, np.arange(len(view)))]
    if class_conditional:
        pools += [
            (k, np.flatnonzero(view.class_index == k)) for k in range(val.n_classes)
        ]

    def table_for(members: np.ndarray) -> np.ndarray:
        # Row r of draws holds resample r's rows of the view.  The plain fit
        # is the one "resample" that is the pool itself.  Each pool draws from
        # its own seeded stream, so per-class tables do not depend on how many
        # pools were fitted before them.
        draws = (
            members[None]
            if bootstrap is None
            else members[np.random.default_rng(seed).integers(
                0, members.size, (bootstrap, members.size))]
        )
        runs = draws.shape[0]
        keys = bin_idx[draws]
        keys += (n_bins * np.arange(runs))[:, None]
        counts = np.bincount(keys.ravel(), minlength=runs * n_bins).reshape(runs, n_bins)
        hits = np.bincount(keys[view.correct[draws]], minlength=runs * n_bins)
        # Resample accuracies summed in draw order; an empty bin adds 0 / 1.
        value_sums = np.cumsum(hits.reshape(runs, n_bins) / np.maximum(counts, 1), axis=0)[-1]
        return _fill_empty_bins(value_sums, (counts > 0).sum(axis=0), edges, empty_bin)

    # An empty pool occupies no bin, so its table is all fallback values.
    tables = {pool_key: table_for(members) for pool_key, members in pools}

    return HistogramBinningModel(
        edges=edges,
        bin_values=tables[None],
        class_conditional=class_conditional,
        class_values=(
            {k: v for k, v in tables.items() if k is not None}
            if class_conditional
            else None
        ),
        empty_bin=empty_bin,
    )


def apply_histogram_binning(
    model: HistogramBinningModel, test: PredictionSet
) -> PredictionSet:
    """Replace each max-prob with its bin value; rescale the other classes.

    The non-max probability mass is redistributed proportionally so rows
    still sum to 1.  A row whose max-prob is exactly 1 has no residual shape
    to scale, so the remainder spreads uniformly over the other classes.
    """
    n, k = test.probs.shape
    n_bins = model.bin_values.shape[0]
    view = max_prob_view(test)
    bin_idx = assign_even_bins(view.scores, n_bins)
    # Row c holds predicted class c's table, or the pooled one if it has none.
    per_class = (model.class_values or {}) if model.class_conditional else {}
    tables = np.stack([per_class.get(c, model.bin_values) for c in range(k)])
    values = tables[view.class_index, bin_idx]
    # Scale against the row's actual residual mass, not 1 - max: near-saturated
    # rows would otherwise amplify the row-sum rounding slack.
    residual = test.probs.sum(axis=1) - view.scores
    scale = np.where(residual > 0.0, (1.0 - values) / np.where(residual > 0.0, residual, 1.0), 0.0)
    # At K = 2 with a bin value of 0 the other entry can round to just above 1.
    probs = np.minimum(test.probs * scale[:, None], 1.0)
    saturated = residual <= 0.0
    probs[saturated] = ((1.0 - values[saturated]) / (k - 1))[:, None]
    probs[np.arange(n), view.class_index] = values
    return PredictionSet(probs, test.labels)


# ---------------------------------------------------------------------------
# Isotonic regression
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class IsotonicModel(_Model):
    """Stepwise-constant non-decreasing map fitted by pool-adjacent-violators."""

    tag: ClassVar[str] = "isotonic"
    breakpoints: np.ndarray
    fitted_values: np.ndarray

    @classmethod
    def from_dict(cls, doc: dict) -> IsotonicModel:
        return cls(_floats(doc["breakpoints"]), _floats(doc["fitted_values"]))


@dataclasses.dataclass(frozen=True)
class IsotonicMulticlassModel(_Model):
    """One-versus-all isotonic maps, one per class column."""

    tag: ClassVar[str] = "isotonic-multiclass"
    models: tuple[IsotonicModel, ...]

    @classmethod
    def from_dict(cls, doc: dict) -> IsotonicMulticlassModel:
        return cls(tuple(IsotonicModel.from_dict(m) for m in doc["models"]))


def _pava(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators: the non-decreasing LS fit to y."""
    values: list[float] = []
    weights: list[float] = []
    sizes: list[int] = []
    for yi, wi in zip(y, w):
        values.append(float(yi))
        weights.append(float(wi))
        sizes.append(1)
        while len(values) > 1 and values[-2] > values[-1]:
            wt = weights[-2] + weights[-1]
            merged = (values[-2] * weights[-2] + values[-1] * weights[-1]) / wt
            values.pop()
            weights.pop()
            sz = sizes.pop()
            values[-1] = merged
            weights[-1] = wt
            sizes[-1] += sz
    return np.repeat(values, sizes)


def fit_isotonic(val_scores: np.ndarray, val_targets: np.ndarray) -> IsotonicModel:
    """Exact non-decreasing least-squares fit of targets against scores.

    Duplicate scores are pooled (their targets averaged with weight = count)
    before running PAVA, so the fitted map is a function of the score.
    """
    scores = np.asarray(val_scores, dtype=float)
    targets = np.asarray(val_targets, dtype=float)
    if scores.shape != targets.shape or scores.ndim != 1 or scores.size == 0:
        raise ValidationError(
            "scores and targets must be equal-length 1-D arrays with >= 1 element"
        )
    order = np.argsort(scores, kind="stable")
    s_sorted = scores[order]
    t_sorted = targets[order]
    breakpoints, starts, counts = np.unique(
        s_sorted, return_index=True, return_counts=True
    )
    group_means = np.add.reduceat(t_sorted, starts) / counts
    fitted = _pava(group_means, counts.astype(float))
    return IsotonicModel(breakpoints=breakpoints, fitted_values=fitted)


def apply_isotonic(model: IsotonicModel, scores: np.ndarray) -> np.ndarray:
    """Evaluate the stepwise-constant fit, clamping outside the fitted range."""
    x = np.asarray(scores, dtype=float)
    idx = np.searchsorted(model.breakpoints, x, side="right") - 1
    idx = np.clip(idx, 0, model.breakpoints.shape[0] - 1)
    return model.fitted_values[idx]


def fit_isotonic_multiclass(val: PredictionSet) -> IsotonicMulticlassModel:
    """One-versus-all isotonic models, one per class column."""
    return IsotonicMulticlassModel(tuple(
        fit_isotonic(val.probs[:, k], (val.labels == k).astype(float))
        for k in range(val.n_classes)
    ))


def apply_isotonic_multiclass(
    model: IsotonicMulticlassModel, test: PredictionSet
) -> PredictionSet:
    """Map each class column through its model, then renormalize rows.

    Rows mapping to all zeros fall back to the uniform distribution.
    """
    models = model.models
    if len(models) != test.n_classes:
        raise ValidationError(
            f"got {len(models)} class models for {test.n_classes} classes"
        )
    cols = [apply_isotonic(m, test.probs[:, k]) for k, m in enumerate(models)]
    probs = np.column_stack(cols)
    sums = probs.sum(axis=1, keepdims=True)
    zero_rows = sums[:, 0] == 0.0
    sums[zero_rows] = 1.0
    probs = probs / sums
    probs[zero_rows] = 1.0 / test.n_classes
    return PredictionSet(probs, test.labels)


# ---------------------------------------------------------------------------
# Temperature scaling
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TemperatureModel(_Model):
    """A single scalar temperature dividing every logit."""

    tag: ClassVar[str] = "temperature"
    temperature: float
    converged: bool = True

    @classmethod
    def from_dict(cls, doc: dict) -> TemperatureModel:
        return cls(doc["temperature"], doc["converged"])

    def __post_init__(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValidationError(
                f"temperature must be finite and > 0, got {self.temperature}"
            )


# Log-temperature grid seeding the gce-objective search: the binned objective
# is piecewise constant in T, and Nelder-Mead from one start can stall on a
# plateau, so the simplex starts at the best of these 41 points.
_LOG_T_GRID = np.linspace(math.log(0.05), math.log(20.0), 41)


def _golden_section(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """1-D golden-section minimizer on [lo, hi]; robustness fallback."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(np.array([c])), f(np.array([d]))
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(np.array([c]))
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(np.array([d]))
    return 0.5 * (a + b)


def fit_temperature(
    val: LogitSet,
    objective: str = "nll",
    metric: MetricConfig | None = None,
) -> TemperatureModel:
    """Fit T > 0 minimizing NLL or a binned calibration error on the logits.

    The search runs over log T so positivity holds by construction.  The
    ``gce`` objective scores softmax(logits / T) under ``metric`` (default:
    the standard even-bin max-prob L1 metric at its default bin count).  A
    temperature at which ``metric``'s threshold empties the view scores
    +inf; if every grid temperature empties it, this raises
    :class:`calerr.metrics.EmptyMeasurementError`.  If Nelder-Mead exhausts
    its default iteration budget without converging, a golden-section pass
    over the standard temperature bracket refines the result and the model
    is returned with ``converged=False``.
    """
    if objective not in TEMPERATURE_OBJECTIVES:
        raise ValueError(f"objective must be 'nll' or 'gce', got {objective!r}")
    z = val.logits
    labels = val.labels

    if objective == "nll":
        if _runs_class_major(z):  # scale one class-major copy; keep only the loss
            z_t = z.T.copy()
            at_label = labels * len(z) + np.arange(len(z))

            def f(x: np.ndarray) -> float:
                return _class_major_nll(z_t * math.exp(-x[0]), at_label)[0]
        else:
            def f(x: np.ndarray) -> float:
                loss, _ = _nll_and_grad(z * math.exp(-x[0]), labels)
                return loss

        start = np.array([0.0])
    else:
        cfg = metric if metric is not None else named_metric("ECE")

        def f(x: np.ndarray) -> float:
            probs = row_softmax(z * math.exp(-x[0]))
            try:
                return gce(PredictionSet(probs, labels), cfg).value
            except EmptyMeasurementError:
                return math.inf

        grid_values = [f(np.array([g])) for g in _LOG_T_GRID]
        if min(grid_values) == math.inf:
            raise EmptyMeasurementError(
                f"no predictions survive threshold {cfg.threshold} at any grid temperature"
            )
        start = np.array([_LOG_T_GRID[int(np.argmin(grid_values))]])

    result = nelder_mead(f, start)
    best_x, best_v = float(result.x[0]), result.value
    if not result.converged:
        fallback = _golden_section(f, float(_LOG_T_GRID[0]), float(_LOG_T_GRID[-1]))
        if f(np.array([fallback])) < best_v:
            best_x = fallback
    return TemperatureModel(temperature=math.exp(best_x), converged=result.converged)


def apply_temperature(model: TemperatureModel, test: LogitSet) -> PredictionSet:
    """Softmax of logits / T.  Preserves each row's argmax for any T > 0."""
    return PredictionSet(row_softmax(test.logits / model.temperature), test.labels)


# ---------------------------------------------------------------------------
# Affine scaling (Platt / vector / matrix)
# ---------------------------------------------------------------------------

# In order of the weight's number of axes: one scalar a, one weight per
# class (the diagonal of W), or the full K x K matrix W.
AFFINE_KINDS = ("platt", "vector", "matrix")


@dataclasses.dataclass(frozen=True)
class AffineScalingModel(_Model):
    """Affine logit map z -> z W^T + b, or z * W + b when W is not 2-D.

    The weight's shape is the kind: 0-d (platt), ``(K,)`` (vector) or
    ``(K, K)`` (matrix); the bias is 0-d for platt, else ``(K,)``.
    ``binary`` marks the classic two-class Platt form, a sigmoid on the
    logit difference z1 - z0; multiclass Platt applies a,b uniformly to the
    whole logit vector.
    """

    tag: ClassVar[str] = "affine"
    kind: str
    weight: np.ndarray
    bias: np.ndarray
    binary: bool = False

    @classmethod
    def from_dict(cls, doc: dict) -> AffineScalingModel:
        return cls(doc["kind"], _floats(doc["weight"]), _floats(doc["bias"]), doc["binary"])


def affine_objective(logits: np.ndarray, labels: np.ndarray, kind: str):
    """(f_and_grad, x0) for the NLL of an affine logit map.

    Parameters travel as one flat vector, the weight's entries and then the
    bias's, so the optimizer and the gradient checker can stay generic.
    For ``platt`` on K=2 the classic binary form is used:
    p1 = sigmoid(a (z1 - z0) + b).

    Multiclass Platt and vector scaling on narrow C-ordered logits (K < 16),
    at any row count, keep one class-major copy of z and form z * w + b
    class-major, where
    the NLL's row sums are taken in numpy's pairwise order, so the loss and
    gradient keep the bits of the row-major objective.  Matrix scaling goes
    through :func:`_nll_and_grad`, whose gradient comes back laid out like
    its input.
    """
    if kind not in AFFINE_KINDS:
        raise ValueError(f"kind must be one of {AFFINE_KINDS}, got {kind!r}")
    z = np.asarray(logits, dtype=float)
    n, k = z.shape
    y = _class_labels(labels, k)
    if kind == "platt" and k == 2:
        s = z[:, 1] - z[:, 0]
        t_true = (y == 1).astype(float)

        def f_and_grad(params: np.ndarray) -> tuple[float, np.ndarray]:
            a, b = params
            t = a * s + b
            # loss_i = y softplus(-t) + (1-y) softplus(t), all stable forms
            loss = float(
                np.mean(t_true * np.logaddexp(0.0, -t) + (1.0 - t_true) * np.logaddexp(0.0, t))
            )
            # exp(-t) may overflow to inf, which gives the sigmoid's 0 limit.
            with np.errstate(over="ignore"):
                dt = (1.0 / (1.0 + np.exp(-t)) - t_true) / n
            return loss, np.array([float(dt @ s), float(dt.sum())])

        return f_and_grad, np.array([1.0, 0.0])

    if kind == "matrix":
        return linear_objective(z, y, k), np.concatenate([np.eye(k).ravel(), np.zeros(k)])

    # Platt and vector: softmax(z * w + b) with one (w, b) pair, or one per class.
    n_w, axis = (1, None) if kind == "platt" else (k, 0)
    x0 = np.repeat([1.0, 0.0], n_w)
    if not _is_narrow(z):
        def f_and_grad(params: np.ndarray) -> tuple[float, np.ndarray]:
            out = z * params[:n_w]
            out += params[n_w:]
            loss, gout = _nll_and_grad(out, y)
            grad_b = gout.sum(axis=axis)
            gout *= z
            return loss, np.hstack([gout.sum(axis=axis), grad_b])

        return f_and_grad, x0

    z_t = z.T.copy()
    at_label = y * n + np.arange(n)

    def narrow_f_and_grad(params: np.ndarray) -> tuple[float, np.ndarray]:
        out_t = z_t * params[:n_w, None]
        out_t += params[n_w:, None]
        loss, g_t = _class_major_nll(out_t, at_label)
        # Both sums in one call, over the row-major gradient times z and the
        # gradient, laid out so each is summed in the row-major path's order.
        if axis is None:  # two whole (N, K) buffers
            stacked = np.empty((2, n, k))
            stacked[1] = g_t.T
            np.multiply(stacked[1], z, out=stacked[0])
            return loss, stacked.reshape(2, -1).sum(axis=1)
        stacked = np.empty((n, 2 * k))  # columns, row by row
        stacked[:, k:] = g_t.T
        g_t *= z_t
        stacked[:, :k] = g_t.T
        return loss, stacked.sum(axis=0)

    return narrow_f_and_grad, x0


def fit_affine_scaling(
    val: LogitSet, kind: str, sgd: SgdConfig = SgdConfig()
) -> AffineScalingModel:
    """Train an affine logit map on NLL with the standard SGD recipe."""
    k = val.n_classes
    f_and_grad, x0 = affine_objective(val.logits, val.labels, kind)
    params = sgd_minimize(f_and_grad, x0, sgd)
    w_shape = (k,) * AFFINE_KINDS.index(kind)
    n_w = math.prod(w_shape)
    return AffineScalingModel(
        kind=kind,
        weight=params[:n_w].reshape(w_shape),
        bias=params[n_w:].reshape(w_shape[:1]),
        binary=kind == "platt" and k == 2,
    )


def apply_affine(model: AffineScalingModel, test: LogitSet) -> PredictionSet:
    """Apply the fitted affine map and renormalize through softmax."""
    z = test.logits
    if model.kind == "platt" and model.binary:
        t = float(model.weight) * (z[:, 1] - z[:, 0]) + float(model.bias)
        with np.errstate(over="ignore"):  # inf gives the sigmoid's 0 limit
            p1 = 1.0 / (1.0 + np.exp(-t))
        return PredictionSet(np.column_stack([1.0 - p1, p1]), test.labels)
    w = model.weight
    out = z @ w.T + model.bias if np.ndim(w) == 2 else z * w + model.bias
    return PredictionSet(row_softmax(out), test.labels)


# ---------------------------------------------------------------------------
# MLP scaling
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MlpScalingModel(_Model):
    """Feedforward logit map: hidden relu layers, linear output, width K."""

    tag: ClassVar[str] = "mlp"
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @classmethod
    def from_dict(cls, doc: dict) -> MlpScalingModel:
        return cls(tuple(map(_floats, doc["weights"])), tuple(map(_floats, doc["biases"])))


def _mlp_widths(k: int, hidden: int, layers: int) -> tuple[int, ...]:
    return (k,) + (hidden,) * layers + (k,)


def init_mlp_params(
    k: int,
    seed: int,
    hidden: int = MLP_HIDDEN_WIDTH,
    layers: int = MLP_HIDDEN_LAYERS,
    scale: float | None = None,
) -> np.ndarray:
    """Seeded random init, fan-scaled by default.

    The default draws each weight from N(0, 2 / (fan_in + fan_out)), which
    trains under the fixed learning rate.  Passing an explicit ``scale``
    overrides that standard deviation everywhere; a near-zero scale gives an
    untrained network whose outputs are near-uniform.  Biases start at zero.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for w_shape, b_shape in _dense_shapes(_mlp_widths(k, hidden, layers)):
        std = scale if scale is not None else math.sqrt(2.0 / sum(w_shape))
        weights.append(std * rng.standard_normal(w_shape))
        biases.append(np.zeros(b_shape))
    return _pack(weights, biases)


def mlp_objective(
    logits: np.ndarray,
    labels: np.ndarray,
    hidden: int = MLP_HIDDEN_WIDTH,
    layers: int = MLP_HIDDEN_LAYERS,
):
    """f_and_grad for the MLP's NLL over a flat parameter vector."""
    return _dense_objective(logits, labels, _mlp_widths(np.shape(logits)[1], hidden, layers))


def fit_mlp_scaling(
    val: LogitSet,
    seed: int = 0,
    sgd: SgdConfig = SgdConfig(),
    hidden: int = MLP_HIDDEN_WIDTH,
    layers: int = MLP_HIDDEN_LAYERS,
) -> MlpScalingModel:
    """Train the relu network on NLL; deterministic for a fixed seed."""
    params0 = init_mlp_params(val.n_classes, seed, hidden, layers)
    f_and_grad = mlp_objective(val.logits, val.labels, hidden, layers)
    params = sgd_minimize(f_and_grad, params0, sgd)
    weights, biases = _unpack(params, _mlp_widths(val.n_classes, hidden, layers))
    return MlpScalingModel(weights=tuple(weights), biases=tuple(biases))


def apply_mlp_scaling(model: MlpScalingModel, test: LogitSet) -> PredictionSet:
    _, out = _dense_forward(model.weights, model.biases, test.logits)
    return PredictionSet(row_softmax(out), test.labels)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

MODEL_TYPES: dict[str, type] = {
    cls.tag: cls
    for cls in (HistogramBinningModel, IsotonicModel, IsotonicMulticlassModel,
                TemperatureModel, AffineScalingModel, MlpScalingModel)
}


def model_to_dict(model) -> dict:
    """JSON-ready representation tagged with a ``method`` key."""
    if not isinstance(model, _Model):
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return model.to_dict()


def model_from_dict(doc: dict):
    """Inverse of :func:`model_to_dict`."""
    method = doc.get("method")
    if method not in MODEL_TYPES:
        raise ValueError(f"unknown model method tag {method!r}")
    return MODEL_TYPES[method].from_dict(doc)


# ---------------------------------------------------------------------------
# The method table
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Recalibrator:
    """One recalibration method: its input space, fit and apply.

    ``logits`` says whether it works on logits (else on probabilities).
    ``fit(data, **chosen)`` gets the options of :func:`run_recalibrator`
    named in ``options`` and none of the others.
    """

    logits: bool
    fit: Callable
    apply: Callable
    options: tuple[str, ...] = ()


_HISTOGRAM_OPTIONS = ("n_bins", "empty_bin")

# In the order the CLI lists its --method choices.
RECALIBRATORS: dict[str, Recalibrator] = {
    "histogram": Recalibrator(False, fit_histogram_binning, apply_histogram_binning,
                              _HISTOGRAM_OPTIONS),
    "cc-histogram": Recalibrator(False, partial(fit_histogram_binning, class_conditional=True),
                                 apply_histogram_binning, _HISTOGRAM_OPTIONS),
    "bootstrap-histogram": Recalibrator(False, fit_histogram_binning, apply_histogram_binning,
                                        _HISTOGRAM_OPTIONS + ("bootstrap", "seed")),
    "isotonic": Recalibrator(False, fit_isotonic_multiclass, apply_isotonic_multiclass),
    "platt": Recalibrator(True, partial(fit_affine_scaling, kind="platt"), apply_affine),
    "temperature": Recalibrator(True, fit_temperature, apply_temperature,
                                ("objective", "metric")),
    "vector": Recalibrator(True, partial(fit_affine_scaling, kind="vector"), apply_affine),
    "matrix": Recalibrator(True, partial(fit_affine_scaling, kind="matrix"), apply_affine),
    "mlp": Recalibrator(True, fit_mlp_scaling, apply_mlp_scaling, ("seed",)),
}


def run_recalibrator(
    method: str, fit_data: PredictionSet | LogitSet, eval_data: PredictionSet | LogitSet,
    n_bins: int = HISTOGRAM_BINS, bootstrap: int = BOOTSTRAP_RESAMPLES, seed: int = 0,
    empty_bin: str = EMPTY_BIN_FALLBACKS[0], objective: str = TEMPERATURE_OBJECTIVES[0],
    metric: MetricConfig | None = None,
):
    """Fit ``RECALIBRATORS[method]`` on ``fit_data``; return (model, recalibrated eval_data).

    Probability methods softmax logit inputs; logit methods refuse
    probabilities with :class:`ValidationError`.
    ``n_bins``, ``bootstrap`` and ``empty_bin`` set the histogram fits,
    ``seed`` the bootstrap draws and the MLP init, ``objective`` and
    ``metric`` the temperature fit.
    """
    entry = RECALIBRATORS[method]
    if not entry.logits:
        fit_data, eval_data = as_probs(fit_data), as_probs(eval_data)
    elif not (isinstance(fit_data, LogitSet) and isinstance(eval_data, LogitSet)):
        raise ValidationError(f"method {method!r} requires logits input")
    given = dict(n_bins=n_bins, bootstrap=bootstrap, seed=seed, empty_bin=empty_bin,
                 objective=objective, metric=metric)
    model = entry.fit(fit_data, **{name: given[name] for name in entry.options})
    return model, entry.apply(model, eval_data)
