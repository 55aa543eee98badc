"""Core prediction containers and the score views that calibration metrics consume.

A model's output on an evaluation set is either an N x K matrix of class
probabilities (:class:`PredictionSet`) or an N x K matrix of raw logits
(:class:`LogitSet`).  Both check and freeze their input on one shared path;
:func:`as_probs` and :func:`split_validation` take either.  A score view
(:class:`ScoredPredictions`) holds three parallel arrays: each entry's
score, the class it belongs to, and whether that class is the datapoint's
label.  :func:`max_prob_view` keeps each datapoint's top probability;
:func:`full_prob_view` keeps every entry above a threshold.  The metrics
split a view into pools (one, or one per class) and hand its scores, pool
indices and correct positions to the binning engine, which reduces them to
per-(pool, bin) count and sum arrays.  The unthresholded full view needs no
view object: the metrics read the matrix and its columns directly.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

import numpy as np

# Tolerance for each probability row summing to 1.
PROB_SUM_TOL = 1e-6
# Entries per block of rows in max_prob_view's argmax.
_ARGMAX_BLOCK = 1 << 16
# Below this many classes a row max reads a class-major copy: one reduce
# over K rows of length N runs at array speed, where N reduces of K entries
# each pay numpy's per-row overhead.  Copy time over max(axis=1), one BLAS
# thread, best of 9: 0.05-0.40x at K = 2-10 for 200-20,000 rows and 0.67x at
# 50,000 rows; 0.37-0.75x at K = 12; at K = 16, 0.27-0.34x up to 3,000 rows
# but 1.0x at 20,000 and 1.2x at 50,000; at K = 32, 0.47-2.5x.
_ROW_MAX_COPY_BELOW = 16


class ValidationError(ValueError):
    """A prediction matrix or label vector violates its contract."""


class _LabeledMatrix:
    """The validate-and-freeze path of both containers.

    A subclass names its matrix field (``_matrix``) and its rows in messages
    (``_row``).  Construction copies and freezes the matrix and labels after
    checking shape, rows, classes, finiteness, :meth:`_check_values`, labels.
    """

    def __post_init__(self) -> None:
        name = self._matrix
        matrix = np.array(getattr(self, name), dtype=float)
        raw = np.asarray(self.labels)
        if matrix.ndim != 2:
            raise ValidationError(f"{name} must be 2-D, got shape {matrix.shape}")
        n, k = matrix.shape
        if n < 1:
            raise ValidationError(f"need at least one {self._row} row")
        if k < 2:
            raise ValidationError(f"need at least two classes, got {k}")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError(f"{name} contain non-finite entries")
        self._check_values(matrix)
        if raw.ndim != 1:
            raise ValidationError(f"labels must be 1-D, got shape {raw.shape}")
        if raw.shape[0] != n:
            raise ValidationError(f"got {raw.shape[0]} labels for {n} prediction rows")
        # The int cast would truncate these silently, so they are refused.
        if raw.dtype.kind == "f":
            bad = ~np.isfinite(raw) | (raw != np.trunc(raw))
        else:
            bad = np.full(raw.shape, raw.dtype == bool)
        if bad.any():
            raise ValidationError(f"labels must be integers, got {raw[bad][0]}")
        labels = raw.astype(int)
        if labels.min() < 0 or labels.max() >= k:
            raise ValidationError(
                f"labels must lie in [0, {k - 1}], got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        matrix.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, name, matrix)
        object.__setattr__(self, "labels", labels)

    def _check_values(self, matrix: np.ndarray) -> None:
        """Checks a subclass adds between finiteness and the labels."""

    @property
    def n_points(self) -> int:
        return getattr(self, self._matrix).shape[0]

    @property
    def n_classes(self) -> int:
        return getattr(self, self._matrix).shape[1]


@dataclasses.dataclass(frozen=True)
class PredictionSet(_LabeledMatrix):
    """Class-probability matrix with ground-truth labels.

    Parameters
    ----------
    probs : array-like, shape (n_points, n_classes)
        Row i holds the predicted class distribution for datapoint i.  Every
        entry must lie in [0, 1] and each row must sum to 1 within
        ``PROB_SUM_TOL``.  Rows are never renormalized implicitly; call
        :meth:`renormalized` to request that explicitly.
    labels : array-like, shape (n_points,)
        Integer class labels in ``range(n_classes)``.
    """

    probs: np.ndarray
    labels: np.ndarray

    _matrix = "probs"
    _row = "prediction"

    def _check_values(self, probs: np.ndarray) -> None:
        if probs.min() < 0.0 or probs.max() > 1.0:
            raise ValidationError("probs must lie in [0, 1]")
        row_sums = probs.sum(axis=1)
        worst = np.argmax(np.abs(row_sums - 1.0))
        if abs(row_sums[worst] - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"row {worst} sums to {float(row_sums[worst])!r}, outside "
                f"1 +/- {PROB_SUM_TOL}"
            )

    def renormalized(self) -> "PredictionSet":
        """Divide each row by its sum.  Rows summing to zero are an error."""
        sums = self.probs.sum(axis=1, keepdims=True)
        if np.any(sums == 0.0):
            raise ValidationError("cannot renormalize a row summing to zero")
        return PredictionSet(self.probs / sums, self.labels)


@dataclasses.dataclass(frozen=True)
class LogitSet(_LabeledMatrix):
    """Raw (pre-softmax) score matrix with ground-truth labels."""

    logits: np.ndarray
    labels: np.ndarray

    _matrix = "logits"
    _row = "logit"


PredictionsOrLogits = Union[PredictionSet, LogitSet]


class ScoredPredictions:
    """A flat score view: parallel arrays of scores, classes and outcomes.

    ``class_index`` is the predicted class in the max-probability view and the
    scored class in the full-probability view; ``correct`` marks whether that
    class is the true label of the originating datapoint.
    """

    __slots__ = ("scores", "class_index", "correct")

    def __init__(
        self,
        scores: np.ndarray,
        class_index: np.ndarray,
        correct: np.ndarray,
    ) -> None:
        self.scores = np.asarray(scores, dtype=float)
        self.class_index = np.asarray(class_index, dtype=int)
        self.correct = np.asarray(correct, dtype=bool)
        n = self.scores.shape[0]
        for arr in (self.class_index, self.correct):
            if arr.shape != (n,):
                raise ValidationError("scored-prediction arrays must be parallel")

    def __len__(self) -> int:
        return self.scores.shape[0]

    def filter(self, mask: np.ndarray) -> "ScoredPredictions":
        """Subset by boolean mask, preserving order."""
        mask = np.asarray(mask, dtype=bool)
        return ScoredPredictions(
            self.scores[mask], self.class_index[mask], self.correct[mask]
        )


def _minus_row_max(z: np.ndarray) -> np.ndarray:
    """``z`` minus each row's max, as a new array laid out like ``z``.

    A max has one value whatever order its row is read in, so narrow rows
    take it from a class-major copy.  Where two reads pick zeros of opposite
    sign, a zero entry of the result may flip its sign, but that never
    reaches a value: every consumer takes ``exp(±0) = 1`` or ``lse - (±0) =
    lse``.
    """
    if z.ndim == 2 and z.shape[1] < _ROW_MAX_COPY_BELOW:
        return z - np.ascontiguousarray(z.T).max(axis=0)[:, None]
    return z - z.max(axis=1, keepdims=True)


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety.

    The row max may come from any layout (see :func:`_minus_row_max`).  The
    row sums must run on the shifted matrix as it is laid out, which is
    C-ordered for C-ordered logits: numpy sums each contiguous row pairwise,
    so a class-major copy or a hand-written order would move the last bits.
    The shifted matrix is the one new buffer; ``exp`` and the divide run in
    place.
    """
    e = _minus_row_max(np.asarray(logits, dtype=float))
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax(logits: LogitSet) -> PredictionSet:
    """Convert logits to probabilities.  Preserves each row's argmax."""
    return PredictionSet(row_softmax(logits.logits), logits.labels)


def as_probs(data: PredictionsOrLogits) -> PredictionSet:
    """The probabilities of either container: logits go through :func:`softmax`."""
    return softmax(data) if isinstance(data, LogitSet) else data


def max_prob_view(p: PredictionSet) -> ScoredPredictions:
    """One record per datapoint: its top probability and predicted class.

    Argmax ties resolve to the lowest class index.
    """
    n = p.n_points
    # np.argmax takes the first maximum, but copies a read-only array before
    # it starts: blocks of rows keep that copy small enough to stay in cache.
    step = max(1, _ARGMAX_BLOCK // p.n_classes)
    cls = np.concatenate(
        [np.argmax(p.probs[i:i + step], axis=1) for i in range(0, n, step)]
    )
    scores = p.probs[np.arange(n), cls]
    return ScoredPredictions(scores, cls, cls == p.labels)


def full_prob_view(p: PredictionSet, threshold: float = 0.0) -> ScoredPredictions:
    """One record per (datapoint, class) entry, optionally thresholded.

    With ``threshold == 0`` all n_points * n_classes entries survive.  With
    ``threshold > 0`` only entries whose score is strictly above the threshold
    survive.  Records are ordered datapoint-major, class-minor.
    """
    if not 0.0 <= threshold < 1.0:
        raise ValidationError(f"threshold must lie in [0, 1), got {threshold}")
    n, k = p.probs.shape
    scores = p.probs.ravel()
    hit = np.zeros(scores.size, dtype=bool)
    hit[np.arange(n) * k + p.labels] = True
    if threshold == 0.0:
        return ScoredPredictions(scores, np.tile(np.arange(k), n), hit)
    pos = np.flatnonzero(scores > threshold)
    return ScoredPredictions(scores[pos], pos % k, hit[pos])


def split_validation(
    p: PredictionsOrLogits,
) -> tuple[PredictionsOrLogits, PredictionsOrLogits]:
    """Split into (fit half, eval half) by position, no shuffling.

    The fit half takes the first ceil(N / 2) rows, the eval half the rest.
    Callers that want a randomized split must permute beforehand.
    """
    n = p.n_points
    if n < 2:
        raise ValidationError(f"cannot split {n} predictions into two halves")
    cut = math.ceil(n / 2)
    matrix, make = getattr(p, p._matrix), type(p)
    return make(matrix[:cut], p.labels[:cut]), make(matrix[cut:], p.labels[cut:])
