"""Score binning: even-width and adaptive equal-count partitions of [0, 1].

Even binning fixes edges at i / B and assigns a score to the half-open bin
[edge_b, edge_{b+1}), with the last bin closed so a score of exactly 1.0
lands in bin B - 1.  Adaptive binning sorts the scores (stably, so ties keep
their original order) and cuts the sorted sequence into B runs whose sizes
differ by at most one; when B does not divide N the first N mod B bins take
the extra element.  Adaptive edges are reported as midpoints between the
boundary scores of neighboring runs, with the outer edges pinned to 0 and 1.

Bin membership for the adaptive scheme is decided by sorted position, not by
looking scores up against the midpoint edges: under heavy ties several runs
can share identical boundary scores, and position is what keeps run sizes
balanced.

The engine is :func:`bin_totals`.  It takes a :class:`PooledScores`: the
scores of a view split into pools (one, one per class, or one per column of
a matrix) and the positions of the correct entries.  It returns per-(pool,
bin) arrays of entry counts, score sums and correct counts.  Even binning is
one ``bincount`` on the key ``pool * B + bin``; adaptive binning maps each
entry's rank in the view's stable sort, made once and shared by every bin
count, to its run.  :class:`BinStats` is the reporting form of one bin,
built from those arrays by :func:`bin_stats` and :func:`pool_bin_stats`.

A stable argsort is several times slower than numpy's default one, so a
view without per-entry pool labels whose pools hold no two equal scores
(one plain sort shows it) is ordered by the default argsort: with distinct
keys the sorting permutation is unique, so the order is the same array.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers

import numpy as np

from .predictions import ScoredPredictions

BIN_KINDS = ("even", "adaptive")
DEFAULT_BINS = 15


@dataclasses.dataclass(frozen=True)
class BinScheme:
    """A binning rule: the kind of partition and how many bins."""

    kind: str
    n_bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        if self.kind not in BIN_KINDS:
            raise ValueError(f"kind must be one of {BIN_KINDS}, got {self.kind!r}")
        if isinstance(self.n_bins, bool) or not isinstance(self.n_bins, numbers.Integral):
            raise ValueError(f"n_bins must be an integer, got {self.n_bins!r}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")


@dataclasses.dataclass(frozen=True)
class BinStats:
    """Per-bin summary: interval, population, mean outcome, mean score.

    Empty bins carry accuracy = confidence = 0.0 by convention and are
    distinguishable by ``count == 0``.  ``class_index`` is set when the bin
    belongs to a class-conditional pool, else None.
    """

    lower: float
    upper: float
    count: int
    accuracy: float
    confidence: float
    class_index: int | None = None

    @property
    def gap(self) -> float:
        return self.accuracy - self.confidence


def even_edges(n_bins: int) -> np.ndarray:
    """Edges i / n_bins for i = 0..n_bins, each correctly rounded."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    edges = np.arange(n_bins + 1, dtype=float) / n_bins
    edges[-1] = 1.0
    return edges


def assign_even_bins(scores: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin index in [0, n_bins) for each score in [0, 1]."""
    idx = np.searchsorted(even_edges(n_bins), scores, side="right")
    idx -= 1
    return np.clip(idx, 0, n_bins - 1, out=idx)


def adaptive_counts(n_scores, n_bins: int) -> np.ndarray:
    """Run lengths for equal-count binning; first N mod B runs get the extra.

    ``n_scores`` may be an array of pool sizes; the runs of each pool then lie
    along a new last axis.
    """
    base, extra = np.divmod(np.asarray(n_scores)[..., None], n_bins)
    return base + (np.arange(n_bins) < extra)


@dataclasses.dataclass(frozen=True, eq=False)
class PooledScores:
    """A score view split into pools, the input of :func:`bin_totals`.

    ``scores`` is either a 1-D array of entries, entry i in pool ``pools[i]``
    (every entry in pool 0 when ``pools`` is None), or a 2-D matrix whose
    column j is pool j.  ``hits`` holds the positions in ``scores.ravel()``
    of the entries that score their datapoint's true class.
    """

    scores: np.ndarray
    hits: np.ndarray
    pools: np.ndarray | None
    n_pools: int

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Stable sort within each pool, made once, on first use.

        1-D entries sort by (pool, score), so the pools lie end to end; a 2-D
        matrix sorts column by column.  Ties keep their input order.

        Without ``pools``, scores that sort strictly increasing in every pool
        (no ties, NaN or 0.0 beside -0.0) have one sorting permutation, so
        the faster default argsort returns the stable sort's array.
        """
        if self.pools is None:
            s = np.sort(self.scores, axis=0)
            distinct = (s[1:] > s[:-1]).all()
            return np.argsort(self.scores, axis=0, kind=None if distinct else "stable")
        return np.lexsort((self.scores, self.pools))

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        """Number of entries in each pool."""
        if self.scores.ndim == 2:
            return np.full(self.n_pools, self.scores.shape[0])
        if self.pools is None:
            return np.array([self.scores.shape[0]])
        return np.bincount(self.pools, minlength=self.n_pools)


def _sorted_runs(sizes: np.ndarray, n_bins: int) -> np.ndarray:
    """Adaptive run of each sorted position, for pools of ``sizes`` end to end."""
    runs = np.tile(np.arange(n_bins), len(sizes))
    return np.repeat(runs, adaptive_counts(sizes, n_bins).ravel())


def bin_totals(
    view: PooledScores, scheme: BinScheme
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(pool, bin) entry counts, score sums and correct counts.

    Returns three ``(view.n_pools, n_bins)`` arrays: counts, confidence sums
    and correct counts.  Empty pools and bins hold zeros.
    """
    b = scheme.n_bins
    if view.scores.ndim == 2:
        offsets = np.arange(view.n_pools) * b
    else:
        offsets = 0 if view.pools is None else view.pools * b
    if scheme.kind == "even":
        keys = assign_even_bins(view.scores, b)
    else:
        keys = np.empty_like(view.order)
        if view.scores.ndim == 2:  # every column holds the same runs
            runs = _sorted_runs(view.sizes[:1], b)[:, None]
            np.put_along_axis(keys, view.order, runs, axis=0)
        else:
            keys[view.order] = _sorted_runs(view.sizes, b)
    keys += offsets
    keys = keys.ravel()
    shape = (view.n_pools, b)
    size = view.n_pools * b
    return (
        np.bincount(keys, minlength=size).reshape(shape),
        np.bincount(keys, weights=view.scores.ravel(), minlength=size).reshape(shape),
        np.bincount(keys[view.hits], minlength=size).reshape(shape),
    )


def _midpoint_edges(
    sorted_scores: np.ndarray, sizes: np.ndarray, n_bins: int
) -> np.ndarray:
    """Adaptive edges of pools laid end to end in ``sorted_scores``.

    Pool j holds ``sizes[j]`` sorted entries.  Returns ``(len(sizes),
    n_bins + 1)`` edges: 0 and 1 outside, and between runs the midpoint of
    their boundary scores; a boundary before the first or after the last
    entry (runs of size zero) collapses to 0 or 1.
    """
    ends = np.cumsum(adaptive_counts(sizes, n_bins), axis=-1)[:, :-1]
    inside = (ends > 0) & (ends < sizes[:, None])
    at = np.where(inside, (np.cumsum(sizes) - sizes)[:, None] + ends, 0)
    mid = 0.5 * (sorted_scores[at - 1] + sorted_scores[at])
    edges = np.zeros((len(sizes), n_bins + 1))
    edges[:, 1:-1] = np.where(inside, mid, ends > 0)
    edges[:, -1] = 1.0
    return edges


def adaptive_edges(scores: np.ndarray, n_bins: int) -> np.ndarray:
    """Midpoint edges for equal-count bins over the given scores.

    The first edge is 0, the last is 1, and interior edge b is the midpoint
    of the last score of run b and the first score of run b + 1 (in sorted
    order).  Runs of size zero (more bins than scores) collapse their edges
    onto the neighboring boundary.
    """
    s = np.sort(np.asarray(scores, dtype=float))
    if s.shape[0] == 0:
        raise ValueError("adaptive edges need at least one score")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    return _midpoint_edges(s, np.array([s.shape[0]]), n_bins)[0]


def pool_bin_stats(
    view: PooledScores,
    scheme: BinScheme,
    totals: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[list[BinStats]]:
    """The view's ``totals`` from :func:`bin_totals` as :class:`BinStats` per pool.

    Bins are tagged with their pool index when the scores are pooled
    (``pools`` given or a 2-D matrix), else with None.  Empty bins read
    accuracy = confidence = 0.
    """
    b = scheme.n_bins
    counts, conf_sums, correct_sums = totals
    if scheme.kind == "even":
        edges = np.broadcast_to(even_edges(b), (view.n_pools, b + 1))
    else:
        ordered = np.take_along_axis(view.scores, view.order, axis=0)
        edges = _midpoint_edges(ordered.T.ravel(), view.sizes, b)
    occupied = np.maximum(counts, 1)
    columns = zip(
        edges[:, :-1].tolist(), edges[:, 1:].tolist(), counts.tolist(),
        (correct_sums / occupied).tolist(), (conf_sums / occupied).tolist(),
    )
    pooled = view.pools is not None or view.scores.ndim == 2
    return [
        [
            BinStats(lo, hi, c, acc, conf, class_index=k if pooled else None)
            for lo, hi, c, acc, conf in zip(*pool)
        ]
        for k, pool in enumerate(columns)
    ]


def bin_stats(preds: ScoredPredictions, scheme: BinScheme) -> list[BinStats]:
    """Partition a score view into bins and summarize each bin.

    Even schemes may produce empty bins (count 0, accuracy and confidence 0).
    Adaptive schemes need at least one prediction; membership follows sorted
    position with stable tie order.
    """
    if scheme.kind == "adaptive" and len(preds) == 0:
        raise ValueError("adaptive binning needs at least one prediction")
    view = PooledScores(preds.scores, np.flatnonzero(preds.correct), None, 1)
    return pool_bin_stats(view, scheme, bin_totals(view, scheme))[0]
