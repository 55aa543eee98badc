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

The engine is :func:`bin_totals`.  It takes the scores of a view split into
pools (one pool, one pool per class, or one pool per column of a matrix),
plus the positions of the correct entries, and returns per-(pool, bin)
arrays of entry counts, score sums and correct counts.  Even binning is one
``bincount`` on the key ``pool * B + bin``; adaptive binning ranks each
entry within its pool by a stable sort and maps the rank to its run.
:class:`BinStats` is the reporting form of one bin, built from those arrays
by :func:`bin_stats` and :func:`pool_bin_stats`.
"""

from __future__ import annotations

import dataclasses

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


def _pool_order(
    scores: np.ndarray, pools: np.ndarray | None, n_pools: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order within each pool, and the pool sizes.

    1-D entries are ordered by (pool, score), so the pools lie end to end
    in pool order.  A 2-D matrix is sorted column by column and ``order``
    holds row indices.  Ties keep their input order either way.
    """
    if scores.ndim == 2:
        n, k = scores.shape
        return np.argsort(scores, axis=0, kind="stable"), np.full(k, n)
    if pools is None:
        return np.argsort(scores, kind="stable"), np.array([scores.shape[0]])
    return np.lexsort((scores, pools)), np.bincount(pools, minlength=n_pools)


def _sorted_runs(sizes: np.ndarray, n_bins: int) -> np.ndarray:
    """Adaptive run of each sorted position, for pools of ``sizes`` end to end."""
    runs = np.tile(np.arange(n_bins), len(sizes))
    return np.repeat(runs, adaptive_counts(sizes, n_bins).ravel())


def bin_totals(
    scores: np.ndarray,
    hits: np.ndarray,
    scheme: BinScheme,
    pools: np.ndarray | None = None,
    n_pools: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(pool, bin) entry counts, score sums and correct counts.

    ``scores`` is either a 1-D array of entries, entry i in pool ``pools[i]``
    (every entry in pool 0 when ``pools`` is None), or a 2-D matrix whose
    column j is pool j.  ``hits`` holds the positions in ``scores.ravel()``
    of the entries that score their datapoint's true class.  Returns three
    ``(n_pools, n_bins)`` arrays: counts, confidence sums and correct counts.
    Empty pools and bins hold zeros.
    """
    b = scheme.n_bins
    if scores.ndim == 2:
        n_pools = scores.shape[1]
        offsets = np.arange(n_pools) * b
    else:
        offsets = 0 if pools is None else pools * b
    if scheme.kind == "even":
        keys = assign_even_bins(scores, b)
    else:
        order, sizes = _pool_order(scores, pools, n_pools)
        keys = np.empty_like(order)
        if scores.ndim == 2:  # every column holds the same runs
            runs = _sorted_runs(sizes[:1], b)[:, None]
            np.put_along_axis(keys, order, runs, axis=0)
        else:
            keys[order] = _sorted_runs(sizes, b)
    keys += offsets
    keys = keys.ravel()
    shape = (n_pools, b)
    size = n_pools * b
    return (
        np.bincount(keys, minlength=size).reshape(shape),
        np.bincount(keys, weights=scores.ravel(), minlength=size).reshape(shape),
        np.bincount(keys[hits], minlength=size).reshape(shape),
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
    scores: np.ndarray,
    hits: np.ndarray,
    scheme: BinScheme,
    pools: np.ndarray | None = None,
    n_pools: int = 1,
) -> list[list[BinStats]]:
    """The bins of :func:`bin_totals` as one list of :class:`BinStats` per pool.

    Takes the arguments of :func:`bin_totals`.  Bins are tagged with their
    pool index when the scores are pooled (``pools`` given or a 2-D matrix),
    else with None.  Empty bins read accuracy = confidence = 0.
    """
    b = scheme.n_bins
    counts, conf_sums, correct_sums = bin_totals(scores, hits, scheme, pools, n_pools)
    n_pools = counts.shape[0]
    if scheme.kind == "even":
        edges = np.broadcast_to(even_edges(b), (n_pools, b + 1))
    else:
        order, sizes = _pool_order(scores, pools, n_pools)
        ordered = np.take_along_axis(scores, order, axis=0)
        edges = _midpoint_edges(ordered.T.ravel(), sizes, b)
    occupied = np.maximum(counts, 1)
    columns = zip(
        edges[:, :-1].tolist(), edges[:, 1:].tolist(), counts.tolist(),
        (correct_sums / occupied).tolist(), (conf_sums / occupied).tolist(),
    )
    pooled = pools is not None or scores.ndim == 2
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
    return pool_bin_stats(preds.scores, np.flatnonzero(preds.correct), scheme)[0]
