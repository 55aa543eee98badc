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
bin) arrays of entry counts, score sums and correct counts.  Adaptive binning
maps each entry's rank in the view's stable sort, made once and shared by
every bin count, to its run; its counts are the run lengths.
:class:`BinStats` is the reporting form of one bin, built from those arrays
by :func:`pool_bin_stats`.

Even totals take one of two routes.  A view with per-entry pool labels, or
with fewer than ``SPLIT_EVEN_MIN_LOW`` entries below the first inner edge
1 / B, gives every entry the key ``pool * B + bin`` and takes three
``bincount`` calls on it.  Any other, such as a full view at K = 1000, where
a row holds at most B entries at or above 1 / B, keys only those; the rest
lie in bin 0 (with B = 1, every entry does).  A pool's bin-0 count is then
its size less its other bins, and its bin-0 sum adds its low entries one by
one in input order, as ``bincount`` adds every bin: a column reduction of a
C-ordered matrix adds row after row, and a 1-D view runs ``cumsum`` in
chunks.  So both routes give the same totals to the last bit, where a
pairwise sum (numpy's 1-D ``add.reduce``, even with ``where``) would move
the last of the 17 digits the CLI prints.

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

BIN_KINDS = ("even", "adaptive")
DEFAULT_BINS = 15

# Even totals of a view without pool labels that has at least this many
# entries below 1 / B key only the other entries.  The two routes cross here
# on softmax rows at K = 100 and K = 1000.
SPLIT_EVEN_MIN_LOW = 4_000
# Entries per cumsum in _sequential_sum, which bounds its temporary.
_SUM_CHUNK = 1 << 16


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
    return np.searchsorted(even_edges(n_bins)[1:-1], scores, side="right")


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
    split = view.pools is None and view.scores.size >= SPLIT_EVEN_MIN_LOW
    if scheme.kind == "even" and split:
        # Only a view this large can hold that many entries in bin 0.  C order
        # makes the column reduction in _split_even_totals add row after row.
        scores = np.ascontiguousarray(view.scores)
        low = scores < even_edges(b)[1] if b > 1 else np.ones(scores.shape, dtype=bool)
        if np.count_nonzero(low) >= SPLIT_EVEN_MIN_LOW:
            return _split_even_totals(view, scores, low, b)
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
        np.bincount(keys, minlength=size).reshape(shape)
        if scheme.kind == "even"
        else adaptive_counts(view.sizes, b),
        np.bincount(keys, weights=view.scores.ravel(), minlength=size).reshape(shape),
        np.bincount(keys[view.hits], minlength=size).reshape(shape),
    )


def _split_even_totals(
    view: PooledScores, scores: np.ndarray, low: np.ndarray, b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Even :func:`bin_totals` of ``view``, keying only the entries not ``low``.

    ``view`` has no pool labels, ``scores`` is its scores in C order and
    ``low`` marks the entries that lie in bin 0; the module docstring gives
    the rule.
    """
    flat = scores.ravel()
    up = np.flatnonzero(~low)

    def keys(pos: np.ndarray) -> np.ndarray:
        pools = pos % scores.shape[1] if scores.ndim == 2 else 0
        return pools * b + assign_even_bins(flat[pos], b)

    shape = (view.n_pools, b)
    size = view.n_pools * b
    up_keys = keys(up)
    counts = np.bincount(up_keys, minlength=size).reshape(shape)
    conf_sums = np.bincount(up_keys, weights=flat[up], minlength=size)
    # bincount gives integers when no entry is up (always, with one bin).
    conf_sums = conf_sums.astype(float, copy=False).reshape(shape)
    counts[:, 0] = view.sizes - counts.sum(axis=1)
    if scores.ndim == 2:
        conf_sums[:, 0] = np.add.reduce(scores, axis=0, where=low, initial=0.0)
    else:
        conf_sums[0, 0] = _sequential_sum(flat, low)
    return counts, conf_sums, np.bincount(keys(view.hits), minlength=size).reshape(shape)


def _sequential_sum(values: np.ndarray, mask: np.ndarray) -> float:
    """Sum of ``values[mask]`` added one by one in input order, from 0.0.

    ``cumsum`` adds in order; it runs chunk by chunk, each chunk's first
    entry carrying the running total.
    """
    total = 0.0
    for start in range(0, values.size, _SUM_CHUNK):
        part = values[start:start + _SUM_CHUNK][mask[start:start + _SUM_CHUNK]]
        if part.size:
            part[0] += total
            total = np.cumsum(part, out=part)[-1]
    return total


def _midpoint_edges(view: PooledScores, n_bins: int) -> np.ndarray:
    """Adaptive edges of each pool of ``view``, read through its ``order``.

    Returns ``(view.n_pools, n_bins + 1)`` edges: 0 and 1 outside, and
    between runs the midpoint of their boundary scores; a boundary before the
    first or after the last entry (runs of size zero) collapses to 0 or 1.
    Only the boundary entries are gathered, not the whole sorted view.
    """
    sizes = view.sizes
    ends = np.cumsum(adaptive_counts(sizes, n_bins), axis=-1)[:, :-1]
    inside = (ends > 0) & (ends < sizes[:, None])
    if view.scores.ndim == 2:  # sorted entry r of column j: scores[order[r, j], j]
        at = np.where(inside, ends, 0)
        cols = np.arange(view.n_pools)[:, None]
        lo = view.scores[view.order[at - 1, cols], cols]
        hi = view.scores[view.order[at, cols], cols]
    else:  # the pools lie end to end in the order
        at = np.where(inside, (np.cumsum(sizes) - sizes)[:, None] + ends, 0)
        lo, hi = view.scores[view.order[at - 1]], view.scores[view.order[at]]
    edges = np.zeros((len(sizes), n_bins + 1))
    edges[:, 1:-1] = np.where(inside, 0.5 * (lo + hi), ends > 0)
    edges[:, -1] = 1.0
    return edges


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
        edges = _midpoint_edges(view, b)
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

