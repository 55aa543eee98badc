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
a matrix) and the positions of the correct entries.  It takes one bin kind
and a whole grid of bin counts, and returns per-(bin count, pool, bin)
arrays of entry counts, score sums and correct counts, each bin count's
bins padded with zeros up to the largest.  Adaptive binning maps each
entry's rank in the view's stable sort to its run, by one of the two routes
below; its counts are the run lengths.  :class:`BinTable` is
the reporting form of one bin count's arrays, one row per bin, built by
:func:`pool_bin_stats`.

Totals are formed per (view, kind) over the whole grid.  Under bin count j
an entry takes the key ``(j * n_pools + pool) * max(bins) + bin``, and the
keys of all bin counts are stacked, so one ``bincount`` of counts, one
``add.at`` of score sums and one ``bincount`` of hits serve the grid.
Each bin still adds its own entries in input order, so every total has the
bits of a call with that bin count alone.  Even bins of the whole grid come
from one search over the union of the grid's inner edges and a table of how
many of each bin count's edges lie at or below each of them.  The stacked
keys number the bin counts times the entries; bin counts are stacked only
while that stays within ``STACK_ENTRIES``, so a large view keys them one at
a time and no N·K array is ever multiplied by the grid.  The padding costs
nothing in the scores: a padded bin is empty, and its term of a pool's error
is +0.0, which leaves a left-to-right sum of non-negative terms unchanged.

Even totals take one of two routes.  A view with per-entry pool labels, or
with fewer than ``SPLIT_EVEN_MIN_LOW`` entries below the first inner edge
1 / B, keys every entry as above.  Any other, such as a full view at
K = 1000, where a row holds at most B entries at or above 1 / B, runs its
bin counts one at a time and keys only those entries; the rest lie in bin 0
(with B = 1, every entry does).  A pool's bin-0 count is then its size less
its other bins, and its bin-0 sum adds its low entries one by one in input
order, as ``bincount`` adds every bin: a column reduction of a C-ordered
matrix adds row after row, and a 1-D view runs ``cumsum`` in chunks.  So
both routes give the same totals to the last bit, where a pairwise sum
(numpy's 1-D ``add.reduce``, even with ``where``) would move the last of the
17 digits the CLI prints.

Adaptive totals take one of two routes too.  A view without pool labels (one
pool, or the columns of a matrix) is keyed block by block.  A 1-D view is
one block; a matrix is cut into blocks of whole columns of at most
``BLOCK_ENTRIES`` entries (a single column where one holds more), each keyed
on its own and freed in turn.  A block of at least ``COMPARE_MIN_ENTRIES``
entries per inner run start (``MATRIX_PASS_COST`` times as many for a
matrix) is keyed from float32 proxies of its scores, a C-ordered copy sorted
per pool.  Rounding to float32 is monotone, so where the sorted proxies p
differ on either side of an inner run start s (p[s - 1] < p[s]), an entry's
stable rank is at least s exactly when its proxy is at least p[s].  Where
they tie, the float64 scores of the tied group, the entries whose proxy is
p[s], are partitioned at the start's rank r within the group: if g[r - 1] <
g[r], the group's entries below g[r] are fixed, one run down; else the
scores tie in float64 too (0.0 beside -0.0 does), and the block takes the
argsort.  A group of more than an eighth of its pool, as the exact zeros of
saturated rows are, is counted first, without a copy: where its ranks r - 1
and r hold the proxy's own value, the start ties.  Each tied proxy of a pool
is refined once, for all the starts it spans, by one scan for its members.
An entry's run is then the number of start proxies at or below its own, less
its fixes, counted by one ``greater_equal`` pass per inner start (against a
row of start proxies for a matrix) into a ``uint8`` count, or a wider one
past 255 starts.  A 1-D view whose float64 sorted copy is already made is
its own proxy: its scores are compared, and tie only where they are equal.
A block with a float64 tie or a NaN (which sorts last) takes the stable
argsort at once, and a block too small for the passes its
``PooledScores.order``; the ranks of either take their runs.  A matrix block
sorts a contiguous float64 copy, made only then.

The keys of such a view take the narrowest unsigned type that holds them:
``uint8`` for one pool at up to 256 bins, ``uint16`` while bin counts times
pools times bins stay within 65,536, and wider above that.  The score sums
take ``np.add.at``, which adds in input order with narrow keys and copies
none of them; the counts are the run lengths, and the hits one ``bincount``
of the N hit keys.  Each bin lies in one column and its entries keep their
order, so every total keeps its bits, and no N·K index array or sorted copy
of a whole matrix is built.  Views with pool labels take
``PooledScores.order``, the stable sort by (pool, score), and scatter its
runs.

A stable argsort is several times slower than numpy's default one, so the
``order`` of a view without per-entry pool labels whose pools hold no two
equal scores (its sorted copy shows it) comes from the default argsort: with
distinct keys the sorting permutation is unique, so the order is the same
array.  A 1-D view whose adaptive check found a float64 tie or a NaN skips
that test and caches its stable argsort as its ``order``.  The float64
sorted copy, ``PooledScores.sorted_scores``, serves that test and the
adaptive edges of the reports, which read their boundary scores from it.
Scores alone (:func:`calerr.metrics.gce`) make it only for a view that
takes ``order``.  The reports (:func:`calerr.metrics.gce_with_bins`) make
it first for a 1-D view, whose keys then compare its scores, so one sort
serves keys and edges; a matrix's edges sort it on their own, as its
blocks key apart from it.  Only when both boundary scores are zeros, whose
signs the sorted copy may hold in another order, do the edges come through
``order``.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from typing import NamedTuple

import numpy as np

BIN_KINDS = ("even", "adaptive")
DEFAULT_BINS = 15

# Even totals of a view without pool labels that has at least this many
# entries below 1 / B key only the other entries.  The two routes cross here
# on softmax rows at K = 100 and K = 1000.
SPLIT_EVEN_MIN_LOW = 4_000
# bin_totals keys at most this many entries at once, over all the bin counts
# it stacks; a larger view keys its bin counts one at a time.
STACK_ENTRIES = 1 << 16
# Adaptive keys of a view without pool labels come from one comparison pass
# of float32 proxies per inner run start when the view holds at least this
# many entries per pass, else from the argsort.  On softmax scores of fresh
# views the routes broke even near 200 to 250 entries per pass at 3,000 and
# 6,000 entries; at 1,500 the passes were 1.09-1.37x slower than the argsort
# from 100 to 375 entries per pass.
COMPARE_MIN_ENTRIES = 256
# A matrix's pass compares against a broadcast row of start proxies, which
# costs more per entry, so a matrix needs this many times as many entries per
# pass.  Its columns broke even near 800 entries per pass at 3,000 × 10, 450
# at 150 × 100, 530 at 1,000 × 10 and 600 at 1,500 × 10 (B = 7 to 45); at
# 1,034 per pass (3,000 × 10, B = 30) the passes took 0.85x the argsort's
# time, and at 341 to 345 per pass (B = 30 and 45) 1.12-1.48x.
MATRIX_PASS_COST = 4
# Adaptive keys of a matrix without pool labels are made a block of whole
# columns of at most this many entries at a time, each block sorted on its
# own, so no sorted copy or run count of the whole matrix lies beside the
# keys.  A block on the passes holds about 10 bytes an entry (the proxies,
# their sorted copy, a count and a mask), one on the argsort 16 (a float64
# copy and its order).  At K = 1000, blocks of 2^17 ran 2-10% faster and
# blocks of 2^14 20-35% slower than these, with float64 passes.
BLOCK_ENTRIES = 1 << 16
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


class BinTable(NamedTuple):
    """Per-bin report: six parallel 1-D arrays, one row per bin, pool by pool.

    Row i is the bin ``[lower[i], upper[i])`` of pool ``class_index[i]``
    (``class_index`` is None for a view that is not class-conditional).
    Empty bins read accuracy = confidence = 0.0 and are told apart by
    ``count == 0``.
    """

    class_index: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    count: np.ndarray
    accuracy: np.ndarray
    confidence: np.ndarray


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
    def sorted_scores(self) -> np.ndarray:
        """``np.sort(scores, axis=0)``, made once, on first use.

        Only a view without ``pools`` reads it: its one pool sorted, or each
        column of a matrix.  The adaptive edges read their boundary scores
        from it, and ``order`` tests it for distinct scores.  A 1-D view
        keyed by the compare passes compares its scores where this is made
        already, as the reports make it for their edges, and its float32
        proxies otherwise, without making it.  Equal scores may lie in
        either order, so 0.0 and -0.0 need not sit where the stable sort
        puts them.
        """
        return np.sort(self.scores, axis=0)

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Stable sort within each pool, made once, on first use.

        1-D entries sort by (pool, score), so the pools lie end to end; a 2-D
        matrix sorts column by column.  Ties keep their input order.

        Without ``pools``, scores that sort strictly increasing in every pool
        (no ties, NaN or 0.0 beside -0.0) have one sorting permutation, so
        the faster default argsort returns the stable sort's array.  A 1-D
        view whose adaptive keys found a float64 tie across a run start or a
        NaN has this cached from its stable argsort instead, without that
        test.
        """
        if self.pools is None:
            s = self.sorted_scores
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


def bin_totals(
    view: PooledScores, kind: str, bins: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(bin count, pool, bin) entry counts, score sums and correct counts.

    Returns three ``(len(bins), view.n_pools, max(bins))`` arrays: counts,
    confidence sums and correct counts under ``kind`` binning, slice j for
    ``bins[j]`` bins.  Bins past a slice's bin count, empty pools and empty
    bins hold zeros.
    """
    top = max(bins)
    if kind == "even" and view.pools is None and view.scores.size >= SPLIT_EVEN_MIN_LOW:
        # Only a view this large can hold that many entries in bin 0.  C order
        # makes the column reduction in _split_even_totals add row after row.
        scores = np.ascontiguousarray(view.scores)
        grids = [_split_even_totals(view, scores, b, top) for b in bins]
    else:
        step = max(1, STACK_ENTRIES // max(view.scores.size, 1))
        grids = [_keyed_totals(view, kind, bins[i:i + step], top)
                 for i in range(0, len(bins), step)]
    if len(grids) == 1:
        return grids[0]
    return tuple(np.concatenate(totals) for totals in zip(*grids))


def _keyed_totals(
    view: PooledScores, kind: str, bins: tuple[int, ...], top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bin_totals` of ``bins`` from one key per entry and bin count.

    Entry i under ``bins[j]`` takes the key ``(j * n_pools + pool) * top +
    bin``, so two ``bincount`` calls and one ``add.at`` on the stacked keys
    give every total; adaptive counts are the run lengths.  The score sums
    use ``add.at``, which adds in the same order as ``bincount`` and copies
    neither the keys, which may be narrow, nor the weights: ``bincount``
    copies both unless they are intp keys and weights it may write, and
    every unthresholded view is of a frozen matrix.
    """
    shape = (len(bins), view.n_pools, top)
    size = len(bins) * view.n_pools * top
    counts = None
    if kind == "adaptive":
        # The pools of a view without pool labels are of one size: its keys
        # read one pool's counts, and the rest are made after the keys.
        counts = _padded_counts(view.sizes[:1] if view.pools is None else view.sizes, bins, top)
    keys = _stacked_keys(view, kind, bins, top, counts)
    weights = view.scores.ravel()
    if len(bins) > 1:
        weights = np.tile(weights, len(bins))
    if counts is None:
        counts = np.bincount(keys.ravel(), minlength=size).reshape(shape)
    elif counts.shape != shape:
        counts = np.repeat(counts, view.n_pools, axis=1)
    conf_sums = np.zeros(size)
    np.add.at(conf_sums, keys.ravel(), weights)
    return (
        counts,
        conf_sums.reshape(shape),
        np.bincount(keys[:, view.hits].ravel(), minlength=size).reshape(shape),
    )


def _padded_counts(sizes: np.ndarray, bins: tuple[int, ...], top: int) -> np.ndarray:
    """:func:`adaptive_counts` of pools of ``sizes`` per bin count, zero-padded to ``top``."""
    counts = np.zeros((len(bins), len(sizes), top), dtype=np.intp)
    for row, b in zip(counts, bins):
        row[:, :b] = adaptive_counts(sizes, b)
    return counts


def _stacked_keys(
    view: PooledScores, kind: str, bins: tuple[int, ...], top: int,
    counts: np.ndarray | None,
) -> np.ndarray:
    """The keys of :func:`_keyed_totals`, one row per bin count.

    ``counts`` holds the padded adaptive counts, whose runs the sorted
    entries take; the runs are freed on return, before any ``bincount``.
    Adaptive keys of a view without pool labels come from
    :func:`_unlabelled_keys`; those of a pool-labelled view from its stable
    ``order``.
    """
    m, n_pools = len(bins), view.n_pools
    if kind == "even":
        keys = _even_bins(view.scores, bins)
    elif view.pools is None:
        return _unlabelled_keys(view, bins, top, counts[:, 0]).reshape(m, -1)
    else:  # the pools lie end to end in the order
        order = view.order
        # The narrowest type, so no second N·K intp array lies beside the keys.
        runs = np.repeat(np.tile(np.arange(top, dtype=np.min_scalar_type(top - 1)),
                                 m * n_pools), counts.ravel())
        keys = np.empty((m, view.scores.size), dtype=np.intp)
        for row, row_runs in zip(keys, runs.reshape(m, -1)):
            row[order] = row_runs
    if view.scores.ndim == 2:
        pools = np.arange(n_pools)
    else:
        pools = 0 if view.pools is None else view.pools
    j = np.arange(m).reshape((m,) + (1,) * view.scores.ndim) if m > 1 else 0
    offsets = (j * n_pools + pools) * top
    if np.ndim(offsets):  # else a 1-D view without pool labels at one bin count: 0
        keys += offsets
    return keys.reshape(m, -1)


def _unlabelled_keys(
    view: PooledScores, bins: tuple[int, ...], top: int, counts: np.ndarray
) -> np.ndarray:
    """Adaptive keys of a view without pool labels, ``(len(bins),) + scores.shape``.

    ``counts[j]`` holds the run lengths, padded to ``top``, that every pool
    takes under ``bins[j]``.  The keys take the narrowest unsigned type that
    holds them.  A 1-D view is keyed as one block, so its order, where one
    is made, stays cached for the edges.  A matrix is keyed in blocks of
    whole columns, as even as may be and of at most ``BLOCK_ENTRIES``
    entries unless one column holds more; each block is a view of its own,
    sorted and freed in turn.
    """
    m, n_pools = len(bins), view.n_pools
    keys = np.empty((m,) + view.scores.shape, dtype=np.min_scalar_type(m * n_pools * top - 1))
    offsets = ((np.arange(m)[:, None] * n_pools + np.arange(n_pools)) * top).astype(keys.dtype)
    if view.scores.ndim == 1:
        _block_keys(view, bins, keys, offsets[:, 0], counts)
        return keys
    width = -(-n_pools // -(-view.scores.size // BLOCK_ENTRIES))
    for c in range(0, n_pools, width):
        block = view.scores[:, c:c + width]
        _block_keys(PooledScores(block, view.hits[:0], None, block.shape[1]), bins,
                    keys[..., c:c + width], offsets[:, c:c + width], counts)
    return keys


def _block_keys(
    view: PooledScores, bins: tuple[int, ...], out: np.ndarray, offsets: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Write the adaptive keys of ``view``, without pool labels, into ``out``.

    ``offsets[j]`` is the key of run 0 of each pool under ``bins[j]``, and
    ``counts[j]`` the padded run lengths of every pool.  The runs come from
    :func:`_compared_runs` where :func:`_run_starts` and
    :func:`_proxy_passes` allow it, else from the stable ``order``, whose
    ranks take the runs in turn.  A column block of a matrix is sorted as a
    contiguous copy, which sorts faster than the strided block.
    """
    starts = _run_starts(view, bins)
    passes = None if starts is None else _proxy_passes(view, starts)
    if passes is not None:
        _compared_runs(*passes, out, offsets)
        return
    if view.scores.ndim == 2:
        view = PooledScores(np.ascontiguousarray(view.scores), view.hits, None, view.n_pools)
    if starts is not None and "order" not in view.__dict__:
        # A NaN or a float64 tie across a start was found: the stable sort,
        # cached as ``order`` caches it, without its test for distinct scores.
        view.__dict__["order"] = np.argsort(view.scores, axis=0, kind="stable")
    m, top = counts.shape
    runs = np.repeat(np.tile(np.arange(top, dtype=out.dtype), m), counts.ravel())
    shape = (m, view.scores.shape[0]) + (1,) * (view.scores.ndim - 1)
    keys = runs.reshape(shape) + offsets[:, None]
    # The fastest scatters measured: one for a matrix, one per row for 1-D.
    if view.scores.ndim == 2:
        out[:, view.order, np.arange(view.n_pools)] = keys
    else:
        for row, row_keys in zip(out, keys):
            row[view.order] = row_keys


def _run_starts(view: PooledScores, bins: tuple[int, ...]) -> list[np.ndarray] | None:
    """Each bin count's inner run starts if the passes pay on ``view``, else None.

    They pay on a view without pool labels that holds at least
    ``COMPARE_MIN_ENTRIES`` entries per start (counting one start where
    there is none; ``MATRIX_PASS_COST`` times as many for a matrix).  Only
    the first min(B, n) runs of a pool of n are filled, so a start at the
    pool's end begins an empty run and is left out.
    """
    n = view.scores.shape[0]
    if n == 0:
        return None
    passes = sum(min(b, n) - 1 for b in bins)
    cost = MATRIX_PASS_COST if view.scores.ndim == 2 else 1
    if view.scores.size < COMPARE_MIN_ENTRIES * cost * max(passes, 1):
        return None
    return [np.cumsum(adaptive_counts(n, b))[:min(b, n) - 1] for b in bins]


def _proxy_passes(
    view: PooledScores, starts: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], list[list]] | None:
    """What :func:`_compared_runs` keys ``view`` with, or None if it cannot.

    Returns the proxies of the view's scores, each bin count's start
    proxies (a row of them per start for a matrix) and each bin count's
    fixes: ``(column, rows)`` pairs of the entries whose proxy reaches a
    start's proxy while their score lies below the start's score.  The
    proxies are a float32 copy in C order, or the scores themselves where
    their ``sorted_scores`` is already made, as the reports make it for
    their edges; those tie only where the scores do.  None where a pool
    holds a NaN, or ties across a start in float64.  The module docstring
    gives the rule.
    """
    scores = view.scores
    every = np.concatenate(starts)
    if not every.size:  # one run in every pool: no pass
        return scores, [scores[:0]] * len(starts), [[] for _ in starts]
    if "sorted_scores" in view.__dict__:
        proxy, s = scores, view.sorted_scores
    else:
        with np.errstate(over="ignore"):  # beyond the float32 range: +-inf, still monotone
            proxy = scores.astype(np.float32, order="C")
        s = np.sort(proxy, axis=0)  # NaN sorts last
    if np.isnan(s[-1]).any():
        return None
    limits = [s[at] for at in starts]
    n = len(s)
    exact, columns, s = scores.reshape(n, -1), proxy.reshape(n, -1), s.reshape(n, -1)
    differ = s[every - 1] < s[every]
    fixes = [[] for _ in starts]
    bin_of = np.repeat(np.arange(len(starts)), [at.size for at in starts])
    while not differ.all():  # one tied (column, proxy) group at a time, all its starts at once
        c = differ.argmin() % differ.shape[1]
        tied = np.flatnonzero(~differ[:, c])
        value = s[every[tied[0]], c]
        tied = tied[s[every[tied], c] == value]
        differ[tied, c] = True
        proxies, col_scores, col_sorted = columns[:, c], exact[:, c], s[:, c]
        below = np.searchsorted(col_sorted, value)
        r = every[tied] - below  # each start's rank within the group
        if 8 * (np.searchsorted(col_sorted, value, "right") - below) > n:
            # A group this large, as the exact zeros of saturated rows are, is
            # counted before it is copied: where the proxy's own value fills
            # its ranks r - 1 and r, the start ties in float64.
            under = np.count_nonzero(col_scores < value) - below
            if ((under < r) & (r < under + np.count_nonzero(col_scores == value))).any():
                return None
        rows = np.flatnonzero(proxies == value)
        group = col_scores[rows]
        ranked = np.partition(group, np.concatenate([r - 1, r]))  # not a sort: a group may be large
        if not (ranked[r - 1] < ranked[r]).all():
            return None
        for j, limit in zip(bin_of[tied], ranked[r]):
            fixes[j].append((c, rows[group < limit]))
    return proxy, limits, fixes


def _compared_runs(
    proxy: np.ndarray, limits: list[np.ndarray], fixes: list[list], out: np.ndarray,
    offsets: np.ndarray,
) -> None:
    """Write the key of every entry's adaptive run under each bin count into ``out``.

    The arguments but the last two come from :func:`_proxy_passes`.  An
    entry's run is the number of start proxies at or below its proxy, less
    its fixes: one comparison pass per start, against a row of proxies per
    column of a matrix, counted in the narrowest unsigned type that holds
    it.  The pools' ``offsets`` are added once; a count of the keys' own
    type is made in place, from the offsets.
    """
    reached = np.empty_like(proxy, dtype=bool)
    for row, thresholds, fixed, off in zip(out, limits, fixes, offsets):
        count = np.min_scalar_type(len(thresholds))
        if count == out.dtype:
            runs = row
            runs[...] = off
        else:
            runs = np.zeros_like(proxy, dtype=count)
        for threshold in thresholds:
            np.greater_equal(proxy, threshold, out=reached)
            np.add(runs, reached.view(np.uint8), out=runs)
        cells = runs.reshape(len(runs), -1)
        for c, rows in fixed:
            cells[rows, c] -= 1
        if runs is not row:
            np.add(runs, off, out=row)


def _even_bins(scores: np.ndarray, bins: tuple[int, ...]) -> np.ndarray:
    """:func:`assign_even_bins` of ``scores`` under each of ``bins``, stacked.

    One search over all the bin counts' inner edges tells how many of them
    lie at or below each score.  A table turns that into each bin count's
    bin: the number of its own inner edges at or below the score.
    """
    if len(bins) == 1:
        return assign_even_bins(scores, bins[0])[None]
    inner = [even_edges(b)[1:-1] for b in bins]
    edges = np.sort(np.concatenate(inner))
    table = np.zeros((len(bins), edges.size + 1), dtype=np.intp)
    for row, own in zip(table, inner):
        row[1:] = np.searchsorted(own, edges, side="right")
    return np.take(table, np.searchsorted(edges, scores, side="right"), axis=1)


def _split_even_totals(
    view: PooledScores, scores: np.ndarray, b: int, top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Even :func:`bin_totals` of ``view`` at ``b`` bins, padded to ``top``.

    ``view`` has no pool labels and ``scores`` is its scores in C order.
    With at least ``SPLIT_EVEN_MIN_LOW`` entries below 1 / b only the other
    entries are keyed; the module docstring gives the rule.
    """
    low = scores < even_edges(b)[1] if b > 1 else np.ones(scores.shape, dtype=bool)
    if np.count_nonzero(low) < SPLIT_EVEN_MIN_LOW:
        return _keyed_totals(view, "even", (b,), top)
    flat = scores.ravel()
    up = np.flatnonzero(~low)

    def keys(pos: np.ndarray) -> np.ndarray:
        pools = pos % scores.shape[1] if scores.ndim == 2 else 0
        return pools * top + assign_even_bins(flat[pos], b)

    shape = (1, view.n_pools, top)
    size = view.n_pools * top
    up_keys = keys(up)
    counts = np.bincount(up_keys, minlength=size).reshape(shape)
    conf_sums = np.bincount(up_keys, weights=flat[up], minlength=size)
    # bincount gives integers when no entry is up (always, with one bin).
    conf_sums = conf_sums.astype(float, copy=False).reshape(shape)
    counts[0, :, 0] = view.sizes - counts[0].sum(axis=1)
    if scores.ndim == 2:
        conf_sums[0, :, 0] = np.add.reduce(scores, axis=0, where=low, initial=0.0)
    else:
        conf_sums[0, 0, 0] = _sequential_sum(flat, low)
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
    """Adaptive edges of each pool of ``view``, from its boundary scores.

    Returns ``(view.n_pools, n_bins + 1)`` edges: 0 and 1 outside, and
    between runs the midpoint of their boundary scores; a boundary before the
    first or after the last entry (runs of size zero) collapses to 0 or 1.
    """
    sizes = view.sizes
    ends = np.cumsum(adaptive_counts(sizes, n_bins), axis=-1)[:, :-1]
    inside = (ends > 0) & (ends < sizes[:, None])
    lo, hi = _boundary_scores(view, ends, inside)
    edges = np.zeros((len(sizes), n_bins + 1))
    edges[:, 1:-1] = np.where(inside, 0.5 * (lo + hi), ends > 0)
    edges[:, -1] = 1.0
    return edges


def _boundary_scores(
    view: PooledScores, ends: np.ndarray, inside: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The stably sorted scores before and at each run end of each pool.

    Only ends ``inside`` a pool are read.  A view without pool labels reads
    them from ``sorted_scores``, any other through ``order``; only the
    boundary entries are gathered, not the whole sorted view.
    """
    at = np.where(inside, ends, 0)
    cols = np.arange(view.n_pools)[:, None]
    if view.pools is None:  # sorted entry r of pool j: sorted_scores[r, j]
        s = view.sorted_scores.reshape(view.scores.shape[0], view.n_pools)
        lo, hi = s[at - 1, cols], s[at, cols]
        # Equal scores have equal bits but for the signs of zeros, and only a
        # midpoint of two zeros shows those; they follow the stable order.
        if not (inside & (lo == 0) & (hi == 0)).any():
            return lo, hi
    if view.scores.ndim == 2:  # sorted entry r of column j: scores[order[r, j], j]
        return view.scores[view.order[at - 1, cols], cols], view.scores[view.order[at, cols], cols]
    # the pools lie end to end in the order
    at = np.where(inside, (np.cumsum(view.sizes) - view.sizes)[:, None] + ends, 0)
    return view.scores[view.order[at - 1]], view.scores[view.order[at]]


def pool_bin_stats(
    view: PooledScores,
    scheme: BinScheme,
    totals: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> BinTable:
    """The view's ``(pools, bins)`` ``totals`` from :func:`bin_totals` as a :class:`BinTable`.

    Rows carry their pool index when the scores are pooled (``pools`` given
    or a 2-D matrix), else None.  Empty bins read accuracy = confidence = 0.
    """
    b = scheme.n_bins
    counts, conf_sums, correct_sums = totals
    if scheme.kind == "even":
        edges = np.broadcast_to(even_edges(b), (view.n_pools, b + 1))
    else:
        edges = _midpoint_edges(view, b)
    occupied = np.maximum(counts, 1)
    pooled = view.pools is not None or view.scores.ndim == 2
    return BinTable(
        np.repeat(np.arange(view.n_pools), b) if pooled else None,
        edges[:, :-1].ravel(), edges[:, 1:].ravel(), counts.ravel(),
        (correct_sums / occupied).ravel(), (conf_sums / occupied).ravel(),
    )

