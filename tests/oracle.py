"""Independent reference implementations used to cross-check the package.

Everything here is written from the documented contracts alone, in plain
Python loops, and imports nothing from the package under test.  Slow on
purpose: clarity over speed, so a disagreement points at the fast code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# Brute-force generalized calibration error
# ---------------------------------------------------------------------------

def _even_bin_of(score: float, n_bins: int) -> int:
    # Edge b is the correctly rounded double b / n_bins; a score belongs to
    # the highest bin whose lower edge does not exceed it, and 1.0 belongs
    # to the last bin.
    edges = [b / n_bins for b in range(n_bins + 1)]
    edges[-1] = 1.0
    idx = sum(1 for e in edges if e <= score) - 1
    return min(max(idx, 0), n_bins - 1)


def _run_sizes(n: int, n_bins: int) -> list[int]:
    base, extra = divmod(n, n_bins)
    return [base + 1] * extra + [base] * (n_bins - extra)


def _bin_members(entries: list[tuple[float, bool]], binning: str, n_bins: int):
    """The entries of each of the n_bins bins of one pool, empty bins included."""
    if binning == "even":
        groups: dict[int, list[tuple[float, bool]]] = {}
        for score, correct in entries:
            groups.setdefault(_even_bin_of(score, n_bins), []).append(
                (score, correct)
            )
        return [groups.get(b, []) for b in range(n_bins)]
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    members = []
    start = 0
    for size in _run_sizes(len(entries), n_bins):
        members.append([entries[i] for i in order[start : start + size]])
        start += size
    return members


def _bin_means(bucket: list[tuple[float, bool]]) -> tuple[int, float, float]:
    """(count, accuracy, confidence) of one bin; an empty bin reads 0, 0.0, 0.0."""
    count = len(bucket)
    if not count:
        return 0, 0.0, 0.0
    acc = sum(1.0 for _, correct in bucket if correct) / count
    conf = sum(score for score, _ in bucket) / count
    return count, acc, conf


def _pool_bins(entries: list[tuple[float, bool]], binning: str, n_bins: int):
    """Yield (count, accuracy, confidence) per occupied bin of one pool."""
    for bucket in _bin_members(entries, binning, n_bins):
        if bucket:
            yield _bin_means(bucket)


def _pool_score(
    entries: list[tuple[float, bool]],
    binning: str,
    n_bins: int,
    norm: str,
    weighted_l2: bool,
) -> float:
    total = len(entries)
    acc_l1 = 0.0
    acc_l2 = 0.0
    for count, acc, conf in _pool_bins(entries, binning, n_bins):
        gap = acc - conf
        acc_l1 += count / total * abs(gap)
        acc_l2 += (count / total if weighted_l2 else 1.0) * gap * gap
    return acc_l1 if norm == "l1" else math.sqrt(acc_l2)


def _view_triples(
    probs: np.ndarray, labels: np.ndarray, max_probs: bool, threshold: float
) -> list[tuple[float, int, bool]]:
    """(score, class, correct) triples of the chosen view, row-major.

    Raises ValueError when no entry survives the threshold.
    """
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    n, k = probs.shape
    triples: list[tuple[float, int, bool]] = []
    if max_probs:
        for i in range(n):
            row = [float(v) for v in probs[i]]
            top = row.index(max(row))
            triples.append((row[top], top, int(labels[i]) == top))
    else:
        for i in range(n):
            for c in range(k):
                score = float(probs[i, c])
                if threshold > 0.0 and score <= threshold:
                    continue
                triples.append((score, c, int(labels[i]) == c))
    if not triples:
        raise ValueError("empty view")
    return triples


def brute_force_gce(
    probs: np.ndarray,
    labels: np.ndarray,
    binning: str,
    max_probs: bool,
    class_conditional: bool,
    threshold: float,
    norm: str,
    n_bins: int,
    weighted_l2: bool = True,
) -> float:
    """Reference score for one metric variant; None-safe nowhere, loud everywhere.

    Raises ValueError when no entry survives, mirroring the contract that an
    empty measurement is an error rather than a perfect score.
    """
    triples = _view_triples(probs, labels, max_probs, threshold)
    if not class_conditional:
        pool = [(score, correct) for score, _, correct in triples]
        return _pool_score(pool, binning, n_bins, norm, weighted_l2)
    scores_by_class: dict[int, list[tuple[float, bool]]] = {}
    for score, cls, correct in triples:
        scores_by_class.setdefault(cls, []).append((score, correct))
    values = [
        _pool_score(pool, binning, n_bins, norm, weighted_l2)
        for _, pool in sorted(scores_by_class.items())
    ]
    return sum(values) / len(values)


def _bin_edges(entries: list[tuple[float, bool]], binning: str, n_bins: int) -> list[float]:
    """The n_bins + 1 edges of one pool's bins, 0.0 first and 1.0 last.

    Even edges are b / n_bins.  An adaptive edge between two runs is the
    midpoint of the last score of the one and the first score of the next,
    in stable sorted order; an edge with no score after it is 1.0.
    """
    if binning == "even":
        edges = [b / n_bins for b in range(n_bins + 1)]
        edges[-1] = 1.0
        return edges
    ordered = sorted(score for score, _ in entries)
    edges = [0.0]
    end = 0
    for size in _run_sizes(len(ordered), n_bins)[:-1]:
        end += size
        edges.append(0.5 * (ordered[end - 1] + ordered[end]) if end < len(ordered) else 1.0)
    edges.append(1.0)
    return edges


def brute_force_bins(
    probs: np.ndarray,
    labels: np.ndarray,
    binning: str,
    max_probs: bool,
    class_conditional: bool,
    threshold: float,
    n_bins: int,
) -> list[tuple[int | None, float, float, int, float, float]]:
    """Reference per-bin report: (class, lower, upper, count, accuracy, confidence) rows.

    A pooled view is one pool whose class is None; a class-conditional one
    has a pool per class 0..K-1, in class order.  Each pool gives its n_bins
    bins in order, an empty bin with accuracy and confidence 0.0, except a
    class with no entries, which gives the one row (class, 0.0, 1.0, 0,
    0.0, 0.0).  Raises ValueError when no entry survives the threshold.
    """
    triples = _view_triples(probs, labels, max_probs, threshold)
    if class_conditional:
        pools = [
            (c, [(score, correct) for score, cls, correct in triples if cls == c])
            for c in range(np.shape(probs)[1])
        ]
    else:
        pools = [(None, [(score, correct) for score, _, correct in triples])]
    rows = []
    for cls, entries in pools:
        if not entries:
            rows.append((cls, 0.0, 1.0, 0, 0.0, 0.0))
            continue
        edges = _bin_edges(entries, binning, n_bins)
        for b, bucket in enumerate(_bin_members(entries, binning, n_bins)):
            rows.append((cls, edges[b], edges[b + 1], *_bin_means(bucket)))
    return rows


def all_variant_axes() -> list[tuple[str, bool, bool, float, str]]:
    """The 32 axis tuples in canonical nesting order."""
    return [
        (binning, max_probs, class_conditional, threshold, norm)
        for binning in ("even", "adaptive")
        for max_probs in (True, False)
        for class_conditional in (True, False)
        for threshold in (0.0, 0.01)
        for norm in ("l1", "l2")
    ]


# ---------------------------------------------------------------------------
# Exhaustive monotone least squares
# ---------------------------------------------------------------------------

def _partitions(n: int):
    """All contiguous partitions of range(n) as lists of (start, stop)."""
    for mask in range(1 << (n - 1)):
        blocks = []
        start = 0
        for gap in range(n - 1):
            if mask & (1 << gap):
                blocks.append((start, gap + 1))
                start = gap + 1
        blocks.append((start, n))
        yield blocks


def exhaustive_isotonic(
    values: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Global minimizer of the weighted monotone least-squares problem.

    Tries every contiguous partition, fits each block at its weighted mean,
    keeps the feasible (non-decreasing) candidate with the smallest weighted
    squared error.  The optimum over the monotone cone is unique, so ties
    between partitions produce the same fitted vector.
    """
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    n = y.shape[0]
    best_sse = math.inf
    best_fit = None
    for blocks in _partitions(n):
        means = []
        for start, stop in blocks:
            means.append(
                float(np.dot(w[start:stop], y[start:stop]) / w[start:stop].sum())
            )
        if any(means[j] > means[j + 1] for j in range(len(means) - 1)):
            continue
        fit = np.empty(n)
        for (start, stop), mean in zip(blocks, means):
            fit[start:stop] = mean
        sse = float(np.dot(w, (y - fit) ** 2))
        if sse < best_sse - 1e-15:
            best_sse = sse
            best_fit = fit
    return best_fit


def grid_isotonic_all(n: int, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight exhaustive monotone fits for every length-n grid sequence.

    Returns (instances, fits), each of shape (len(grid) ** n, n), enumerating
    the full product grid in lexicographic order.  Vectorized across
    instances: per partition the block means and feasibility test are batch
    array operations, so the n = 6 case stays in the seconds range.
    """
    instances = np.array(list(itertools.product(grid, repeat=n)), dtype=float)
    m = instances.shape[0]
    best_sse = np.full(m, np.inf)
    best_fit = np.empty((m, n))
    for blocks in _partitions(n):
        fit = np.empty((m, n))
        for start, stop in blocks:
            fit[:, start:stop] = instances[:, start:stop].mean(
                axis=1, keepdims=True
            )
        feasible = np.ones(m, dtype=bool)
        for (_, stop_a), (start_b, _) in zip(blocks, blocks[1:]):
            feasible &= fit[:, stop_a - 1] <= fit[:, start_b]
        sse = ((instances - fit) ** 2).sum(axis=1)
        better = feasible & (sse < best_sse - 1e-15)
        best_sse[better] = sse[better]
        best_fit[better] = fit[better]
    return instances, best_fit


# ---------------------------------------------------------------------------
# Small rank statistics references
# ---------------------------------------------------------------------------

def reference_average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the positions they straddle."""
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape[0])
    for i, v in enumerate(values):
        below = int(np.sum(values < v))
        equal = int(np.sum(values == v))
        out[i] = below + (equal + 1) / 2.0
    return out


def reference_spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra = reference_average_ranks(a)
    rb = reference_average_ranks(b)
    n = len(ra)
    d2 = float(np.sum((ra - rb) ** 2))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))
