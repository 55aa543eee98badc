"""Independent reference scores for the calerr metric family.

Written from the documented contract of ``calerr.metrics`` and
``calerr.binning`` and importing nothing from the package, so the benchmark
can check every op's score at any seed.  It works on plain arrays and
vectorises within each pool; summation order differs from the package, so
agreement is to within ``SCORE_TOL``, not bit for bit.

Contract, in brief: the max-probability view keeps each row's first
maximum; the full view keeps every entry (entries <= threshold dropped when
threshold > 0) in row-major order.  Even bins are [i/B, (i+1)/B) with 1.0
in the last bin; adaptive bins cut the stably sorted pool into B runs whose
sizes differ by at most one, the first N mod B runs taking the extra entry.
A pool's error is sum_b n_b/N |acc_b - conf_b| (l1) or the square root of
sum_b n_b/N (acc_b - conf_b)^2 (l2); class-conditional variants average the
errors of the non-empty per-class pools.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_TOL = 1e-10

# The 32 variants in canonical index order: binning outermost, norm innermost.
VARIANTS = [
    (binning, max_probs, class_conditional, threshold, norm)
    for binning in ("even", "adaptive")
    for max_probs in (True, False)
    for class_conditional in (True, False)
    for threshold in (0.0, 0.01)
    for norm in ("l1", "l2")
]
NAMED = {"ECE": 4, "CCECE": 0, "SCE": 8, "ACE": 24, "TACE": 26, "RMSCE": 21}


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def pool_bins(scores: np.ndarray, correct: np.ndarray, binning: str, n_bins: int):
    """(counts, accuracy sums, confidence sums) per bin of one pool."""
    if binning == "even":
        edges = np.arange(n_bins + 1, dtype=float) / n_bins
        edges[-1] = 1.0
        idx = np.clip(np.searchsorted(edges, scores, side="right") - 1, 0, n_bins - 1)
        return (
            np.bincount(idx, minlength=n_bins),
            np.bincount(idx, weights=correct, minlength=n_bins),
            np.bincount(idx, weights=scores, minlength=n_bins),
        )
    n = scores.shape[0]
    order = np.argsort(scores, kind="stable")
    base, extra = divmod(n, n_bins)
    counts = base + (np.arange(n_bins) < extra).astype(int)
    stops = np.cumsum(counts)
    starts = stops - counts
    acc = np.array([correct[order[a:b]].sum() for a, b in zip(starts, stops)])
    conf = np.array([scores[order[a:b]].sum() for a, b in zip(starts, stops)])
    return counts, acc, conf


def pool_error(counts, acc_sums, conf_sums, norm: str) -> float:
    hit = counts > 0
    c = counts[hit].astype(float)
    gap = acc_sums[hit] / c - conf_sums[hit] / c
    w = c / c.sum()
    if norm == "l1":
        return float(np.sum(w * np.abs(gap)))
    return math.sqrt(float(np.sum(w * gap * gap)))


def pools(probs: np.ndarray, labels: np.ndarray, max_probs: bool,
          class_conditional: bool, threshold: float):
    """Yield (class or None, scores, correct) for each pool of a variant."""
    n, k = probs.shape
    if max_probs:
        cls = np.argmax(probs, axis=1)
        scores = probs[np.arange(n), cls]
        correct = (cls == labels).astype(float)
        if not class_conditional:
            yield None, scores, correct
            return
        for c in range(k):
            keep = cls == c
            yield c, scores[keep], correct[keep]
        return
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    if not class_conditional:
        scores, correct = probs.ravel(), onehot.ravel()
        if threshold > 0.0:
            keep = scores > threshold
            scores, correct = scores[keep], correct[keep]
        yield None, scores, correct
        return
    for c in range(k):
        scores, correct = probs[:, c], onehot[:, c]
        if threshold > 0.0:
            keep = scores > threshold
            scores, correct = scores[keep], correct[keep]
        yield c, scores, correct


def score(probs: np.ndarray, labels: np.ndarray, variant: int, n_bins: int) -> float:
    """Reference value of metric ``variant`` (0..31) at ``n_bins`` bins."""
    binning, max_probs, cc, threshold, norm = VARIANTS[variant]
    errors = [
        pool_error(*pool_bins(s, c, binning, n_bins), norm)
        for _, s, c in pools(probs, labels, max_probs, cc, threshold)
        if s.shape[0]
    ]
    if not errors:
        raise ValueError("no scored entry survives")
    return sum(errors) / len(errors) if cc else errors[0]


def bin_rows(probs: np.ndarray, labels: np.ndarray, variant: int, n_bins: int):
    """(count, accuracy, confidence) per bin of a pooled variant, in bin order."""
    binning, max_probs, cc, threshold, _ = VARIANTS[variant]
    if cc:
        raise ValueError("bin_rows covers pooled variants only")
    (_, s, c), = pools(probs, labels, max_probs, cc, threshold)
    counts, acc, conf = pool_bins(s, c, binning, n_bins)
    safe = np.maximum(counts, 1)
    return counts, np.where(counts > 0, acc / safe, 0.0), np.where(counts > 0, conf / safe, 0.0)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, lowest first, ties sharing their mean position."""
    v = np.asarray(values, dtype=float)
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return ((upper - counts + 1 + upper) / 2.0)[inverse]


def spearman(r1: np.ndarray, r2: np.ndarray) -> float:
    n = r1.shape[0]
    d = r1 - r2
    return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))
