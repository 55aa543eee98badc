"""Generalized calibration error: one scoring engine, 32 metric variants.

A calibration metric is determined by five independent axes:

==================  =========================  ==========================
axis                values                     effect
==================  =========================  ==========================
binning             even | adaptive            how [0, 1] is partitioned
max_probs           True | False               score only each datapoint's
                                               top prediction, or every
                                               (datapoint, class) entry
class_conditional   True | False               bin each class's pool
                                               separately, then average
threshold           0.0 | 0.01 (any in [0,1))  drop full-view entries with
                                               score <= threshold
norm                l1 | l2                    per-pool aggregation
==================  =========================  ==========================

Within one pool of scored predictions the binned error is

    l1:  sum_b (n_b / N_pool) * |acc_b - conf_b|
    l2:  sqrt( sum_b (n_b / N_pool) * (acc_b - conf_b)^2 )

and a class-conditional metric averages the pool errors evenly over the
classes that still hold at least one prediction.  Familiar metrics are
points in this grid: ECE is (even, True, False, 0.0, l1), SCE is
(even, False, True, 0.0, l1), ACE is (adaptive, False, True, 0.0, l1),
TACE adds the 0.01 threshold to ACE, and RMSCE is
(adaptive, True, False, 0.0, l2).

The threshold axis only acts on the full-probability view; a max_probs
metric ignores it (a top probability is never below 1 / n_classes, so the
small standard threshold could not drop it anyway).

Variants are indexed 0..31 by nesting the axes with binning outermost and
norm innermost; see :func:`metric_index`.

Scoring runs on arrays.  :func:`gce_table` scores a list of prediction
sets under a list of configs in one pass.  It groups the configs by score
view and then by bin kind.  Each distinct view is split into pools once (a
:class:`calerr.binning.PooledScores`, sorted at most once) and dropped once
its configs are scored.  Sets of one shape share that view a group at a
time: their own views are stacked so that every pool keeps its entries in
their order, class-conditional matrices side by side, single pools of one
size as the columns of a matrix, and other views end to end under pool
labels ``set * pools + pool``.  One :func:`calerr.binning.bin_totals` call
per (view, kind, group) reduces it to per-(bin count, pool, bin) counts,
confidence sums and correct counts for every bin count its configs ask
for, shared across norms.  Pool errors and class means are then array
operations over that whole grid, one per norm; each set's class mean
covers its own live classes.  Both sums run left to right (``cumsum``), so
each score has the bits of a pool-by-pool Python sum.  :func:`gce_many` is
the one-set case, which keeps each score's per-class errors, :func:`gce`
the one-config case, and :func:`gce_with_bins` returns the score with the
totals laid out as one :class:`calerr.binning.BinTable`; all run the same
path.
"""

from __future__ import annotations

import dataclasses
import itertools
import numbers
from typing import Mapping, Sequence

import numpy as np

from . import binning
from .binning import (
    BIN_KINDS,
    DEFAULT_BINS,
    BinScheme,
    BinTable,
    PooledScores,
    bin_totals,
    pool_bin_stats,
)
from .predictions import PredictionSet, full_prob_view, max_prob_view

NORMS = ("l1", "l2")

# The five axes, outermost first, each with its values in index order.  A
# config's index reads the positions of its values as the digits of a
# mixed-radix number over this table; see metric_index.
AXES = {
    "binning": BIN_KINDS,
    "max_probs": (True, False),
    "class_conditional": (True, False),
    "threshold": (0.0, 0.01),
    "norm": NORMS,
}


class EmptyMeasurementError(ValueError):
    """No scored predictions survive to be measured (never reported as 0)."""


@dataclasses.dataclass(frozen=True)
class MetricConfig:
    """One point in the five-axis metric family."""

    binning: BinScheme
    max_probs: bool = True
    class_conditional: bool = False
    threshold: float = 0.0
    norm: str = "l1"

    def __post_init__(self) -> None:
        if self.norm not in NORMS:
            raise ValueError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if isinstance(self.threshold, bool) or not isinstance(self.threshold, numbers.Real):
            raise ValueError(f"threshold must be a real number, got {self.threshold!r}")
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must lie in [0, 1), got {self.threshold}")
        for flag in ("max_probs", "class_conditional"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a bool, got {getattr(self, flag)!r}")

    def axis_tuple(self) -> tuple:
        """(binning kind, max_probs, class_conditional, threshold, norm)."""
        return (
            self.binning.kind,
            self.max_probs,
            self.class_conditional,
            self.threshold,
            self.norm,
        )

    def label(self) -> str:
        """Canonical printable form, e.g. ``('even', True, False, 0.0, 'l1')``."""
        return repr(self.axis_tuple())


@dataclasses.dataclass(frozen=True)
class CalibrationScore:
    """A measured calibration error plus its provenance."""

    value: float
    config: MetricConfig
    per_class: Mapping[int, float] | None = None


# Named metrics as points in the family. Values are indices under
# metric_index with the default bin count.
NAMED_METRICS = {
    "ECE": 4,
    "CCECE": 0,
    "SCE": 8,
    "ACE": 24,
    "TACE": 26,
    "RMSCE": 21,
}


def metric_index(cfg: MetricConfig) -> int:
    """Position of a config in the canonical 0..31 enumeration.

    Nesting order, outermost first: binning, max_probs, class_conditional,
    threshold, norm.  Only thresholds on the standard grid (0.0, 0.01) are
    indexable; other configs are valid to score but have no index.
    """
    index = 0
    for (axis, values), value in zip(AXES.items(), cfg.axis_tuple()):
        if value not in values:
            raise ValueError(f"{axis} {value} is off the standard grid {values}")
        index = index * len(values) + values.index(value)
    return index


def index_to_config(index: int, n_bins: int = DEFAULT_BINS) -> MetricConfig:
    """Inverse of :func:`metric_index` at a chosen bin count."""
    configs = all_configs(n_bins)
    if not 0 <= index < len(configs):
        raise ValueError(f"metric index must lie in [0, 32), got {index}")
    return configs[index]


def all_configs(n_bins: int = DEFAULT_BINS) -> list[MetricConfig]:
    """All 32 variants in index order at one bin count."""
    return [
        MetricConfig(BinScheme(kind, n_bins), *rest)
        for kind, *rest in itertools.product(*AXES.values())
    ]


def named_metric(name: str, n_bins: int = DEFAULT_BINS) -> MetricConfig:
    """Config for a named metric (ECE, SCE, ACE, TACE, RMSCE, CCECE)."""
    if not isinstance(name, str):
        raise ValueError(f"metric name must be a string, got {name!r}")
    key = name.upper()
    if key not in NAMED_METRICS:
        raise ValueError(
            f"unknown metric {name!r}; known: {sorted(NAMED_METRICS)}"
        )
    return index_to_config(NAMED_METRICS[key], n_bins)


def _pooled_view(p: PredictionSet, cfg: MetricConfig) -> PooledScores:
    """The config's score view, split into pools for bin_totals.

    The unthresholded full view reads the probability matrix directly: its
    flattened entries form one pool, or its columns one pool per class, and
    the correct entries are the N entries (i, label_i).
    """
    n, k = p.probs.shape
    if not cfg.max_probs and cfg.threshold == 0.0:
        scores = p.probs if cfg.class_conditional else p.probs.ravel()
        hits, pools = np.arange(n) * k + p.labels, None
    else:
        view = max_prob_view(p) if cfg.max_probs else full_prob_view(p, cfg.threshold)
        if len(view) == 0:
            raise EmptyMeasurementError(f"no predictions survive threshold {cfg.threshold}")
        scores, hits, pools = view.scores, np.flatnonzero(view.correct), view.class_index
    if cfg.class_conditional:
        return PooledScores(scores, hits, pools, k)
    return PooledScores(scores, hits, None, 1)


def gce_with_bins(
    p: PredictionSet, cfg: MetricConfig
) -> tuple[CalibrationScore, BinTable]:
    """``gce(p, cfg)`` and the per-bin table it aggregates, from one view.

    Class-conditional rows carry their class; a class with no entries (the
    threshold emptied it, or no top probability picks it) keeps only its
    first bin, a zero-count placeholder spanning [0, 1].
    """
    view = _pooled_view(p, cfg)
    b = cfg.binning.n_bins
    if cfg.binning.kind == "adaptive" and view.pools is None and view.scores.ndim == 1:
        view.sorted_scores  # the edges read it; made first, the keys read it too
    totals = bin_totals(view, cfg.binning.kind, (b,))
    table = pool_bin_stats(view, cfg.binning, [t[0] for t in totals])
    if cfg.class_conditional:
        empty = np.repeat(view.sizes == 0, b)
        keep = ~empty
        keep[::b] = True
        table = BinTable(*(column[keep] for column in
                           table._replace(upper=np.where(empty, 1.0, table.upper))))
    values, per_class = _grid_scores(view, 1, [cfg], (b,), totals, classes=True)
    return CalibrationScore(values[0][0], cfg, None if per_class is None else per_class[0][0]), table


def gce(p: PredictionSet, cfg: MetricConfig) -> CalibrationScore:
    """Score a prediction set under one metric variant.

    The pipeline is: build the score view (top probability per datapoint, or
    every entry above the threshold), split it into per-class pools if the
    config is class-conditional, bin each pool under the config's scheme,
    aggregate each pool's |accuracy - confidence| gaps under the config's
    norm, and average evenly over the classes that kept at least one
    prediction.  Empty bins carry zero weight.  If thresholding empties the
    whole view this raises :class:`EmptyMeasurementError` rather than
    reporting a perfect 0.  The l2 norm is the bin-weighted root mean square:
    the square root of the count-weighted mean squared gap.
    """
    return gce_many(p, [cfg])[0]


def gce_many(
    p: PredictionSet, configs: Sequence[MetricConfig]
) -> list[CalibrationScore]:
    """:func:`gce` of each config, in order, scored in one pass.

    The one-set case of :func:`gce_table`, with each score's per-class
    errors.  Each score equals ``gce(p, cfg)`` bit for bit.
    """
    values, per_class = _score_table([p], configs, classes=True)
    return [
        CalibrationScore(value, cfg, errors)
        for value, cfg, errors in zip(values[0], configs, per_class[0])
    ]


def gce_table(
    sets: Sequence[PredictionSet], configs: Sequence[MetricConfig]
) -> np.ndarray:
    """``gce(sets[i], configs[j]).value`` at ``[i, j]``, scored in one pass.

    Configs that agree on max_probs, class_conditional and the threshold (a
    max-prob view ignores it) share one score view, built in the order of
    their first configs and dropped once they are scored.  Sets of one
    shape are stacked into that view a group at a time (see
    :func:`_stacked_views`), so all bin counts of one kind on a whole group
    share one :func:`calerr.binning.bin_totals` call, and l1 and l2 its
    totals.  Each entry equals ``gce(sets[i], configs[j]).value`` bit for
    bit.  If a set's thresholded view is empty this raises
    :class:`EmptyMeasurementError`, as :func:`gce` does.
    """
    return np.array(_score_table(sets, configs)[0], dtype=float).reshape(len(sets), len(configs))


def _score_table(
    sets: Sequence[PredictionSet], configs: Sequence[MetricConfig], classes: bool = False
) -> tuple[list[list[float]], list[list]]:
    """The scores of :func:`gce_table`, set by set, and each score's per-class errors.

    The per-class errors are made only if ``classes``, which is asked of
    one set only; else, and for a pooled config, they are None.
    """
    views: dict[tuple, dict[str, list[int]]] = {}
    for j, cfg in enumerate(configs):
        key = (cfg.max_probs, cfg.class_conditional, 0.0 if cfg.max_probs else cfg.threshold)
        views.setdefault(key, {}).setdefault(cfg.binning.kind, []).append(j)
    shapes: dict[tuple, list[int]] = {}
    for i, p in enumerate(sets):
        shapes.setdefault(p.probs.shape, []).append(i)
    values = [[0.0] * len(configs) for _ in sets]
    per_class = [[None] * len(configs) for _ in sets]
    for kinds in views.values():
        for members in shapes.values():
            for rows, view in _stacked_views(sets, members, configs, kinds):
                for kind, positions in kinds.items():
                    group = [configs[j] for j in positions]
                    bins = tuple(dict.fromkeys(cfg.binning.n_bins for cfg in group))
                    scores, errors = _grid_scores(
                        view, len(rows), group, bins, bin_totals(view, kind, bins), classes)
                    for s, i in enumerate(rows):
                        for j, value in zip(positions, scores[s]):
                            values[i][j] = value
                        if errors is not None:
                            for j, pool_errors in zip(positions, errors[s]):
                                per_class[i][j] = pool_errors
    return values, per_class


def _stacked_views(
    sets: Sequence[PredictionSet],
    members: list[int],
    configs: Sequence[MetricConfig],
    kinds: dict[str, list[int]],
):
    """Yield ``(positions, view)``: the view of each group of ``sets[members]``.

    The members are of one shape.  The view is that of the configs listed in
    ``kinds`` (positions in ``configs`` by bin kind), and the grid is the sum
    of their bin counts.  A set takes up the larger of its view's entries (N·K
    for a full view, N for a max-prob view, at most that when thresholded)
    and its pools' bins over the grid, and a group holds as many consecutive
    sets as keep that below ``SPLIT_EVEN_MIN_LOW``.  So no stacked view
    takes the split even route, and a group's totals stay about as large as
    its keys.  A group of one set is that set's own view, with no copy; a
    group of several stacks its sets' views (:func:`_stack`).  One group's
    view is dropped before the next one's is built.
    """
    cfg = configs[next(iter(kinds.values()))[0]]
    size = 1
    if len(members) > 1:
        grid = sum({configs[j].binning.n_bins for j in itertools.chain(*kinds.values())})
        n, k = sets[members[0]].probs.shape
        footprint = max(n if cfg.max_probs else n * k, (k if cfg.class_conditional else 1) * grid)
        size = max(1, (binning.SPLIT_EVEN_MIN_LOW - 1) // footprint)
    for start in range(0, len(members), size):
        rows = members[start:start + size]
        yield rows, _stack([_pooled_view(sets[i], cfg) for i in rows], cfg)


def _stack(parts: list[PooledScores], cfg: MetricConfig) -> PooledScores:
    """One view of the sets whose own views are ``parts``, set s's pools after set s - 1's.

    Every pool keeps its entries and their order, so every total keeps its
    bits.  With S sets of P pools each, pool s·P + p is set s's pool p:

    - matrices (the unthresholded class-conditional full view) lie side by
      side, so column s·K + k is set s's class k;
    - single pools of one size (the unthresholded pooled full view and the
      pooled max-prob view) are the columns of an (entries, S) matrix;
    - any other view lists the sets' entries end to end, with pool labels.
    """
    if len(parts) == 1:
        return parts[0]
    n_sets, first = len(parts), parts[0]
    if first.scores.ndim == 2:
        k = first.n_pools
        hits = [v.hits // k * (n_sets * k) + s * k + v.hits % k for s, v in enumerate(parts)]
        return PooledScores(np.hstack([v.scores for v in parts]), np.concatenate(hits),
                            None, n_sets * k)
    if first.pools is None and (cfg.max_probs or cfg.threshold == 0.0):
        hits = [v.hits * n_sets + s for s, v in enumerate(parts)]
        return PooledScores(np.stack([v.scores for v in parts], axis=1), np.concatenate(hits),
                            None, n_sets)
    sizes = [v.scores.size for v in parts]
    offsets = np.cumsum([0] + sizes[:-1]).tolist()
    pools = [np.full(v.scores.size, s) if v.pools is None else v.pools + s * first.n_pools
             for s, v in enumerate(parts)]
    return PooledScores(
        np.concatenate([v.scores for v in parts]),
        np.concatenate([v.hits + off for v, off in zip(parts, offsets)]),
        np.concatenate(pools),
        n_sets * first.n_pools,
    )


def _grid_scores(
    view: PooledScores,
    n_sets: int,
    configs: Sequence[MetricConfig],
    bins: tuple[int, ...],
    totals: tuple[np.ndarray, np.ndarray, np.ndarray],
    classes: bool = False,
) -> tuple[list[list[float]], list[list[dict]] | None]:
    """Each config's score on each of the view's sets, from its :func:`calerr.binning.bin_totals`.

    ``view`` stacks ``n_sets`` sets of equally many pools, and ``totals``
    covers the bin counts ``bins`` of the configs' one bin kind.  Returns
    the scores, set by set and config by config, and for class-conditional
    configs, if ``classes`` (asked of one set only), each score's errors by
    live class (else None).
    Pool errors and class means are taken for the whole grid at once, and
    keep the bits of a pool-by-pool sum: padded bins add +0.0 to
    non-negative terms, and both sums are ``cumsum``, which adds left to
    right.  A class with no entries in one set but some in another has the
    error +0.0 in the first, so it adds nothing to that set's class mean,
    whose divisor counts only the set's live classes.
    """
    conditional = configs[0].class_conditional  # the same for every config of a view
    counts, conf_sums, correct_sums = [
        t.reshape(len(bins), n_sets, -1, t.shape[-1]) for t in totals]
    if conditional:
        live = view.sizes.reshape(n_sets, -1) > 0  # empty classes leave the mean
        n_live = np.add.reduce(live, axis=1)
        kept = np.flatnonzero(np.logical_or.reduce(live))
        # Classes empty in every set are dropped.  With every class live (the
        # usual case at small K) the pools are used as they are: indexing them
        # would cost more than it saves.
        if len(kept) < live.shape[1]:
            counts, conf_sums, correct_sums = [
                t[:, :, kept] for t in (counts, conf_sums, correct_sums)]
    occupied = np.maximum(counts, 1)
    gaps = correct_sums / occupied
    gaps -= conf_sums / occupied
    del occupied
    weights = counts / np.maximum(counts.sum(axis=-1, keepdims=True), 1)
    rows = {}  # norm -> (score by set and bin count, (live classes, errors by bin count))
    for norm in dict.fromkeys(cfg.norm for cfg in configs):
        terms = np.abs(gaps) if norm == "l1" else gaps * gaps
        terms *= weights
        # cumsum adds the bins strictly left to right, like a Python loop
        # would; a plain sum's pairwise blocking would move the last digit.
        errors = np.cumsum(terms, axis=-1, out=terms)[..., -1]  # (bin count, set, pool)
        if norm == "l2":
            errors = np.sqrt(errors)
        if conditional:
            scores = np.cumsum(errors, axis=-1)[..., -1] / n_live
        else:
            scores = errors[..., 0]
        # One set's live classes are the kept ones.
        by_class = (kept.tolist(), errors[:, 0].tolist()) if classes and conditional else None
        rows[norm] = scores.T.tolist(), by_class
    column = {b: j for j, b in enumerate(bins)}
    at = [(rows[cfg.norm], column[cfg.binning.n_bins]) for cfg in configs]
    values = [[scores[s][j] for (scores, _), j in at] for s in range(n_sets)]
    if not (classes and conditional):
        return values, None
    return values, [[dict(zip(by_class[0], by_class[1][j])) for (_, by_class), j in at]]


def brier_score(p: PredictionSet) -> float:
    """Mean squared distance between probability rows and one-hot labels."""
    onehot = np.zeros_like(p.probs)
    onehot[np.arange(p.n_points), p.labels] = 1.0
    return float(np.mean(np.sum((p.probs - onehot) ** 2, axis=1)))
