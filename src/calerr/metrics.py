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

Scoring runs on arrays.  :func:`gce_many` scores a list of configs in one
pass.  It groups the configs by score view and then by bin kind.  Each
distinct view is split into pools once (a
:class:`calerr.binning.PooledScores`, sorted at most once) and dropped once
its configs are scored.  One :func:`calerr.binning.bin_totals` call per
(view, kind) reduces it to per-(bin count, pool, bin) counts, confidence
sums and correct counts for every bin count its configs ask for, shared
across norms.  Pool errors and class means are then array operations over
that whole grid, one per norm, over the classes that hold entries.  Both
sums run left to right (``cumsum``), so each score has the bits of a
pool-by-pool Python sum.  :func:`gce` is the one-config case, and
:func:`gce_with_bins` returns the score with the totals formatted as
:class:`BinStats`; both run the same path.
"""

from __future__ import annotations

import dataclasses
import itertools
import numbers
from typing import Mapping, Sequence

import numpy as np

from .binning import (
    BIN_KINDS,
    DEFAULT_BINS,
    BinScheme,
    BinStats,
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
) -> tuple[CalibrationScore, list[BinStats]]:
    """``gce(p, cfg)`` and the per-bin stats it aggregates, from one view.

    Class-conditional bins carry their class; a class that the threshold
    empties contributes one zero-count placeholder bin spanning [0, 1].
    """
    view = _pooled_view(p, cfg)
    bins = (cfg.binning.n_bins,)
    if cfg.binning.kind == "adaptive" and view.pools is None and view.scores.ndim == 1:
        view.sorted_scores  # the edges read it; made first, the keys read it too
    totals = bin_totals(view, cfg.binning.kind, bins)
    out: list[BinStats] = []
    for k, pool in enumerate(pool_bin_stats(view, cfg.binning, [t[0] for t in totals])):
        if cfg.class_conditional and not any(st.count for st in pool):
            out.append(BinStats(0.0, 1.0, 0, 0.0, 0.0, class_index=k))
        else:
            out.extend(pool)
    return _grid_scores(view, [cfg], bins, totals)[0], out


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

    Configs that agree on max_probs, class_conditional and the threshold (a
    max-prob view ignores it) share one score view and its sort; views are
    built in the order of their first configs, and each is dropped once its
    configs are scored.  All bin counts of one kind share one
    :func:`calerr.binning.bin_totals` call, and l1 and l2 its totals.  Each
    score equals ``gce(p, cfg)`` bit for bit.
    """
    groups: dict[tuple, dict[str, list[int]]] = {}
    for i, cfg in enumerate(configs):
        key = (cfg.max_probs, cfg.class_conditional, 0.0 if cfg.max_probs else cfg.threshold)
        groups.setdefault(key, {}).setdefault(cfg.binning.kind, []).append(i)
    out: list[CalibrationScore] = [None] * len(configs)
    for kinds in groups.values():
        _score_view(p, configs, kinds, out)
    return out


def _score_view(
    p: PredictionSet,
    configs: Sequence[MetricConfig],
    kinds: dict[str, list[int]],
    out: list[CalibrationScore],
) -> None:
    """Score ``configs[i]`` into ``out[i]`` for each listed i, all of one view.

    ``kinds`` maps a bin kind to the positions of its configs; any of them
    builds the view.  The view, and the sort it caches, are freed when this
    returns.
    """
    view = _pooled_view(p, configs[next(iter(kinds.values()))[0]])
    for kind, positions in kinds.items():
        group = [configs[i] for i in positions]
        bins = tuple(dict.fromkeys(cfg.binning.n_bins for cfg in group))
        scores = _grid_scores(view, group, bins, bin_totals(view, kind, bins))
        for i, score in zip(positions, scores):
            out[i] = score


def _grid_scores(
    view: PooledScores,
    configs: Sequence[MetricConfig],
    bins: tuple[int, ...],
    totals: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[CalibrationScore]:
    """Each config's score from its view's :func:`calerr.binning.bin_totals`.

    ``totals`` covers the bin counts ``bins`` of the configs' one bin kind.
    Pool errors and class means are taken for the whole grid at once, and
    keep the bits of a pool-by-pool sum: padded bins add +0.0 to non-negative
    terms, and both sums are ``cumsum``, which adds left to right.
    """
    conditional = configs[0].class_conditional  # the same for every config of a view
    if conditional:
        live = np.flatnonzero(view.sizes)  # empty classes leave the mean
        # With every class live (the usual case at small K) the pools are used
        # as they are: indexing them would cost more than it saves.
        if len(live) < view.n_pools:
            totals = tuple(t[:, live] for t in totals)
        classes = live.tolist()
    counts, conf_sums, correct_sums = totals
    occupied = np.maximum(counts, 1)
    gaps = correct_sums / occupied - conf_sums / occupied
    weights = counts / np.maximum(counts.sum(axis=-1, keepdims=True), 1)
    rows = {}  # norm -> (score, pool errors) of each bin count, as lists
    for norm in dict.fromkeys(cfg.norm for cfg in configs):
        terms = weights * (np.abs(gaps) if norm == "l1" else gaps * gaps)
        # cumsum adds the bins strictly left to right, like a Python loop
        # would; a plain sum's pairwise blocking would move the last digit.
        errors = np.cumsum(terms, axis=-1)[..., -1]
        if norm == "l2":
            errors = np.sqrt(errors)
        if conditional:
            means = np.cumsum(errors, axis=-1)[:, -1] / len(classes)
            rows[norm] = means.tolist(), errors.tolist()
        else:
            rows[norm] = errors[:, 0].tolist(), None
    column = {b: j for j, b in enumerate(bins)}
    out = []
    for cfg in configs:
        values, errors = rows[cfg.norm]
        j = column[cfg.binning.n_bins]
        per_class = dict(zip(classes, errors[j])) if conditional else None
        out.append(CalibrationScore(values[j], cfg, per_class))
    return out


def brier_score(p: PredictionSet) -> float:
    """Mean squared distance between probability rows and one-hot labels."""
    onehot = np.zeros_like(p.probs)
    onehot[np.arange(p.n_points), p.labels] = 1.0
    return float(np.mean(np.sum((p.probs - onehot) ** 2, axis=1)))
