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
pass: each distinct score view is split into pools (a
:class:`calerr.binning.PooledScores`, sorted at most once) and reduced by
:func:`calerr.binning.bin_totals` to per-(pool, bin) counts, confidence
sums and correct counts, shared across norms.  Pool errors and the class
mean are array operations on those totals, over the classes that hold
entries; :func:`gce` is the one-config case, :func:`binned_stats` formats
the totals as :class:`BinStats`, and :func:`gce_with_bins` returns both
from one view and one set of totals.
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


def binned_stats(p: PredictionSet, cfg: MetricConfig) -> list[BinStats]:
    """The exact per-bin stats the metric aggregates, class-tagged if conditional.

    Class-conditional configs emit each class's bins tagged with that class.
    A class whose pool is empty after thresholding contributes a single
    zero-count placeholder bin spanning [0, 1] so downstream consumers see
    the class flagged rather than silently missing.
    """
    return gce_with_bins(p, cfg)[1]


def gce_with_bins(
    p: PredictionSet, cfg: MetricConfig
) -> tuple[CalibrationScore, list[BinStats]]:
    """``(gce(p, cfg), binned_stats(p, cfg))`` from one view and its bin totals."""
    view = _pooled_view(p, cfg)
    totals = bin_totals(view, cfg.binning)
    out: list[BinStats] = []
    for k, pool in enumerate(pool_bin_stats(view, cfg.binning, totals)):
        if cfg.class_conditional and not any(st.count for st in pool):
            out.append(BinStats(0.0, 1.0, 0, 0.0, 0.0, class_index=k))
        else:
            out.extend(pool)
    return _score(cfg, totals), out


def _pool_errors(
    counts: np.ndarray, conf_sums: np.ndarray, correct_sums: np.ndarray, norm: str
) -> np.ndarray:
    """Binned error of each pool (row) of per-(pool, bin) totals; 0 if empty."""
    occupied = np.maximum(counts, 1)
    gaps = correct_sums / occupied - conf_sums / occupied
    weights = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    terms = weights * (np.abs(gaps) if norm == "l1" else gaps * gaps)
    # cumsum adds the bins strictly left to right, like a Python loop would;
    # a plain sum's pairwise blocking would move the last digit.
    errors = np.cumsum(terms, axis=1)[:, -1]
    return errors if norm == "l1" else np.sqrt(errors)


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
    max-prob view ignores it) share one score view and its sort; l1 and l2
    share bin totals.  Each score equals ``gce(p, cfg)`` bit for bit.
    """
    views, totals, out = {}, {}, []
    for cfg in configs:
        key = (cfg.max_probs, cfg.class_conditional, 0.0 if cfg.max_probs else cfg.threshold)
        if key not in views:
            views[key] = _pooled_view(p, cfg)
        if (key, cfg.binning) not in totals:
            totals[key, cfg.binning] = bin_totals(views[key], cfg.binning)
        out.append(_score(cfg, totals[key, cfg.binning]))
    return out


def _score(
    cfg: MetricConfig, totals: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> CalibrationScore:
    """The config's score from its view's per-(pool, bin) totals."""
    if not cfg.class_conditional:
        return CalibrationScore(float(_pool_errors(*totals, cfg.norm)[0]), cfg)
    counts = totals[0]
    live = np.flatnonzero(counts.any(axis=1))  # empty classes leave the mean
    # With every class live (the usual case at small K) the rows are used as
    # they are: indexing them would cost more than it saves.
    if len(live) < len(counts):
        totals = tuple(t[live] for t in totals)
    errors = _pool_errors(*totals, cfg.norm)
    per_class = dict(zip(live.tolist(), errors.tolist()))
    value = sum(per_class.values()) / len(per_class)
    return CalibrationScore(value=value, config=cfg, per_class=per_class)


def brier_score(p: PredictionSet) -> float:
    """Mean squared distance between probability rows and one-hot labels."""
    onehot = np.zeros_like(p.probs)
    onehot[np.arange(p.n_points), p.labels] = 1.0
    return float(np.mean(np.sum((p.probs - onehot) ** 2, axis=1)))
