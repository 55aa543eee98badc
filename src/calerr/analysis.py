"""Experimental harnesses built on the metric engine.

Covers: rank correlation between metric orderings, sensitivity of method
rankings to the bin count, rank-ordering tables of recalibrators across all
32 metric variants, a label-noise simulation on synthetic Gaussian blobs,
and the two-bin cancellation pathology.
Everything here returns plain data (arrays, dataclasses); rendering is out
of scope.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from .binning import DEFAULT_BINS
from .metrics import AXES, MetricConfig, all_configs, gce_table, named_metric
from .optimize import SgdConfig, sgd_minimize
from .predictions import LogitSet, PredictionSet, max_prob_view, row_softmax
from .recalibrate import (
    BOOTSTRAP_RESAMPLES,
    HISTOGRAM_BINS,
    linear_objective,
    linear_probs,
    run_recalibrator,
)

DEFAULT_SWEEP_BINS = (10, 20, 30, 40, 50)
RANK_VARIANTS = ("spearman", "footrule")


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, lowest value first; ties share the average position; NaN raises.

    An array of more than one axis is ranked along its last axis, each row
    on its own.
    """
    v = np.asarray(values, dtype=float)
    if np.isnan(v).any():
        raise ValueError("cannot rank NaN values")
    order = np.argsort(v, axis=-1, kind="stable")
    s = np.take_along_axis(v, order, axis=-1)
    # Sorted position i lies in a run of equal values at positions
    # [starts[i], ends[i]), which shares their mean.
    at = np.arange(v.shape[-1])
    first = np.ones(s.shape, dtype=bool)
    first[..., 1:] = s[..., 1:] != s[..., :-1]
    last = np.roll(first, -1, axis=-1)
    last[..., -1:] = True
    starts = np.maximum.accumulate(np.where(first, at, 0), axis=-1)
    ends = np.minimum.accumulate(np.where(last, at + 1, at.size)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(v.shape)
    np.put_along_axis(ranks, order, (starts + 1 + ends) / 2.0, axis=-1)
    return ranks


def rank_correlation(r1, r2, variant: str = "spearman") -> float:
    """Agreement between two rankings of the same n items, in [-1, 1].

    ``spearman`` uses squared rank differences, 1 - 6 sum(d^2) / (n(n^2-1)).
    ``footrule`` replaces d^2 with |d|; it is not Spearman's coefficient (a
    full reversal gives 0, not -1) but is provided as a labeled alternative
    reading of the same normalization.
    """
    if variant not in RANK_VARIANTS:
        raise ValueError(f"variant must be one of {RANK_VARIANTS}, got {variant!r}")
    a = np.asarray(r1, dtype=float)
    b = np.asarray(r2, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ValueError(
            f"rank vectors must be equal-length 1-D with n >= 2, got shapes "
            f"{a.shape} and {b.shape}"
        )
    return float(_correlations(a, b, variant))


def _correlations(a: np.ndarray, b: np.ndarray, variant: str) -> np.ndarray:
    """:func:`rank_correlation` of each pair of rows of ``a`` and ``b`` (last axis)."""
    n = a.shape[-1]
    d = a - b
    magnitude = np.sum(d * d if variant == "spearman" else np.abs(d), axis=-1)
    return 1.0 - 6.0 * magnitude / (n * (n * n - 1))


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Scores and rank stability of methods across bin counts.

    ``scores[i, j, m]`` is metric variant i at bin count ``bins[j]`` on
    method m; ``ranks`` holds the corresponding fractional rank vectors.
    ``mean_pairwise_correlation[i]`` averages the rank correlation over all
    bin-count pairs for variant i, and ``group_correlation`` averages those
    per axis value (e.g. all even-binning variants vs all adaptive ones).
    """

    bins: tuple[int, ...]
    method_names: tuple[str, ...]
    scores: np.ndarray
    ranks: np.ndarray
    mean_pairwise_correlation: np.ndarray
    group_correlation: dict[str, dict[str, float]]
    variant: str
    baseline_scores: np.ndarray | None = None


def bin_sensitivity_sweep(
    p: PredictionSet | None,
    recalibrated: Sequence[PredictionSet],
    bins: Sequence[int] = DEFAULT_SWEEP_BINS,
    method_names: Sequence[str] | None = None,
    variant: str = "spearman",
) -> SweepResult:
    """How stable is each metric variant's method ranking as bins change?

    Every variant scores every recalibrated set at every bin count; rankings
    at different bin counts are compared pairwise.  ``p`` (the uncalibrated
    set) is optional and only adds a baseline score column.  With a single
    bin count the pairwise set is empty and correlations are vacuously 1.
    """
    if len(recalibrated) < 2:
        raise ValueError(
            f"need at least 2 recalibrated sets to rank, got {len(recalibrated)}"
        )
    if len(bins) == 0:
        raise ValueError("bins list must be non-empty")
    if method_names is None:
        method_names = tuple(f"method_{m}" for m in range(len(recalibrated)))
    elif len(method_names) != len(recalibrated):
        raise ValueError("method_names must parallel the recalibrated sets")
    configs = [cfg for b in bins for cfg in all_configs(b)]
    sets = [*recalibrated, *([p] if p is not None else [])]
    # (set, bin count, variant) -> (variant, bin count, set)
    table = gce_table(sets, configs).reshape(len(sets), len(bins), -1).transpose(2, 1, 0)
    scores = np.ascontiguousarray(table[:, :, :len(recalibrated)])
    baseline = table[:, :, -1].copy() if p is not None else None
    ranks = average_ranks(scores)
    first, second = np.triu_indices(len(bins), 1)  # every pair of bin counts
    if first.size:
        # Row by row: a 1-D mean sums pairwise, a mean along an axis in order.
        correlations = _correlations(ranks[:, first], ranks[:, second], variant)
        mean_corr = np.array([np.mean(row) for row in correlations])
    else:
        mean_corr = np.ones(len(ranks))

    group: dict[str, dict[str, float]] = {}
    axis_tuples = [cfg.axis_tuple() for cfg in all_configs()]
    for pos, (axis, axis_values) in enumerate(AXES.items()):
        group[axis] = {
            str(v): float(np.mean(
                [c for c, axes in zip(mean_corr, axis_tuples) if axes[pos] == v]
            ))
            for v in sorted(axis_values, key=repr)
        }

    return SweepResult(
        bins=tuple(int(b) for b in bins),
        method_names=tuple(method_names),
        scores=scores,
        ranks=ranks,
        mean_pairwise_correlation=mean_corr,
        group_correlation=group,
        variant=variant,
        baseline_scores=baseline,
    )


@dataclasses.dataclass(frozen=True)
class RankTable:
    """Method orderings per metric variant, Table-style.

    ``order[c]`` lists method names best-first under config c; ``rows()``
    transposes that into printable rows, one per rank position.
    """

    methods: tuple[str, ...]
    configs: tuple[MetricConfig, ...]
    scores: np.ndarray
    ranks: np.ndarray
    order: tuple[tuple[str, ...], ...]

    def rows(self) -> list[list[str]]:
        return [
            [self.order[c][r] for c in range(len(self.configs))]
            for r in range(len(self.methods))
        ]


def rank_methods(
    recalibrated: Mapping[str, PredictionSet],
    configs: Sequence[MetricConfig] | None = None,
    n_bins: int = DEFAULT_BINS,
) -> RankTable:
    """Rank recalibration methods under every metric variant.

    Rows of the resulting table are rank positions (first = lowest error),
    columns are the metric variants (defaults to all 32 in index order).
    Ties get fractional ranks in ``ranks``; the printable ``order`` breaks
    them by method insertion order.
    """
    methods = tuple(recalibrated.keys())
    if len(methods) < 2:
        raise ValueError(f"need at least 2 methods to rank, got {len(methods)}")
    if configs is None:
        configs = all_configs(n_bins)
    configs = tuple(configs)
    if not configs:
        raise ValueError("configs list must be non-empty")
    scores = gce_table([recalibrated[name] for name in methods], configs)
    ranks = average_ranks(scores.T).T
    best_first = np.argsort(scores, axis=0, kind="stable").T
    order = tuple(tuple(methods[m] for m in column) for column in best_first)
    return RankTable(
        methods=methods, configs=configs, scores=scores, ranks=ranks, order=order
    )


# ---------------------------------------------------------------------------
# Label-noise simulation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class NoiseLevelResult:
    """Measurements at one label-noise level."""

    noise: float
    accuracy: float
    mean_max_confidence: float
    ece: float
    sce: float
    ace: float
    omitted_fraction: float


def _corrupt_labels(
    labels: np.ndarray, level: float, n_classes: int, rng: np.random.Generator
) -> np.ndarray:
    """Reassign a `level` fraction of labels uniformly over all classes.

    The correct label stays a possible assignment, so the effective error
    rate is level * (K-1) / K.
    """
    out = labels.copy()
    hit = rng.random(labels.shape[0]) < level
    out[hit] = rng.integers(0, n_classes, int(hit.sum()))
    return out


def label_noise_experiment(
    seed: int = 0,
    levels: Sequence[float] | None = None,
    n_train: int = 6000,
    n_test: int = 1000,
    n_classes: int = 10,
    n_features: int = 64,
    mean_radius: float = 4.0,
    threshold: float = 0.01,
    n_bins: int = DEFAULT_BINS,
    train_iterations: int = 150,
) -> list[NoiseLevelResult]:
    """Retrain a classifier under increasing label noise and measure drift.

    The task is synthetic: class means drawn on a sphere of radius
    ``mean_radius`` in ``n_features`` dimensions, unit-covariance Gaussian
    blobs around them, sized so the clean task is solved at ~0.97 accuracy
    by multinomial logistic regression (trained full-batch with Nesterov
    momentum).  Noise at level q rewrites a q fraction of both train and
    test labels uniformly over all classes.  Per level this records
    accuracy, mean max confidence, the standard even/class/adaptive error
    scores, and the fraction of non-max probabilities above ``threshold``
    (the share of "omitted" predictions a max-prob metric never sees).

    Bit-reproducible for a fixed seed.
    """
    if levels is None:
        levels = np.linspace(0.0, 0.05, 40)
    levels = [float(q) for q in levels]
    if not levels:
        raise ValueError("need at least one noise level")
    if any(not 0.0 <= q <= 1.0 for q in levels):
        raise ValueError("noise levels must lie in [0, 1]")
    for name, size in (("n_train", n_train), ("n_test", n_test)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")

    root = np.random.SeedSequence(seed)
    children = root.spawn(1 + len(levels))
    data_rng = np.random.default_rng(children[0])

    means = data_rng.standard_normal((n_classes, n_features))
    means *= mean_radius / np.linalg.norm(means, axis=1, keepdims=True)
    y_train = data_rng.integers(0, n_classes, n_train)
    x_train = means[y_train] + data_rng.standard_normal((n_train, n_features))
    y_test = data_rng.integers(0, n_classes, n_test)
    x_test = means[y_test] + data_rng.standard_normal((n_test, n_features))

    named = [named_metric(name, n_bins) for name in ("ECE", "SCE", "ACE")]

    sets, rows = [], []
    for idx, level in enumerate(levels):
        rng = np.random.default_rng(children[1 + idx])
        yt = _corrupt_labels(y_train, level, n_classes, rng)
        ye = _corrupt_labels(y_test, level, n_classes, rng)

        params = sgd_minimize(
            linear_objective(x_train, yt, n_classes),
            np.zeros(n_classes * n_features + n_classes),
            SgdConfig(learning_rate=0.05, momentum=0.9, nesterov=True,
                      iterations=train_iterations),
        )
        probs = linear_probs(params, x_test, n_classes)
        p = PredictionSet(probs, ye)

        view = max_prob_view(p)
        non_max = np.ones_like(probs, dtype=bool)
        non_max[np.arange(n_test), view.class_index] = False
        omitted = float(np.count_nonzero(probs[non_max] > threshold) / non_max.sum())
        sets.append(p)
        rows.append((level, float(np.mean(view.correct)), float(np.mean(view.scores)), omitted))

    scores = gce_table(sets, named).tolist()
    return [
        NoiseLevelResult(
            noise=level,
            accuracy=accuracy,
            mean_max_confidence=confidence,
            ece=ece,
            sce=sce,
            ace=ace,
            omitted_fraction=omitted,
        )
        for (level, accuracy, confidence, omitted), (ece, sce, ace) in zip(rows, scores)
    ]


# ---------------------------------------------------------------------------
# The cancellation pathology
# ---------------------------------------------------------------------------

def make_pathology(
    n_wrong: int = 450,
    p_wrong: float = 0.52,
    n_right: int = 550,
    p_right: float = 0.58,
) -> PredictionSet:
    """Two-class set where over- and under-confidence cancel in coarse bins.

    ``n_wrong`` points predict class 0 at ``p_wrong`` but belong to class 1;
    ``n_right`` points predict class 0 at ``p_right`` and are correct.  Both
    probabilities must exceed 0.5 so class 0 is the max-prob class.  At 10
    even bins both groups share one bin and the gaps nearly cancel; at 50
    bins they separate and the true miscalibration appears.
    """
    for name, value in (("p_wrong", p_wrong), ("p_right", p_right)):
        if not 0.5 < value < 1.0:
            raise ValueError(f"{name} must lie in (0.5, 1), got {value}")
    if n_wrong < 0 or n_right < 0 or n_wrong + n_right < 1:
        raise ValueError("need a non-negative split with at least one point")
    probs = np.concatenate(
        [
            np.tile([p_wrong, 1.0 - p_wrong], (n_wrong, 1)),
            np.tile([p_right, 1.0 - p_right], (n_right, 1)),
        ]
    )
    labels = np.concatenate(
        [np.ones(n_wrong, dtype=int), np.zeros(n_right, dtype=int)]
    )
    return PredictionSet(probs, labels)


# ---------------------------------------------------------------------------
# Synthetic fixtures shared by the harnesses and the CLI
# ---------------------------------------------------------------------------

def _sample_labels(rng: np.random.Generator, z: np.ndarray, miscalibration: float) -> np.ndarray:
    """One label per row of ``z``, drawn from softmax(z / miscalibration)."""
    true_probs = row_softmax(z / miscalibration)
    u = rng.random(z.shape[0])
    labels = (u[:, None] > np.cumsum(true_probs, axis=1)).sum(axis=1)
    return np.minimum(labels, z.shape[1] - 1)


def sample_overconfident_logits(
    n: int,
    k: int,
    seed: int,
    miscalibration: float = 2.0,
    sharpness: float = 2.0,
) -> LogitSet:
    """Logits whose labels are sampled from softmax(z / miscalibration).

    With miscalibration > 1 the displayed logits are sharper than the label
    distribution, so the NLL-optimal temperature equals ``miscalibration``
    in the large-N limit.
    """
    rng = np.random.default_rng(seed)
    z = sharpness * rng.standard_normal((n, k))
    return LogitSet(z, _sample_labels(rng, z, miscalibration))


def sample_mixed_difficulty_logits(
    n: int,
    k: int,
    seed: int,
    miscalibration: float = 4.0,
    margin_loc: float = 4.0,
    margin_scale: float = 4.0,
    hard_fraction: float = 0.3,
) -> LogitSet:
    """Overconfident logits with a hard sub-population of small margins.

    Each row is standard-normal noise plus a positive margin on one random
    class, so max-prob confidence spans the whole unit interval instead of
    piling up near 1.  A ``hard_fraction`` of rows gets its margin quartered,
    which thickens the mid-confidence region; labels are sampled from
    softmax(z / miscalibration) so the displayed logits are overconfident.
    Spread-out confidences are the regime where equal-count bins keep stable
    content as the bin count grows while fixed-width bins go sparse.
    """
    if not 0.0 <= hard_fraction <= 1.0:
        raise ValueError(f"hard_fraction must lie in [0, 1], got {hard_fraction}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k))
    top = rng.integers(0, k, n)
    margins = margin_loc + margin_scale * np.abs(rng.standard_normal(n))
    margins[rng.random(n) < hard_fraction] *= 0.25
    z[np.arange(n), top] += margins
    return LogitSet(z, _sample_labels(rng, z, miscalibration))


# The standard battery: (output name, method, overrides of recalibrate_suite's options).
SUITE = (
    ("histogram", "histogram", {}),
    ("bootstrap-histogram", "bootstrap-histogram", {}),
    ("isotonic", "isotonic", {}),
    ("temperature-gce", "temperature", {"objective": "gce"}),
    ("temperature-nll", "temperature", {"objective": "nll"}),
    ("vector", "vector", {}),
    ("matrix", "matrix", {}),
    ("mlp", "mlp", {}),
)


def recalibrate_suite(
    fit_half: LogitSet,
    eval_half: LogitSet,
    seed: int = 0,
    n_bins: int = HISTOGRAM_BINS,
    bootstrap: int = BOOTSTRAP_RESAMPLES,
) -> dict[str, PredictionSet]:
    """Fit the :data:`SUITE` battery of eight methods; apply it to the eval half."""
    return {
        name: run_recalibrator(
            method, fit_half, eval_half, n_bins=n_bins, bootstrap=bootstrap,
            seed=seed, **overrides,
        )[1]
        for name, method, overrides in SUITE
    }
