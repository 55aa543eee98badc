"""Command-line surface: measure, recalibrate, sweep-bins, rank-methods,
label-noise, reliability, pathology.

Exit codes: 0 success, 1 data or convergence failure, 2 usage error.  Every
command is deterministic for a fixed --seed (default 0); no command reads
wall-clock entropy or writes timestamps.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .analysis import (
    DEFAULT_SWEEP_BINS,
    RANK_VARIANTS,
    bin_sensitivity_sweep,
    label_noise_experiment,
    make_pathology,
    rank_methods,
)
from .binning import DEFAULT_BINS
from .metrics import (
    AXES,
    NAMED_METRICS,
    MetricConfig,
    all_configs,
    gce_many,
    gce_table,
    gce_with_bins,
    metric_index,
)
from .optimize import DivergenceError
from .predictions import LogitSet, PredictionSet, as_probs, split_validation
from .recalibrate import (
    BOOTSTRAP_RESAMPLES,
    EMPTY_BIN_FALLBACKS,
    HISTOGRAM_BINS,
    RECALIBRATORS,
    TEMPERATURE_OBJECTIVES,
    TemperatureModel,
    model_to_dict,
    run_recalibrator,
)
from .io import (
    RunConfig,
    bin_stats_rows,
    BIN_STATS_HEADER,
    format_float,
    read_prediction_file,
    read_run_config,
    render_rows,
    write_json,
    write_prediction_file,
    write_table,
)

class UsageError(Exception):
    """Bad invocation detected after argparse (maps to exit code 2)."""


def _add_metric_flags(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("metric axes")
    g.add_argument("--named", choices=sorted(NAMED_METRICS),
                   help="use a named metric instead of individual axes")
    g.add_argument("--binning", choices=AXES["binning"],
                   help="bin placement (default even)")
    g.add_argument("--bins", type=int, default=None,
                   help=f"bin count (default {DEFAULT_BINS})")
    g.add_argument("--max-probs", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="score only each datapoint's top probability "
                        "(default on)")
    g.add_argument("--class-conditional", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="bin per class and average (default off)")
    g.add_argument("--threshold", type=float, default=None,
                   help="drop full-view entries with score <= threshold "
                        "(default 0, i.e. keep all)")
    g.add_argument("--norm", choices=AXES["norm"],
                   help="per-pool aggregation (default l1)")
    g.add_argument("--config", metavar="JSON",
                   help="run-config JSON file; explicit flags override it")


def _resolve_metric(args) -> MetricConfig:
    base = read_run_config(args.config) if args.config else RunConfig()
    if args.named is not None:
        base.named = args.named
    else:
        for field in AXES:
            value = getattr(args, field)
            if value is not None:
                base.named = None
                setattr(base, field, value)
    if args.bins is not None:
        base.bins = args.bins
    return base.metric_config()


def _grid_index(cfg: MetricConfig) -> int | None:
    """The config's metric index, or None for a threshold off the standard grid."""
    try:
        return metric_index(cfg)
    except ValueError:
        return None


def _parse_named_inputs(pairs: list[str], command: str) -> dict[str, PredictionSet]:
    out: dict[str, PredictionSet] = {}
    for pair in pairs:
        name, _, path = pair.partition("=")
        if not name or not path:
            raise UsageError(f"input {pair!r} must look like name=path")
        if name in out:
            raise UsageError(f"duplicate input name {name!r}")
        out[name] = read_prediction_file(path, logits=False)
    if len(out) < 2:
        raise UsageError(f"{command} needs at least 2 name=path inputs")
    return out


ALL_32_HEADER = ["index", *AXES, "bins", "score"]


def _write_report(path: str, header: list[str], rows: list, doc) -> None:
    """``doc`` as JSON when ``path`` ends in .json, else ``rows`` as CSV."""
    if path.endswith(".json"):
        write_json(path, doc)
    else:
        write_table(path, header, rows)


def cmd_measure(args) -> int:
    if args.all_32:
        for field in ("named", *AXES):
            value = getattr(args, field)
            if value is not None:
                flag = ("--no-" if value is False else "--") + field.replace("_", "-")
                raise UsageError(f"--all-32 takes only --bins and --config, not {flag}")
    p = as_probs(read_prediction_file(args.predictions, logits=args.logits))
    cfg = _resolve_metric(args)
    if args.all_32:
        bins = cfg.binning.n_bins
        rows = [
            [i, *score.config.axis_tuple(), bins, score.value]
            for i, score in enumerate(gce_many(p, all_configs(bins)))
        ]
        print(render_rows(rows), end="")
        if args.output:
            doc = [dict(zip(ALL_32_HEADER, row)) for row in rows]
            _write_report(args.output, ALL_32_HEADER, rows, doc)
        return 0
    score, table = gce_with_bins(p, cfg)
    rows = bin_stats_rows(table)
    index = _grid_index(cfg)
    index_note = "" if index is None else f"index={index} "
    print(f"metric: {index_note}{cfg.label()} bins={cfg.binning.n_bins}")
    print(f"score: {format_float(score.value)}")
    print(render_rows([BIN_STATS_HEADER, *rows]), end="")
    if args.output:
        doc = {
            "config": dict(zip(AXES, cfg.axis_tuple())),
            "bins": cfg.binning.n_bins,
            "score": score.value,
            "per_class": score.per_class,
            "bin_stats": [dict(zip(BIN_STATS_HEADER, row)) for row in rows],
        }
        _write_report(args.output, BIN_STATS_HEADER, rows, doc)
    return 0


def cmd_recalibrate(args) -> int:
    data = read_prediction_file(args.predictions, logits=args.logits)
    if RECALIBRATORS[args.method].logits and not isinstance(data, LogitSet):
        raise UsageError(
            f"method {args.method!r} requires logits input; pass --logits "
            "with a logit-valued file"
        )
    fit_half, eval_half = split_validation(data)
    eval_probs = as_probs(eval_half)
    report_cfg = _resolve_metric(args)
    model, after = run_recalibrator(
        args.method, fit_half, eval_half, n_bins=args.histogram_bins,
        bootstrap=args.bootstrap, seed=args.seed, empty_bin=args.empty_bin,
        objective=args.objective, metric=report_cfg,
    )
    if isinstance(model, TemperatureModel):
        print(f"temperature: {format_float(model.temperature)} "
              f"converged: {model.converged}")

    before_score, after_score = gce_table([eval_probs, after], [report_cfg])[:, 0].tolist()
    print(f"before: {format_float(before_score)}")
    print(f"after: {format_float(after_score)}")

    prefix = args.output_prefix
    write_prediction_file(f"{prefix}.recalibrated.csv", after)
    write_json(f"{prefix}.model.json", model_to_dict(model))
    write_json(
        f"{prefix}.report.json",
        {
            "method": args.method,
            "seed": args.seed,
            "metric": {
                "index": _grid_index(report_cfg),
                "label": report_cfg.label(),
                "bins": report_cfg.binning.n_bins,
            },
            "before": before_score,
            "after": after_score,
            "fit_points": fit_half.n_points,
            "eval_points": eval_half.n_points,
        },
    )
    return 0


def cmd_sweep_bins(args) -> int:
    inputs = _parse_named_inputs(args.inputs, "sweep-bins")
    baseline = (
        read_prediction_file(args.uncalibrated) if args.uncalibrated else None
    )
    result = bin_sensitivity_sweep(
        baseline,
        list(inputs.values()),
        bins=args.bins,
        method_names=list(inputs.keys()),
        variant=args.variant,
    )
    rows = []
    for i, cfg in enumerate(all_configs()):
        for j, b in enumerate(result.bins):
            for m, name in enumerate(result.method_names):
                rows.append([i, *cfg.axis_tuple(), b, name, result.scores[i, j, m]])
            if result.baseline_scores is not None:
                rows.append(
                    [i, *cfg.axis_tuple(), b, "(uncalibrated)", result.baseline_scores[i, j]]
                )
    header = ["index", *AXES, "bin_count", "method", "score"]
    write_table(f"{args.output_prefix}.cells.csv", header, rows)
    write_json(
        f"{args.output_prefix}.summary.json",
        {
            "bins": list(result.bins),
            "methods": list(result.method_names),
            "variant": result.variant,
            "mean_pairwise_correlation": result.mean_pairwise_correlation.tolist(),
            "group_correlation": result.group_correlation,
        },
    )
    for axis, groups in result.group_correlation.items():
        rendered = " ".join(f"{k}={v:.4f}" for k, v in groups.items())
        print(f"{axis}: {rendered}")
    return 0


def cmd_rank_methods(args) -> int:
    inputs = _parse_named_inputs(args.inputs, "rank-methods")
    table = rank_methods(inputs, n_bins=args.bins)
    indices = [metric_index(cfg) for cfg in table.configs]
    header = ["rank"] + [str(i) for i in indices]
    rows = [[r + 1] + row for r, row in enumerate(table.rows())]
    write_table(f"{args.output_prefix}.table.csv", header, rows)
    score_rows = [
        [name, index, table.scores[m, c]]
        for m, name in enumerate(table.methods)
        for c, index in enumerate(indices)
    ]
    write_table(
        f"{args.output_prefix}.scores.csv",
        ["method", "metric_index", "score"],
        score_rows,
    )
    write_json(
        f"{args.output_prefix}.meta.json",
        {
            "methods": list(table.methods),
            "bins": args.bins,
            "configs": [
                dict(zip(["index", *AXES], [index, *cfg.axis_tuple()]))
                for index, cfg in zip(indices, table.configs)
            ],
        },
    )
    print(render_rows(rows), end="")
    return 0


NOISE_HEADER = [
    "noise", "accuracy", "mean_max_confidence", "ece", "sce", "ace",
    "omitted_fraction",
]


def cmd_label_noise(args) -> int:
    step = args.max_noise / (args.levels - 1) if args.levels > 1 else 0.0
    levels = [i * step for i in range(args.levels)]
    results = label_noise_experiment(
        seed=args.seed,
        levels=levels,
        n_train=args.n_train,
        n_test=args.n_test,
        train_iterations=args.train_iterations,
    )
    rows = [
        [r.noise, r.accuracy, r.mean_max_confidence, r.ece, r.sce, r.ace,
         r.omitted_fraction]
        for r in results
    ]
    write_table(args.output, NOISE_HEADER, rows)
    first, last = results[0], results[-1]
    print(f"levels: {len(results)} (noise {format_float(first.noise)} .. "
          f"{format_float(last.noise)})")
    print(f"accuracy: {first.accuracy:.4f} -> {last.accuracy:.4f}")
    print(f"omitted_fraction: {first.omitted_fraction:.4f} -> "
          f"{last.omitted_fraction:.4f}")
    return 0


def cmd_reliability(args) -> int:
    p = as_probs(read_prediction_file(args.predictions, logits=args.logits))
    cfg = _resolve_metric(args)
    table = gce_with_bins(p, cfg)[1]
    write_table(args.output, BIN_STATS_HEADER, bin_stats_rows(table))
    print(f"bins: {len(table.count)} occupied: {np.count_nonzero(table.count)}")
    return 0


def cmd_pathology(args) -> int:
    p = make_pathology(args.n_wrong, args.p_wrong, args.n_right, args.p_right)
    write_prediction_file(args.output, p, header=args.header)
    print(f"wrote {p.n_points} predictions to {args.output}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="calerr",
        description="Calibration-error measurement and post-hoc recalibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(s):
        s.add_argument("--seed", type=int, default=0,
                       help="seed for any stochastic step (default 0)")

    m = sub.add_parser("measure", help="score a prediction file")
    m.add_argument("predictions", help="CSV of probabilities (or logits)")
    m.add_argument("--logits", action="store_true",
                   help="input holds logits; softmax is applied first")
    m.add_argument("--all-32", action="store_true",
                   help="score all 32 metric variants in index order")
    m.add_argument("--output", help="report file (.json or .csv)")
    _add_metric_flags(m)
    add_seed(m)
    m.set_defaults(func=cmd_measure)

    r = sub.add_parser("recalibrate",
                       help="fit on the first half, recalibrate the second")
    r.add_argument("predictions", help="CSV of probabilities (or logits)")
    r.add_argument("--logits", action="store_true",
                   help="input holds logits (required by scaling methods)")
    r.add_argument("--method", required=True, choices=tuple(RECALIBRATORS))
    r.add_argument("--objective", choices=TEMPERATURE_OBJECTIVES,
                   default=TEMPERATURE_OBJECTIVES[0],
                   help=f"temperature-scaling objective (default {TEMPERATURE_OBJECTIVES[0]})")
    r.add_argument("--histogram-bins", type=int, default=HISTOGRAM_BINS,
                   help=f"histogram-binning bin count (default {HISTOGRAM_BINS})")
    r.add_argument("--bootstrap", type=int, default=BOOTSTRAP_RESAMPLES,
                   help=f"bootstrap resamples (default {BOOTSTRAP_RESAMPLES})")
    r.add_argument("--empty-bin", choices=EMPTY_BIN_FALLBACKS,
                   default=EMPTY_BIN_FALLBACKS[0],
                   help=f"histogram empty-bin fallback (default {EMPTY_BIN_FALLBACKS[0]})")
    r.add_argument("--output-prefix", required=True,
                   help="writes <prefix>.recalibrated.csv, <prefix>.model.json, "
                        "<prefix>.report.json")
    _add_metric_flags(r)
    add_seed(r)
    r.set_defaults(func=cmd_recalibrate)

    s = sub.add_parser("sweep-bins",
                       help="rank stability of methods across bin counts")
    s.add_argument("--inputs", nargs="+", required=True, metavar="NAME=PATH",
                   help="recalibrated probability CSVs")
    s.add_argument("--uncalibrated", help="optional baseline probability CSV")
    s.add_argument("--bins", nargs="+", type=int, default=list(DEFAULT_SWEEP_BINS),
                   help="bin counts to sweep (default 10 20 30 40 50)")
    s.add_argument("--variant", choices=RANK_VARIANTS, default=RANK_VARIANTS[0])
    s.add_argument("--output-prefix", required=True,
                   help="writes <prefix>.cells.csv and <prefix>.summary.json")
    add_seed(s)
    s.set_defaults(func=cmd_sweep_bins)

    k = sub.add_parser("rank-methods",
                       help="order methods under all 32 metric variants")
    k.add_argument("--inputs", nargs="+", required=True, metavar="NAME=PATH")
    k.add_argument("--bins", type=int, default=DEFAULT_BINS,
                   help=f"metric bin count (default {DEFAULT_BINS})")
    k.add_argument("--output-prefix", required=True,
                   help="writes <prefix>.table.csv, <prefix>.scores.csv, "
                        "<prefix>.meta.json")
    add_seed(k)
    k.set_defaults(func=cmd_rank_methods)

    n = sub.add_parser("label-noise",
                       help="retrain under label noise and record the drift")
    n.add_argument("--levels", type=int, default=40,
                   help="number of noise levels (default 40)")
    n.add_argument("--max-noise", type=float, default=0.05,
                   help="largest noise fraction (default 0.05)")
    n.add_argument("--n-train", type=int, default=6000)
    n.add_argument("--n-test", type=int, default=1000)
    n.add_argument("--train-iterations", type=int, default=150)
    n.add_argument("--output", required=True, help="CSV of per-level results")
    add_seed(n)
    n.set_defaults(func=cmd_label_noise)

    e = sub.add_parser("reliability",
                       help="export the per-bin stats behind a metric")
    e.add_argument("predictions")
    e.add_argument("--logits", action="store_true")
    e.add_argument("--output", required=True, help="CSV of bin stats")
    _add_metric_flags(e)
    add_seed(e)
    e.set_defaults(func=cmd_reliability)

    p = sub.add_parser("pathology",
                       help="emit the two-group cancellation fixture as CSV")
    p.add_argument("--n-wrong", type=int, default=450)
    p.add_argument("--p-wrong", type=float, default=0.52)
    p.add_argument("--n-right", type=int, default=550)
    p.add_argument("--p-right", type=float, default=0.58)
    p.add_argument("--header", action="store_true",
                   help="write the p0,p1,...,label header row")
    p.add_argument("--output", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_pathology)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
