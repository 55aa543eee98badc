"""File formats: prediction CSVs, delimited reports, JSON, run configuration.

Prediction files are plain CSV with K float columns (probabilities, or
logits when the caller says so; never inferred) plus a final integer label
column.  No header by default; the exact header ``p0,p1,...,label`` is
accepted and skipped.  Floats are always written with 17 significant digits
so a write/read round trip is exact.  The reader checks the file's syntax,
the container it builds checks the numbers, and a :class:`RunConfig` leaves
each setting's check to the metric type that owns it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from .binning import DEFAULT_BINS, BinScheme, BinStats
from .metrics import MetricConfig, named_metric
from .predictions import LogitSet, PredictionSet


class PredictionFileError(ValueError):
    """A prediction file failed to parse; the message names row and column."""


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_value(v) -> str:
    """Stable cell rendering: floats at 17 significant digits, rest via str."""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    if v is None:
        return ""
    return str(v)


def _is_header(row: list[str]) -> bool:
    if len(row) < 3 or row[-1].strip() != "label":
        return False
    return all(
        cell.strip() == f"p{i}" for i, cell in enumerate(row[:-1])
    )


def read_prediction_file(path, logits: bool = False) -> PredictionSet | LogitSet:
    """Parse a prediction CSV into a PredictionSet (or LogitSet).

    Raises :class:`PredictionFileError` naming the offending row and column
    on any parse failure; content-level violations (bad row sums, label out
    of range) surface as ValidationError from the container itself.
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows = [row for row in rows if row]  # ignore blank lines
    if not rows:
        raise PredictionFileError(f"{path}: file contains no data rows")
    start = 1 if _is_header(rows[0]) else 0
    data_rows = rows[start:]
    if not data_rows:
        raise PredictionFileError(f"{path}: header only, no data rows")
    width = len(data_rows[0])
    if width < 3:
        raise PredictionFileError(
            f"{path}: row {start + 1}: need at least 2 probability columns "
            f"plus a label, got {width} columns"
        )
    values = np.empty((len(data_rows), width - 1))
    labels = np.empty(len(data_rows), dtype=int)
    for r, row in enumerate(data_rows):
        row_no = start + r + 1
        if len(row) != width:
            raise PredictionFileError(
                f"{path}: row {row_no}: expected {width} columns, got {len(row)}"
            )
        for c, cell in enumerate(row[:-1]):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise PredictionFileError(
                    f"{path}: row {row_no}, column {c + 1}: "
                    f"could not parse {cell!r} as a float"
                ) from None
        try:
            labels[r] = int(row[-1])
        except ValueError:
            raise PredictionFileError(
                f"{path}: row {row_no}, column {width}: "
                f"could not parse {row[-1]!r} as an integer label"
            ) from None
    if logits:
        return LogitSet(values, labels)
    return PredictionSet(values, labels)


def write_prediction_file(path, data: PredictionSet | LogitSet, header: bool = False) -> None:
    matrix = data.logits if isinstance(data, LogitSet) else data.probs
    names = [f"p{i}" for i in range(matrix.shape[1])] + ["label"] if header else None
    rows = [[*row, label] for row, label in zip(matrix.tolist(), data.labels.tolist())]
    write_table(path, names, rows)


def write_table(path, header: list[str] | None, rows: list[list]) -> None:
    """Write a delimited table with stable float formatting."""
    lines = []
    if header is not None:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(map(format_value, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


BIN_STATS_HEADER = ["class_index", "lower", "upper", "count", "accuracy", "confidence"]


def bin_stats_rows(stats: list[BinStats]) -> list[list]:
    return [
        [st.class_index, st.lower, st.upper, st.count, st.accuracy, st.confidence]
        for st in stats
    ]


@dataclasses.dataclass
class RunConfig:
    """The metric settings of a ``--config`` JSON file; its keys are the fields.

    ``named`` (ECE, CCECE, SCE, ACE, TACE or RMSCE) overrides the axes.
    Unknown keys are rejected rather than ignored, so typos fail loudly.
    Construction builds the axes' config and the named one, so every value
    is checked by its owner, even the axes that ``named`` overrides.
    """

    binning: str = "even"
    bins: int = DEFAULT_BINS
    max_probs: bool = True
    class_conditional: bool = False
    threshold: float = 0.0
    norm: str = "l1"
    named: str | None = None

    def __post_init__(self) -> None:
        self.metric_config()

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("run config must be a JSON object")
        known = sorted(f.name for f in dataclasses.fields(cls))
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ValueError(f"unknown run-config keys {unknown}; known keys: {known}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def metric_config(self) -> MetricConfig:
        axes = MetricConfig(
            binning=BinScheme(self.binning, self.bins),
            max_probs=self.max_probs,
            class_conditional=self.class_conditional,
            threshold=self.threshold,
            norm=self.norm,
        )
        return axes if self.named is None else named_metric(self.named, self.bins)


def read_run_config(path) -> RunConfig:
    return RunConfig.from_json(Path(path).read_text())
