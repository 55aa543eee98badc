"""File formats: prediction CSVs, delimited reports, JSON, run configuration.

Prediction files are plain CSV with K float columns (probabilities, or
logits when the caller says so; never inferred) plus a final integer label
column.  No header by default; the exact header ``p0,p1,...,label`` is
accepted and skipped.  Floats are always written with 17 significant digits
so a write/read round trip is exact.  The reader checks the file's syntax,
the container it builds checks the numbers, and a :class:`RunConfig` leaves
each setting's check to the metric type that owns it.

Files move in blocks of about ``BLOCK_CELLS`` cells, so reading or writing
one holds its matrix plus one block of text.  The reader streams
``csv.reader`` rows and converts each block's float cells in one
``np.array(cells, dtype=float)`` call (``float()`` semantics) and its labels
through ``int()``; the blocks are joined once at the end.  A block that is
ragged or fails a conversion is rescanned cell by cell only to name the
first bad row and column (the header is row 1; blank lines are not
counted).  Rows are rendered by one ``%``-format per row, built once per
tuple of cell types, with the cell rules of :func:`format_value`.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .binning import DEFAULT_BINS, BinScheme, BinTable
from .metrics import MetricConfig, named_metric
from .predictions import LogitSet, PredictionSet


# Rows per block are this many cells divided by the row width (at least 1).
BLOCK_CELLS = 1 << 16


class PredictionFileError(ValueError):
    """A prediction file failed to parse; the message names row and column."""


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _cell_format(kind: type) -> str:
    if issubclass(kind, float):
        return "%.17g"
    if kind is type(None):
        return "%.0s"  # renders None as an empty cell
    return "%s"


def format_value(v) -> str:
    """Stable cell rendering: floats at 17 significant digits, None empty, rest via str."""
    return _cell_format(type(v)) % (v,)


def _render_blocks(rows):
    """CSV text of ``rows`` in chunks of about ``BLOCK_CELLS`` cells, lines ending in newlines."""
    formats: dict[tuple[type, ...], str] = {}
    lines: list[str] = []
    cells = 0
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(fmt % tuple(row))
        cells += len(kinds)
        if cells >= BLOCK_CELLS:
            lines.append("")
            yield "\n".join(lines)
            lines, cells = [], 0
    if lines:
        lines.append("")
        yield "\n".join(lines)


def render_rows(rows) -> str:
    """Each row as ``",".join(map(format_value, row))`` plus a newline."""
    return "".join(_render_blocks(rows))


def _is_header(row: list[str]) -> bool:
    if len(row) < 3 or row[-1].strip() != "label":
        return False
    return all(
        cell.strip() == f"p{i}" for i, cell in enumerate(row[:-1])
    )


def _row_blocks(rows, size: int, row_no: int):
    """``(number of its first row, rows)`` for each block of up to ``size`` rows.

    A tokenizer fault (``csv.Error``, ``UnicodeDecodeError``) is raised only
    after the rows before it are handed out, so an earlier bad row is
    reported first.
    """
    block = []
    try:
        for row in rows:
            block.append(row)
            if len(block) == size:
                yield row_no, block
                row_no += size
                block = []
    except (csv.Error, UnicodeDecodeError):
        if block:
            yield row_no, block
        raise
    if block:
        yield row_no, block


def _parse_block(path, block: list[list[str]], width: int, row_no: int):
    """Values and labels of one block, each column converted in one call."""
    try:
        if set(map(len, block)) != {width}:
            raise ValueError("ragged block")  # the rescan names the row
        cells = list(chain.from_iterable(block))
        labels = cells[width - 1::width]
        del cells[width - 1::width]
        return (
            np.array(cells, dtype=float).reshape(len(block), width - 1),
            np.fromiter(map(int, labels), int, len(labels)),
        )
    except (ValueError, OverflowError):
        _raise_first_fault(path, block, width, row_no)
        raise


def _raise_first_fault(path, block: list[list[str]], width: int, row_no: int) -> None:
    """Raise for the first bad row of ``block``, checking cell by cell in file order."""
    label = np.empty((), dtype=int)
    for r, row in enumerate(block, row_no):
        if len(row) != width:
            raise PredictionFileError(
                f"{path}: row {r}: expected {width} columns, got {len(row)}"
            )
        for c, cell in enumerate(row[:-1]):
            try:
                float(cell)
            except ValueError:
                raise PredictionFileError(
                    f"{path}: row {r}, column {c + 1}: "
                    f"could not parse {cell!r} as a float"
                ) from None
        try:
            label[()] = int(row[-1])  # a label beyond int64 raises OverflowError here
        except ValueError:
            raise PredictionFileError(
                f"{path}: row {r}, column {width}: "
                f"could not parse {row[-1]!r} as an integer label"
            ) from None


def read_prediction_file(path, logits: bool = False) -> PredictionSet | LogitSet:
    """Parse a prediction CSV into a PredictionSet (or LogitSet).

    Raises :class:`PredictionFileError` naming the offending row and column
    on any parse failure; content-level violations (bad row sums, label out
    of range) surface as ValidationError from the container itself.
    """
    with open(path, newline="") as handle:
        rows = filter(None, csv.reader(handle))  # blank lines are neither rows nor counted
        first = next(rows, None)
        if first is None:
            raise PredictionFileError(f"{path}: file contains no data rows")
        start = 1 if _is_header(first) else 0
        if start:
            first = next(rows, None)
            if first is None:
                raise PredictionFileError(f"{path}: header only, no data rows")
        width = len(first)
        if width < 3:
            raise PredictionFileError(
                f"{path}: row {start + 1}: need at least 2 probability columns "
                f"plus a label, got {width} columns"
            )
        blocks = _row_blocks(chain([first], rows), max(1, BLOCK_CELLS // width), start + 1)
        values, labels = zip(*(_parse_block(path, block, width, row) for row, block in blocks))
    values = np.concatenate(values)  # rebinding frees the blocks before the container copies
    labels = np.concatenate(labels)
    if logits:
        return LogitSet(values, labels)
    return PredictionSet(values, labels)


def write_prediction_file(path, data: PredictionSet | LogitSet, header: bool = False) -> None:
    matrix = data.logits if isinstance(data, LogitSet) else data.probs
    names = [f"p{i}" for i in range(matrix.shape[1])] + ["label"] if header else None
    step = max(1, BLOCK_CELLS // (matrix.shape[1] + 1))
    rows = (
        [*row, label]
        for i in range(0, len(matrix), step)
        for row, label in zip(matrix[i:i + step].tolist(), data.labels[i:i + step].tolist())
    )
    write_table(path, names, rows)


def write_table(path, header: list[str] | None, rows) -> None:
    """Write a delimited table with stable float formatting, a block of rows at a time.

    ``rows`` may be any iterable; a table with no header and no rows is one
    empty line.
    """
    if header is not None:
        rows = chain([header], rows)
    with open(path, "w") as handle:
        handle.writelines(_render_blocks(rows))
        if not handle.tell():
            handle.write("\n")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


BIN_STATS_HEADER = ["class_index", "lower", "upper", "count", "accuracy", "confidence"]


def bin_stats_rows(table: BinTable) -> list[tuple]:
    """One ``BIN_STATS_HEADER`` row per bin; a pooled table's class cells are None."""
    classes = table.class_index
    classes = [None] * len(table.count) if classes is None else classes.tolist()
    return list(zip(classes, *(column.tolist() for column in table[1:])))


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
