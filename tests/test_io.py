"""Prediction-file parsing, stable serialization, run configuration."""

from __future__ import annotations

import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calerr import (
    LogitSet,
    PredictionFileError,
    PredictionSet,
    RunConfig,
    read_prediction_file,
    read_run_config,
    write_prediction_file,
)
import calerr.cli
import calerr.io
from calerr.cli import main
from calerr.io import (
    BIN_STATS_HEADER,
    bin_stats_rows,
    format_float,
    format_value,
    render_rows,
    write_json,
    write_table,
)
from calerr.binning import BinTable

from conftest import random_prediction_set


class TestFormatting:
    def test_float_17_digits_round_trips(self):
        for x in (0.1, 1 / 3, 1e-17, 123456.789, 0.52):
            assert float(format_float(x)) == x

    def test_format_value_types(self):
        assert format_value(True) == "True"
        assert format_value(None) == ""
        assert format_value(3) == "3"
        assert format_value(0.5) == "0.5"
        assert format_value("even") == "even"

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_float_round_trips(self, x):
        assert float(format_float(x)) == x


class TestPredictionFiles:
    def test_write_read_round_trip(self, tmp_path, rng):
        p = random_prediction_set(rng)
        path = tmp_path / "preds.csv"
        write_prediction_file(path, p)
        back = read_prediction_file(path)
        assert np.array_equal(back.probs, p.probs)
        assert np.array_equal(back.labels, p.labels)

    def test_header_written_and_skipped(self, tmp_path, tiny_preds):
        path = tmp_path / "preds.csv"
        write_prediction_file(path, tiny_preds, header=True)
        text = path.read_text()
        assert text.startswith("p0,p1,label\n")
        assert text.endswith("\n")
        back = read_prediction_file(path)
        assert back.n_points == 4
        # Exact bytes for both containers, with and without the header.
        probs_rows = (
            "0.80000000000000004,0.20000000000000001,0\n"
            "0.69999999999999996,0.29999999999999999,1\n"
            "0.40000000000000002,0.59999999999999998,1\n"
            "0.90000000000000002,0.10000000000000001,0\n"
        )
        logits = LogitSet(np.array([[1 / 3, -2.0, 0.0], [1e-17, 123456.789, -0.5]]),
                          np.array([2, 0]))
        logit_rows = "0.33333333333333331,-2,0,2\n1.0000000000000001e-17,123456.789,-0.5,0\n"
        for data, header, expected in [
            (tiny_preds, False, probs_rows),
            (tiny_preds, True, "p0,p1,label\n" + probs_rows),
            (logits, False, logit_rows),
            (logits, True, "p0,p1,p2,label\n" + logit_rows),
        ]:
            write_prediction_file(path, data, header=header)
            assert path.read_text() == expected

    def test_logits_round_trip(self, tmp_path, rng):
        ls = LogitSet(rng.standard_normal((6, 3)), rng.integers(0, 3, 6))
        path = tmp_path / "logits.csv"
        write_prediction_file(path, ls)
        back = read_prediction_file(path, logits=True)
        assert isinstance(back, LogitSet)
        assert np.array_equal(back.logits, ls.logits)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("0.5,0.5,0\n\n0.25,0.75,1\n\n")
        back = read_prediction_file(path)
        assert back.n_points == 2

    def test_bad_float_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5,0\n0.4,oops,1\n")
        with pytest.raises(PredictionFileError, match="row 2, column 2"):
            read_prediction_file(path)

    def test_bad_label_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5,x\n")
        with pytest.raises(PredictionFileError, match="integer label"):
            read_prediction_file(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.5,0.5,0\n0.1,0.2,0.7,1\n")
        with pytest.raises(PredictionFileError, match="expected 3 columns"):
            read_prediction_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(PredictionFileError, match="no data rows"):
            read_prediction_file(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("p0,p1,label\n")
        with pytest.raises(PredictionFileError, match="header only"):
            read_prediction_file(path)

    def test_too_few_columns_rejected(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("0.5,0\n")
        with pytest.raises(PredictionFileError, match="at least 2 probability"):
            read_prediction_file(path)

    def test_content_violations_are_validation_errors(self, tmp_path):
        from calerr import ValidationError

        path = tmp_path / "sums.csv"
        path.write_text("0.9,0.9,0\n")
        with pytest.raises(ValidationError):
            read_prediction_file(path)


def reference_read(path):
    """The reader before blocks: tokenize the whole file, then convert cell by cell.

    Returns the arrays the reader hands to its container, so non-finite
    values can be compared too.
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows = [row for row in rows if row]  # ignore blank lines
    if not rows:
        raise PredictionFileError(f"{path}: file contains no data rows")
    start = 1 if calerr.io._is_header(rows[0]) else 0
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
    return values, labels


@pytest.fixture
def raw_read(monkeypatch):
    """``read_prediction_file`` returning the arrays it would hand to ``LogitSet``."""
    monkeypatch.setattr(calerr.io, "LogitSet", lambda values, labels: (values, labels))
    return lambda path: read_prediction_file(path, logits=True)


def assert_same_arrays(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def error_text(read, path) -> str:
    with pytest.raises(PredictionFileError) as info:
        read(path)
    return str(info.value)


class TestBlockedReader:
    """The block reader equals the cell-by-cell reader, errors included."""

    @pytest.mark.parametrize("cell", [
        " 0.5 ", "1_0.5", "nan", "-inf", "infinity", "1e400", "-0.0", "１.５", '"0.5"',
    ])
    def test_cell_spellings(self, tmp_path, raw_read, cell):
        path = tmp_path / "cells.csv"
        path.write_text(f"{cell},0.25,1\n0.75,{cell},0\n", encoding="utf-8")
        assert_same_arrays(raw_read(path), reference_read(path))

    @pytest.mark.parametrize("text", [
        "0.5,0.5,0\r\n0.25,0.75,1\r\n",
        "0.5,0.5,0\r0.25,0.75,1\r",
        "\n\n0.5,0.5,0\n\n\n0.25,0.75,1\n\n",
        "\n\np0,p1,label\n\n0.5,0.5,0\n0.25,0.75,1\n",
        "0.5,0.5, 3\n0.5,0.5,+3\n0.5,0.5,3_0\n0.5,0.5,٣\n",
    ])
    def test_line_ends_blank_lines_and_labels(self, tmp_path, raw_read, text):
        path = tmp_path / "lines.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_same_arrays(raw_read(path), reference_read(path))

    def test_many_blocks_equal_one(self, tmp_path, raw_read, monkeypatch, rng):
        path = tmp_path / "many.csv"
        values, labels = rng.standard_normal((37, 4)).tolist(), rng.integers(0, 4, 37).tolist()
        path.write_text("".join(f"{row[0]!r},{row[1]!r},{row[2]!r},{row[3]!r},{label}\n"
                                for row, label in zip(values, labels)))
        whole = raw_read(path)
        assert_same_arrays(whole, reference_read(path))
        for cells in (1, 5, 10, 11):
            monkeypatch.setattr(calerr.io, "BLOCK_CELLS", cells)
            assert_same_arrays(raw_read(path), whole)

    @pytest.mark.parametrize("rows, expected", [
        (["0.5,0.5,0", "0.5,x,0", "0.5,0.5,0,0"], "row 2, column 2: could not parse 'x'"),
        (["0.5,0.5,0", "0.5,0.5,0,0", "0.5,x,0"], "row 2: expected 3 columns, got 4"),
        (["0.5,0.5,0", "0.5,0.5,y", "0.5,x,0"], "row 2, column 3: could not parse 'y'"),
        (["0.5,0.5,0", "0.5,x,y", "0.5,0.5,0"], "row 2, column 2: could not parse 'x'"),
    ])
    def test_first_fault_in_a_block_is_named(self, tmp_path, monkeypatch, rows, expected):
        monkeypatch.setattr(calerr.io, "BLOCK_CELLS", 9)  # three rows per block
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        message = error_text(read_prediction_file, path)
        assert message == error_text(reference_read, path)
        assert expected in message

    @pytest.mark.parametrize("head", ["", "p0,p1,label\n", "\np0,p1,label\n\n"])
    @pytest.mark.parametrize("bad", ["0.5,oops,1", "0.5,0.5", "0.5,0.5,z"])
    def test_later_block_reports_absolute_row(self, tmp_path, monkeypatch, head, bad):
        monkeypatch.setattr(calerr.io, "BLOCK_CELLS", 6)  # two rows per block
        good = ["0.5,0.5,0", "", "0.25,0.75,1", "0.75,0.25,0", "", "", "0.5,0.5,1", "0.5,0.5,0"]
        path = tmp_path / "late.csv"
        path.write_text(head + "\n".join([*good, bad, "0.5,0.5,1"]) + "\n")
        message = error_text(read_prediction_file, path)
        assert message == error_text(reference_read, path)
        row = 5 + 1 + bool(head)
        assert f"row {row}" in message

    def test_label_beyond_int64_still_overflows(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"0.5,0.5,0\n0.5,0.5,{2 ** 70}\n0.5,x,0\n")
        with pytest.raises(OverflowError):
            reference_read(path)
        with pytest.raises(OverflowError, match="too large"):
            read_prediction_file(path)

    # The whole file used to be tokenized before any row was converted, so a
    # tokenizer fault further down won over a bad row before it.  Blocks
    # convert as they are read, so the bad row is reported now.

    def test_bad_row_before_oversized_field(self, tmp_path):
        path = tmp_path / "field.csv"
        big = "9" * (csv.field_size_limit() + 1)
        path.write_text(f"0.5,0.5,0\n0.5,oops,1\n0.5,0.5,{big}\n")
        with pytest.raises(csv.Error, match="field larger than field limit"):
            reference_read(path)
        assert "row 2, column 2" in error_text(read_prediction_file, path)

    def test_bad_row_before_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bytes.csv"
        filler = b"0.5,0.5,0\n" * 10_000  # past the text layer's first decoded chunk
        path.write_bytes(b"0.5,oops,1\n" + filler + b"0.5,0.5,\xff\n")
        with pytest.raises(UnicodeDecodeError):
            reference_read(path)
        assert "row 1, column 2" in error_text(read_prediction_file, path)

    def test_tokenizer_fault_alone_still_raised(self, tmp_path):
        path = tmp_path / "field.csv"
        big = "9" * (csv.field_size_limit() + 1)
        path.write_text(f"0.5,0.5,0\n0.5,0.5,{big}\n")
        with pytest.raises(csv.Error, match="field larger than field limit"):
            read_prediction_file(path)


def reference_format_value(v) -> str:
    """The cell rendering before one format per row."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


MIXED_ROWS = [
    [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324],
    [None, 1 / 3, True, np.int64(7), 2 ** 70],
    ["a,b", None, np.float64(0.1), np.float32(0.1), ""],
    [1, 2.5, None],
    [None],
    [],
    [np.float64(-1e300), "x", False, None, 0.1],
    [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324],
]


class TestRenderer:
    def test_rows_match_per_cell_rendering(self, tmp_path):
        expected = "".join(",".join(map(reference_format_value, row)) + "\n" for row in MIXED_ROWS)
        assert render_rows(MIXED_ROWS) == expected
        for row in MIXED_ROWS:
            for cell in row:
                assert format_value(cell) == reference_format_value(cell)
        path = tmp_path / "t.csv"
        write_table(path, ["h1", "h2"], iter(MIXED_ROWS))
        assert path.read_text() == "h1,h2\n" + expected

    def test_empty_tables(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, None, [])
        assert path.read_text() == "\n"
        write_table(path, ["h"], iter([]))
        assert path.read_text() == "h\n"
        assert render_rows([]) == ""

    def test_multi_block_prediction_file_matches_one_shot(self, tmp_path, monkeypatch, rng):
        data = LogitSet(rng.standard_normal((23, 4)) * 1e3, rng.integers(0, 4, 23))
        expected = "".join(
            ",".join(map(reference_format_value, [*row, label])) + "\n"
            for row, label in zip(data.logits.tolist(), data.labels.tolist())
        )
        path = tmp_path / "p.csv"
        for cells in (1 << 16, 1, 4, 7):
            monkeypatch.setattr(calerr.io, "BLOCK_CELLS", cells)
            write_prediction_file(path, data, header=True)
            assert path.read_text() == "p0,p1,p2,p3,label\n" + expected

    def test_cli_prints_each_block_in_one_call(self, tmp_path, monkeypatch, tiny_preds):
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return render_rows(rows)

        monkeypatch.setattr(calerr.cli, "render_rows", counting)
        path = tmp_path / "p.csv"
        write_prediction_file(path, tiny_preds)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["measure", str(path), "--bins", "4"]) == 0
            assert main(["measure", str(path), "--all-32", "--bins", "4"]) == 0
        assert calls == [5, 32]
        assert out.getvalue().count("\n") == 2 + 5 + 32


class TestTablesAndJson:
    def test_write_table(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [[1, 0.5], [None, True]])
        assert path.read_text() == "a,b\n1,0.5\n,True\n"

    def test_write_table_headerless(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, None, [[1, 2]])
        assert path.read_text() == "1,2\n"

    def test_write_json_trailing_newline(self, tmp_path):
        path = tmp_path / "o.json"
        write_json(path, {"a": 1})
        text = path.read_text()
        assert text.endswith("\n")
        assert '"a": 1' in text

    def test_bin_stats_rows(self):
        pooled = BinTable(None, *map(np.array, ([0.0], [0.5], [2], [0.5], [0.4])))
        rows = bin_stats_rows(pooled)
        assert len(rows[0]) == len(BIN_STATS_HEADER)
        assert rows[0][0] is None
        assert rows[0][3] == 2
        conditional = pooled._replace(class_index=np.array([3]))
        assert list(bin_stats_rows(conditional)[0]) == [3, 0.0, 0.5, 2, 0.5, 0.4]


class TestRunConfig:
    def test_defaults_and_metric_config(self):
        cfg = RunConfig()
        mc = cfg.metric_config()
        assert mc.axis_tuple() == ("even", True, False, 0.0, "l1")
        assert mc.binning.n_bins == 15

    def test_named_overrides_axes(self):
        cfg = RunConfig(named="ACE", bins=30)
        mc = cfg.metric_config()
        assert mc.axis_tuple() == ("adaptive", False, True, 0.0, "l1")
        assert mc.binning.n_bins == 30

    def test_unknown_keys_listed(self):
        with pytest.raises(ValueError, match=r"\['bin_count'\]"):
            RunConfig.from_json('{"bin_count": 10}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            RunConfig.from_json("[1, 2]")

    def test_round_trip(self):
        cfg = RunConfig(binning="adaptive", bins=25, norm="l2", threshold=0.01)
        back = RunConfig.from_json(json.dumps(cfg.to_dict()))
        assert back == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(binning="quantile")
        with pytest.raises(ValueError):
            RunConfig(norm="linf")

    @pytest.mark.parametrize("key", ["method", "objective", "histogram_bins", "bootstrap",
                                     "empty_bin", "seed", "split"])
    def test_recalibration_keys_rejected(self, key, tmp_path):
        # No command reads these from a config file, so setting one is an error.
        with pytest.raises(ValueError, match=rf"unknown run-config keys \['{key}'\]"):
            RunConfig.from_json(json.dumps({key: 10}))
        preds = tmp_path / "preds.csv"
        write_prediction_file(preds, PredictionSet(np.array([[0.7, 0.3]]), np.array([0])))
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: 10}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["measure", str(preds), "--config", str(path)])
        assert code == 1
        assert "unknown run-config keys" in err.getvalue()

    def test_read_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"binning": "adaptive", "bins": 10}')
        cfg = read_run_config(path)
        assert cfg.binning == "adaptive"
        assert cfg.bins == 10
