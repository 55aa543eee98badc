"""Prediction-file parsing, stable serialization, run configuration."""

from __future__ import annotations

import contextlib
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
from calerr.cli import main
from calerr.io import (
    BIN_STATS_HEADER,
    bin_stats_rows,
    format_float,
    format_value,
    write_json,
    write_table,
)
from calerr.binning import BinStats

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
        stats = [BinStats(0.0, 0.5, 2, 0.5, 0.4, class_index=None)]
        rows = bin_stats_rows(stats)
        assert len(rows[0]) == len(BIN_STATS_HEADER)
        assert rows[0][0] is None
        assert rows[0][3] == 2


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
