"""Command-line behavior: exit codes, printed output, artifact files."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calerr
import recalibrate_golden as golden
from calerr import LogitSet, sample_overconfident_logits, softmax
from calerr.cli import main
from calerr.io import write_prediction_file
from calerr.recalibrate import RECALIBRATORS


@pytest.fixture
def probs_csv(tmp_path):
    p = softmax(sample_overconfident_logits(60, 3, 0))
    path = tmp_path / "probs.csv"
    write_prediction_file(path, p)
    return str(path)


@pytest.fixture
def logits_csv(tmp_path):
    lg = sample_overconfident_logits(80, 3, 1)
    path = tmp_path / "logits.csv"
    write_prediction_file(path, lg)
    return str(path)


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self, probs_csv):
        assert main(["measure", probs_csv, "--frobnicate"]) == 2

    def test_missing_file_is_data_error(self, capsys):
        assert main(["measure", "/nonexistent/preds.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,oops,0\n")
        assert main(["measure", str(bad)]) == 1

    def test_scaling_method_without_logits_is_usage_error(
        self, probs_csv, tmp_path, capsys
    ):
        code = main([
            "recalibrate", probs_csv, "--method", "temperature",
            "--output-prefix", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "requires logits" in capsys.readouterr().err

    def test_success_is_zero(self, probs_csv):
        assert main(["measure", probs_csv]) == 0


class TestMeasure:
    def test_prints_metric_and_score(self, probs_csv, capsys):
        assert main(["measure", probs_csv, "--named", "ECE"]) == 0
        out = capsys.readouterr().out
        assert "metric: index=4 ('even', True, False, 0.0, 'l1') bins=15" in out
        assert "score: " in out

    def test_axis_flags_override_default(self, probs_csv, capsys):
        assert main([
            "measure", probs_csv, "--binning", "adaptive", "--no-max-probs",
            "--norm", "l2", "--bins", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "('adaptive', False, False, 0.0, 'l2') bins=10" in out

    def test_off_grid_threshold_prints_without_index(self, probs_csv, capsys):
        assert main([
            "measure", probs_csv, "--no-max-probs", "--threshold", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "metric: ('even'" in out

    def test_all_32_prints_every_variant(self, probs_csv, capsys):
        assert main(["measure", probs_csv, "--all-32", "--bins", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 32
        assert lines[0].startswith("0,even,True,True,")

    def test_json_report(self, probs_csv, tmp_path):
        out = tmp_path / "report.json"
        assert main([
            "measure", probs_csv, "--named", "SCE", "--output", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["binning"] == "even"
        assert doc["config"]["class_conditional"] is True
        assert "score" in doc and "bin_stats" in doc

    def test_csv_report(self, probs_csv, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["measure", probs_csv, "--output", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "class_index,lower,upper,count,accuracy,confidence"

    def test_config_file_with_flag_override(self, probs_csv, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"binning": "adaptive", "bins": 20}')
        assert main([
            "measure", probs_csv, "--config", str(cfg), "--bins", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "('adaptive', True, False, 0.0, 'l1') bins=10" in out

    def test_bad_config_key_is_data_error(self, probs_csv, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"bin_count": 10}')
        assert main(["measure", probs_csv, "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("flags, bins", [([], 7), (["--bins", "9"], 9)])
    def test_all_32_takes_config_bins(self, flags, bins, probs_csv, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"bins": 7}')
        assert main(["measure", probs_csv, "--all-32", "--config", str(cfg), *flags]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert [row[0] for row in rows] == [str(i) for i in range(32)]
        assert {row[-2] for row in rows} == {str(bins)}

    @pytest.mark.parametrize("text", ['{"bin_count": 10}', '{"threshold": 1.5}'])
    def test_all_32_checks_config(self, text, probs_csv, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        assert main(["measure", probs_csv, "--all-32", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("flags", [
        ["--named", "ECE"], ["--binning", "adaptive"], ["--max-probs"],
        ["--no-max-probs"], ["--class-conditional"], ["--no-class-conditional"],
        ["--threshold", "0.01"], ["--norm", "l2"],
    ], ids=lambda flags: flags[0])
    def test_all_32_rejects_axis_flags(self, flags, probs_csv, tmp_path, capsys):
        # The config file does not exist: the flag is refused before it is read.
        missing = str(tmp_path / "missing.json")
        argv = ["measure", probs_csv, "--all-32", *flags, "--config", missing]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert flags[0] in captured.err

    def test_logits_flag_applies_softmax(self, logits_csv, capsys):
        assert main(["measure", logits_csv, "--logits"]) == 0
        assert "score: " in capsys.readouterr().out


class TestRecalibrate:
    def expect_artifacts(self, prefix):
        for suffix in (".recalibrated.csv", ".model.json", ".report.json"):
            assert (prefix.parent / (prefix.name + suffix)).exists()

    @pytest.mark.parametrize(
        "method", ["histogram", "cc-histogram", "isotonic"]
    )
    def test_probability_methods(self, probs_csv, tmp_path, method, capsys):
        prefix = tmp_path / method
        assert main([
            "recalibrate", probs_csv, "--method", method,
            "--histogram-bins", "5", "--output-prefix", str(prefix),
        ]) == 0
        out = capsys.readouterr().out
        assert "before: " in out and "after: " in out
        self.expect_artifacts(prefix)

    def test_bootstrap_histogram(self, probs_csv, tmp_path):
        prefix = tmp_path / "boot"
        assert main([
            "recalibrate", probs_csv, "--method", "bootstrap-histogram",
            "--histogram-bins", "5", "--bootstrap", "10",
            "--output-prefix", str(prefix),
        ]) == 0
        doc = json.loads((tmp_path / "boot.model.json").read_text())
        assert doc["method"] == "histogram-binning"

    def test_temperature_prints_fit(self, logits_csv, tmp_path, capsys):
        prefix = tmp_path / "temp"
        assert main([
            "recalibrate", logits_csv, "--logits", "--method", "temperature",
            "--output-prefix", str(prefix),
        ]) == 0
        out = capsys.readouterr().out
        assert "temperature: " in out and "converged: " in out
        doc = json.loads((tmp_path / "temp.model.json").read_text())
        assert doc["method"] == "temperature"
        report = json.loads((tmp_path / "temp.report.json").read_text())
        assert report["metric"]["index"] == 4
        assert report["fit_points"] == 40 and report["eval_points"] == 40

    def test_recalibrated_file_is_readable(self, probs_csv, tmp_path):
        from calerr import read_prediction_file

        prefix = tmp_path / "hist"
        main([
            "recalibrate", probs_csv, "--method", "histogram",
            "--histogram-bins", "5", "--output-prefix", str(prefix),
        ])
        back = read_prediction_file(tmp_path / "hist.recalibrated.csv")
        assert back.n_points == 30


NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
SGD_TRAINED = {"platt", "vector", "matrix", "mlp"}


def assert_text_close(got: str, want: str, atol: float) -> None:
    """Same text with every number replaced by '#', numbers within atol."""
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want)
    np.testing.assert_allclose(
        [float(x) for x in NUMBER.findall(got)],
        [float(x) for x in NUMBER.findall(want)],
        rtol=0, atol=atol,
    )


class TestRecalibrateGolden:
    """Every method against outputs recorded before the method table existed,
    and the report commands against outputs recorded before the axis table.

    Exact bytes for the histogram, isotonic and temperature fits and the
    report commands; 1e-10 for the SGD-trained methods, whose sums may round
    differently on another BLAS.
    """

    GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())

    def test_cases_cover_every_method(self):
        assert {name.split()[0] for name, _, _ in golden.CASES} == set(RECALIBRATORS)

    @pytest.mark.parametrize("case", golden.CASES, ids=[c[0] for c in golden.CASES])
    def test_matches_golden(self, case, tmp_path):
        for name, text in self.GOLDEN["inputs"].items():
            (tmp_path / name).write_text(text)
        got = golden.run_case(*case, tmp_path)
        want = self.GOLDEN["cases"][case[0]]
        assert got.keys() == want.keys()
        for key, value in want.items():
            if case[0].split()[0] not in SGD_TRAINED:
                assert got[key] == value, key
            elif key == "model.json digest":
                np.testing.assert_allclose(got[key], value, rtol=1e-10, atol=1e-10)
            else:
                assert_text_close(str(got[key]), str(value), 1e-10)

    @pytest.mark.parametrize(
        "case", golden.CLI_CASES, ids=[c[0] for c in golden.CLI_CASES]
    )
    def test_report_commands_match_golden(self, case, tmp_path):
        # measure, reliability, sweep-bins and rank-methods, byte for byte.
        name, argv, written = case
        for file, text in self.GOLDEN["inputs"].items():
            (tmp_path / file).write_text(text)
        assert golden.run_cli_case(argv, written, tmp_path) == self.GOLDEN["cli"][name]

    def test_report_records_hold_the_rows_they_pin(self):
        # Pooled rows carry no class; a class the threshold empties is one
        # zero-count placeholder row spanning [0, 1].
        cli = self.GOLDEN["cli"]
        rows = cli["reliability ECE"]["out.csv"].splitlines()[1:]
        assert len(rows) == 15 and all(row.startswith(",") for row in rows)
        bins = json.loads(cli["measure RMSCE json"]["out.json"])["bin_stats"]
        assert {b["class_index"] for b in bins} == {None}
        bins = json.loads(cli["measure emptied class json"]["out.json"])["bin_stats"]
        assert [b for b in bins if b["class_index"] == 1] == [
            {"class_index": 1, "lower": 0.0, "upper": 1.0, "count": 0,
             "accuracy": 0.0, "confidence": 0.0}]
        assert [b["class_index"] for b in bins] == [0] * 5 + [1] + [2] * 5

    @staticmethod
    def saturated_logits(method: str) -> LogitSet:
        if method == "platt":
            return LogitSet(np.array([[1e4, -1e4], [-1e4, 1e4]] * 10), np.array([0, 1] * 10))
        rng = np.random.default_rng(0)
        z = np.where(rng.random((40, 5)) < 0.5, 1e4, -1e4)
        return LogitSet(z, rng.integers(0, 5, 40))

    # Binary Platt fits; the dense network diverges and says so in one line.
    @pytest.mark.parametrize("method, code, stderr", [
        ("platt", 0, r""),
        ("mlp", 1, r"error: non-finite loss or gradient at iteration \d+ "
                   r"\(learning_rate=0\.001\)\n"),
    ], ids=["platt", "mlp"])
    def test_saturated_logits_are_silent(self, method, code, stderr, tmp_path):
        # A fresh interpreter, so numpy warnings reach stderr as a user sees them.
        write_prediction_file(tmp_path / "sat.csv", self.saturated_logits(method))
        run = subprocess.run(
            [sys.executable, "-m", "calerr.cli", "recalibrate", str(tmp_path / "sat.csv"),
             "--logits", "--method", method, "--seed", "1",
             "--output-prefix", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(calerr.__file__).parents[1])},
        )
        assert run.returncode == code
        assert "Warning" not in run.stderr
        assert re.fullmatch(stderr, run.stderr)


MALFORMED = [
    ("empty file", "", [], "file contains no data rows"),
    ("header only", "p0,p1,label\n", [], "header only, no data rows"),
    ("ragged row", "0.5,0.5,0\n0.2,0.8\n", [], "row 2: expected 3 columns, got 2"),
    ("nan cell", "0.5,0.5,0\nnan,0.5,1\n", [], "probs contain non-finite entries"),
    ("label out of range", "0.5,0.5,0\n0.5,0.5,2\n", [],
     "labels must lie in [0, 1], got range [0, 2]"),
    ("negative label", "0.5,0.5,0\n0.5,0.5,-1\n", [],
     "labels must lie in [0, 1], got range [-1, 0]"),
    ("non-integer label", "0.5,0.5,0\n0.5,0.5,1.5\n", [],
     "row 2, column 3: could not parse '1.5' as an integer label"),
    ("threshold empties the view", "0.6,0.4,0\n0.3,0.7,1\n",
     ["--no-max-probs", "--threshold", "0.9"], "no predictions survive threshold 0.9"),
]


@pytest.mark.parametrize(
    "text,flags,message", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_malformed_input_is_data_error(text, flags, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["measure", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.rstrip("\n").endswith(message)


# A config value its owning type rejects, and the text of the error, which names the field.
BAD_CONFIG_VALUES = [
    ('{"max_probs": "no"}', "max_probs must be a bool"),
    ('{"class_conditional": 1}', "class_conditional must be a bool"),
    ('{"bins": "10"}', "n_bins must be an integer"),
    ('{"bins": 10.5}', "n_bins must be an integer"),
    ('{"bins": true}', "n_bins must be an integer"),
    ('{"threshold": "0.01"}', "threshold must be a real number"),
    ('{"named": 5}', "metric name must be a string"),
    # Axes that ``named`` overrides are still checked.
    ('{"named": "ACE", "binning": "bogus"}', "kind must be one of"),
    ('{"named": "ECE", "threshold": 1.5}', "threshold must lie in [0, 1)"),
]


@pytest.mark.parametrize("text,message", BAD_CONFIG_VALUES,
                         ids=[text for text, _ in BAD_CONFIG_VALUES])
def test_bad_config_value_is_data_error(text, message, probs_csv, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert main(["measure", probs_csv, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


class TestSweepAndRank:
    @pytest.fixture
    def method_files(self, tmp_path):
        from calerr import (
            apply_histogram_binning,
            apply_isotonic_multiclass,
            apply_temperature,
            fit_histogram_binning,
            fit_isotonic_multiclass,
            fit_temperature,
            split_validation,
        )

        logits = sample_overconfident_logits(120, 3, 2)
        fit, ev = split_validation(logits)
        fit_p, ev_p = softmax(fit), softmax(ev)
        outputs = {
            "histogram": apply_histogram_binning(
                fit_histogram_binning(fit_p, 5), ev_p
            ),
            "isotonic": apply_isotonic_multiclass(
                fit_isotonic_multiclass(fit_p), ev_p
            ),
            "temperature": apply_temperature(fit_temperature(fit), ev),
        }
        pairs = []
        for name, preds in outputs.items():
            path = tmp_path / f"{name}.csv"
            write_prediction_file(path, preds)
            pairs.append(f"{name}={path}")
        return pairs

    def test_sweep_bins_artifacts(self, method_files, tmp_path, capsys):
        prefix = tmp_path / "sweep"
        assert main([
            "sweep-bins", "--inputs", *method_files,
            "--bins", "5", "10", "--output-prefix", str(prefix),
        ]) == 0
        out = capsys.readouterr().out
        assert "binning: " in out
        cells = (tmp_path / "sweep.cells.csv").read_text().splitlines()
        assert cells[0] == (
            "index,binning,max_probs,class_conditional,threshold,norm,"
            "bin_count,method,score"
        )
        assert len(cells) == 1 + 32 * 2 * 3
        summary = json.loads((tmp_path / "sweep.summary.json").read_text())
        assert set(summary["group_correlation"]["binning"]) == {
            "even", "adaptive",
        }

    def test_sweep_bins_threshold_that_empties_the_view(self, tmp_path, capsys):
        # uniform rows at K = 200: every entry is 0.005, below the 0.01 threshold
        path = tmp_path / "uniform.csv"
        write_prediction_file(
            path, calerr.PredictionSet(np.full((6, 200), 1 / 200), np.arange(6))
        )
        assert main([
            "sweep-bins", "--inputs", f"a={path}", f"b={path}",
            "--output-prefix", str(tmp_path / "x"),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no predictions survive threshold 0.01\n"

    def test_sweep_bins_needs_two_inputs(self, method_files, tmp_path):
        assert main([
            "sweep-bins", "--inputs", method_files[0],
            "--output-prefix", str(tmp_path / "x"),
        ]) == 2

    def test_duplicate_input_names_rejected(self, method_files, tmp_path):
        assert main([
            "sweep-bins", "--inputs", method_files[0], method_files[0],
            "--output-prefix", str(tmp_path / "x"),
        ]) == 2

    def test_malformed_input_pair_rejected(self, tmp_path):
        assert main([
            "sweep-bins", "--inputs", "just-a-path.csv",
            "--output-prefix", str(tmp_path / "x"),
        ]) == 2

    def test_rank_methods_artifacts(self, method_files, tmp_path, capsys):
        prefix = tmp_path / "rank"
        assert main([
            "rank-methods", "--inputs", *method_files,
            "--bins", "5", "--output-prefix", str(prefix),
        ]) == 0
        table = (tmp_path / "rank.table.csv").read_text().splitlines()
        assert table[0] == "rank," + ",".join(str(i) for i in range(32))
        assert len(table) == 4  # header + one row per rank position
        meta = json.loads((tmp_path / "rank.meta.json").read_text())
        assert meta["methods"] == ["histogram", "isotonic", "temperature"]
        scores = (tmp_path / "rank.scores.csv").read_text().splitlines()
        assert scores[0] == "method,metric_index,score"
        assert len(scores) == 1 + 3 * 32


class TestLabelNoise:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "noise.csv"
        assert main([
            "label-noise", "--levels", "3", "--max-noise", "0.04",
            "--n-train", "200", "--n-test", "100",
            "--train-iterations", "20", "--output", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "noise,accuracy,mean_max_confidence,ece,sce,ace,omitted_fraction"
        )
        assert len(lines) == 4
        printed = capsys.readouterr().out
        assert "levels: 3 (noise 0 .. 0.04" in printed

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_no_levels_is_data_error(self, levels, tmp_path, capsys):
        out = tmp_path / "noise.csv"
        assert main(["label-noise", "--levels", levels, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need at least one noise level\n"
        assert not out.exists()

    @pytest.mark.parametrize("split", ["n_train", "n_test"])
    def test_empty_split_is_data_error(self, split, tmp_path, capsys):
        out = tmp_path / "noise.csv"
        flag = "--" + split.replace("_", "-")
        assert main(["label-noise", "--levels", "2", flag, "0", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {split} must be >= 1, got 0\n"
        assert not out.exists()


class TestReliability:
    def test_bin_table(self, probs_csv, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        assert main([
            "reliability", probs_csv, "--named", "ECE", "--bins", "10",
            "--output", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "class_index,lower,upper,count,accuracy,confidence"
        assert len(lines) == 11
        assert "occupied:" in capsys.readouterr().out


class TestPathology:
    def test_default_fixture(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        assert main(["pathology", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1000
        assert "wrote 1000 predictions" in capsys.readouterr().out

    def test_header_flag(self, tmp_path):
        out = tmp_path / "path.csv"
        assert main(["pathology", "--header", "--output", str(out)]) == 0
        assert out.read_text().startswith("p0,p1,label\n")

    def test_reliability_on_pathology_has_one_occupied_bin(
        self, tmp_path, capsys
    ):
        fixture = tmp_path / "path.csv"
        main(["pathology", "--output", str(fixture)])
        out = tmp_path / "rel.csv"
        assert main([
            "reliability", str(fixture), "--named", "ECE", "--bins", "10",
            "--output", str(out),
        ]) == 0
        assert "occupied: 1" in capsys.readouterr().out

    def test_bad_parameter_is_data_error(self, tmp_path):
        assert main([
            "pathology", "--p-wrong", "0.4", "--output", str(tmp_path / "x.csv"),
        ]) == 1
