"""Golden outputs of the CLI: ``calerr recalibrate``, one case per method or
option, and the report files of ``measure``, ``reliability``,
``sweep-bins`` and ``rank-methods``.

``run_case`` runs one recalibrate case through the CLI and ``run_cli_case``
one of the other commands; each returns the exit code, stdout and
artifacts, which tests/test_cli.py compares with the record in
``data/recalibrate_golden.json``.  The MLP model is kept as a digest of its
numbers (count, sum, sum of squares, position-weighted sum), since its
5,000-odd weights would dwarf the rest of the record.

To record the golden file again from the code under ``src``:

    PYTHONPATH=src:tests python3 tests/recalibrate_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from calerr import sample_overconfident_logits, softmax
from calerr.cli import main
from calerr.io import write_prediction_file

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "recalibrate_golden.json"
INPUTS = ("probs.csv", "logits.csv", "logits2.csv", "probs_b.csv", "probs_c.csv")

# (case name, input file, extra argv); the method is the name's first word.
# Probability methods read probabilities, scaling methods logits.
CASES = [
    ("histogram", "probs.csv", []),
    ("histogram nearest", "probs.csv",
     ["--histogram-bins", "10", "--empty-bin", "nearest"]),
    ("cc-histogram", "probs.csv", []),
    ("bootstrap-histogram", "probs.csv", ["--bootstrap", "20", "--seed", "3"]),
    ("isotonic", "probs.csv", []),
    ("temperature", "logits.csv", ["--logits"]),
    ("temperature gce", "logits.csv",
     ["--logits", "--objective", "gce", "--named", "SCE"]),
    ("platt", "logits.csv", ["--logits"]),
    ("platt binary", "logits2.csv", ["--logits"]),
    ("vector", "logits.csv", ["--logits"]),
    ("matrix", "logits.csv", ["--logits"]),
    ("mlp", "logits.csv", ["--logits", "--seed", "1"]),
    # Off the standard threshold grid: the report's metric index is null.
    ("histogram off-grid", "probs.csv", ["--no-max-probs", "--threshold", "0.2"]),
]
METHODS = ("a=probs_b.csv", "b=probs_c.csv", "c=probs.csv")
# (case name, argv run from inside the input directory, files it writes
# there).  Every file is read back exactly.
CLI_CASES = [
    ("measure all-32 csv",
     ["measure", "probs.csv", "--all-32", "--bins", "10", "--output", "out.csv"],
     ("out.csv",)),
    ("measure all-32 json",
     ["measure", "logits.csv", "--logits", "--all-32", "--output", "out.json"],
     ("out.json",)),
    ("measure TACE json",
     ["measure", "probs.csv", "--named", "TACE", "--output", "out.json"],
     ("out.json",)),
    ("reliability ACE",
     ["reliability", "probs.csv", "--named", "ACE", "--output", "out.csv"],
     ("out.csv",)),
    # Pooled reports: their class_index cells are empty in CSV, null in JSON.
    ("reliability ECE",
     ["reliability", "probs.csv", "--named", "ECE", "--output", "out.csv"],
     ("out.csv",)),
    ("measure RMSCE json",
     ["measure", "probs.csv", "--named", "RMSCE", "--output", "out.json"],
     ("out.json",)),
    # No class-1 probability of probs.csv exceeds 0.97, so class 1 reports
    # one zero-count placeholder bin spanning [0, 1].
    ("measure emptied class json",
     ["measure", "probs.csv", "--no-max-probs", "--class-conditional",
      "--threshold", "0.97", "--bins", "5", "--output", "out.json"],
     ("out.json",)),
    ("sweep-bins uncalibrated",
     ["sweep-bins", "--inputs", *METHODS, "--uncalibrated", "probs.csv",
      "--bins", "5", "10", "20", "--output-prefix", "out"],
     ("out.cells.csv", "out.summary.json")),
    ("sweep-bins footrule",
     ["sweep-bins", "--inputs", *METHODS, "--variant", "footrule",
      "--output-prefix", "out"],
     ("out.cells.csv", "out.summary.json")),
    ("rank-methods",
     ["rank-methods", "--inputs", *METHODS, "--bins", "10", "--output-prefix", "out"],
     ("out.table.csv", "out.scores.csv", "out.meta.json")),
]
DIGESTED = {"mlp"}
ARTIFACTS = ("model.json", "report.json", "recalibrated.csv")


def leaves(doc) -> list[float]:
    """Every number in a parsed JSON document, depth first in key order."""
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in leaves(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in leaves(v)]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [float(doc)]
    return []


def digest(numbers: list[float]) -> list[float]:
    n = len(numbers)
    return [
        float(n),
        sum(numbers),
        sum(x * x for x in numbers),
        sum(x * (i + 1) / n for i, x in enumerate(numbers)),
    ]


def write_inputs(workdir: Path) -> None:
    write_prediction_file(
        workdir / "probs.csv", softmax(sample_overconfident_logits(60, 3, 11))
    )
    write_prediction_file(workdir / "logits.csv", sample_overconfident_logits(60, 3, 12))
    write_prediction_file(workdir / "logits2.csv", sample_overconfident_logits(40, 2, 13))
    for name, seed in (("probs_b.csv", 14), ("probs_c.csv", 15)):
        write_prediction_file(
            workdir / name, softmax(sample_overconfident_logits(60, 3, seed, miscalibration=1.0))
        )


def run_case(name: str, source: str, extra: list[str], workdir: Path) -> dict:
    """Run one case on the inputs in ``workdir``; return what it printed and wrote."""
    argv = [
        "recalibrate", str(workdir / source), "--method", name.split()[0],
        *extra, "--output-prefix", str(workdir / "out"),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    record = {"exit": code, "stdout": out.getvalue()}
    for artifact in ARTIFACTS:
        text = (workdir / f"out.{artifact}").read_text()
        if artifact == "model.json" and name in DIGESTED:
            record["model.json digest"] = digest(leaves(json.loads(text)))
        else:
            record[artifact] = text
    return record


def run_cli_case(argv: list[str], written: tuple[str, ...], workdir: Path) -> dict:
    """Run one command from inside ``workdir``; return what it printed and wrote."""
    out = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(),
            **{name: (workdir / name).read_text() for name in written}}


def record(workdir: Path) -> None:
    write_inputs(workdir)
    golden = {
        "inputs": {f: (workdir / f).read_text() for f in INPUTS},
        "cases": {name: run_case(name, src, extra, workdir) for name, src, extra in CASES},
        "cli": {name: run_cli_case(argv, written, workdir)
                for name, argv, written in CLI_CASES},
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
