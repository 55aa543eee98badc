"""The three benchmark workloads: seeded inputs, op decks, output checks.

Every workload is a closed loop with one client.  Its inputs come only from
the seed.  Ops run in decks: a deck holds each op type in a fixed
proportion, in a seeded order, and a run always ends on a deck boundary so
every run measures the same mix.

Each op's output is checked after the timed window, three ways:

- invariants of the output itself (exit code, row counts, valid rows);
- the benchmark's own reference scores (``oracle.py``) at any seed, to
  ``oracle.SCORE_TOL``;
- the stored reference results in ``reference/seed-<n>.json`` when the run's
  seed has one: scores to ``oracle.SCORE_TOL``, CLI stdout and artifacts to
  ``CLI_TOL``.

An op that raises or fails any check counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

CLI_TOL = 1e-8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Op:
    key: str      # identifies the op's inputs; ops with one key give one output
    cls: str      # op class for the traffic table
    args: tuple


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def mixed_difficulty_logits(rng: np.random.Generator, n: int, k: int):
    """Overconfident logits with a hard sub-population of small margins.

    The recipe of ``calerr.sample_mixed_difficulty_logits`` (margin 4 + 4|e|
    on one random class, quartered for 30% of rows, labels drawn from
    softmax(z / 4)), drawn from the benchmark's own generator.
    """
    z = rng.standard_normal((n, k))
    top = rng.integers(0, k, n)
    margins = 4.0 + 4.0 * np.abs(rng.standard_normal(n))
    margins[rng.random(n) < 0.3] *= 0.25
    z[np.arange(n), top] += margins
    cum = np.cumsum(oracle.softmax(z / 4.0), axis=1)
    labels = np.minimum((rng.random(n)[:, None] > cum).sum(axis=1), k - 1)
    return z, labels


def write_csv(path: Path, matrix: np.ndarray, labels: np.ndarray) -> None:
    """Prediction CSV in calerr's format: 17 significant digits, label last."""
    lines = [
        ",".join([f"{x:.17g}" for x in row] + [str(int(y))])
        for row, y in zip(matrix.tolist(), labels.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path):
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    return data[:, :-1], data[:, -1].astype(int)


def run_cli(main, argv: list[str]):
    """One in-process ``calerr.cli.main`` call with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def compare(got: dict, want: dict, tol: float, label: str) -> list[str]:
    """Mismatches between two value dicts on the keys of ``want``."""
    problems = []
    for key, expected in want.items():
        if key not in got:
            problems.append(f"{label}: missing {key}")
            continue
        a = np.asarray(got[key], dtype=float)
        b = np.asarray(expected, dtype=float)
        if a.shape != b.shape:
            problems.append(f"{label}: {key} has shape {a.shape}, want {b.shape}")
            continue
        diff = float(np.max(np.abs(a - b))) if a.size else 0.0
        if not diff <= tol:
            problems.append(f"{label}: {key} differs by {diff:.3g} (tolerance {tol:g})")
    return problems


def load_reference(seed: int) -> dict | None:
    path = REFERENCE_DIR / f"seed-{seed}.json"
    return json.loads(path.read_text()) if path.exists() else None


class Workload:
    """Base: subclasses build inputs in ``__init__`` and define the ops."""

    name = ""
    stored_tol = oracle.SCORE_TOL

    def __init__(self, calerr, seed: int, workdir: Path, tiny: bool) -> None:
        self.calerr = calerr
        self.seed = seed
        self.workdir = workdir
        self._oracle_cache: dict[str, dict] = {}

    def deck(self, round_no: int) -> list[Op]:
        ops = self.deck_ops()
        order = rng_for(self.seed, 99, round_no).permutation(len(ops))
        return [ops[i] for i in order]

    def deck_ops(self) -> list[Op]:
        raise NotImplementedError

    def distinct_ops(self) -> list[Op]:
        """One op per key a run can produce (what a stored reference covers)."""
        return list({op.key: op for op in self.deck_ops()}.values())

    def execute(self, op: Op, op_id: int):
        raise NotImplementedError

    def values(self, op: Op, output) -> dict:
        """Checked values of one op's output (also what a reference stores)."""
        raise NotImplementedError

    def oracle_values(self, op: Op) -> dict:
        return {}

    def invariants(self, op: Op, output, got: dict) -> list[str]:
        return []

    def reference_extras(self) -> dict:
        """Entries a stored reference keeps besides op values."""
        return {}

    def check(self, op: Op, output, reference: dict | None) -> list[str]:
        try:
            got = self.values(op, output)
        except Exception as exc:  # a malformed output is a failed op
            return [f"unreadable output: {exc!r}"]
        problems = self.invariants(op, output, got)
        if op.key not in self._oracle_cache:
            self._oracle_cache[op.key] = self.oracle_values(op)
        problems += compare(got, self._oracle_cache[op.key], oracle.SCORE_TOL, "oracle")
        if reference is not None:
            want = reference.get(op.key)
            if want is None:
                problems.append(f"stored reference has no entry {op.key}")
            else:
                problems += compare(got, want, self.stored_tol, "stored reference")
        return problems


# ---------------------------------------------------------------------------

class ScoreWide(Workload):
    """One ``calerr.gce`` call per op at ImageNet-like K = 1000."""

    name = "score-wide"
    BINS = (15, 30)

    def __init__(self, calerr, seed, workdir, tiny):
        super().__init__(calerr, seed, workdir, tiny)
        n, k, pool = (20, 30, 2) if tiny else (200, 1000, 4)
        self.pool = []
        for i in range(pool):
            z, y = mixed_difficulty_logits(rng_for(seed, 1, i), n, k)
            self.pool.append(calerr.PredictionSet(oracle.softmax(z), y))
        self.configs = {
            (v, b): calerr.index_to_config(v, b) for v in range(32) for b in self.BINS
        }

    @staticmethod
    def variant_class(v: int) -> str:
        _, max_probs, cc, threshold, _ = oracle.VARIANTS[v]
        view = "max" if max_probs else "full"
        thr = "-thr" if threshold and not max_probs else ""
        return f"{view}-{'cc' if cc else 'pooled'}{thr}"

    def deck_ops(self):
        return [Op(f"v{v}-b{b}", self.variant_class(v), (v, b))
                for v in range(32) for b in self.BINS]

    def deck(self, round_no):
        # The variant order and each op's pool entry are both seeded.
        ops = super().deck(round_no)
        picks = rng_for(self.seed, 98, round_no).integers(0, len(self.pool), len(ops))
        return [Op(f"p{p}-{op.key}", op.cls, (int(p),) + op.args)
                for p, op in zip(picks, ops)]

    def distinct_ops(self):
        return [Op(f"p{p}-{op.key}", op.cls, (p,) + op.args)
                for p in range(len(self.pool)) for op in self.deck_ops()]

    def execute(self, op, op_id):
        p, v, b = op.args
        return self.calerr.gce(self.pool[p], self.configs[(v, b)]).value

    def values(self, op, output):
        return {"score": float(output)}

    def oracle_values(self, op):
        p, v, b = op.args
        ps = self.pool[p]
        return {"score": oracle.score(ps.probs, ps.labels, v, b)}


# ---------------------------------------------------------------------------

SUITE = ("histogram", "bootstrap-histogram", "isotonic", "temperature-gce",
         "temperature-nll", "vector", "matrix", "mlp")


class Study(Workload):
    """One in-process ``calerr sweep-bins`` over a fitted suite per op."""

    name = "study"
    SWEEP_BINS = (10, 20, 30, 40, 50)

    def __init__(self, calerr, seed, workdir, tiny):
        super().__init__(calerr, seed, workdir, tiny)
        n, k, sets = (40, 4, 2) if tiny else (300, 10, 3)
        self.sets = []
        for s in range(sets):
            z, y = mixed_difficulty_logits(rng_for(seed, 2, s), n, k)
            cut = math.ceil(n / 2)
            suite = calerr.recalibrate_suite(
                calerr.LogitSet(z[:cut], y[:cut]), calerr.LogitSet(z[cut:], y[cut:]),
                seed=int(rng_for(seed, 3, s).integers(0, 2**31)),
            )
            paths = {}
            for name in SUITE:
                paths[name] = workdir / f"study{s}-{name}.csv"
                write_csv(paths[name], suite[name].probs, suite[name].labels)
            paths["(uncalibrated)"] = workdir / f"study{s}-uncalibrated.csv"
            write_csv(paths["(uncalibrated)"], oracle.softmax(z[cut:]), y[cut:])
            self.sets.append(paths)

    def deck_ops(self):
        return [Op(f"set{s}", f"sweep-bins:set{s}", (s,)) for s in range(len(self.sets))]

    def argv(self, s: int, prefix: Path) -> list[str]:
        paths = self.sets[s]
        return (["sweep-bins", "--inputs"]
                + [f"{name}={paths[name]}" for name in SUITE]
                + ["--uncalibrated", str(paths["(uncalibrated)"]),
                   "--output-prefix", str(prefix)])

    def execute(self, op, op_id):
        prefix = self.workdir / f"op{op_id}"
        return prefix, run_cli(self.calerr.cli.main, self.argv(op.args[0], prefix))

    def reference_extras(self):
        return {f"set{s}.inputs": self.input_digest(s) for s in range(len(self.sets))}

    def input_digest(self, s: int) -> str:
        h = hashlib.sha256()
        for name in SUITE + ("(uncalibrated)",):
            h.update(self.sets[s][name].read_bytes())
        return h.hexdigest()

    def values(self, op, output):
        prefix, _ = output
        with open(f"{prefix}.cells.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        summary = json.loads(Path(f"{prefix}.summary.json").read_text())
        return {
            "cells": [float(r[-1]) for r in rows],
            "correlation": summary["mean_pairwise_correlation"],
        }

    def cell_keys(self):
        names = SUITE + ("(uncalibrated)",)
        return [(v, b, m) for v in range(32) for b in self.SWEEP_BINS for m in names]

    def oracle_values(self, op):
        data = {name: read_csv(path) for name, path in self.sets[op.args[0]].items()}
        return {"cells": [oracle.score(*data[m], v, b) for v, b, m in self.cell_keys()]}

    def invariants(self, op, output, got):
        _, (rc, _, err) = output
        problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()}"]
        cells = np.asarray(got["cells"])
        if cells.shape[0] != len(self.cell_keys()):
            return problems + [f"{cells.shape[0]} cells, want {len(self.cell_keys())}"]
        # Rank stability recomputed from the reported scores checks the
        # analysis arithmetic on its own inputs.
        scores = cells.reshape(32, len(self.SWEEP_BINS), len(SUITE) + 1)[:, :, :-1]
        expected = []
        for i in range(32):
            ranks = [oracle.average_ranks(scores[i, j]) for j in range(scores.shape[1])]
            expected.append(float(np.mean([
                oracle.spearman(ranks[a], ranks[b])
                for a in range(len(ranks)) for b in range(a + 1, len(ranks))
            ])))
        return problems + compare(got, {"correlation": expected}, oracle.SCORE_TOL,
                                  "rank statistics")

    def check(self, op, output, reference):
        problems = super().check(op, output, reference)
        if reference is not None and problems:
            digest = reference.get(f"{op.key}.inputs")
            if digest and digest != self.input_digest(op.args[0]):
                problems.append("set-up fits wrote other inputs than the stored reference's")
        return problems


# ---------------------------------------------------------------------------

# (op class, ops per deck).  Chosen from the latencies at the benchmark's
# sizes so that op_p50_ms falls among the parse-bound commands and
# op_p90_ms among the SGD-trained fits (see README.md).
CLI_MIX = (
    ("label-noise", 2),
    ("measure:named", 8),
    ("reliability", 5),
    ("recalibrate:histogram", 4),
    ("recalibrate:cc-histogram", 4),
    ("recalibrate:bootstrap-histogram", 4),
    ("recalibrate:temperature", 4),
    ("recalibrate:isotonic", 3),
    ("measure:all-32", 3),
    ("rank-methods", 3),
    ("recalibrate:platt", 3),
    ("recalibrate:vector", 3),
    ("recalibrate:matrix", 3),
    ("recalibrate:mlp", 1),
)
NAMED_CYCLE = ("ECE", "ACE", "SCE", "TACE", "RMSCE", "CCECE")
RELIABILITY_CYCLE = ("ECE", "RMSCE")
PROB_METHODS = ("histogram", "cc-histogram", "bootstrap-histogram", "isotonic")
NOISE_LEVELS = 2
NOISE_MAX = 0.05


class CliFiles(Workload):
    """One in-process ``calerr.cli.main(argv)`` per op on CSVs written in set-up."""

    name = "cli-files"
    stored_tol = CLI_TOL

    def __init__(self, calerr, seed, workdir, tiny):
        super().__init__(calerr, seed, workdir, tiny)
        big, k, affine, mlp, rank_n, rank_files = (
            (100, 4, 40, 30, 40, 3) if tiny else (3000, 10, 1200, 400, 300, 3))
        self.noise_args = (["--n-train", "60", "--n-test", "30", "--train-iterations", "5"]
                           if tiny else
                           ["--n-train", "300", "--n-test", "100", "--train-iterations", "20"])
        z, y = mixed_difficulty_logits(rng_for(seed, 4), big, k)
        self.big_logits = workdir / "big-logits.csv"
        self.big_probs = workdir / "big-probs.csv"
        write_csv(self.big_logits, z, y)
        write_csv(self.big_probs, oracle.softmax(z), y)
        # SGD-trained fits read their own, smaller files: the affine file is
        # sized so those fits are the slowest ops apart from the MLP, whose
        # file is smaller again to keep its share of run time modest.
        self.sgd_logits = {}
        for method, rows, tag in (("affine", affine, 5), ("mlp", mlp, 8)):
            z, y = mixed_difficulty_logits(rng_for(seed, tag), rows, k)
            self.sgd_logits[method] = workdir / f"{method}-logits.csv"
            write_csv(self.sgd_logits[method], z, y)
        self.rank_inputs = {}
        for i in range(rank_files):
            z, y = mixed_difficulty_logits(rng_for(seed, 6, i), rank_n, k)
            path = workdir / f"rank{i}.csv"
            write_csv(path, oracle.softmax(z * (0.5 + 0.25 * i)), y)
            self.rank_inputs[f"model{i}"] = path
        self.noise_seed = int(rng_for(seed, 7).integers(0, 2**31))
        self._parsed: dict[Path, tuple] = {}

    def data(self, path: Path, logits: bool = False):
        if path not in self._parsed:
            self._parsed[path] = read_csv(path)
        x, y = self._parsed[path]
        return (oracle.softmax(x) if logits else x), y

    def deck_ops(self):
        ops = []
        for cls, count in CLI_MIX:
            for i in range(count):
                if cls == "measure:named":
                    name = NAMED_CYCLE[i % len(NAMED_CYCLE)]
                    ops.append(Op(f"measure:named:{name}", cls, (name,)))
                elif cls == "reliability":
                    name = RELIABILITY_CYCLE[i % len(RELIABILITY_CYCLE)]
                    ops.append(Op(f"reliability:{name}", cls, (name,)))
                else:
                    ops.append(Op(cls, cls, ()))
        return ops

    def argv(self, op: Op, prefix: Path) -> list[str]:
        sub, _, method = op.cls.partition(":")
        if sub == "recalibrate":
            if method in PROB_METHODS:
                src = [str(self.big_probs)]
            elif method == "temperature":
                src = [str(self.big_logits), "--logits"]
            else:
                src = [str(self.sgd_file(method)), "--logits"]
            return ["recalibrate", *src, "--method", method, "--seed", "0",
                    "--output-prefix", str(prefix)]
        if op.cls == "measure:named":
            return ["measure", str(self.big_probs), "--named", op.args[0]]
        if op.cls == "measure:all-32":
            return ["measure", str(self.big_probs), "--all-32"]
        if sub == "reliability":
            return ["reliability", str(self.big_probs), "--named", op.args[0],
                    "--output", f"{prefix}.bins.csv"]
        if sub == "rank-methods":
            return ["rank-methods", "--inputs",
                    *[f"{n}={p}" for n, p in self.rank_inputs.items()],
                    "--output-prefix", str(prefix)]
        return ["label-noise", "--levels", str(NOISE_LEVELS), "--max-noise",
                str(NOISE_MAX), *self.noise_args, "--seed", str(self.noise_seed),
                "--output", f"{prefix}.noise.csv"]

    def execute(self, op, op_id):
        prefix = self.workdir / f"op{op_id}"
        return prefix, run_cli(self.calerr.cli.main, self.argv(op, prefix))

    def sgd_file(self, method: str) -> Path:
        return self.sgd_logits["mlp" if method == "mlp" else "affine"]

    def eval_half(self, method: str):
        if method in PROB_METHODS:
            x, y = self.data(self.big_probs)
        elif method == "temperature":
            x, y = self.data(self.big_logits, logits=True)
        else:
            x, y = self.data(self.sgd_file(method), logits=True)
        cut = math.ceil(y.shape[0] / 2)
        return x[cut:], y[cut:]

    def values(self, op, output):
        prefix, (rc, out, err) = output
        sub, _, method = op.cls.partition(":")
        lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        if sub == "recalibrate":
            report = json.loads(Path(f"{prefix}.report.json").read_text())
            probs, _ = read_csv(Path(f"{prefix}.recalibrated.csv"))
            got = {
                "before": float(lines["before"]), "after": float(lines["after"]),
                "report_before": report["before"], "report_after": report["after"],
                "column_means": probs.mean(axis=0).tolist(),
            }
            if method == "temperature":
                got["temperature"] = float(lines["temperature"].split()[0])
            return got
        if op.cls == "measure:named":
            return {"score": float(lines["score"])}
        if op.cls == "measure:all-32":
            return {"scores": [float(line.rsplit(",", 1)[1]) for line in out.splitlines()]}
        if sub == "reliability":
            table = np.loadtxt(f"{prefix}.bins.csv", delimiter=",", skiprows=1,
                               usecols=(3, 4, 5), ndmin=2)
            return {"counts": table[:, 0].tolist(), "accuracy": table[:, 1].tolist(),
                    "confidence": table[:, 2].tolist()}
        if sub == "rank-methods":
            with open(f"{prefix}.scores.csv", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            return {"scores": [float(r[2]) for r in rows]}
        table = np.loadtxt(f"{prefix}.noise.csv", delimiter=",", skiprows=1, ndmin=2)
        return {"table": table.ravel().tolist()}

    def oracle_values(self, op):
        sub, _, method = op.cls.partition(":")
        ece = oracle.NAMED["ECE"]
        if sub == "recalibrate":
            before = oracle.score(*self.eval_half(method), ece, 15)
            return {"before": before, "report_before": before}
        if op.cls == "measure:named":
            return {"score": oracle.score(*self.data(self.big_probs),
                                          oracle.NAMED[op.args[0]], 15)}
        if op.cls == "measure:all-32":
            x, y = self.data(self.big_probs)
            return {"scores": [oracle.score(x, y, v, 15) for v in range(32)]}
        if sub == "reliability":
            counts, acc, conf = oracle.bin_rows(*self.data(self.big_probs),
                                                oracle.NAMED[op.args[0]], 15)
            return {"counts": counts, "accuracy": acc, "confidence": conf}
        if sub == "rank-methods":
            data = [self.data(p) for p in self.rank_inputs.values()]
            return {"scores": [oracle.score(x, y, v, 15) for x, y in data
                               for v in range(32)]}
        return {}

    def invariants(self, op, output, got):
        prefix, (rc, out, err) = output
        if rc != 0 or err:
            return [f"exit code {rc}: {err.strip()}"]
        sub, _, method = op.cls.partition(":")
        problems = []
        if sub == "recalibrate":
            probs, labels = read_csv(Path(f"{prefix}.recalibrated.csv"))
            x, y = self.eval_half(method)
            if not np.array_equal(labels, y):
                problems.append("recalibrated labels differ from the eval half's")
            elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-6 or probs.min() < 0.0:
                problems.append("recalibrated rows are not probability rows")
            else:
                after = oracle.score(probs, labels, oracle.NAMED["ECE"], 15)
                problems += compare(got, {"after": after, "report_after": after},
                                    oracle.SCORE_TOL, "oracle")
        elif sub == "rank-methods":
            scores = np.asarray(got["scores"]).reshape(len(self.rank_inputs), 32)
            with open(f"{prefix}.table.csv", newline="") as handle:
                table = list(csv.reader(handle))[1:]
            names = list(self.rank_inputs)
            for c in range(32):
                order = [names[m] for m in np.argsort(scores[:, c], kind="stable")]
                if [row[c + 1] for row in table] != order:
                    problems.append(f"rank table column {c} disagrees with the scores")
                    break
        elif sub == "label-noise":
            table = np.asarray(got["table"]).reshape(NOISE_LEVELS, -1)
            grid = [i * NOISE_MAX / (NOISE_LEVELS - 1) for i in range(NOISE_LEVELS)]
            if not np.array_equal(table[:, 0], grid):
                problems.append("label-noise levels differ from the requested grid")
            if not (np.all(np.isfinite(table)) and table.min() >= 0.0
                    and table[:, 1:].max() <= 1.0):
                problems.append("label-noise values outside [0, 1]")
        return problems


WORKLOADS = {w.name: w for w in (ScoreWide, Study, CliFiles)}
