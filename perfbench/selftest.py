"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that:

1. every metric of BENCHMARK.json prints by name with its unit, for every
   workload, with and without tracing;
2. a workload's inputs are a function of the seed alone;
3. a deliberately wrong stored reference is counted as failed ops;
4. without the calerr sources the benchmark exits non-zero, printing no
   result.

Uses seeds that have no stored reference, since tiny inputs differ from the
full-size ones the references hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import child  # puts the checkout's src first on sys.path
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 424242


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_names_and_units() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, w["name"], trace)
            tag = f"{w['name']} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: ops failed: {lines[-12:-1]}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} differ")
            for name, unit in want.items():
                if not any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                           for line in lines[:-1]):
                    problems.append(f"{tag}: {name} not printed with unit {unit}")
    return problems


def built_inputs(cls, seed: int, workdir: Path):
    wl = cls(child.calerr, seed, workdir, tiny=True)
    arrays = [ps.probs for ps in getattr(wl, "pool", [])]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return arrays, files


def check_determinism() -> list[str]:
    problems = []
    for cls in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            dirs = [Path(tmp) / d for d in ("a", "b", "c")]
            for d in dirs:
                d.mkdir()
            a = built_inputs(cls, SEED, dirs[0])
            b = built_inputs(cls, SEED, dirs[1])
            c = built_inputs(cls, SEED + 1, dirs[2])
        same = lambda x, y: (len(x[0]) == len(y[0]) and x[1] == y[1]
                             and all((p == q).all() for p, q in zip(x[0], y[0])))
        if not same(a, b):
            problems.append(f"{cls.name}: one seed built different inputs")
        if same(a, c):
            problems.append(f"{cls.name}: two seeds built the same inputs")
    return problems


def check_wrong_reference() -> list[str]:
    problems = []
    for cls, tol in ((workloads.ScoreWide, 1e-10), (workloads.CliFiles, workloads.CLI_TOL)):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            wl = cls(child.calerr, SEED, Path(tmp), tiny=True)
            deck = wl.deck(0)
            outputs = [wl.execute(op, i) for i, op in enumerate(deck)]
            good = {op.key: wl.values(op, out) for op, out in zip(deck, outputs)}
            victim = deck[0].key
            bad = json.loads(json.dumps(good))
            field = next(iter(bad[victim]))
            value = bad[victim][field]
            bad[victim][field] = ([v + 10 * tol for v in value] if isinstance(value, list)
                                  else value + 10 * tol)
            for reference, want_failed in ((good, 0),
                                           (bad, sum(op.key == victim for op in deck))):
                records = [{"op": op, "output": out, "error": None}
                           for op, out in zip(deck, outputs)]
                child.check_records(wl, records, reference)
                failed = sum(1 for r in records if r["error"])
                if failed != want_failed:
                    problems.append(f"{cls.name}: {failed} failed ops, want {want_failed}")
    return problems


def check_no_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_benchmark(Path(tmp), "score-wide", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    problems = []
    for check in (check_names_and_units, check_determinism, check_wrong_reference,
                  check_no_sources):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
