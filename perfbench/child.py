"""One workload process: set up, warm up, run timed decks, check outputs.

Started by ``run.py`` in a fresh single-threaded interpreter; it writes its
result as JSON to ``--result``.  Modes:

- ``setup``: set up and warm up, then report when the first timed op would
  have started (``run.py`` takes set-up time as a median over processes);
- ``run``: set up, run timed decks for ``--seconds``, check every op;
- ``trace``: trace set-up, alternate untraced and traced decks, check every
  op, and summarise the spans per layer;
- ``reference``: run each distinct op once, untimed, check it against the
  oracle and store its values as ``reference/seed-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calerr  # noqa: E402
import calerr.cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def timed_decks(wl, seconds: float, tracer=None):
    """Run whole decks until ``seconds`` have passed; return the op records.

    With a tracer, decks alternate untraced and traced and the run ends after
    a traced deck, so both halves see the same mix and the same drift in
    machine speed.  Returns the records and the wall time per half.
    """
    records = []
    wall = {False: 0.0, True: 0.0}
    round_no = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (tracer is not None and round_no % 2):
        traced = tracer is not None and round_no % 2 == 1
        if traced:
            tracer.install()
        deck_start = time.perf_counter()
        for op in wl.deck(round_no):
            op_id = len(records)
            t0 = time.perf_counter()
            try:
                if traced:
                    output = tracer.run_op(op_id, wl.execute, op, op_id)
                else:
                    output = wl.execute(op, op_id)
                error = None
            except Exception:
                output, error = None, traceback.format_exc(limit=3)
            records.append({"op": op, "latency": time.perf_counter() - t0,
                            "output": output, "error": error, "traced": traced})
        wall[traced] += time.perf_counter() - deck_start
        if traced:
            tracer.uninstall()
        round_no += 1
    return records, wall


def check_records(wl, records, reference) -> None:
    for rec in records:
        if rec["error"] is None:
            problems = wl.check(rec["op"], rec["output"], reference)
            rec["error"] = "; ".join(problems) if problems else None
        rec.pop("output")


def summary(records, wall: float) -> dict:
    done = [r for r in records if r["error"] is None]
    return {
        "completed": len(done),
        "wall_s": wall,
        "latencies": [r["latency"] for r in done],
        "classes": [r["op"].cls for r in done],
    }


def make_reference(wl) -> dict:
    stored = {}
    for i, op in enumerate(wl.distinct_ops()):
        output = wl.execute(op, i)
        problems = wl.check(op, output, None)
        if problems:
            raise SystemExit(f"{op.key}: output fails its checks: {problems}")
        stored[op.key] = wl.values(op, output)
    stored.update(wl.reference_extras())
    return stored


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace", "reference"))
    ap.add_argument("--result", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if not Path(calerr.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported calerr from {calerr.__file__}, not this checkout")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    result: dict = {"numpy": np.__version__}
    try:
        tracer = tracing.Tracer() if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()
        wl = workloads.WORKLOADS[args.workload](calerr, args.seed, workdir, args.tiny)
        if args.mode == "reference":
            stored = make_reference(wl)
            path = workloads.REFERENCE_DIR / f"seed-{args.seed}.json"
            doc = json.loads(path.read_text()) if path.exists() else {"seed": args.seed}
            doc[wl.name] = stored
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            return 0
        wl.execute(wl.distinct_ops()[0], -1)  # the untimed warm-up op
        result["ready"] = time.monotonic()
        if args.mode == "setup":
            return 0

        if tracer is not None:
            tracer.uninstall()
        records, wall = timed_decks(wl, args.seconds, tracer)
        if tracer is None:
            result["timed"] = summary(records, wall[False])
        else:
            traced = [r for r in records if r["traced"]]
            result["untraced"] = summary([r for r in records if not r["traced"]], wall[False])
            result["traced"] = summary(traced, wall[True])
            op_ns = sum(s[5] - s[4] for s in tracer.spans if s[3] == "bench.op")
            result["layers"] = tracing.summarize(tracer, len(traced), op_ns)
            result["setup_layers"] = tracing.setup_layer_seconds(tracer)
            tracing.write_spans(tracer, out_dir / f"{args.workload}-seed{args.seed}-spans.csv")

        reference = workloads.load_reference(args.seed)
        check_records(wl, records, reference[wl.name] if reference else None)
        result["attempted"] = len(records)
        result["failures"] = [
            {"key": r["op"].key, "error": r["error"]} for r in records if r["error"]
        ]
        result["reference_seed"] = reference is not None
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return 0
    finally:
        Path(args.result).write_text(json.dumps(result))
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
