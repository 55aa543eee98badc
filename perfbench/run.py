"""calerr benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload score-wide --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Workload processes import calerr from the
checkout's ``src`` and run single-threaded: BLAS and OpenMP are pinned to
one thread through their environment.  With ``--trace 0`` the run prints the
end-to-end metrics of BENCHMARK.json: set-up time is the median over three
fresh processes, the other metrics come from the last one, which runs the
timed decks.  With ``--trace 1`` one process alternates untraced and traced
decks and the run prints the per-layer metrics.  Either way the last
line of stdout is the JSON result; the lines before it are a readable report
(environment, traffic per op class, failures, metrics), also written to
``perfbench/out/``.

    python3 perfbench/run.py --write-reference --seed 0

stores the reference results that runs at that seed are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("score-wide", "study", "cli-files")
SETUP_PROCESSES = 3
TIME_LIMIT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    return env


def spawn(args, mode: str, deadline: float, tag: str) -> dict:
    """Run one workload process; return its result and when it was started."""
    result_path = HERE / "out" / f"{args.workload}-seed{args.seed}-{tag}.child.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--result", str(result_path)]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["started"] = started
    return result


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "threads": {name: child_env()[name] for name in THREAD_ENV},
    }


def traffic(timed: dict) -> list[dict]:
    """Op count, share of ops and share of op time per op class."""
    count = Counter(timed["classes"])
    seconds = defaultdict(float)
    lat = defaultdict(list)
    for cls, t in zip(timed["classes"], timed["latencies"]):
        seconds[cls] += t
        lat[cls].append(t)
    total_ops = len(timed["classes"])
    total_s = sum(seconds.values())
    return [
        {"class": cls, "ops": count[cls], "op_share": count[cls] / total_ops,
         "time_share": seconds[cls] / total_s,
         "p50_ms": 1000 * statistics.median(lat[cls])}
        for cls in sorted(count, key=lambda c: statistics.median(lat[c]))
    ]


def class_at(timed: dict, q: float) -> str:
    """The op class of the op at percentile ``q`` of latency."""
    ranked = sorted(zip(timed["latencies"], timed["classes"]))
    return ranked[min(len(ranked) - 1, round((len(ranked) - 1) * q / 100.0))][1]


def main() -> int:
    ap = argparse.ArgumentParser(description="calerr benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store reference results for --seed (all workloads)")
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "calerr" / "__init__.py").is_file():
        return fail(f"no calerr sources under {ROOT / 'src'}; run from a calerr checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    (HERE / "out").mkdir(exist_ok=True)

    if args.write_reference:
        for name in WORKLOADS:
            args.workload = name
            spawn(args, "reference", time.monotonic() + 600.0, "reference")
            print(f"stored {name} reference for seed {args.seed}")
        return 0
    if args.workload is None:
        return fail("--workload is required")

    try:
        if args.trace:
            run = spawn(args, "trace", deadline, "trace")
            setups = []
        else:
            setups = [spawn(args, "setup", deadline, f"setup{i}")
                      for i in range(SETUP_PROCESSES - 1)]
            run = spawn(args, "run", deadline, "run")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(f"workload process failed: {exc}")

    env = environment(run["numpy"])
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "environment": env,
                    "reference_checked": run["reference_seed"]}
    values: dict[str, float] = {}
    if args.trace:
        untraced, traced = run["untraced"], run["traced"]
        per_s_u = untraced["completed"] / untraced["wall_s"]
        per_s_t = traced["completed"] / traced["wall_s"]
        values.update(run["layers"])
        values.update(run["setup_layers"])
        values["trace.ops_per_s_untraced"] = per_s_u
        values["trace.ops_per_s_traced"] = per_s_t
        values["trace.overhead_pct"] = 100.0 * (per_s_u / per_s_t - 1.0)
        report["traffic"] = traffic(traced)
        section = spec["per_layer"]
    else:
        timed = run["timed"]
        lat = timed["latencies"]
        setup_samples = [r["ready"] - r["started"] for r in setups + [run]]
        values["setup_s"] = statistics.median(setup_samples)
        values["op_p50_ms"] = 1000 * statistics.median(lat)
        values["op_p90_ms"] = 1000 * statistics.quantiles(lat, n=10, method="inclusive")[-1]
        values["ops_per_s"] = timed["completed"] / timed["wall_s"]
        values["peak_rss_mb"] = run["peak_rss_mb"]
        report["setup_samples_s"] = setup_samples
        report["traffic"] = traffic(timed)
        report["p50_class"] = class_at(timed, 50)
        report["p90_class"] = class_at(timed, 90)
        report["ops_timed"] = len(lat)
        report["op_latencies_ms"] = [round(1000 * t, 3) for t in lat]
        section = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    failures = run["failures"]
    report["failures"] = failures
    report["metrics"] = metrics
    out_path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"stored reference {'checked' if run['reference_seed'] else 'absent (oracle only)'}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'op class':34s} {'ops':>5s} {'op share':>9s} {'time share':>11s} {'p50 ms':>10s}")
    for row in report["traffic"]:
        print(f"{row['class']:34s} {row['ops']:5d} {row['op_share']:9.3f} "
              f"{row['time_share']:11.3f} {row['p50_ms']:10.2f}")
    if not args.trace:
        print(f"op_p50_ms falls in {report['p50_class']}, op_p90_ms in {report['p90_class']}; "
              f"{report['ops_timed']} timed ops")
    for f in failures[:10]:
        print(f"FAILED {f['key']}: {f['error']}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures and run["attempted"] > 0,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
