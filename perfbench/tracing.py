"""Span tracing of calerr's layers from outside the package.

``Tracer.install`` rebinds every public function that one calerr module
imports from another (and that the ``calerr`` package re-exports) to a
wrapper that records a span, so spans sit exactly on the boundaries between
layers.  Calls inside a module are not spans.  A few boundaries get extra
handling:

- ``calerr.cli.main`` is wrapped, because the benchmark calls it directly;
- ``ScoredPredictions.filter`` is wrapped as a class attribute;
- the objective handed to ``sgd_minimize``, ``nelder_mead`` and the
  temperature fit's golden-section fallback is wrapped too, so each
  evaluation is a span.  Evaluations count to the optimizer's layer.

A span records its name, start, end, parent span and the op it ran in.
Spans stay in memory; a layer's self time is its span's duration minus the
time its child spans cover.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import os
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("io", "predictions", "binning", "metrics", "recalibrate",
          "optimize", "analysis", "cli")
CLI_SUBCOMMANDS = ("measure", "recalibrate", "sweep-bins", "rank-methods",
                   "label-noise", "reliability")
FIT_METHODS = {
    "fit_histogram_binning": "histogram",
    "fit_isotonic_multiclass": "isotonic",
    "fit_temperature": "temperature",
    "fit_affine_scaling": "affine",
    "fit_mlp_scaling": "mlp",
}
VIEW_SPANS = ("predictions.max_prob_view", "predictions.full_prob_view")
READ_SPANS = ("io.read_prediction_file", "io.read_run_config")
SETUP_OP = -1

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder plus the rebinding that feeds it."""

    def __init__(self) -> None:
        # Closed spans: (uid, parent uid, op id, name, start ns, end ns, self ns).
        self.spans: list[tuple] = []
        # Open spans: [uid, start ns, time covered by children ns].
        self.stack: list[list] = []
        self.next_uid = 0
        self.op = SETUP_OP
        # Per-span extras: uid -> dict of counts (entries, bytes, bins, ...).
        self.extra: dict[int, dict] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, note=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``note(uid, args, kwargs, result)`` may attach counts to the span;
        it runs after the span closes, so its cost is not layer time.
        """
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            uid = self.next_uid
            self.next_uid = uid + 1
            parent = stack[-1][0] if stack else -1
            rec = [uid, 0, 0]
            stack.append(rec)
            rec[1] = start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                spans.append((uid, parent, self.op, name, start, end, dur - rec[2]))
            if note is not None:
                note(uid, args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span ``bench.op``."""
        self.op = op_id
        try:
            return self.span("bench.op", fn)(*args)
        finally:
            self.op = SETUP_OP

    # -- rebinding --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import calerr
        import calerr.cli
        import calerr.predictions
        import calerr.recalibrate

        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "calerr" or name.startswith("calerr.")
        }
        wrappers: dict[int, object] = {}
        for mod_name, mod in sorted(modules.items()):
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("calerr.")
                        or value.__module__ == mod_name):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap_public(value)
                self._set(mod, attr, wrappers[id(value)])
        self._set(calerr.cli, "main", self.span("cli.main", calerr.cli.main,
                                                self._note_cli))
        cls = calerr.predictions.ScoredPredictions
        self._set(cls, "filter", self.span("predictions.filter", cls.filter,
                                           self._note_view))
        self._set(calerr.recalibrate, "_golden_section",
                  self._wrap_minimizer("recalibrate.golden_section",
                                       "recalibrate.golden_eval",
                                       calerr.recalibrate._golden_section))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def _wrap_public(self, fn):
        layer = fn.__module__.split(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        if name == "optimize.sgd_minimize":
            return self._wrap_minimizer(name, "optimize.sgd_grad", fn)
        if name == "optimize.nelder_mead":
            return self._wrap_minimizer(name, "optimize.nm_eval", fn, self._note_nm)
        note = None
        if name in VIEW_SPANS:
            note = self._note_view
        elif name == "binning.bin_stats":
            note = self._note_bins
        elif name in READ_SPANS or name.startswith("io.write_"):
            note = self._note_file_size
        return self.span(name, fn, note)

    def _wrap_minimizer(self, name: str, eval_name: str, fn, note=None):
        def minimizer(f, *args, **kwargs):
            return fn(self.span(eval_name, f), *args, **kwargs)

        return self.span(name, minimizer, note)

    # -- counts attached to spans ----------------------------------------

    def _note_view(self, uid, args, kwargs, view) -> None:
        self.extra[uid] = {
            "entries": len(view),
            "bytes": sum(getattr(view, a).nbytes for a in type(view).__slots__),
        }

    def _note_bins(self, uid, args, kwargs, stats) -> None:
        self.extra[uid] = {
            "bins": len(stats), "empty": sum(1 for st in stats if st.count == 0),
        }

    def _note_file_size(self, uid, args, kwargs, result) -> None:
        self.extra[uid] = {"bytes": os.path.getsize(args[0])}

    def _note_nm(self, uid, args, kwargs, result) -> None:
        self.extra[uid] = {"converged": bool(result.converged)}

    def _note_cli(self, uid, args, kwargs, result) -> None:
        argv = args[0] if args else kwargs.get("argv")
        self.extra[uid] = {"subcommand": argv[0] if argv else ""}


# -- summaries ------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer, ops: int, op_ns: int) -> dict:
    """Per-layer metrics over the spans of timed ops (``op >= 0``).

    Times and counts are per op; ``op_ns`` is the summed duration of the
    ``ops`` traced ops.
    """
    spans = [s for s in tracer.spans if s[2] >= 0]
    extra = tracer.extra
    by_uid = {s[0]: s for s in spans}
    self_ns: defaultdict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    for uid, parent, op, name, start, end, own in spans:
        self_ns[name] += own
        calls[name] += 1

    def ancestor(uid, names, depth=4):
        parent = by_uid[uid][1]
        while parent in by_uid and depth:
            if by_uid[parent][3] in names:
                return by_uid[parent]
            parent = by_uid[parent][1]
            depth -= 1
        return None

    def s_per_op(*names) -> float:
        return sum(self_ns[n] for n in names) / 1e9 / ops

    def calls_per_op(*names) -> float:
        return sum(calls[n] for n in names) / ops

    def extra_sum(names, key) -> int:
        return sum(extra.get(s[0], {}).get(key, 0) for s in spans if s[3] in names)

    layer_self = defaultdict(int)
    for name, ns in self_ns.items():
        layer_self[_layer(name)] += ns

    m: dict[str, float] = {}
    writes = tuple(n for n in calls if n.startswith("io.write_"))
    m["io.read_s"] = s_per_op(*READ_SPANS)
    m["io.read_calls"] = calls_per_op(*READ_SPANS)
    m["io.read_bytes"] = extra_sum(READ_SPANS, "bytes") / ops
    m["io.write_s"] = s_per_op(*writes)
    m["io.write_calls"] = calls_per_op(*writes)
    m["io.write_bytes"] = extra_sum(writes, "bytes") / ops

    softmaxes = ("predictions.softmax", "predictions.row_softmax")
    m["predictions.view_s"] = s_per_op(*VIEW_SPANS)
    m["predictions.view_calls"] = calls_per_op(*VIEW_SPANS)
    m["predictions.view_entries"] = extra_sum(VIEW_SPANS, "entries") / ops
    m["predictions.view_bytes"] = extra_sum(VIEW_SPANS, "bytes") / ops
    m["predictions.filter_s"] = s_per_op("predictions.filter")
    m["predictions.filter_calls"] = calls_per_op("predictions.filter")
    m["predictions.softmax_s"] = s_per_op(*softmaxes)

    bins = extra_sum(("binning.bin_stats",), "bins")
    m["binning.bin_stats_s"] = s_per_op("binning.bin_stats")
    m["binning.bin_stats_calls"] = calls_per_op("binning.bin_stats")
    m["binning.bins_emitted"] = bins / ops
    m["binning.empty_bin_ratio"] = (
        extra_sum(("binning.bin_stats",), "empty") / bins if bins else 0.0
    )

    metric_spans = tuple(n for n in calls if _layer(n) == "metrics")
    scores = calls["metrics.gce"]
    views_in_gce = sum(
        1 for s in spans
        if s[3] in VIEW_SPANS and ancestor(s[0], ("metrics.gce",)) is not None
    )
    m["metrics.gce_s"] = s_per_op(*metric_spans)
    m["metrics.gce_calls"] = calls_per_op("metrics.gce")
    m["metrics.views_per_score"] = views_in_gce / scores if scores else 0.0

    fits = tuple(f"recalibrate.{f}" for f in FIT_METHODS)
    applies = tuple(n for n in calls if n.startswith("recalibrate.apply_"))
    m["recalibrate.fit_calls"] = calls_per_op(*fits)
    for fn_name, method in FIT_METHODS.items():
        m[f"recalibrate.fit_s.{method}"] = s_per_op(f"recalibrate.{fn_name}")
    m["recalibrate.apply_s"] = s_per_op(*applies)
    temperature_fits = calls["recalibrate.fit_temperature"]
    evals = sum(
        1 for s in spans
        if (s[3] == "metrics.gce" and by_uid.get(s[1], (0,) * 4)[3]
            == "recalibrate.fit_temperature")
        or (s[3] in ("optimize.nm_eval", "recalibrate.golden_eval")
            and ancestor(s[0], ("recalibrate.fit_temperature",)) is not None)
    )
    m["recalibrate.temperature_objective_evals"] = (
        evals / temperature_fits if temperature_fits else 0.0
    )

    grads = [s[5] - s[4] for s in spans if s[3] == "optimize.sgd_grad"]
    nm_runs = [extra.get(s[0], {}).get("converged") for s in spans
               if s[3] == "optimize.nelder_mead"]
    m["optimize.sgd_s"] = s_per_op("optimize.sgd_minimize", "optimize.sgd_grad")
    m["optimize.sgd_grad_evals"] = len(grads) / ops
    m["optimize.sgd_grad_ms"] = float(np.mean(grads)) / 1e6 if grads else 0.0
    m["optimize.nm_s"] = s_per_op("optimize.nelder_mead", "optimize.nm_eval")
    m["optimize.nm_evals"] = calls_per_op("optimize.nm_eval")
    m["optimize.nm_converged_ratio"] = (
        sum(1 for c in nm_runs if c) / len(nm_runs) if nm_runs else 0.0
    )

    rank_stats = ("analysis.average_ranks", "analysis.rank_correlation")
    m["analysis.self_s"] = (layer_self["analysis"] - sum(self_ns[n] for n in rank_stats)) / 1e9 / ops
    m["analysis.rank_stats_s"] = s_per_op(*rank_stats)

    m["cli.self_s"] = layer_self["cli"] / 1e9 / ops
    subcommands = Counter(
        extra.get(s[0], {}).get("subcommand") for s in spans if s[3] == "cli.main"
    )
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.ops.{sub}"] = subcommands[sub]

    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer] / 1e9 / ops
    accounted = sum(layer_self[layer] for layer in LAYERS)
    m["trace.op_s"] = op_ns / 1e9 / ops
    m["trace.spans_per_op"] = len(spans) / ops
    m["trace.accounted_pct"] = 100.0 * accounted / op_ns if op_ns else 0.0
    return m


def setup_layer_seconds(tracer: Tracer) -> dict:
    """Self time per layer over the spans recorded during set-up."""
    out = {layer: 0 for layer in LAYERS}
    for _, _, op, name, _, _, own in tracer.spans:
        if op < 0 and _layer(name) in out:
            out[_layer(name)] += own
    return {f"setup.{layer}.self_s": ns / 1e9 for layer, ns in out.items()}


def write_spans(tracer: Tracer, path) -> None:
    """All recorded spans as CSV, in the order they opened."""
    lines = ["uid,parent,op,name,start_ns,end_ns,self_ns"]
    lines += [",".join(map(str, s)) for s in sorted(tracer.spans)]
    Path(path).write_text("\n".join(lines) + "\n")
