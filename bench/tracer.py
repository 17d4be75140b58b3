"""In-process tracer for one cccpde child process.

`install()` wraps every public function and method of each cccpde module
(the package itself stays unchanged) and attributes time to layers. A layer
is a group of wrapped calls named in `LAYERS`; the self time of any other
wrapped call folds into the innermost enclosing layer, so a layer's self
time is its span durations minus the time covered by nested layer spans.
Per-hit calls (one per random draw or per scalar inside the incomplete beta
function) are left unwrapped and counted through their enclosing call.

Spans of layer calls are kept in memory (up to `SPAN_CAP`) and written with
the aggregates by `Tracer.dump` when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("numerics", "nn", "flow", "data", "bayes", "evaluate", "model",
           "serialize", "cli")

# called once per random draw or per scalar; wrapping them would swamp the run
UNWRAPPED = {"numerics.Rng.random", "numerics.Rng.randint_below",
             "numerics.log_gamma"}

# wrapped call -> layer it belongs to
LAYERS = {
    "nn.dropout": "nn.dropout",
    "nn.DenseBlock.forward": "nn.dense_block.forward",
    "nn.DenseBlock.backward": "nn.dense_block.backward",
    "nn.AdamState.step": "nn.adam.step",
    "nn.AdamState.apply": "nn.adam.step",
    "nn.adam_step": "nn.adam.step",
    "flow.CouplingLayer.forward": "flow.coupling.forward",
    "flow.CouplingLayer.backward": "flow.coupling.backward",
    "flow.CouplingLayer.inverse": "flow.coupling.inverse",
    "model.CccpDeModel.loss_and_grads": "model.loss_and_grads",
    "model.FfnnModel.loss_and_grads": "model.loss_and_grads",
    "model.GlmRegressor.loss_and_grads": "model.loss_and_grads",
    "model.CccpDeModel.eval_loss": "model.eval_loss",
    "model.FfnnModel.eval_loss": "model.eval_loss",
    "model.GlmRegressor.eval_loss": "model.eval_loss",
    "model.train": "model.train",
    "model.glm_fit_and_predict": "model.glm_fit",
    "model.CccpDeModel.forward": "model.forward",
    "bayes.posterior_reports": "bayes.posterior_reports",
    "bayes.beta_cdf": "bayes.beta_cdf",
    "evaluate.roc_auc": "evaluate.roc_auc",
    "evaluate.write_reports_csv": "evaluate.write_reports_csv",
    "evaluate.density_grid": "evaluate.density_grid",
    "evaluate.write_density_grid_csv": "evaluate.write_density_grid_csv",
    "numerics.Rng.permutation": "numerics.rng_permutation",
    "numerics.Rng.normals": "numerics.rng_normals",
    "data.load_csv": "data.load_csv",
    "data.save_csv": "data.save_csv",
    "data.gen_mixture": "data.gen_mixture",
    "serialize.read_state": "serialize.read_state",
    "serialize.write_state": "serialize.write_state",
    "cli.main": "cli.main",
}

# per-row calls: aggregated, never kept as spans
NO_SPAN = {"bayes.beta_cdf"}
SPAN_CAP = 200_000
STEP = "model.CccpDeModel.loss_and_grads"


class Tracer:
    """Aggregates and spans of the wrapped calls in this process."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack: list[list] = []  # [layer, child seconds, span index]
        self.raw: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.layers: dict[str, list] = {}  # layer -> [calls, total s, self s]
        self.counters: dict[str, float] = {}
        self.row_seconds: list[float] = []  # one per posterior_report call
        self.active: dict[str, int] = {}
        self.spans: list[list] = []  # [layer, start, end, parent span]
        self.spans_dropped = 0
        self.hooks = {
            "nn.dropout": self._dropout,
            "nn.DenseLayer.forward": self._dense_forward,
            "flow.CouplingLayer.forward": self._input_rows("flow.coupling.forward_rows"),
            "flow.CouplingLayer.inverse": self._input_rows("flow.coupling.inverse_rows"),
            "model.CccpDeModel.forward": self._input_rows("model.forward.rows"),
            "numerics.Rng.normals": self._normals,
            "data.load_csv": self._load_csv,
            "data.save_csv": self._save_csv,
            "serialize.read_state": self._file_bytes("serialize.read_state.bytes"),
            "serialize.write_state": self._file_bytes("serialize.write_state.bytes"),
            "bayes.posterior_reports": self._posterior_rows,
            "bayes.posterior_report": self._posterior_row,
        }

    # -- counters -----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _input_rows(self, key):
        # methods called as obj.method(x): args[1] is the input array
        return lambda args, kwargs, result, dur: self.add(key, args[1].shape[0])

    def _file_bytes(self, key):
        return lambda args, kwargs, result, dur: self.add(key, os.path.getsize(args[0]))

    def _dropout(self, args, kwargs, result, dur):
        mask = result[1]
        self.add("nn.dropout.zeroed", mask.size - int(mask.astype(bool).sum()))

    def _dense_forward(self, args, kwargs, result, dur):
        if self.active.get(STEP):
            self.add("nn.dense_layer.forward_calls_in_step", 1)

    def _normals(self, args, kwargs, result, dur):
        self.add("numerics.rng_normals.draws", int(args[1]))

    def _load_csv(self, args, kwargs, result, dur):
        self.add("data.load_csv.rows", result.n_rows)

    def _save_csv(self, args, kwargs, result, dur):
        self.add("data.save_csv.rows", args[0].n_rows)

    def _posterior_rows(self, args, kwargs, result, dur):
        self.add("bayes.posterior_reports.rows", len(result))

    def _posterior_row(self, args, kwargs, result, dur):
        self.row_seconds.append(dur)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        layer = LAYERS.get(name)
        hook = self.hooks.get(name)
        keep_span = layer is not None and name not in NO_SPAN
        stack, raw, layers, active = self.stack, self.raw, self.layers, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = parent[0] if parent else None
            own = layer or outer
            span = -1
            if keep_span and own != outer:
                if len(self.spans) < SPAN_CAP:
                    span = len(self.spans)
                    self.spans.append([own, 0.0, 0.0, parent[2] if parent else -1])
                else:
                    self.spans_dropped += 1
            frame = [own, 0.0, span if span >= 0 else (parent[2] if parent else -1)]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                dur = end - start
                own_self = dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                agg = raw.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += own_self
                if own is not None:
                    lagg = layers.setdefault(own, [0, 0.0, 0.0])
                    lagg[2] += own_self
                    if own != outer:
                        lagg[0] += 1
                        lagg[1] += dur
                if span >= 0:
                    self.spans[span][1] = start - self.t0
                    self.spans[span][2] = end - self.t0
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return traced

    def dump(self, path, extra: dict) -> None:
        payload = {
            "raw": self.raw, "layers": self.layers, "counters": self.counters,
            "posterior_row_seconds": self.row_seconds, "spans": self.spans,
            "spans_dropped": self.spans_dropped, **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install() -> Tracer:
    """Wrap the public functions and methods of every cccpde module."""
    tracer = Tracer()
    package = importlib.import_module("cccpde")
    modules = [importlib.import_module(f"cccpde.{m}") for m in MODULES]
    replaced = {}
    for mod in modules:
        short = mod.__name__.split(".")[-1]
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                if name not in UNWRAPPED:
                    replaced[value] = tracer.wrap(name, value)
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                _wrap_class(tracer, f"{short}.{attr}", value)
    # functions imported by name into other modules are patched there too
    for mod in modules + [package]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(mod, attr, replaced[value])
    return tracer


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if name in UNWRAPPED:
            continue
        if inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(name, value))
        elif isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(tracer.wrap(name, value.__func__)))
