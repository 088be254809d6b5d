"""Span tracer for the traced run.

Each public function listed in ``layers.json`` is replaced by a wrapper in
every ``indexlab`` namespace that holds it. The package imports with
``from .x import y`` throughout, so ``indexlab.report.durbin_watson`` and
``indexlab.durbin_watson`` are separate bindings of one function, and
patching only ``indexlab.regression.durbin_watson`` would miss the calls.
A span records its name, start, end and parent. A layer's self time is its
spans' durations minus the time their child spans cover; its busy time
counts only spans with no enclosing span of the same layer.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text("utf-8"))


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _sw_attr(fn, args, kwargs, result):
    return len(_bound(fn, args, kwargs)["series"])


def _dw_attr(fn, args, kwargs, result):
    arguments = _bound(fn, args, kwargs)
    fit = arguments["fit"]
    residuals = getattr(fit, "residuals", fit)
    return (arguments["seed"], len(residuals), arguments["replicates"])


def _emit_attr(fn, args, kwargs, result):
    return (_bound(fn, args, kwargs)["format"], len(result.encode("utf-8")))


def _golden_attr(fn, args, kwargs, result):
    return len(result.cells)


# span name -> attribute recorded on the span; computed after the call
_ATTRS = {
    "descriptive.shapiro_wilk": _sw_attr,
    "regression.durbin_watson": _dw_attr,
    "report.emit": _emit_attr,
    "golden.diff_golden": _golden_attr,
}


def _resolve(qualname: str):
    """(owner, attribute, object) for a dotted name whose prefix is a loaded module."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is None:
            continue
        owner = module
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        obj = getattr(owner, parts[-1], None) if owner is not None else None
        return owner, parts[-1], obj
    return None, parts[-1], None


class Tracer:
    """Installs span wrappers, records spans in memory, and sums them per layer."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        attr_fn = _ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[layer] == 0
            depth[layer] += 1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                spans[index] = (name, layer, start, end, parent, outermost, None)
            if attr_fn is not None:
                try:
                    attr = attr_fn(fn, args, kwargs, result)
                except Exception:  # a changed signature loses the attribute, not the op
                    attr = None
                spans[index] = (name, layer, start, end, parent, outermost, attr)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever an indexlab namespace binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "indexlab" or name.startswith("indexlab."))]
        self.missing = []
        for layer, spec in LAYERS.items():
            for qualname in spec["functions"]:
                owner, attr, original = _resolve(qualname)
                if not callable(original):
                    self.missing.append(qualname)
                    continue
                name = qualname.removeprefix("indexlab.")
                wrapper = self._wrap(name, layer, original)
                if inspect.isclass(owner):
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def take(self) -> "OpProfile":
        """Sum and clear the spans recorded since the last call."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        profile = OpProfile()
        for i, (name, layer, start, end, parent, outermost, attr) in enumerate(spans):
            duration = end - start
            profile.calls[layer] += 1
            profile.self_s[layer] += duration - child[i]
            if outermost:
                profile.busy_s[layer] += duration
            profile.name_calls[name] += 1
            if attr is not None:
                profile.attrs[name].append((attr, duration))
        del spans[:]
        return profile


class OpProfile:
    """Per-layer sums over the spans of one op."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.name_calls: Counter = Counter()
        self.attrs: defaultdict = defaultdict(list)


def layer_metrics(profiles: list[OpProfile], op_times: list[float]) -> dict[str, tuple[float, str]]:
    """Per-op means of every layer metric over the traced ops of one run,
    plus the two extras counted over the whole run."""
    ops = len(profiles)
    metrics: dict[str, tuple[float, str]] = {}

    def mean(total: float) -> float:
        return total / ops

    traced = [layer for layer, spec in LAYERS.items() if spec["functions"]]
    for layer in traced:
        metrics[f"{layer}.calls"] = (mean(sum(p.calls[layer] for p in profiles)), "count")
        metrics[f"{layer}.busy_s"] = (mean(sum(p.busy_s[layer] for p in profiles)), "s")
        metrics[f"{layer}.self_s"] = (mean(sum(p.self_s[layer] for p in profiles)), "s")

    def name_calls(name: str) -> float:
        return mean(sum(p.name_calls[name] for p in profiles))

    def attrs(name: str) -> list:
        return [a for p in profiles for a in p.attrs[name]]

    metrics["dataset.column_calls"] = (name_calls("dataset.Dataset.column"), "count")
    metrics["descriptive.sw_calls"] = (name_calls("descriptive.shapiro_wilk"), "count")
    metrics["descriptive.sw_distinct_n"] = (
        float(len({n for n, _ in attrs("descriptive.shapiro_wilk")})), "count")
    metrics["correlation.pearson_calls"] = (name_calls("correlation.pearson"), "count")
    metrics["pca.eigen_calls"] = (name_calls("pca.eigen_symmetric"), "count")

    dw = attrs("regression.durbin_watson")
    replicates = sum(key[2] for key, _ in dw)
    metrics["durbin_watson.replicates"] = (mean(replicates), "count")
    metrics["durbin_watson.distinct_keys"] = (float(len({key for key, _ in dw})), "count")
    dw_busy = sum(duration for _, duration in dw)
    metrics["durbin_watson.us_per_replicate"] = (
        1e6 * dw_busy / replicates if replicates else 0.0, "us")

    emits = attrs("report.emit")
    for fmt in ("json", "markdown", "csv"):
        metrics[f"report.emit_{fmt}_s"] = (
            mean(sum(d for (f, _), d in emits if f == fmt)), "s")
    metrics["report.output_bytes"] = (mean(sum(size for (_, size), _ in emits)), "B")
    metrics["golden.cells"] = (mean(sum(c for c, _ in attrs("golden.diff_golden"))), "count")

    op_mean = sum(op_times) / ops
    metrics["trace.op_s"] = (op_mean, "s")
    metrics["trace.unattributed_s"] = (
        op_mean - sum(metrics[f"{layer}.self_s"][0] for layer in traced), "s")
    return metrics


def self_times(profiles: list[OpProfile]) -> dict[str, float]:
    """Mean self time per op of every traced layer."""
    return {layer: sum(p.self_s[layer] for p in profiles) / len(profiles)
            for layer, spec in LAYERS.items() if spec["functions"]}
