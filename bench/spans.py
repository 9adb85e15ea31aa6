"""In-memory span tracer around the public functions of the softact layers.

A :class:`Tracer` replaces each function in :data:`LAYERS` by a timing
wrapper at every module attribute of the package that refers to it (for
example both ``softact.synthdata.read_features`` and
``softact.experiment.read_features``), so calls made inside the package are
caught as well as calls made by the benchmark. Each span records its layer
name, start, end, parent span and a few counters taken from the call's
arguments or result. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# Layer = "<module>.<function>" inside the softact package.
LAYERS = (
    "seqmodel.loss_and_gradients_batch",
    "seqmodel.forward_batch",
    "seqmodel.adam_step",
    "seqmodel.init_params",
    "seqmodel.save_checkpoint",
    "seqmodel.load_checkpoint",
    "experiment.train_model",
    "experiment.run_comparison",
    "experiment.evaluate_model",
    "experiment.save_dataset",
    "experiment.load_dataset",
    "experiment.generate_dataset",
    "synthdata.gen_features",
    "synthdata.write_features",
    "synthdata.read_features",
    "priors.build_verb_noun_prior",
    "priors.build_glove_prior",
    "priors.build_temporal_prior",
    "priors.mix_priors",
    "priors.load_embeddings",
    "priors.save_prior",
    "smoothing.smooth_label_matrix",
    "metrics.build_report",
    "metrics.topk_accuracy",
    "metrics.report_to_csv",
    "vocab.parse_annotations",
    "cli.main",
)

# Layers called often enough per pass to report per-call percentiles.
PERCENTILE_LAYERS = ("seqmodel.loss_and_gradients_batch",
                     "seqmodel.forward_batch", "seqmodel.adam_step")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _gemm_flops(args, kwargs, result):
    """Multiply-add flops of the GEMMs in one forward + backward batch.

    Per modality and timestep the gate GEMM runs once forward and twice
    backward (weight and input gradients); the fusion GEMM likewise runs
    once forward and twice backward at every decode step.
    """
    params, features = args[0], args[1]
    protocol = _arg(args, kwargs, 3, "protocol",
                    sys.modules["softact.seqmodel"].ProtocolConfig())
    steps = protocol.decode_steps
    cfg = params.config
    H, K, M = cfg.hidden_size, cfg.num_classes, len(cfg.modalities)
    B, T = features[0].shape[0], features[0].shape[1]
    lstm = sum(2 * T * B * (d + H) * 4 * H for d in cfg.feature_dims)
    fusion = 2 * B * steps * M * H * K
    return {"flops": 3 * (lstm + fusion)}


def _file_bytes(index, name):
    def annotate(args, kwargs, result):
        path = _arg(args, kwargs, index, name)
        if isinstance(path, (str, os.PathLike)):
            return {"bytes": os.path.getsize(path)}
        return {}
    return annotate


def _epochs(args, kwargs, result):
    config = _arg(args, kwargs, 5, "config")
    return {"best_epoch": result.best_epoch, "epochs": config.epochs}


ANNOTATORS = {
    "seqmodel.loss_and_gradients_batch": _gemm_flops,
    "synthdata.write_features": _file_bytes(1, "sink"),
    "synthdata.read_features": _file_bytes(0, "source"),
    "experiment.train_model": _epochs,
}


class Tracer:
    """Context manager that patches the layers in and out of the package."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, attrs]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "softact" or n.startswith("softact.")]
        for layer in LAYERS:
            module_name, func_name = layer.split(".")
            original = getattr(sys.modules["softact." + module_name], func_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer, func):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATORS.get(layer)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span[2] = time.perf_counter()
                span[4]["error"] = type(exc).__name__
                raise
            else:
                span[2] = time.perf_counter()
                if annotate is not None:
                    span[4].update(annotate(args, kwargs, result))
                return result
            finally:
                stack.pop()
        return wrapper

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer counts and times per workload pass, plus the per-call
        percentiles, GEMM rate, file bytes and epoch counters."""
        own = self.self_times()
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        durations: dict[str, list[float]] = {name: [] for name in LAYERS}
        attrs: dict[str, dict[str, float]] = {name: {} for name in LAYERS}
        for i, (layer, start, end, parent, extra) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += own[i]
            durations[layer].append(end - start)
            if not self._inside(parent, layer):
                busy[layer] += end - start
            for key, value in extra.items():
                if isinstance(value, str):  # count each exception type
                    key, value = f"{key}:{value}", 1
                attrs[layer][key] = attrs[layer].get(key, 0) + value
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / passes
            out[f"{layer}.busy_s"] = busy[layer] / passes
            out[f"{layer}.self_s"] = self_s[layer] / passes
        for layer in PERCENTILE_LAYERS:
            ms = [1e3 * d for d in durations[layer]]
            out[f"{layer}.ms_p50"] = statistics.median(ms) if ms else 0.0
            out[f"{layer}.ms_p90"] = (statistics.quantiles(ms, n=10)[-1]
                                      if len(ms) >= 100 else 0.0)
        lagb = "seqmodel.loss_and_gradients_batch"
        out[f"{lagb}.gflop_per_s"] = _rate(attrs[lagb].get("flops", 0) / 1e9,
                                           sum(durations[lagb]))
        for layer in ("synthdata.write_features", "synthdata.read_features"):
            nbytes = attrs[layer].get("bytes", 0)
            out[f"{layer}.bytes"] = nbytes / passes
            out[f"{layer}.mb_per_s"] = _rate(nbytes / 1e6, sum(durations[layer]))
        train = attrs["experiment.train_model"]
        out["experiment.useful_epoch_ratio"] = _rate(train.get("best_epoch", 0),
                                                     train.get("epochs", 0))
        out["experiment.train_model.diverged"] = train.get(
            "error:TrainingDiverged", 0)
        return out

    def _inside(self, parent: int, layer: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path, header: dict) -> None:
        """Write the header and every span (times relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[layer, round(start - t0, 9), round(end - t0, 9), parent, extra]
                for layer, start, end, parent, extra in self.spans]
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["layer", "start_s", "end_s",
                                            "parent", "attrs"],
                       "spans": rows}, fh)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
