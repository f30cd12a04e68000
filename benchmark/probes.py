"""Which pcqa functions the traced run wraps, and how one pass's spans become
the per-layer metrics listed in BENCHMARK.json.

Layers are the repository's modules. Times are self time (span duration
minus its child spans) summed over one pass. Metrics marked deterministic
are counts (or ratios of counts) that must repeat exactly for a seed.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

from spans import Span, Tracer, root_of, self_times_ns

BLOCKS = 4  # blocks of the default model; conv{b}.{l} keys assume it
METRICS_ORDER = ("M-p2po", "M-p2pl", "H-p2po", "H-p2pl", "PSNRyuv", "H-PSNRyuv")
CATEGORIES = ("photometric", "geometric", "local", "compression")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    deterministic: bool = False


def _m(name, unit="s", better="lower", deterministic=False):
    return LayerMetric(name, unit, better, deterministic)


def _count(name, better="lower"):
    return LayerMetric(name, "count", better, True)


PER_LAYER: tuple[LayerMetric, ...] = (
    *(_m(f"pipeline.{c}.s") for c in
      ("cmd_build", "cmd_score", "cmd_annotate", "cmd_train", "cmd_eval")),
    _m("pipeline.pool.busy_frac", "ratio", "higher"),
    _count("pcio.SpatialIndex.builds"), _m("pcio.SpatialIndex.build_s"),
    _count("pcio.SpatialIndex.nearest.calls"), _count("pcio.SpatialIndex.nearest.queries"),
    _m("pcio.SpatialIndex.nearest.s"),
    _count("pcio.estimate_normals.calls"), _count("pcio.estimate_normals.points"),
    _m("pcio.estimate_normals.s"),
    _count("pcio.load_ply.calls"), _m("pcio.load_ply.s"),
    _count("pcio.save_ply.calls"), _m("pcio.save_ply.s"),
    *(_m(f"frmetrics.compute_metric.{m}.s") for m in METRICS_ORDER),
    _m("frmetrics.tree_builds_per_sample", "ratio", deterministic=True),
    _m("frmetrics.nn_queries_per_sample", "ratio", deterministic=True),
    _m("frmetrics.normals_per_sample", "ratio", deterministic=True),
    _count("colors.rgb_to_ycbcr.calls"), _m("colors.rgb_to_ycbcr.s"),
    *(x for c in CATEGORIES for x in (
        _count(f"distort.apply_distortion.{c}.calls"), _m(f"distort.apply_distortion.{c}.s"))),
    _m("distort.apply_distortion.d10.s"),
    *(_m(f"annotate.{f}.s") for f in
      ("screen_subjects", "compute_mos", "select_best_metric", "fit_regression")),
    _count("annotate.nelder_mead.runs"), _count("annotate.nelder_mead.iterations"),
    _count("annotate.nelder_mead.objective_evals"), _m("annotate.nelder_mead.s"),
    _m("annotate.converged_frac", "ratio", "higher", deterministic=True),
    _count("annotate.screening.rejected"),
    _count("tensor.voxelize.calls"), _m("tensor.voxelize.s"),
    _count("tensor.build_kernel_map.calls"), _m("tensor.build_kernel_map.s"),
    _count("tensor.sites"),
    _m("tensor.kmap.pairs_per_site", "ratio", deterministic=True),
    *(x for d in ("forward", "backward") for x in (
        _count(f"layers.conv_{d}.calls"), _m(f"layers.conv_{d}.s"),
        _m(f"layers.conv_{d}.gflop", "gflop", deterministic=True),
        _m(f"layers.conv_{d}.gflop_per_s", "gflop/s", "higher"))),
    *(_m(f"layers.conv{b}.{l}.{d}_s") for b in range(BLOCKS) for l in range(3)
      for d in ("fwd", "bwd")),
    *(_m(f"layers.{f}.s") for f in ("bn_forward", "bn_backward", "global_pool",
                                     "global_pool_backward", "fc_forward", "fc_backward")),
    _count("model.forward.calls"), _m("model.forward.s"),
    _count("model.backward.calls"), _m("model.backward.s"),
    _m("model.save_checkpoint.s"), _m("model.load_checkpoint.s"),
    _m("train.step_ms.p50", "ms"), _m("train.step_ms.p90", "ms"),
    _count("train.step_ms.n", "higher"),
    _m("train.augment.s"), _count("train.sgd_step.calls"), _m("train.sgd_step.s"),
    _m("trace.overhead_frac", "ratio"), _count("trace.spans"),
)


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _conv_attrs(flops_per_mac: int):
    def attrs(args, kwargs, result):
        w, kmap = args[0], args[-1]
        pairs = sum(kmap.pair_counts())
        return {"pairs": pairs, "flop": flops_per_mac * pairs * w.shape[1] * w.shape[2]}
    return attrs


def _nelder_mead_probe():
    last = {}

    def adapt(nelder_mead):
        def counted(f, x0, *args, **kwargs):
            evals = 0

            def objective(p):
                nonlocal evals
                evals += 1
                return f(p)
            try:
                return nelder_mead(objective, x0, *args, **kwargs)
            finally:
                last["evals"] = evals
        return counted

    def attrs(args, kwargs, result):
        return {"iterations": int(result[2]), "converged": bool(result[3]),
                "evals": last["evals"]}
    return adapt, attrs


def install(tracer: Tracer) -> None:
    """Wrap every traced public function; `tracer.uninstall()` undoes it."""
    # sparsenn re-exports a function named `train`, so import modules by path
    _mod = importlib.import_module
    pl = _mod("pcqa.pipeline")
    pcio = _mod("pcqa.pcio")
    fr = _mod("pcqa.frmetrics")
    colors = _mod("pcqa.colors")
    distort = _mod("pcqa.distort")
    ann = _mod("pcqa.annotate")
    tensor = _mod("pcqa.sparsenn.tensor")
    layers = _mod("pcqa.sparsenn.layers")
    model = _mod("pcqa.sparsenn.model")
    trn = _mod("pcqa.sparsenn.train")

    for cmd in ("cmd_build", "cmd_score", "cmd_annotate", "cmd_train", "cmd_eval"):
        tracer.wrap_function(pl, cmd, f"pipeline.{cmd}")

    tracer.wrap_method(pcio.SpatialIndex, "__init__", "pcio.SpatialIndex.build")
    tracer.wrap_method(pcio.SpatialIndex, "nearest", "pcio.SpatialIndex.nearest",
                       lambda a, k, r: {"queries": int(np.atleast_2d(a[1]).shape[0])})
    tracer.wrap_function(pcio, "estimate_normals", "pcio.estimate_normals",
                         lambda a, k, r: {"points": len(a[0])})
    tracer.wrap_function(pcio, "load_ply", "pcio.load_ply")
    tracer.wrap_function(pcio, "save_ply", "pcio.save_ply")

    tracer.wrap_function(fr, "compute_metric", "frmetrics.compute_metric",
                         lambda a, k, r: {"metric": a[0]})
    tracer.wrap_function(colors, "rgb_to_ycbcr", "colors.rgb_to_ycbcr")
    tracer.wrap_function(
        distort, "apply_distortion", "distort.apply_distortion",
        lambda a, k, r: {"did": a[1].distortion_id,
                         "category": distort.REGISTRY[a[1].distortion_id].category})

    tracer.wrap_function(ann, "screen_subjects", "annotate.screen_subjects",
                         lambda a, k, r: {"rejected": len(r.rejected)})
    for f in ("compute_mos", "select_best_metric", "fit_regression"):
        tracer.wrap_function(ann, f, f"annotate.{f}")
    adapt, attrs = _nelder_mead_probe()
    tracer.wrap_function(ann, "nelder_mead", "annotate.nelder_mead", attrs, adapt=adapt)

    tracer.wrap_function(tensor, "voxelize", "tensor.voxelize")
    tracer.wrap_function(
        tensor, "build_kernel_map", "tensor.build_kernel_map",
        lambda a, k, r: {"sites": len(a[0]), "pairs": sum(r.pair_counts())})
    tracer.wrap_function(layers, "conv_forward", "layers.conv_forward", _conv_attrs(2))
    # two products per pair: the input gradient and the weight gradient
    tracer.wrap_function(layers, "conv_backward", "layers.conv_backward", _conv_attrs(4))
    for f in ("bn_forward", "bn_backward", "global_pool", "global_pool_backward",
              "fc_forward", "fc_backward"):
        tracer.wrap_function(layers, f, f"layers.{f}")
    for f in ("forward", "backward", "save_checkpoint", "load_checkpoint"):
        tracer.wrap_function(model, f, f"model.{f}")
    tracer.wrap_function(trn, "augment", "train.augment")
    tracer.wrap_function(trn, "sgd_step", "train.sgd_step")


# ---------------------------------------------------------------------------
# Spans -> metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[Span], samples_scored: int) -> dict[str, float]:
    """Every PER_LAYER metric except those measured outside the spans
    (pipeline.pool.busy_frac, trace.overhead_frac), which stay 0 here."""
    selft = self_times_ns(spans)
    out = {m.name: 0 for m in PER_LAYER}

    def add(key, value):
        out[key] += value

    for s, ns in zip(spans, selft):
        sec = ns / 1e9
        name, a = s.name, s.attrs
        if name.startswith("pipeline."):
            add(f"{name}.s", sec)
        elif name == "pcio.SpatialIndex.build":
            add("pcio.SpatialIndex.builds", 1)
            add("pcio.SpatialIndex.build_s", sec)
        elif name == "pcio.SpatialIndex.nearest":
            add(f"{name}.calls", 1)
            add(f"{name}.queries", a["queries"])
            add(f"{name}.s", sec)
        elif name == "pcio.estimate_normals":
            add(f"{name}.calls", 1)
            add(f"{name}.points", a["points"])
            add(f"{name}.s", sec)
        elif name in ("pcio.load_ply", "pcio.save_ply", "colors.rgb_to_ycbcr",
                      "tensor.voxelize", "tensor.build_kernel_map", "model.forward",
                      "model.backward", "train.sgd_step"):
            add(f"{name}.calls", 1)
            add(f"{name}.s", sec)
            if name == "tensor.build_kernel_map":
                add("tensor.sites", a["sites"])
                add("tensor.kmap.pairs_per_site", a["pairs"])  # divided below
        elif name == "frmetrics.compute_metric":
            add(f"{name}.{a['metric']}.s", sec)
        elif name == "distort.apply_distortion":
            add(f"{name}.{a['category']}.calls", 1)
            add(f"{name}.{a['category']}.s", sec)
            if a["did"] == 10:
                add(f"{name}.d10.s", sec)
        elif name == "annotate.screen_subjects":
            add(f"{name}.s", sec)
            add("annotate.screening.rejected", a["rejected"])
        elif name == "annotate.nelder_mead":
            add("annotate.nelder_mead.runs", 1)
            add("annotate.nelder_mead.s", sec)
            add("annotate.nelder_mead.iterations", a["iterations"])
            add("annotate.nelder_mead.objective_evals", a["evals"])
            add("annotate.converged_frac", int(a["converged"]))  # divided below
        elif name.startswith("annotate."):
            add(f"{name}.s", sec)
        elif name in ("layers.conv_forward", "layers.conv_backward"):
            add(f"{name}.calls", 1)
            add(f"{name}.s", sec)
            add(f"{name}.gflop", a["flop"] / 1e9)
        elif name.startswith("layers.") or name in (
                "model.save_checkpoint", "model.load_checkpoint", "train.augment"):
            add(f"{name}.s", sec)

    if out["tensor.sites"]:
        out["tensor.kmap.pairs_per_site"] /= out["tensor.sites"]
    if out["annotate.nelder_mead.runs"]:
        out["annotate.converged_frac"] /= out["annotate.nelder_mead.runs"]
    for d in ("forward", "backward"):
        if out[f"layers.conv_{d}.s"]:
            out[f"layers.conv_{d}.gflop_per_s"] = (
                out[f"layers.conv_{d}.gflop"] / out[f"layers.conv_{d}.s"])

    _per_sample_ratios(spans, samples_scored, out)
    _per_conv_layer(spans, selft, out)
    _train_steps(spans, out)
    out["trace.spans"] = len(spans)
    return out


def _per_sample_ratios(spans, samples_scored, out):
    """Work per scored sample inside cmd_score."""
    if not samples_scored:
        return
    counts = {"pcio.SpatialIndex.build": 0, "pcio.SpatialIndex.nearest": 0,
              "pcio.estimate_normals": 0}
    for s in spans:
        if s.name in counts and root_of(spans, s).name == "pipeline.cmd_score":
            counts[s.name] += 1
    out["frmetrics.tree_builds_per_sample"] = counts["pcio.SpatialIndex.build"] / samples_scored
    out["frmetrics.nn_queries_per_sample"] = counts["pcio.SpatialIndex.nearest"] / samples_scored
    out["frmetrics.normals_per_sample"] = counts["pcio.estimate_normals"] / samples_scored


def _per_conv_layer(spans, selft, out):
    """conv{b}.{l}: the i-th conv call under a model forward is block i//3,
    layer i%3; backward visits the layers in reverse."""
    seen: dict[int, int] = {}
    for s, ns in zip(spans, selft):
        if s.name not in ("layers.conv_forward", "layers.conv_backward") or s.parent is None:
            continue
        i = seen.get(s.parent, 0)
        seen[s.parent] = i + 1
        if s.name == "layers.conv_forward":
            b, l, d = i // 3, i % 3, "fwd"
        else:
            b, l, d = BLOCKS - 1 - i // 3, 2 - i % 3, "bwd"
        key = f"layers.conv{b}.{l}.{d}_s"
        if key in out:
            out[key] += ns / 1e9


def _train_steps(spans, out):
    """One training step per sample: augment start to the end of the model
    backward that follows it (augment, voxelize, forward, loss, backward)."""
    backs = [s for s in spans if s.name == "model.backward"]
    steps_ms = []
    j = 0
    for s in spans:
        if s.name != "train.augment":
            continue
        while j < len(backs) and backs[j].start_ns < s.start_ns:
            j += 1
        if j < len(backs):
            steps_ms.append((backs[j].end_ns - s.start_ns) / 1e6)
    if steps_ms:
        out["train.step_ms.p50"] = float(np.percentile(steps_ms, 50))
        out["train.step_ms.p90"] = float(np.percentile(steps_ms, 90))
        out["train.step_ms.n"] = len(steps_ms)
