#!/usr/bin/env python3
"""Seeded benchmark of the pcqa pipeline.

    python3 benchmark/run.py --workload {dataset,train,infer} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
Workloads (see workloads.py and BENCHMARK.json for why each exists):

- dataset: cmd_build -> cmd_score -> cmd_annotate at jobs=2;
- train:   cmd_train of the full-size model on small dense shells;
- infer:   cmd_eval of a seeded checkpoint on large sparse clouds.

With --trace 0 the workload repeats whole passes for --seconds (at least
one) and reports end-to-end metrics as medians over passes. With --trace 1
it runs a warm-up, an untraced pass and two traced passes whose spans
give the per-layer metrics (counts must match exactly between the two);
the dataset workload is traced at jobs=1. Spans are written to
.bench_out/trace-<workload>-seed<n>.jsonl. Every pass is checked for
correctness, and outputs must be identical across passes and match those
recorded in expected.json for the seeds it lists.

The second-to-last stdout line is a JSON record: the machine, every per-pass
timing by name with unit, quartiles and values, set-up repeats, failed_frac
and failed checks. The last line is the result {"correct", "attempted",
"failed", "metrics"}: with --trace 0 the end-to-end metrics of
BENCHMARK.json (pass_s is the wall time of one pass: dataset_s, train_s or
eval_s; items_per_s is score_samples_per_s, train_steps_per_s or
infer_clouds_per_s), with --trace 1 its per-layer metrics.

BLAS threads are pinned to 1 in this process and its workers. Not
measured here: hardware counters, real bytes moved, scaling past 2 cores.
"""

import os

# before NumPy loads: at jobs=2 on a 2-core box more threads would oversubscribe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TRACE_JOBS = 1

# units of the per-pass timings the workloads return (the record line)
UNITS = {
    "dataset_s": "s", "build_s": "s", "score_s": "s", "annotate_s": "s",
    "build_samples_per_s": "1/s", "score_samples_per_s": "1/s",
    "train_s": "s", "train_steps_per_s": "1/s",
    "eval_s": "s", "infer_clouds_per_s": "1/s",
    "pool_busy_frac": "ratio",
}
# the per-pass timings reported as the end-to-end pass_s and items_per_s
PASS_KEY = {"dataset": "dataset_s", "train": "train_s", "infer": "eval_s"}
ITEMS_KEY = {"dataset": "score_samples_per_s", "train": "train_steps_per_s",
             "infer": "infer_clouds_per_s"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with NumPy, if found."""
    import numpy as np
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    for lib in map(ctypes.CDLL, map(str, libs)):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine_record() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "not_measured": ["hardware counters", "real bytes moved",
                         "scaling beyond 2 cores"],
    }


def import_seconds(src: Path) -> float:
    """Time `import pcqa` (with NumPy and SciPy) in a fresh interpreter, as a
    user of the package pays it; the child times itself, so interpreter
    start-up is excluded."""
    code = ("import time; t = time.perf_counter(); import pcqa.pipeline, pcqa.sparsenn; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def load_expected(name: str, seed: int) -> dict | None:
    path = HERE / "expected.json"
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def same_outputs(first, res) -> bool:
    keys = ("digests", "predictions")
    return all(first.outputs.get(k) == res.outputs.get(k) for k in keys)


class Run:
    """One benchmark invocation: set-up, passes, checks and totals."""

    def __init__(self, workload, expected):
        self.wl = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None

    def one_pass(self, tag: str, jobs: int):
        res = self.wl.run_pass(tag, jobs)
        chk = self.wl.check(res, self.expected)
        if self.first is None:
            self.first = res
        # same seed, any pass or job count: byte-identical outputs
        chk.require(same_outputs(self.first, res), f"{tag}: outputs differ from the first pass")
        self.attempted += chk.attempted
        self.failed += chk.failed
        self.problems += [f"{tag}: {p}" for p in chk.problems]
        shutil.rmtree(tag, ignore_errors=True)
        return res


def untraced(run: Run, seconds: float, jobs: int) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        res = run.one_pass(f"pass{i}", jobs)
        for k, v in res.times.items():
            samples.setdefault(k, []).append(v)
        i += 1
    return samples


def traced(run: Run, name: str, seed: int, jobs: int) -> tuple[dict, dict]:
    import probes
    from spans import Tracer

    # The warm-up (or, for a pooled workload, a build-and-score at its job
    # count that measures the pool share) and the untraced base pass also
    # fill pipeline's per-process reference cache, so both traced passes
    # see it warm and their load_ply counts agree.
    if jobs != TRACE_JOBS:
        pool_share = run.wl.pool_share("pool", jobs)
    else:
        pool_share = 0.0
        run.one_pass("warm-up", jobs)
    base = run.one_pass("untraced", TRACE_JOBS)
    layer_runs = []
    tracers = []
    for tag in ("traced-a", "traced-b"):
        tracer = Tracer(run_id=f"{name}-seed{seed}-{tag}")
        probes.install(tracer)
        try:
            res = run.one_pass(tag, TRACE_JOBS)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        scored = len(res.outputs["manifest"].ok_rows()) if "manifest" in res.outputs else 0
        layer_runs.append((probes.layer_metrics(tracer.spans, scored), res.times[PASS_KEY[name]]))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{name}-seed{seed}.jsonl", "w") as f:
        for tracer in tracers:
            tracer.write_jsonl(f)

    (a, wall_a), (b, wall_b) = layer_runs
    base_wall = base.times[PASS_KEY[name]]
    overhead = (statistics.median([wall_a, wall_b]) - base_wall) / base_wall
    metrics = {}
    for m in probes.PER_LAYER:
        if m.deterministic:
            run.attempted += 1
            if a[m.name] != b[m.name]:
                run.failed += 1
                run.problems.append(f"count {m.name} differs between traced passes: "
                                    f"{a[m.name]} != {b[m.name]}")
        value = a[m.name] if m.deterministic else statistics.median([a[m.name], b[m.name]])
        metrics[m.name] = {"value": value, "unit": m.unit}
    metrics["trace.overhead_frac"]["value"] = overhead
    metrics["pipeline.pool.busy_frac"]["value"] = pool_share
    return metrics, {k: [v] for k, v in base.times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dataset", "train", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pcqa" / "__init__.py").is_file():
        print(f"error: no pcqa sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pcqa.pipeline  # noqa: F401  (NumPy, SciPy and every pcqa module)

    from workloads import WORKLOADS, peak_rss_mb

    wl = WORKLOADS[args.workload](args.seed)
    jobs = getattr(wl, "jobs", 1)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    setup_times = []
    import_times = []
    try:
        for k in range(SETUP_REPEATS):
            d = work / f"setup{k}"
            d.mkdir(parents=True)
            wl.write_inputs(d)
            import_times.append(import_seconds(src))
            t0 = time.perf_counter()
            wl.setup(d)
            setup_times.append(import_times[-1] + time.perf_counter() - t0)
        os.chdir(d)
        run = Run(wl, load_expected(args.workload, args.seed))
        if args.trace:
            metrics, named = traced(run, args.workload, args.seed, jobs)
        else:
            named = untraced(run, args.seconds, jobs)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(setup_times)
    rss = peak_rss_mb()
    record = {}
    for k, values in named.items():
        q1, med, q3 = quartiles(values)
        record[k] = {"value": med, "unit": UNITS[k], "q1": q1, "q3": q3, "n": len(values),
                     "passes": values}
    record["setup_s"] = {"value": setup_s, "unit": "s", "repeats": setup_times,
                         "import_s": import_times}
    record["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    record["failed_frac"] = {"value": run.failed / max(run.attempted, 1), "unit": "ratio"}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine_record(), "metrics": record,
                      "outputs": {k: run.first.outputs[k] for k in ("digests", "predictions")
                                  if k in run.first.outputs},
                      "problems": run.problems[:20]}))

    if not args.trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": record[PASS_KEY[args.workload]]["value"], "unit": "s"},
            "items_per_s": {"value": record[ITEMS_KEY[args.workload]]["value"],
                            "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
