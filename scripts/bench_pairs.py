#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, kept as a BENCH file.

Runs `benchmark/run.py --trace 0` N times on the parent revision and N
times on the working tree, alternating which side goes first, and writes
for each workload and metric both medians, the parent's quartiles, the
number of pairs the change won (ties count for neither side) and the
acceptance rule's verdict: `gain`, `regression`, `unresolved` or `flat`.

Example, before committing a change (the parent is then HEAD):
    python3 scripts/bench_pairs.py --workload dataset --pairs 10 --seed 1 \
        --out BENCH_19.json

Each run lasts `--seconds`, by default BENCHMARK.json's `run_seconds`:
pairs of one pass each (`--seconds 0`) are too noisy to resolve a gain.

The parent is exported with `git archive`, and the working tree's `src/`
and `benchmark/` are copied without `__pycache__`, into two sibling
directories of one temporary directory that is removed afterwards. Both
sides thus run from directories of the same kind, so a metric such as peak
RSS cannot move with where a side runs, and an interrupted run leaves
nothing registered in the repository. Standard library only; no network.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_run(stdout: str) -> dict:
    """One benchmark run's stdout -> {"correct", "metrics": {name: (value, unit)}}.

    The result line (last) gives the end-to-end metrics; the record line
    (second to last) gives every per-pass timing, as the median of its
    passes.
    """
    *_, record_line, result_line = stdout.strip().splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    metrics = {name: (m["value"], m["unit"]) for name, m in record["metrics"].items()}
    metrics.update({name: (m["value"], m["unit"]) for name, m in result["metrics"].items()})
    return {"correct": result["correct"], "metrics": metrics}


def verdict(parent: list[float], change: list[float], better: str, wins: int, iqr: float,
            bound: float | None) -> str:
    """The acceptance rule's reading of one metric's pairs.

    `gain`: the change wins at least 9 of 10 pairs and its median is better
    than the parent's by more than the parent's quartile distance `iqr`.
    For an end-to-end metric, one with a relative `bound`: `regression`
    when the change's median is worse than the parent's by more than the
    bound, `unresolved` when `iqr` exceeds the bound and not every change
    run beats every parent run. `flat` otherwise.
    """
    p_med = statistics.median(parent)
    better_by = statistics.median(change) - p_med
    if better == "lower":
        better_by, every_run_better = -better_by, max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if wins >= 0.9 * len(parent) and better_by > iqr:
        return "gain"
    if bound is not None:
        if better_by < -bound * abs(p_med):
            return "regression"
        if iqr > bound * abs(p_med) and not every_run_better:
            return "unresolved"
    return "flat"


def summarise(pairs: list[tuple[dict, dict]], directions: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: both medians, the parent's quartiles, the change's win
    count over `pairs` of parsed (parent, change) runs and its `verdict`.
    `directions` names the better side of the metrics that declare one;
    rates and ratios are otherwise better higher, everything else lower.
    `bounds` gives the end-to-end metrics' relative bounds."""
    bounds = bounds or {}
    out = {}
    names = [n for n in pairs[0][0]["metrics"] if all(
        n in p["metrics"] and n in c["metrics"] for p, c in pairs)]
    for name in names:
        unit = pairs[0][0]["metrics"][name][1]
        better = directions.get(name, "higher" if unit in ("1/s", "ratio") else "lower")
        parent = [p["metrics"][name][0] for p, _ in pairs]
        change = [c["metrics"][name][0] for _, c in pairs]
        if better == "lower":
            wins = sum(c < p for p, c in zip(parent, change))
        else:
            wins = sum(c > p for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        out[name] = {
            "unit": unit, "better": better,
            "parent_median": statistics.median(parent), "parent_q1": q1, "parent_q3": q3,
            "change_median": statistics.median(change),
            "wins": wins, "pairs": len(pairs),
            "verdict": verdict(parent, change, better, wins, q3 - q1, bounds.get(name)),
            "parent": parent, "change": change,
        }
    return out


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def export_revision(rev: str, dest: Path) -> str:
    """Extract the files of `rev` into `dest`; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's `src/` and `benchmark/`, all that a run
    reads, into `dest`, leaving out `__pycache__`."""
    for name in ("src", "benchmark"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=("dataset", "train", "infer"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 0.0),
                        help="run.py --seconds: 0 runs one pass per run (default: "
                             "BENCHMARK.json's run_seconds, the length of the gate's runs)")
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--out", required=True, help="BENCH_<PR>.json to write")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"parent": None, "change": "working tree", "pairs": args.pairs,
              "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_dir, change_dir = Path(tmp) / "parent", Path(tmp) / "change"
        try:
            report["parent"] = export_revision(args.parent, parent_dir)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.parent}: {exc}", file=sys.stderr)
            return 1
        copy_working_tree(change_dir)
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                sides = [parent_dir, change_dir] if i % 2 == 0 else [change_dir, parent_dir]
                try:
                    runs = {side: run_benchmark(side, workload, args.seed, args.seconds)
                            for side in sides}
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                pair = (runs[parent_dir], runs[change_dir])
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: correct "
                      f"{pair[0]['correct']}/{pair[1]['correct']}", file=sys.stderr)
            report["workloads"][workload] = {
                "correct": all(p["correct"] and c["correct"] for p, c in pairs),
                "metrics": summarise(pairs, directions, bounds),
            }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
