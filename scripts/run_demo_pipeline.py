#!/usr/bin/env python3
"""Desk-scale demo of the whole pipeline on synthetic reference clouds.

Generates a few textured reference clouds, then runs
build -> score -> annotate (with planted subjective ratings) -> train -> eval
and prints the resulting reports. Everything is seeded; re-runs are
byte-identical.

Example:
    python scripts/run_demo_pipeline.py --out /tmp/pcqa_demo --seed 7
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from pcqa import pipeline as pl
from pcqa.pcio import PointCloud, save_ply
from pcqa.sparsenn import ModelConfig, TrainConfig


def make_reference(rng: np.random.Generator, n: int = 1400, extent: int = 120) -> PointCloud:
    """Blobby surface with smooth color gradients; rich enough for FR metrics."""
    base = rng.normal(size=(n * 2, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    r = extent / 2 * (0.8 + 0.2 * rng.random(len(base)))[:, None]
    pts = np.unique(np.floor(base * r + extent / 2).astype(int), axis=0)
    rng.shuffle(pts)
    pts = pts[:n].astype(float)
    col = np.stack([
        128 + 100 * np.sin(pts[:, 0] / 17),
        128 + 100 * np.cos(pts[:, 1] / 23),
        128 + 100 * np.sin(pts[:, 2] / 13)], axis=1)
    col = np.clip(np.round(col + rng.normal(0, 8, col.shape)), 0, 255)
    return PointCloud(pts, col)


def plant_subjective(manifest: pl.Manifest, path: Path, seed: int) -> None:
    """Stand-in for the human experiment: a hidden monotone function of the
    distortion level plus per-subject noise."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["stimulus_id", "subject_id", "score"])
        for subj in range(20):
            bias = rng.uniform(-0.15, 0.15)
            for row in manifest.ok_rows():
                base = 4.2 - 2.6 * (row.level - 1) / 6
                score = np.clip(base + bias + rng.normal(0, 0.55), 1, 5)
                w.writerow([row.sample_id, f"subj{subj:02d}", f"{score:.3f}"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--refs", type=int, default=3)
    parser.add_argument("--distortions", default="2,5,11,15,17,19")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--blocks", type=int, default=2)
    args = parser.parse_args()

    out = Path(args.out)
    refs_dir = out / "refs"
    refs_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    for i in range(args.refs):
        save_ply(make_reference(rng), refs_dir / f"ref{i}.ply")

    cfg = pl.Config(seed=args.seed,
                    distortions=tuple(int(s) for s in args.distortions.split(",")))
    print("== build ==")
    manifest = pl.cmd_build(refs_dir, out / "ds", cfg, jobs=args.jobs)
    print(f"{len(manifest.ok_rows())} samples")

    print("== score ==")
    n = pl.cmd_score(out / "ds" / "manifest.jsonl", out / "scores.csv", jobs=args.jobs)
    print(f"{n} score rows")

    print("== annotate ==")
    plant_subjective(manifest, out / "subjective.csv", args.seed + 1)
    refs = sorted(manifest.references)
    result = pl.cmd_annotate(
        out / "ds" / "manifest.jsonl", out / "scores.csv", out / "subjective.csv",
        out / "ds" / "manifest.jsonl", report_dir=out / "reports",
        holdout_refs=(refs[-1],))
    print((out / "reports" / "annotation_report.txt").read_text())

    print("== train / eval ==")
    split = pl.SplitSpec(train=tuple(refs[:-1]), test=(refs[-1],))
    model_cfg = ModelConfig(blocks=args.blocks, width=args.width,
                            fc_hidden=max(8, args.width // 2))
    tcfg = TrainConfig(lr=0.01, epochs=args.epochs, seed=args.seed)
    pl.cmd_train(out / "ds" / "manifest.jsonl", split, model_cfg, tcfg,
                 out / "model.ckpt", loss_csv=out / "loss.csv")
    report = pl.cmd_eval(out / "ds" / "manifest.jsonl", split, out / "model.ckpt",
                         out / "eval")
    print((out / "eval" / "eval_report.txt").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
