"""Command line front door: build, score, annotate, train, eval, report.

Exit codes: 0 ok, 1 validation error, 2 runtime failure. The adapter
configuration for external codec distortions is read from --config or the
PCQA_ADAPTERS environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import frmetrics as fr
from . import pipeline as pl
from .distort import AdapterError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _load_config(args) -> pl.Config:
    """The --config file (or the defaults) with the command line's overrides,
    each checked as if the file had set it."""
    cfg = pl.Config.from_file(args.config) if args.config else pl.Config()
    if getattr(args, "subset", None) is not None:  # "" is a bad list, not "all"
        try:
            ids = [int(s) for s in args.subset.split(",")]
        except ValueError as exc:  # int() names the bad id
            raise pl.ValidationError(f"--subset {args.subset!r}: bad distortion id: {exc}") from None
        cfg = dataclasses.replace(cfg, distortions=ids)
    if not cfg.adapters and os.environ.get("PCQA_ADAPTERS"):
        cfg = dataclasses.replace(cfg, adapters=pl.load_adapters(os.environ["PCQA_ADAPTERS"]))
    return cfg


def _cmd_build(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    manifest = pl.cmd_build(args.refs, args.out, cfg, jobs=args.jobs)
    n_failed = sum(1 for r in manifest.rows if r.status == "failed")
    print(f"built {len(manifest.rows) - n_failed}/{len(manifest.rows)} samples "
          f"-> {Path(args.out) / 'manifest.jsonl'}")
    if n_failed:
        print(f"{n_failed} rows failed; see manifest error fields", file=sys.stderr)
    return EXIT_OK


def _cmd_score(args) -> int:
    metrics = tuple(args.metrics.split(",")) if args.metrics else fr.BUILTIN_METRICS
    n = pl.cmd_score(args.manifest, args.out, metrics=metrics, jobs=args.jobs)
    print(f"wrote {n} score rows -> {args.out}")
    return EXIT_OK


def _cmd_annotate(args) -> int:
    holdout = tuple(args.holdout_refs.split(",")) if args.holdout_refs else None
    result = pl.cmd_annotate(
        args.manifest, args.scores, args.subjective, args.out,
        report_dir=args.report_dir, holdout_refs=holdout)
    print(f"annotated manifest -> {args.out}")
    print(f"fit SROCC {result.fit_srocc:.4f}; holdout SROCC "
          f"{'n/a' if result.holdout_srocc is None else f'{result.holdout_srocc:.4f}'}")
    return EXIT_OK


def _split_from_args(args, manifest_path: str) -> pl.SplitSpec:
    manifest = pl.Manifest.load(manifest_path)
    refs = sorted(manifest.references)
    return pl.SplitSpec.parse(args.split, refs)


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:
        cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
    split = _split_from_args(args, args.manifest)
    pl.cmd_train(args.manifest, split, cfg.model, cfg.train, args.out,
                 loss_csv=args.loss_csv)
    print(f"checkpoint -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load_config(args) if args.config else None
    split = _split_from_args(args, args.manifest)
    report = pl.cmd_eval(args.manifest, split, args.checkpoint, args.out,
                         model_config=cfg.model if cfg else None)
    print(pl.format_overall_table(
        [("model", report.overall_plcc, report.overall_srocc)]))
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.kind in ("overall", "per-type"):
        path = Path(args.source) / "eval_report.json"
        try:
            data = json.loads(path.read_text())
            if args.kind == "overall":
                o = data["overall"]
                table = pl.format_overall_table([("model", o["plcc"], o["srocc"])])
            else:
                table = pl.format_pertype_table({int(k): (v["plcc"], v["srocc"])
                                                 for k, v in data["per_type"].items()})
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise pl.ValidationError(f"{path}: malformed eval report ({exc!r})") from None
        print(table)
        return EXIT_OK
    if args.kind in ("depth", "residual"):
        text = (Path(args.source) / f"ablation_{args.kind}.txt").read_text()
        print(text, end="")
        return EXIT_OK
    raise pl.ValidationError(f"unknown report kind '{args.kind}'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcqa",
        description="Point cloud quality assessment workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="synthesize distorted clouds + manifest")
    p.add_argument("--refs", required=True, help="directory with reference PLY files")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None, help="dataset seed")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--subset", default=None, help="comma-separated distortion ids")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("score", help="run FR metrics over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output score CSV")
    p.add_argument("--metrics", default=None, help="comma-separated metric names")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("annotate", help="pseudo-MOS annotation from scores + ratings")
    p.add_argument("--manifest", required=True)
    p.add_argument("--scores", required=True, help="score CSV (cmd: score)")
    p.add_argument("--subjective", required=True, help="CSV stimulus_id,subject_id,score")
    p.add_argument("--out", required=True, help="annotated manifest path")
    p.add_argument("--report-dir", default=None)
    p.add_argument("--holdout-refs", default=None, help="comma-separated reference ids")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("train", help="train the sparse-CNN quality model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True, help="JSON file or 'test=ref1,ref2'")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-csv", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="training seed: weight init, sample order, augmentation")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output report directory")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="re-render stored reports")
    p.add_argument("--kind", required=True,
                   choices=["overall", "per-type", "depth", "residual"])
    p.add_argument("--source", required=True, help="eval or ablation output directory")
    p.set_defaults(func=_cmd_report)
    return parser


def run_guarded(func) -> int:
    """Exit code of func(); a bad input or a failed run prints one line
    instead of a traceback."""
    try:
        return func()
    except (pl.ValidationError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AdapterError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return run_guarded(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
