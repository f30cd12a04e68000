#!/usr/bin/env python3
"""Network-depth and residual-scheme ablations over an annotated manifest.

Trains one model per configuration on the train split, evaluates on the
test split and writes the depth / residual tables (text + CSV).

Example:
    python scripts/run_ablation.py --manifest ds/manifest.jsonl \
        --split test=ref1 --kind depth --out ablation/ \
        --width 8 --epochs 2
"""

import argparse
import json
import sys
from pathlib import Path

from pcqa import cli, pipeline as pl
from pcqa.sparsenn import ModelConfig, TrainConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--split", required=True, help="JSON file or 'test=ref1,ref2'")
    parser.add_argument("--kind", choices=["depth", "residual", "both"], default="both")
    parser.add_argument("--out", required=True)
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--fc-hidden", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    manifest = pl.Manifest.load(args.manifest)
    split = pl.SplitSpec.parse(args.split, sorted(manifest.references))
    base_model = ModelConfig(width=args.width, fc_hidden=args.fc_hidden)
    tcfg = TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed)

    kinds = ["depth", "residual"] if args.kind == "both" else [args.kind]
    for kind in kinds:
        results = pl.run_ablation(args.manifest, split, base_model, tcfg, kind, args.out)
        print(f"== {kind} ablation ==")
        print((Path(args.out) / f"ablation_{kind}.txt").read_text())
        print(json.dumps({str(k): v for k, v in results.items()}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(cli.run_guarded(main))
