#!/usr/bin/env python3
"""Distillation-weight sweep, fusion-arity sweep, and the component ablation
table, all at the benchmark preset on one prepared dataset."""

import argparse
import sys
from pathlib import Path

from rarecast.cli import REPRODUCE_OVERRIDES
from rarecast.config import PipelineConfig
from rarecast.evaluation import (
    ablation_table,
    format_table,
    sweep_beta,
    sweep_k,
    write_rows_csv,
)
from rarecast.pipeline import prepare_data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs/sweeps", help="output directory")
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink the dataset and cap the schedules for a fast smoke pass",
    )
    args = parser.parse_args()

    cfg = PipelineConfig(**REPRODUCE_OVERRIDES).with_overrides(seed=args.seed)
    if args.quick:
        # caps, never raises: a quick pass must not train longer than the preset
        cfg = cfg.with_overrides(
            synth_n=6000, epochs=min(cfg.epochs, 3), router_epochs=min(cfg.router_epochs, 10)
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = prepare_data(cfg)

    beta = sweep_beta(data, cfg)
    write_rows_csv(beta.rows, out / "sweep_beta.csv")
    for err in beta.errors:
        print(f"beta={err['beta']}: {err['error']}", file=sys.stderr)

    k = sweep_k(data, cfg)
    write_rows_csv(k.rows, out / "sweep_k.csv")

    table = ablation_table(data, cfg)
    write_rows_csv(table, out / "ablation.csv")
    print(format_table(table))
    print(f"\nwrote sweep_beta.csv, sweep_k.csv, ablation.csv to {out}")
    return 1 if beta.errors else 0


if __name__ == "__main__":
    sys.exit(main())
