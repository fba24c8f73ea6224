#!/usr/bin/env python3
"""Run the seeded benchmark end to end and tally extreme-point wins.

Each seed gets its own output directory with metrics, baseline metrics, the
trained bundle, and a config snapshot. Per seed the script prints the full
pipeline's and the single-band baseline's extreme-point and overall MSE, and
the extreme-MSE margin in percent of the baseline (positive: the pipeline
wins). It ends with the extreme-point win count and the number of seeds whose
overall MSE is worse than the baseline's.

    PYTHONPATH=src python scripts/reproduce_synthetic.py --seeds 0,1,2,3,4
"""

import argparse
import csv
import sys
from pathlib import Path

from rarecast.cli import main as rarecast_main


def _mse_by_level(metrics_csv: Path) -> dict[str, float | None]:
    with open(metrics_csv, newline="") as fh:
        return {row["level"]: float(row["mse"]) if row["mse"] else None for row in csv.DictReader(fh)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated run seeds")
    parser.add_argument("--out", default="runs/reproduce", help="root output directory")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    rows = []
    for seed in seeds:
        out = Path(args.out) / f"seed{seed}"
        rc = rarecast_main(["reproduce", "--seed", str(seed), "--out", str(out)])
        if rc != 0:
            print(f"seed {seed}: reproduce failed (rc={rc})", file=sys.stderr)
            return rc
        ours, theirs = _mse_by_level(out / "metrics.csv"), _mse_by_level(out / "metrics_baseline.csv")
        rows.append((seed, ours, theirs))

    print(
        f"\n{'seed':>4}  {'extreme mse':>11}  {'baseline':>10}  {'margin %':>8}  "
        f"{'overall mse':>11}  {'baseline':>10}"
    )
    wins = overall_worse = 0
    for seed, ours, theirs in rows:
        overall_worse += ours["overall"] > theirs["overall"]
        overall = f"{ours['overall']:>11.6g}  {theirs['overall']:>10.6g}"
        if ours.get("extreme") is None or theirs.get("extreme") is None:
            print(f"{seed:>4}  {'(no extreme points)':>33}  {overall}")
            continue
        wins += ours["extreme"] <= theirs["extreme"]
        margin = 100.0 * (theirs["extreme"] - ours["extreme"]) / theirs["extreme"]
        print(f"{seed:>4}  {ours['extreme']:>11.6g}  {theirs['extreme']:>10.6g}  {margin:>8.2f}  {overall}")
    print(f"extreme-point wins: {wins}/{len(rows)}")
    print(f"overall MSE worse than the baseline: {overall_worse}/{len(rows)}")
    return 0 if wins * 5 >= len(rows) * 4 else 1


if __name__ == "__main__":
    sys.exit(main())
