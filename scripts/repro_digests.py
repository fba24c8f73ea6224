#!/usr/bin/env python3
"""Print sha256 digests of `rarecast reproduce` outputs, optionally checking them.

For each seed, runs `rarecast reproduce --seed N` into OUT/seedN and prints
one `<sha256>  seedN/<file>` line (sha256sum format) for metrics.csv,
metrics_baseline.csv and bundle.json. It then runs `train-experts` on that
run's config.json into OUT/seedN/experts and `train-router` on the expert
bundle into OUT/seedN/router, and prints the same line for each training
curve (curve_expert0-2.csv, curve_router.csv). Last it runs
`rarecast reproduce --seed N --mode global --backbone mlp` (perfbench's
`mlp_global` configuration, the only one with MLP backbones) into
OUT/seedN/mlp_global and prints the lines of its metrics.csv,
metrics_baseline.csv and bundle.json. Then it synthesizes a
PREDICT_POINTS-point series from seed PREDICT_SEED + N, with spike rate 0.01
and scale 4.0 fixed rather than taken from the config defaults, into
OUT/seedN/series and runs `rarecast predict` on it with the first run's
bundle.json twice: the default last-window forecast (one window) into
OUT/seedN/predict_last and `--all-windows` (every window in one batch) into
OUT/seedN/predict_all, printing the line of the series.csv and of each
forecast.csv. Then it runs `rarecast ewt-dump` on the first run's
config.json into OUT/seedN/ewt and prints the line of its filters.csv. Last
it runs `rarecast sweep-k` and `rarecast ablate` on that config.json into
OUT/seedN/sweep_k and OUT/seedN/ablate and prints the lines of their
sweep_k.csv and ablation.csv. With --expect FILE, every printed line must
appear in FILE; any mismatch or missing line exits 1.

The subcommands' own messages go to stderr, so stdout without --expect is
an expectations file as it stands:

    PYTHONPATH=src python scripts/repro_digests.py > scripts/repro_digests.expected

The committed expectations (scripts/repro_digests.expected, seeds 0-4) were
recorded with numpy's bundled OpenBLAS 0.3.31 on an x86-64 Haswell-class
host. They depend on the BLAS build of the host: a different BLAS or kernel
selection may round matrix products differently and change every digest
without any change to the code. The BLAS thread count is pinned to one before
numpy loads, so the digests do not depend on how a host splits matrix
products across threads. rarecast's own threads split only independent
rows and whole models, so the digests are the same on one CPU
(`taskset -c 0`) as on many.

    PYTHONPATH=src python scripts/repro_digests.py --seeds 0,1,2,3,4 \
        --expect scripts/repro_digests.expected
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# Pinned before numpy loads: the thread split of a matrix product can change
# its rounding.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from rarecast.cli import main as rarecast_main  # noqa: E402

FILES = (
    "metrics.csv",
    "metrics_baseline.csv",
    "bundle.json",
    "experts/curve_expert0.csv",
    "experts/curve_expert1.csv",
    "experts/curve_expert2.csv",
    "router/curve_router.csv",
    "mlp_global/metrics.csv",
    "mlp_global/metrics_baseline.csv",
    "mlp_global/bundle.json",
    "series/series.csv",
    "predict_last/forecast.csv",
    "predict_all/forecast.csv",
    "ewt/filters.csv",
    "sweep_k/sweep_k.csv",
    "ablate/ablation.csv",
)
# The predict series is drawn from its own seed, apart from every training seed.
PREDICT_SEED = 1000
PREDICT_POINTS = 2000


def _run(seed: int, argv: list[str]) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        rc = rarecast_main(argv)
    if rc != 0:
        raise SystemExit(f"seed {seed}: {argv[0]} failed (rc={rc})")


def digest_lines(seed: int, root: Path) -> list[str]:
    out = root / f"seed{seed}"
    _run(seed, ["reproduce", "--seed", str(seed), "--out", str(out)])
    _run(seed, ["train-experts", "--config", str(out / "config.json"), "--out", str(out / "experts")])
    _run(
        seed,
        ["train-router", "--bundle", str(out / "experts" / "bundle.json"), "--out", str(out / "router")],
    )
    _run(
        seed,
        ["reproduce", "--seed", str(seed), "--mode", "global", "--backbone", "mlp",
         "--out", str(out / "mlp_global")],
    )
    _run(
        seed,
        ["synth", "--seed", str(PREDICT_SEED + seed), "--synth-n", str(PREDICT_POINTS),
         "--spike-rate", "0.01", "--spike-scale", "4.0", "--out", str(out / "series")],
    )
    predict = ["predict", "--bundle", str(out / "bundle.json"),
               "--data", str(out / "series" / "series.csv"), "--column", "value"]
    _run(seed, predict + ["--out", str(out / "predict_last")])
    _run(seed, predict + ["--all-windows", "--out", str(out / "predict_all")])
    _run(seed, ["ewt-dump", "--config", str(out / "config.json"), "--out", str(out / "ewt")])
    _run(seed, ["sweep-k", "--config", str(out / "config.json"), "--out", str(out / "sweep_k")])
    _run(seed, ["ablate", "--config", str(out / "config.json"), "--out", str(out / "ablate")])
    return [
        f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  seed{seed}/{name}"
        for name in FILES
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated run seeds")
    parser.add_argument("--out", help="output root (default: a temporary directory)")
    parser.add_argument("--expect", help="file of expected digest lines")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    expected = set(Path(args.expect).read_text().splitlines()) if args.expect else None

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(args.out) if args.out else Path(tmp)
        lines = [line for seed in seeds for line in digest_lines(seed, root)]
    mismatches = 0
    for line in lines:
        ok = expected is None or line in expected
        mismatches += not ok
        print(line if ok else f"{line}  MISMATCH")
    if expected is not None:
        print(f"{len(lines) - mismatches}/{len(lines)} digests match {args.expect}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
