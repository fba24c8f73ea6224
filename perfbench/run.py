"""rarecast benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 15 --trace 0

Run from the repository root. With --trace 0 the last stdout line is a JSON
object carrying every end-to-end metric; with --trace 1 it carries the
per-layer metrics of a staged, traced run instead. Details, spans and the
environment go to perfbench-out/. The exit code is nonzero when any
correctness check fails. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the OpenBLAS build has MAX_THREADS=64 and its
# thread scheduling adds noise to the tiny matmuls this program runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"


if not (SRC / "rarecast" / "__init__.py").is_file():
    sys.exit(f"perfbench: no rarecast sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from clock import REFERENCE_S, Calibrator  # noqa: E402


def git_commit(root: Path) -> str:
    """HEAD of a git checkout read from .git directly, or 'unavailable'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "rarecast").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(SRC),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run(workload: str, seed: int, seconds: float, trace: int, scale: wl.Scale = wl.FULL) -> dict:
    """Run one workload and return the full record: result line, details, spans."""
    OUT.mkdir(exist_ok=True)
    details: dict = {"env": environment(workload, seed, seconds, trace)}
    details["env"]["reference_kernel_s"] = REFERENCE_S
    with Calibrator() as clock, tempfile.TemporaryDirectory(dir=OUT) as tmp, warnings.catch_warnings():
        # Fallback band subdivision is expected on a few windows; the traced run counts it.
        warnings.filterwarnings("ignore", message="decompose_windows:")
        if trace:
            metrics, extra, tracer, tally = wl.traced_run(workload, seed, scale, Path(tmp), clock)
            details.update(extra)
            details["self_time_s"] = tracer.self_time_table()
            details["spans"] = tracer.to_records()
        else:
            if workload == "forecast":
                samples, tally = wl.run_forecast(seed, seconds, scale, Path(tmp), clock)
            else:
                samples, tally = wl.run_training(workload, seed, seconds, scale, Path(tmp), clock)
            metrics = wl.end_to_end(samples)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
            details["wall_metrics"] = {k: v for k, (v, _) in wl.end_to_end(samples, reference=False).items()}
            details["samples"] = {
                "setup": [(t.wall_s, t.factor) for t in samples.setup],
                "train": [(t.wall_s, t.factor) for t in samples.train],
                "batch": [(n, t.wall_s, t.factor) for n, t in samples.batch],
                "latency_count": sum(map(len, samples.latency)),
                "held_out_points": samples.quality.n,
                "held_out_extreme_points": samples.quality.n_extreme,
            }
    details["failed_ratio"] = tally.failed / tally.attempted
    details["failures"] = tally.notes[:20]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "details": details}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, args.trace)
    result, details = record["result"], record["details"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(json.dumps(details["env"]))
    wall = details.get("wall_metrics", {})
    for name, m in result["metrics"].items():
        raw = f"  (wall {wall[name]:.6g})" if name in wall and m["unit"] in ("s", "ms", "windows/s") else ""
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}{raw}")
    print(f"{'failed_ratio':32s} {details['failed_ratio']:>16.6g} ratio")
    for note in details["failures"]:
        print(f"FAILED: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
