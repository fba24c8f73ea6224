"""Per-rarity-level error metrics, parameter sweeps, and component ablations.

Metrics are computed per point: every target point is labeled from its
ground-truth value, and each rarity level's MSE/MAE runs over the points of
that level across all windows. A level with no points is reported as absent,
never as zero.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import PipelineConfig
from .dataset import LEVEL_KEYS, RarityLevel, RarityThresholds, label_points
from .pipeline import PreparedData, TrainedPipeline, predict_windows, train_pipeline

# Benchmark sweep grids and report row order.
BETA_SWEEP = (0.0, 0.1, 0.5, 0.7, 1.0, 1.5, 2.0)
REPORT_LEVELS = (RarityLevel.MODERATE, RarityLevel.VERY_RARE, RarityLevel.EXTREME_RARE)
TABLE_PRESETS: tuple[frozenset[str], ...] = (
    frozenset(),
    frozenset({"WT"}),
    frozenset({"WT", "KD"}),
    frozenset({"WT", "RP"}),
    frozenset({"WT", "RP", "KD"}),
)


@dataclass(frozen=True)
class LevelMetrics:
    mse: float
    mae: float
    count: int


@dataclass(frozen=True, eq=False)
class MetricsReport:
    overall: LevelMetrics
    levels: dict[RarityLevel, LevelMetrics]

    def get(self, level: RarityLevel) -> LevelMetrics | None:
        return self.levels.get(level)


def evaluate(
    predictions: np.ndarray, truths: np.ndarray, thresholds: RarityThresholds
) -> MetricsReport:
    """Per-level and overall MSE/MAE of stacked forecasts against ground truth.

    Points are assigned a level from their true value only; predictions play
    no part in labeling. Levels without points are left out of the report.
    """
    pred = np.asarray(predictions, dtype=np.float64)
    true = np.asarray(truths, dtype=np.float64)
    if pred.shape != true.shape:
        raise ValueError(
            f"evaluate: predictions shaped {pred.shape} and truths shaped {true.shape} "
            "must share a shape"
        )
    pred, true = pred.ravel(), true.ravel()
    if pred.size == 0:
        raise ValueError("evaluate: no points to evaluate")
    err = pred - true
    sq, ab = err * err, np.abs(err)
    overall = LevelMetrics(mse=float(sq.mean()), mae=float(ab.mean()), count=int(true.size))
    point_levels = label_points(true, thresholds)
    levels: dict[RarityLevel, LevelMetrics] = {}
    for level in RarityLevel:
        mask = point_levels == int(level)
        m = int(mask.sum())
        if m == 0:
            continue
        levels[level] = LevelMetrics(mse=float(sq[mask].mean()), mae=float(ab[mask].mean()), count=m)
    return MetricsReport(overall=overall, levels=levels)


def report_rows(report: MetricsReport) -> list[dict]:
    """Four rows (overall plus the three rare levels); absent levels keep empty cells."""
    rows = [
        {
            "level": "overall",
            "mse": report.overall.mse,
            "mae": report.overall.mae,
            "count": report.overall.count,
        }
    ]
    for level in REPORT_LEVELS:
        lm = report.get(level)
        rows.append(
            {
                "level": LEVEL_KEYS[level],
                "mse": lm.mse if lm else "",
                "mae": lm.mae if lm else "",
                "count": lm.count if lm else 0,
            }
        )
    return rows


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def write_rows_csv(rows: Sequence[dict], path: str | Path) -> None:
    """Deterministic CSV: column order from the first row, floats via repr."""
    if not rows:
        raise ValueError("write_rows_csv: no rows")
    cols = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])


def format_table(rows: Sequence[dict]) -> str:
    cols = list(rows[0].keys())
    cells = [[str(c) for c in cols]]
    for row in rows:
        cells.append([f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c]) for c in cols])
    widths = [max(len(r[i]) for r in cells) for i in range(len(cols))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    return "\n".join(lines)


def score(tp: TrainedPipeline, data: PreparedData, k: int | None = None) -> MetricsReport:
    """Metrics of the fused forecasts on the test windows, at k if given, else the router's."""
    preds, _, _ = predict_windows(tp, data.test_windows, k=k)
    return evaluate(preds, data.test_windows.targets, data.thresholds)


def run_once(data: PreparedData, cfg: PipelineConfig) -> tuple[MetricsReport, TrainedPipeline]:
    """Train on the prepared data and score on its test windows.

    The chain result is dropped as soon as training returns: its lazy
    curves hold the training arrays, which nothing here reads.
    """
    tp = train_pipeline(data, cfg)[0]
    return score(tp, data), tp


@dataclass(eq=False)
class SweepResult:
    rows: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)


def sweep(data: PreparedData, cells: Sequence[tuple[dict, PipelineConfig]]) -> SweepResult:
    """Train and score each (columns, config) cell; its report rows lead with its columns.

    A cell whose config differs from the last trained one only in k scores
    that pipeline at its own k, since k acts only at inference. A cell that
    raises is recorded as its columns plus the error, and the sweep goes on.
    """
    result = SweepResult()
    tp, tp_cfg = None, None
    for columns, cfg in cells:
        try:
            if tp_cfg is None or asdict(tp_cfg) | {"k": cfg.k} != asdict(cfg):
                tp = tp_cfg = None  # a failed training is never reused
                tp = train_pipeline(data, cfg)[0]
                tp_cfg = cfg
            report = score(tp, data, k=cfg.k)
        except Exception as exc:  # noqa: BLE001, keep sweeping past a bad cell
            result.errors.append({**columns, "error": f"{type(exc).__name__}: {exc}"})
            continue
        result.rows.extend({**columns, **row} for row in report_rows(report))
    return result


def sweep_beta(
    data: PreparedData, cfg: PipelineConfig, betas: Iterable[float] = BETA_SWEEP
) -> SweepResult:
    """One full train-and-score per beta, same seed throughout."""
    return sweep(data, [({"beta": float(b)}, cfg.with_overrides(beta=float(b))) for b in betas])


def sweep_k(
    data: PreparedData, cfg: PipelineConfig, ks: Iterable[int] | None = None
) -> SweepResult:
    """Every fusion arity k (default 1..n_experts) scored on one training."""
    ks = range(1, cfg.n_experts + 1) if ks is None else ks
    return sweep(data, [({"k": int(k)}, cfg.with_overrides(k=int(k))) for k in ks])


def ablate_config(cfg: PipelineConfig, enabled: Iterable[str]) -> PipelineConfig:
    """Config for one ablation cell given the set of enabled components.

    WT off collapses to a single identity band, RP off trains every expert
    with the plain quadratic loss, KD off zeroes the distillation weight.
    """
    comps = {c.upper() for c in enabled}
    unknown = comps - {"WT", "RP", "KD"}
    if unknown:
        raise ValueError(f"ablate: unknown components {sorted(unknown)}")
    return cfg.with_overrides(
        n_bands=cfg.n_bands if "WT" in comps else 1,
        use_rare_penalty="RP" in comps,
        beta=cfg.beta if "KD" in comps else 0.0,
    )


def components_label(enabled: frozenset[str]) -> str:
    return "+".join(c for c in ("WT", "RP", "KD") if c in enabled) or "none"


def ablation_table(
    data: PreparedData, cfg: PipelineConfig, presets: Sequence[frozenset[str]] = TABLE_PRESETS
) -> SweepResult:
    """One run per preset; its four report rows lead with the preset's components label."""
    return sweep(
        data, [({"components": components_label(frozenset(p))}, ablate_config(cfg, p)) for p in presets]
    )
