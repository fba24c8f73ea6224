"""Asymmetric rarity penalties and the distillation loss, with analytic gradients.

All penalties act on the signed error delta = prediction - truth of a single
point. The quadratic branch applies everywhere except when the point's rarity
matches the expert's designated level; there, under-prediction (delta < 0) is
punished exponentially, and over-prediction is softened per level:

    normal            delta^2
    moderate  under   exp(-delta) - 1          over  delta^2
    very rare under   exp(-delta) - 1          over  log(cosh(delta))
    extreme   under   exp(-delta) - 1          over  exp(delta / (H + 1)) - 1

H is the prediction horizon. Every branch is 0 at delta = 0, so the loss is
continuous; the gradient at the kink takes the quadratic branch's value 0.

Each exponential branch exp(u) - 1 is exact for u <= EXP_ARG_LIMIT and
continues as its tangent line past it, with value and slope continuous:
under-prediction becomes linear for |delta| > EXP_ARG_LIMIT, extreme
over-prediction for delta > EXP_ARG_LIMIT * (H + 1). Penalties and gradients
then stay finite on unnormalized large-scale series, where exp(-delta)
overflows for delta < -709. The moderate level keeps a quadratic
over-prediction branch, so there under-prediction costs more only up to
|delta| ~ exp(EXP_ARG_LIMIT) ~ 4.9e8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LEVEL_KEYS, RarityLevel

# exp(20) ~ 4.9e8: far past the errors of a normalized series, and the
# linear slope past it keeps Adam's squared gradients far from overflow.
EXP_ARG_LIMIT = 20.0


@dataclass(frozen=True)
class PenaltyContext:
    """Where a penalty is evaluated: which expert, which point, what horizon."""

    expert_level: RarityLevel
    point_level: RarityLevel
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"PenaltyContext: horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True, eq=False)
class LossValueGrad:
    """A loss value paired with its derivative wrt the prediction(s)."""

    value: float
    d_dpred: np.ndarray | float


def _log_cosh(d: np.ndarray) -> np.ndarray:
    """log(cosh(d)), stable for both tiny and large arguments."""
    d = np.asarray(d, dtype=np.float64)
    a = np.abs(d)
    out = np.empty_like(a)
    small = a < 20.0
    s = np.sinh(0.5 * d[small])
    out[small] = np.log1p(2.0 * s * s)
    out[~small] = a[~small] - math.log(2.0) + np.log1p(np.exp(-2.0 * a[~small]))
    return out


def _expm1_continued(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(u) - 1 and its derivative, continued linearly past EXP_ARG_LIMIT."""
    capped = np.minimum(u, EXP_ARG_LIMIT)
    slope = np.exp(capped)
    return np.expm1(capped) + slope * (u - capped), slope


def _penalty_terms(
    delta: np.ndarray, point_levels: np.ndarray, expert_level: int, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point penalty values and derivatives for one expert level."""
    d = np.asarray(delta, dtype=np.float64)
    values = d * d
    derivs = 2.0 * d
    if expert_level == RarityLevel.NORMAL:
        return values, derivs

    p = np.asarray(point_levels)
    match = p == expert_level
    # delta == 0 stays on the quadratic branch (value and derivative both 0).
    under = match & (d < 0.0)
    over = match & (d > 0.0)

    values[under], slope = _expm1_continued(-d[under])
    derivs[under] = -slope

    do = d[over]
    if expert_level == RarityLevel.MODERATE:
        pass  # over-prediction keeps the quadratic branch
    elif expert_level == RarityLevel.VERY_RARE:
        values[over] = _log_cosh(do)
        derivs[over] = np.tanh(do)
    elif expert_level == RarityLevel.EXTREME_RARE:
        scale = 1.0 / (horizon + 1.0)
        values[over], slope = _expm1_continued(do * scale)
        derivs[over] = slope * scale
    else:
        raise ValueError(f"unknown expert level {expert_level}")
    return values, derivs


def rare_penalty(delta: float, ctx: PenaltyContext) -> LossValueGrad:
    """Penalty of a single point error under the given context."""
    v, g = _penalty_terms(
        np.asarray([delta], dtype=np.float64),
        np.asarray([int(ctx.point_level)]),
        int(ctx.expert_level),
        ctx.horizon,
    )
    return LossValueGrad(value=float(v[0]), d_dpred=float(g[0]))


def rare_loss(
    pred: np.ndarray,
    truth: np.ndarray,
    point_levels: np.ndarray,
    expert_level: RarityLevel,
    horizon: int | None = None,
) -> LossValueGrad:
    """Mean penalty over a window; gradient is the per-point derivative / H."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    levels = np.asarray(point_levels)
    if pred.shape != truth.shape or pred.shape != levels.shape:
        raise ValueError("rare_loss: pred, truth, point_levels must share a shape")
    h = pred.shape[-1] if horizon is None else int(horizon)
    v, g = _penalty_terms(pred - truth, levels, int(expert_level), h)
    n_points = pred.size
    return LossValueGrad(value=float(v.sum() / n_points), d_dpred=g / n_points)


def kd_loss(student: np.ndarray, teacher: np.ndarray) -> LossValueGrad:
    """Bounded distillation loss: mean of (delta / (1 + |delta|))^2.

    Each point contributes a value in [0, 1), even in delta and strictly
    increasing in |delta|. Gradient wrt the student is 2 delta / (1+|delta|)^3
    divided by the point count.
    """
    s = np.asarray(student, dtype=np.float64)
    t = np.asarray(teacher, dtype=np.float64)
    if s.shape != t.shape:
        raise ValueError("kd_loss: student and teacher must share a shape")
    d = s - t
    denom = 1.0 + np.abs(d)
    r = d / denom
    n_points = s.size
    grad = 2.0 * d / (denom * denom * denom) / n_points
    return LossValueGrad(value=float((r * r).sum() / n_points), d_dpred=grad)


def combined_loss(
    pred: np.ndarray,
    truth: np.ndarray,
    teacher_pred: np.ndarray | None,
    point_levels: np.ndarray,
    expert_level: RarityLevel,
    beta: float,
    horizon: int | None = None,
) -> LossValueGrad:
    """Rarity loss plus beta times the distillation loss.

    The normal expert has no teacher and ignores the distillation term
    entirely. A rare expert with beta > 0 must be given teacher predictions.
    Given teacher predictions, the term applies whatever the penalty level:
    a rare expert trained with the plain quadratic loss still distills.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"combined_loss: beta must be finite and >= 0, got {beta}")
    rare = rare_loss(pred, truth, point_levels, expert_level, horizon)
    if beta == 0.0 or (teacher_pred is None and expert_level == RarityLevel.NORMAL):
        return rare
    if teacher_pred is None:
        raise ValueError(
            f"combined_loss: expert level {RarityLevel(expert_level).name} with "
            f"beta={beta} requires teacher predictions"
        )
    kd = kd_loss(pred, teacher_pred)
    return LossValueGrad(
        value=rare.value + beta * kd.value,
        d_dpred=np.asarray(rare.d_dpred) + beta * np.asarray(kd.d_dpred),
    )


def loss_landscape_rows(
    horizon: int, lo: float = -5.0, hi: float = 5.0, steps: int = 201
) -> list[tuple[float, str, float]]:
    """(delta, level, penalty) grid rows for the matching-point branch of each level."""
    if steps < 1:
        raise ValueError(f"loss_landscape_rows: steps must be >= 1, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"loss_landscape_rows: lo and hi must be finite, got lo={lo}, hi={hi}")
    rows = []
    grid = np.linspace(lo, hi, steps)
    for level in RarityLevel:
        v, _ = _penalty_terms(grid, np.full(grid.shape, int(level)), int(level), horizon)
        rows.extend((float(d), LEVEL_KEYS[level], float(val)) for d, val in zip(grid, v))
    return rows
