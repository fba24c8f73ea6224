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
The normal level is the quadratic alone and reads no point levels.

An expert's objective is the rarity loss plus beta times the distillation
loss. Its arguments are checked in one place, and two kernels run on the
result: one computes loss values only, the other the gradient only.
Training steps call `combined_grad` (gradient only), loss curves call
`loss_terms` (values only), `combined_loss` runs both, and `rare_loss` is
`combined_loss` with no teacher and beta 0. So every loss value and the
analytic gradient have one code path each. An argument error starts with
the name of the function that was called, and a shape error gives the
shapes.

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


def _expm1_continued(u: np.ndarray) -> np.ndarray:
    """exp(u) - 1, continued linearly past EXP_ARG_LIMIT; _exp_slope is its derivative."""
    capped = np.minimum(u, EXP_ARG_LIMIT)
    return np.expm1(capped) + np.exp(capped) * (u - capped)


def _exp_slope(u: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(u, EXP_ARG_LIMIT))


def _branches(
    d: np.ndarray, point_levels: np.ndarray, expert_level: int
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the matching points' under- and over-prediction branches.

    delta == 0 stays on the quadratic branch (value and derivative both 0).
    """
    if expert_level not in (RarityLevel.MODERATE, RarityLevel.VERY_RARE, RarityLevel.EXTREME_RARE):
        raise ValueError(f"unknown expert level {expert_level}")
    match = np.asarray(point_levels) == expert_level
    return match & (d < 0.0), match & (d > 0.0)


def _penalty_values(
    d: np.ndarray, point_levels: np.ndarray | None, expert_level: int, horizon: int
) -> np.ndarray:
    """Per-point penalty values for one expert level; the normal level reads no point levels."""
    values = d * d
    if expert_level == RarityLevel.NORMAL:
        return values
    under, over = _branches(d, point_levels, expert_level)
    values[under] = _expm1_continued(-d[under])
    if expert_level == RarityLevel.VERY_RARE:
        values[over] = _log_cosh(d[over])
    elif expert_level == RarityLevel.EXTREME_RARE:
        values[over] = _expm1_continued(d[over] * (1.0 / (horizon + 1.0)))
    return values  # MODERATE over-prediction keeps the quadratic branch


def _penalty_derivs(
    d: np.ndarray, point_levels: np.ndarray | None, expert_level: int, horizon: int
) -> np.ndarray:
    """Per-point derivatives of _penalty_values wrt the prediction: the one analytic gradient."""
    derivs = 2.0 * d
    if expert_level == RarityLevel.NORMAL:
        return derivs
    under, over = _branches(d, point_levels, expert_level)
    derivs[under] = -_exp_slope(-d[under])
    if expert_level == RarityLevel.VERY_RARE:
        derivs[over] = np.tanh(d[over])
    elif expert_level == RarityLevel.EXTREME_RARE:
        scale = 1.0 / (horizon + 1.0)
        derivs[over] = _exp_slope(d[over] * scale) * scale
    return derivs


def rare_penalty(delta: float, ctx: PenaltyContext) -> LossValueGrad:
    """Penalty of a single point error under the given context."""
    d = np.asarray([delta], dtype=np.float64)
    levels, level = np.asarray([int(ctx.point_level)]), int(ctx.expert_level)
    return LossValueGrad(
        value=float(_penalty_values(d, levels, level, ctx.horizon)[0]),
        d_dpred=float(_penalty_derivs(d, levels, level, ctx.horizon)[0]),
    )


def _kd_value(d: np.ndarray) -> float:
    """kd_loss's value for student - teacher = d."""
    r = d / (1.0 + np.abs(d))
    return float((r * r).sum() / d.size)


def _kd_grad(d: np.ndarray) -> np.ndarray:
    """kd_loss's gradient for student - teacher = d: 2 d / (1 + |d|)^3 / n, in that order."""
    denom = 1.0 + np.abs(d)
    cube = denom * denom
    cube *= denom
    g = 2.0 * d
    g /= cube
    g /= d.size
    return g


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
    return LossValueGrad(value=_kd_value(d), d_dpred=_kd_grad(d))


def _checked(
    caller: str, pred: np.ndarray, truth: np.ndarray, teacher_pred: np.ndarray | None,
    point_levels: np.ndarray | None, expert_level: RarityLevel, beta: float, horizon: int | None,
) -> tuple[np.ndarray, np.ndarray | None, int, int, np.ndarray | None]:
    """The objective's checked arguments: pred - truth, point levels, level, horizon, pred - teacher.

    Point levels may be None only for the normal level, which reads none.
    pred - teacher is None where the distillation term does not apply.
    Every error names caller, the public function that was called.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValueError(f"{caller}: beta must be finite and >= 0, got {beta}")
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    level = int(expert_level)
    if point_levels is None:
        if level != RarityLevel.NORMAL:
            raise ValueError(f"{caller}: expert level {RarityLevel(level).name} needs point levels")
        levels = None
    else:
        levels = np.asarray(point_levels)
    if pred.shape != truth.shape or (levels is not None and pred.shape != levels.shape):
        shapes = f"pred {pred.shape}, truth {truth.shape}"
        if levels is not None:
            shapes += f", point_levels {levels.shape}"
        raise ValueError(f"{caller}: {shapes} must share a shape")
    args = (pred - truth, levels, level, pred.shape[-1] if horizon is None else int(horizon))
    if beta == 0.0 or (teacher_pred is None and level == RarityLevel.NORMAL):
        return *args, None
    if teacher_pred is None:
        raise ValueError(
            f"{caller}: expert level {RarityLevel(level).name} with "
            f"beta={beta} requires teacher predictions"
        )
    t = np.asarray(teacher_pred, dtype=np.float64)
    if t.shape != pred.shape:
        raise ValueError(
            f"{caller}: teacher predictions shaped {t.shape} do not match pred shaped {pred.shape}"
        )
    return *args, pred - t


def _values(
    err: np.ndarray, levels: np.ndarray | None, level: int, horizon: int, d: np.ndarray | None
) -> tuple[float, float]:
    """The value kernel: (rarity loss, distillation loss), the latter 0 where it does not apply."""
    rare = float(_penalty_values(err, levels, level, horizon).sum() / err.size)
    return rare, 0.0 if d is None else _kd_value(d)


def _grad(
    err: np.ndarray, levels: np.ndarray | None, level: int, horizon: int, d: np.ndarray | None,
    beta: float,
) -> np.ndarray:
    """The gradient kernel: the objective's derivative wrt pred."""
    g = _penalty_derivs(err, levels, level, horizon)
    g /= err.size
    if d is not None:
        kd = _kd_grad(d)
        kd *= beta
        g += kd
    return g


def _value_and_grad(
    caller: str, pred: np.ndarray, truth: np.ndarray, teacher_pred: np.ndarray | None,
    point_levels: np.ndarray | None, expert_level: RarityLevel, beta: float, horizon: int | None,
) -> LossValueGrad:
    """The objective's value rare + beta * kd and its gradient, checked once as caller's."""
    args = _checked(caller, pred, truth, teacher_pred, point_levels, expert_level, beta, horizon)
    rare, kd = _values(*args)
    return LossValueGrad(value=rare + beta * kd, d_dpred=_grad(*args, beta))


def combined_grad(
    pred: np.ndarray,
    truth: np.ndarray,
    teacher_pred: np.ndarray | None,
    point_levels: np.ndarray | None,
    expert_level: RarityLevel,
    beta: float,
    horizon: int | None = None,
) -> np.ndarray:
    """The gradient of `combined_loss` wrt pred, computing no loss value.

    Training steps call this. It makes every check `combined_loss` makes.
    point_levels may be None for the normal level.
    """
    return _grad(
        *_checked("combined_grad", pred, truth, teacher_pred, point_levels, expert_level, beta, horizon),
        beta,
    )


def loss_terms(
    pred: np.ndarray,
    truth: np.ndarray,
    teacher_pred: np.ndarray | None,
    point_levels: np.ndarray | None,
    expert_level: RarityLevel,
    beta: float,
    horizon: int | None = None,
) -> tuple[float, float]:
    """The objective's (rarity, distillation) loss values, computing no gradient.

    The distillation value is 0 where `combined_loss` leaves the term out,
    so `combined_loss`'s value is rare + beta * kd. Loss curves call this.
    """
    return _values(
        *_checked("loss_terms", pred, truth, teacher_pred, point_levels, expert_level, beta, horizon)
    )


def combined_loss(
    pred: np.ndarray,
    truth: np.ndarray,
    teacher_pred: np.ndarray | None,
    point_levels: np.ndarray | None,
    expert_level: RarityLevel,
    beta: float,
    horizon: int | None = None,
) -> LossValueGrad:
    """Rarity loss plus beta times the distillation loss.

    The normal expert has no teacher and ignores the distillation term
    entirely. A rare expert with beta > 0 must be given teacher predictions.
    Given teacher predictions, the term applies whatever the penalty level:
    a rare expert trained with the plain quadratic loss still distills.
    The value is `loss_terms`' and the gradient `combined_grad`'s.
    """
    return _value_and_grad(
        "combined_loss", pred, truth, teacher_pred, point_levels, expert_level, beta, horizon
    )


def rare_loss(
    pred: np.ndarray,
    truth: np.ndarray,
    point_levels: np.ndarray | None,
    expert_level: RarityLevel,
    horizon: int | None = None,
) -> LossValueGrad:
    """Mean penalty over a window; gradient is the per-point derivative / H.

    This is `combined_loss` with no teacher and beta 0. point_levels may be
    None for the normal level, whose quadratic reads none.
    """
    return _value_and_grad("rare_loss", pred, truth, None, point_levels, expert_level, 0.0, horizon)


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
        v = _penalty_values(grid, np.full(grid.shape, int(level)), int(level), horizon)
        rows.extend((float(d), LEVEL_KEYS[level], float(val)) for d, val in zip(grid, v))
    return rows
