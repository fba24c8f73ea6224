"""Rarity-level experts and their distillation chain.

An expert is a stack of per-band backbones (one bb.ForecasterStack, a
model per spectral band); its forecast is the sum of the per-band
forecasts on the decomposed history. It trains through `bb.fit`, supplying
only its minibatch gather and its loss gradient. Experts are trained level
by level, normal first, each rare expert distilling from the level below it
through the bounded distillation term: the frozen teacher forecasts once, on
the component rows its student trains on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import ewt
from .config import DECOMPOSITION_MODES, PipelineConfig
from .dataset import N_LEVELS, RarityLevel, RarityThresholds, Windows
from .losses import combined_grad, loss_terms
from .rng import INIT, SHUFFLE, substream

log = logging.getLogger(__name__)


def collapse_level(level: int | np.ndarray, n_levels: int) -> int | np.ndarray:
    """Fold the 4 rarity levels onto n_levels experts by merging the top levels."""
    if not 1 <= n_levels <= N_LEVELS:
        raise ValueError(f"collapse_level: n_levels must be in [1, {N_LEVELS}], got {n_levels}")
    if isinstance(level, np.ndarray):
        return np.minimum(level, n_levels - 1)
    return min(int(level), n_levels - 1)


def expert_level(index: int) -> RarityLevel:
    """Rarity level named by an expert index; a merged top expert keeps its own ordinal."""
    return RarityLevel(min(int(index), N_LEVELS - 1))


def max_experts(window_levels: np.ndarray) -> int:
    """Largest expert count E with windows at levels 0..E-2 and at E-1 or above (the merged top)."""
    present = set(np.unique(window_levels).tolist())
    e = 1
    while e < N_LEVELS and e - 1 in present and max(present) >= e:
        e += 1
    return e


def check_level_coverage(
    window_levels: np.ndarray, n_experts: int, thresholds: RarityThresholds | None = None
) -> None:
    """Raise ValueError unless each of n_experts (merged) levels labels some window.

    The message names the empty levels and the largest expert count the
    windows support. Given the thresholds it names them too, and any that
    are equal: a tie leaves the level between the tied cut points empty.
    """
    present = set(np.unique(collapse_level(window_levels, n_experts)).tolist())
    missing = [c for c in range(n_experts) if c not in present]
    if not missing:
        return
    msg = (
        f"no windows for level(s) {', '.join(expert_level(c).name for c in missing)}; these "
        f"windows support at most {max_experts(window_levels)} experts (--experts)"
    )
    if thresholds is not None:
        names, t = ("t_moderate", "t_very", "t_extreme"), thresholds.as_tuple()
        msg += "; thresholds " + " ".join(f"{name}={v:.6g}" for name, v in zip(names, t))
        ties = [f"{names[i]} == {names[i + 1]}" for i in range(2) if t[i] == t[i + 1]]
        if ties:
            msg += f", tied: {', '.join(ties)}"
    raise ValueError(msg)


@dataclass(eq=False)
class ExpertModel:
    """One trained expert: designated level, band backbones, decomposition setup.

    The band count, history length and horizon are read off the stack's
    shape: one model per band, each mapping T history values to H.
    """

    level: int
    stack: bb.ForecasterStack
    bank: ewt.FilterBank | None = None
    gamma: float | None = None

    @property
    def mode(self) -> str:
        """The decomposition mode: "global" decomposes with the fitted bank, "per_window" without one."""
        return "per_window" if self.bank is None else "global"

    @property
    def n_bands(self) -> int:
        return self.stack.n_models

    @property
    def history_len(self) -> int:
        return self.stack.input_len

    @property
    def horizon(self) -> int:
        return self.stack.output_len

    @property
    def penalty_level(self) -> RarityLevel:
        return expert_level(self.level)


def decompose_histories(
    histories: np.ndarray,
    n_bands: int,
    mode: str,
    bank: ewt.FilterBank | None,
    gamma: float | None = None,
) -> np.ndarray:
    """Band components (n_bands, N, T) for stacked histories (N, T) under either mode.

    Each band's rows are one contiguous (N, T) block. A history holding NaN
    or an infinity raises ValueError: its components, and every forecast
    made from them, would be NaN.
    """
    x = np.asarray(histories, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("decompose_histories: expected a (N, T) array")
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x).all(axis=-1))
        raise ValueError(
            f"decompose_histories: {bad.size} of {x.shape[0]} histories hold NaN or "
            f"infinite values, the first is window {bad[0]}"
        )
    if mode not in DECOMPOSITION_MODES:
        raise ValueError(f"decompose_histories: mode must be one of {DECOMPOSITION_MODES}, got {mode!r}")
    if mode == "global":
        if bank is None:
            raise ValueError("decompose_histories: global mode requires a bank")
        return ewt.decompose_with_bank(x, bank)
    return ewt.decompose_windows(x, n_bands, gamma)


def _band_sum(bands: np.ndarray) -> np.ndarray:
    """Sum of (B, N, H) per-band forecasts over the band axis."""
    out = bands[0]
    for y in bands[1:]:  # sequential band order keeps the bits of the sum
        out = out + y
    return out


def _forward(stack: bb.ForecasterStack, components: np.ndarray) -> np.ndarray:
    """Summed per-band forecasts; components is (n_bands, N, T).

    The shape check here stands in for the one bb.forecast would make.
    """
    c = np.asarray(components, dtype=np.float64)
    if c.ndim != 3 or c.shape[0] != stack.n_models or c.shape[2] != stack.input_len:
        raise ValueError(
            f"expert forecast: components shaped {c.shape}, "
            f"needs (n_bands, N, T) = ({stack.n_models}, N, {stack.input_len})"
        )
    return _band_sum(bb._forward(stack.kind, stack.params, c)[0])


def check_history_len(caller: str, histories: np.ndarray, history_len: int) -> None:
    """Raise ValueError, naming both lengths, if (N, T) histories do not hold history_len values each.

    Called before any decomposition, so the error names the array the caller
    passed; other shapes are left to decompose_histories.
    """
    shape = np.shape(histories)
    if len(shape) == 2 and shape[1] != history_len:
        raise ValueError(f"{caller}: history length {shape[1]} does not match history_len {history_len}")


def expert_predict_batch(
    expert: ExpertModel, histories: np.ndarray, components: np.ndarray | None = None
) -> np.ndarray:
    """Forecasts (N, H) for stacked histories, decomposing unless given components."""
    if components is None:
        check_history_len("expert forecast", histories, expert.history_len)
        components = decompose_histories(
            histories, expert.n_bands, expert.mode, expert.bank, expert.gamma
        )
    return _forward(expert.stack, components)


def expert_predict(expert: ExpertModel, history: np.ndarray) -> np.ndarray:
    """Forecast (H,) for one history window."""
    x = np.asarray(history, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expert_predict: expected a 1-d history")
    return expert_predict_batch(expert, x[None, :])[0]


def train_expert(
    windows: Windows,
    level: int,
    teacher: ExpertModel | None,
    cfg: PipelineConfig,
    components: np.ndarray,
    bank: ewt.FilterBank | None = None,
    rows: np.ndarray | None = None,
) -> tuple[ExpertModel, bb.EpochCurve]:
    """Train one expert on the windows at `rows` (default: every row) through `bb.fit`.

    components are the windows' (n_bands, N, T) band components, so a chain
    passes its one training set and one component array to every expert and
    only rows changes; each gather takes its rows from every band into a new
    array. The teacher (the expert one level down) stays frozen; when
    beta > 0 its forecasts on the same rows feed the distillation term.
    Returns the trained expert and the per-epoch loss curve, computed when
    first read; row 0 is the loss before any update.
    """
    # np.take copies a non-contiguous source whole before it gathers, so a
    # view is copied once here rather than at every minibatch.
    comps = np.ascontiguousarray(components, dtype=np.float64)
    if comps.ndim != 3 or comps.shape[1] != len(windows):
        raise ValueError(
            f"train_expert: components shaped {comps.shape}, needs (n_bands, N, T) with "
            f"N = {len(windows)} windows; pass the components of these windows"
        )
    rows = np.arange(len(windows)) if rows is None else np.asarray(rows)
    if rows.size == 0:
        raise ValueError(f"train_expert: no samples for level {level}")
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or not (0 <= rows.min() and rows.max() < len(windows)):
        raise ValueError(
            f"train_expert: rows must be a 1-d array of integer row indices in [0, {len(windows)}), "
            f"got {rows.dtype} of shape {rows.shape}"
        )
    if cfg.mode == "global" and bank is None:
        raise ValueError("train_expert: global mode requires a fitted bank")
    targ = windows.targets
    history_len, horizon = windows.histories.shape[1], targ.shape[1]
    plev = collapse_level(windows.point_levels, cfg.n_experts)

    penalty_level = expert_level(level) if cfg.use_rare_penalty else RarityLevel.NORMAL
    distill = level > 0 and cfg.beta > 0.0
    if distill:
        if teacher is None:
            raise ValueError(
                f"train_expert: level {level} with beta={cfg.beta} requires a teacher"
            )
        # The teacher forecasts on a temporary gather of the trained rows,
        # dropped before the first epoch.
        teacher_preds = _forward(teacher.stack, np.take(comps, rows, axis=1))
    else:
        teacher_preds = None

    expert = ExpertModel(
        level=level,
        stack=bb.stack_params(cfg.backbone, [
            bb.init_params(
                cfg.backbone, history_len, horizon, rng=substream(cfg.seed, INIT, level, b)
            )
            for b in range(cfg.n_bands)
        ]),
        bank=bank if cfg.mode == "global" else None,
        gamma=cfg.gamma,
    )

    rare = penalty_level != RarityLevel.NORMAL  # the quadratic reads no point levels

    def objective(idx: np.ndarray | slice) -> tuple:
        """The objective's arguments after pred, for the trained rows at positions idx."""
        r = rows[idx]
        teacher_r = teacher_preds[idx] if distill else None
        return targ[r], teacher_r, plev[r] if rare else None, penalty_level, cfg.beta, horizon

    def output_grad(idx: np.ndarray, bands: np.ndarray) -> np.ndarray:
        return combined_grad(_band_sum(bands), *objective(idx))

    def curve_rows(stacks: list[bb.ForecasterStack]) -> list[dict]:
        comps_r, args = np.take(comps, rows, axis=1), objective(slice(None))
        out = []
        for epoch, stack in enumerate(stacks):
            r, k = loss_terms(_forward(stack, comps_r), *args)
            out.append({"epoch": epoch, "rare": r, "kd": k, "total": r + cfg.beta * k})
        return out

    curve = bb.fit(
        expert.stack, rows.size, cfg.epochs, bb.BATCH_SIZE, bb.LR,
        substream(cfg.seed, SHUFFLE, level), lambda idx: np.take(comps, rows[idx], axis=1),
        output_grad, curve_rows,
    )
    return expert, curve


@dataclass(eq=False)
class ChainResult:
    """A trained chain: its experts and, per level, the lazy loss curve and window count."""

    experts: list[ExpertModel]
    curves: dict[int, bb.EpochCurve] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)


def build_expert_chain(
    windows: Windows,
    cfg: PipelineConfig,
    bank: ewt.FilterBank | None,
    components: np.ndarray,
) -> ChainResult:
    """Train the full expert ladder, normal through the rarest level.

    components are the windows' band components, row for row. Windows are
    assigned to experts by their (possibly merged) window level; every level
    must be represented. Every expert trains on these same windows and
    components, on the rows of its level; no per-level copy is made. Each
    expert's teacher is the expert one level below, already trained and
    frozen.
    """
    if not windows:
        raise ValueError("build_expert_chain: no windows")
    if cfg.mode == "global" and bank is None:
        raise ValueError("build_expert_chain: global mode requires a fitted bank")
    check_level_coverage(windows.window_levels, cfg.n_experts)
    wlev = collapse_level(windows.window_levels, cfg.n_experts)

    result = ChainResult(experts=[])
    teacher: ExpertModel | None = None
    for c in range(cfg.n_experts):
        sel = np.flatnonzero(wlev == c)
        log.info("training %s expert on %d windows", expert_level(c).name, sel.size)
        expert, curve = train_expert(windows, c, teacher, cfg, components, bank, rows=sel)
        result.experts.append(expert)
        result.curves[c] = curve
        result.counts[c] = sel.size
        teacher = expert
    return result
