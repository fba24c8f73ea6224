"""Softmax gate over stacked expert forecasts, with top-k sparse fusion.

The gate is a linear model: it sees the flattened (H, E) matrix of expert
forecasts and emits one logit per expert. It trains through `bb.fit` on the
full softmax against the window's rarity label, each window weighted by the
inverse frequency of its label; inference keeps the k largest weights,
renormalized.
A Router holds the gate, a stack of one model, and k alone: the expert
count E and the horizon H are read off the gate's shape (E outputs, H * E
inputs).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from .config import PipelineConfig
from .dataset import Windows
from .expert import (
    ExpertModel,
    collapse_level,
    decompose_histories,
    expert_level,
    expert_predict_batch,
)
from .rng import ROUTER_INIT, ROUTER_SHUFFLE, substream

log = logging.getLogger(__name__)


@dataclass(eq=False)
class Router:
    """Gate network (a stack of one) plus the fusion arity k; E and H are read off its shape."""

    gate: bb.ForecasterStack
    k: int

    def __post_init__(self) -> None:
        if self.gate.n_models != 1:
            raise ValueError(f"Router: the gate is a stack of one model, got {self.gate.n_models}")
        if self.gate.input_len % self.gate.output_len:
            raise ValueError(
                f"Router: gate input count {self.gate.input_len} is not a whole multiple "
                f"of its output count {self.gate.output_len}"
            )
        if not 1 <= self.k <= self.n_experts:
            raise ValueError(f"Router: k must be in [1, {self.n_experts}], got {self.k}")

    @property
    def n_experts(self) -> int:
        return self.gate.output_len

    @property
    def horizon(self) -> int:
        return self.gate.input_len // self.gate.output_len


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _flatten_outputs(expert_outputs: np.ndarray, horizon: int, n_experts: int) -> np.ndarray:
    out = np.asarray(expert_outputs, dtype=np.float64)
    if out.shape[-2:] != (horizon, n_experts):
        raise ValueError(
            f"expected expert outputs shaped (..., {horizon}, {n_experts}), got {out.shape}"
        )
    return out.reshape(*out.shape[:-2], horizon * n_experts)


def gate_forward(router: Router, expert_outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits and softmax weights for one (H, E) matrix or a (N, H, E) batch."""
    feats = _flatten_outputs(expert_outputs, router.horizon, router.n_experts)
    logits = bb.forecast(router.gate, feats.reshape(-1, feats.shape[-1]))[0]
    logits = logits.reshape(feats.shape[:-1] + logits.shape[-1:])
    return logits, softmax(logits)


def _topk_row(row: list[float], k: int) -> np.ndarray:
    """select_topk_batch of one NaN-free row, as Python floats; returns (1, E).

    A stable sort on the negated weights keeps ties in index order, and the
    kept weights are added one by one in that order, which is numpy's own
    order for fewer than 8 of them, so the bits match the batch path. The
    builtin sum() is not used: from Python 3.12 it compensates its rounding.
    """
    keep = sorted(range(len(row)), key=lambda j: -row[j])[:k]
    total = row[keep[0]]
    for j in keep[1:]:
        total += row[j]
    if total <= 0.0:
        raise ValueError("select_topk: selected weights sum to zero")
    out = [0.0] * len(row)
    for j in keep:
        out[j] = row[j] / total
    return np.array([out])


def select_topk_batch(alphas: np.ndarray, k: int) -> np.ndarray:
    """Row-wise select_topk of an (N, E) weight matrix."""
    a = np.asarray(alphas, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("select_topk_batch: expected an (N, E) weight matrix")
    if not 1 <= k <= a.shape[1]:
        raise ValueError(f"select_topk: k must be in [1, {a.shape[1]}], got {k}")
    if a.shape[0] == 1 and k < 8:
        row = a[0].tolist()
        if all(v == v for v in row):  # argsort ranks NaN apart from sorted()
            return _topk_row(row, k)
    keep = np.argsort(-a, axis=1, kind="stable")[:, :k]
    rows = np.arange(a.shape[0])[:, None]
    kept = a[rows, keep]
    total = kept.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("select_topk: selected weights sum to zero")
    out = np.zeros_like(a)
    out[rows, keep] = kept / total
    return out


def select_topk(alpha: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest weights (ties to the lower index), renormalized to sum 1.

    All other entries are exactly zero. k equal to the expert count returns
    the input weights unchanged apart from renormalization.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("select_topk: expected a 1-d weight vector")
    return select_topk_batch(a[None, :], k)[0]


def fuse(expert_outputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-step weighted sum of expert forecasts.

    (H, E) outputs with (E,) weights give (H,); an (N, H, E) batch with
    (N, E) weights gives (N, H), one weight row per window.
    """
    out = np.asarray(expert_outputs, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if out.ndim not in (2, 3) or w.shape != out.shape[:-2] + out.shape[-1:]:
        raise ValueError("fuse: expected (H, E) outputs and (E,) weights, or (N, H, E) and (N, E)")
    sums = w.sum(axis=-1)
    if (abs(sums - 1.0) > 1e-6).any():
        raise ValueError(f"fuse: weights must sum to 1, got {sums!r}")
    return out @ w if out.ndim == 2 else np.einsum("nhe,ne->nh", out, w)


def _exp_shifted(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row max m, exp(logits - m) and its row sums for (N, E) logits.

    Both reductions run column by column as elementwise ufuncs, which is
    far cheaper than a reduction along rows this short. numpy sums a row
    this short left to right, so for a gate's E <= 4 columns the results
    are bitwise equal to max/sum(axis=1). The inference `softmax` keeps the
    axis form, which is faster for a single window.
    """
    zmax = logits[:, 0].copy()
    for col in logits.T[1:]:
        np.maximum(zmax, col, out=zmax)
    e = logits - zmax[:, None]
    np.exp(e, out=e)
    total = e[:, 0].copy()
    for col in e.T[1:]:
        total += col
    return zmax, e, total


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy of (N, E) logits against integer labels."""
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    zmax, _, total = _exp_shifted(z)
    logsumexp = np.log(total) + zmax
    picked = z[np.arange(z.shape[0]), y]
    return float((logsumexp - picked).mean())


def stack_expert_outputs(
    experts: list[ExpertModel], histories: np.ndarray, components: np.ndarray | None = None
) -> np.ndarray:
    """Expert forecast tensor (N, H, E) on shared histories.

    components, when given, are the histories' band components, row for row.
    """
    if components is None:
        first = experts[0]
        components = decompose_histories(histories, first.n_bands, first.mode, first.bank, first.gamma)
    elif len(components) != len(histories):
        raise ValueError(
            f"stack_expert_outputs: components hold {len(components)} rows but the histories "
            f"hold {len(histories)}; pass the components of these histories"
        )
    cols = [expert_predict_batch(e, histories, components) for e in experts]
    return np.stack(cols, axis=-1)


def train_router(
    experts: list[ExpertModel],
    windows: Windows,
    cfg: PipelineConfig,
    components: np.ndarray | None = None,
) -> tuple[Router, bb.EpochCurve]:
    """Fit the gate to route windows to the expert of their rarity level.

    Experts stay frozen; the gate trains through `bb.fit` (Adam at bb.LR) on
    full-softmax cross-entropy against the window labels, each window
    weighted by n / (labels present * its label's count), so every label
    present carries equal total weight (top-k applies at inference only).
    Returns the router and the per-epoch loss/accuracy curve, computed when
    first read; row 0 precedes any update.
    """
    if not windows:
        raise ValueError("train_router: no windows")
    n_experts = len(experts)
    labels = collapse_level(windows.window_levels, n_experts)
    horizon = experts[0].horizon

    present = set(int(v) for v in np.unique(labels))
    missing = [c for c in range(n_experts) if c not in present]
    if missing:
        names = ", ".join(expert_level(c).name for c in missing)
        log.warning("train_router: no training windows labeled %s", names)

    outputs = stack_expert_outputs(experts, windows.histories, components)
    feats = _flatten_outputs(outputs, horizon, n_experts)
    n = feats.shape[0]

    counts = np.bincount(labels, minlength=n_experts).astype(np.float64)
    nonzero = counts > 0
    w_by_class = np.zeros(n_experts)
    w_by_class[nonzero] = n / (nonzero.sum() * counts[nonzero])
    sample_w = w_by_class[labels]

    model = bb.stack_params("linear", [
        bb.init_params("linear", horizon * n_experts, n_experts, rng=substream(cfg.seed, ROUTER_INIT))
    ])
    router = Router(gate=model, k=cfg.k)
    onehot = np.eye(n_experts)[labels]

    def output_grad(idx: np.ndarray, logits: np.ndarray) -> np.ndarray:
        _, dlogits, total = _exp_shifted(logits[0])
        # w * (softmax - onehot) / B, in place and in that order.
        dlogits /= total[:, None]
        dlogits -= onehot[idx]
        dlogits *= sample_w[idx, None]
        dlogits /= len(idx)
        return dlogits

    def curve_rows(stacks: list[bb.ForecasterStack]) -> list[dict]:
        out = []
        for epoch, stack in enumerate(stacks):
            logits = bb.forecast(stack, feats)[0]
            acc = float((logits.argmax(axis=1) == labels).mean())
            out.append({"epoch": epoch, "ce": cross_entropy(logits, labels), "accuracy": acc})
        return out

    curve = bb.fit(
        model, n, cfg.router_epochs, bb.BATCH_SIZE, bb.LR, substream(cfg.seed, ROUTER_SHUFFLE),
        lambda idx: feats[idx], output_grad, curve_rows,
    )
    return router, curve


def pipeline_predict_batch(
    experts: list[ExpertModel],
    router: Router,
    histories: np.ndarray,
    k: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused forecasts for stacked histories.

    Returns (predictions (N, H), alphas (N, E), sparse weights (N, E)).
    k overrides the router's stored arity for inference-time sweeps. A
    history holding NaN or an infinity raises ValueError.
    """
    k = router.k if k is None else int(k)
    outputs = stack_expert_outputs(experts, histories)
    _, alphas = gate_forward(router, outputs)
    sparse = select_topk_batch(alphas, k)
    preds = fuse(outputs, sparse)
    return preds, alphas, sparse


def pipeline_predict(
    experts: list[ExpertModel], router: Router, history: np.ndarray
) -> np.ndarray:
    """End-to-end forecast (H,) for one raw history window."""
    x = np.asarray(history, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("pipeline_predict: expected a 1-d history")
    preds, _, _ = pipeline_predict_batch(experts, router, x[None, :])
    return preds[0]
