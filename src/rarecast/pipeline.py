"""End-to-end wiring: data preparation, chain and router training, prediction.

The order of operations is fixed: split the raw series 8:1:1, fit the
normalizer on the training split, normalize every split, fit rarity
thresholds on the normalized training values, then window the training and
test splits separately so windows never straddle a split edge. The
validation split stays a series; callers that select on it window it
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ewt
from .config import PipelineConfig
from .dataset import (
    Normalizer,
    RarityThresholds,
    TimeSeries,
    Windows,
    compute_thresholds,
    load_csv,
    make_windows,
    split_811,
    split_811_lengths,
    synth_generate,
)
from .expert import (
    ChainResult,
    ExpertModel,
    build_expert_chain,
    check_level_coverage,
    decompose_histories,
    expert_predict_batch,
    train_expert,
)
from .router import Router, pipeline_predict_batch, train_router


@dataclass(eq=False)
class PreparedData:
    """Normalized splits, train and test windows, and the fitted labeling artifacts."""

    normalizer: Normalizer
    thresholds: RarityThresholds
    train: TimeSeries
    val: TimeSeries
    test: TimeSeries
    train_windows: Windows
    test_windows: Windows


def load_series(cfg: PipelineConfig) -> TimeSeries:
    """Raw series: the CSV at cfg.data_path if one is set, else the synthetic series."""
    if cfg.data_path is not None:
        return load_csv(cfg.data_path, cfg.data_column, cfg.delimiter)
    return synth_generate(cfg.seed, cfg.synth_n, cfg.spike_rate, cfg.spike_scale)


def min_series_len(window_len: int) -> int:
    """Shortest series whose 8:1:1 test split, and that of every longer one, holds window_len points.

    The test split holds at least a tenth of the series, so the scan starts at 10 * window_len.
    """
    n = 10 * window_len
    while split_811_lengths(n - 1)[2] >= window_len:
        n -= 1
    return n


def prepare_data(
    cfg: PipelineConfig,
    series: TimeSeries | None = None,
    normalizer: Normalizer | None = None,
    thresholds: RarityThresholds | None = None,
) -> PreparedData:
    """Split, normalize, threshold, and window a series per the config.

    Pass normalizer/thresholds to reuse fitted artifacts (evaluating new data
    against an already trained bundle); by default both are fitted here.
    """
    series = series if series is not None else load_series(cfg)
    train_raw, val_raw, test_raw = split_811(series)
    need = cfg.history_len + cfg.horizon
    if len(test_raw) < need:  # the test split is never longer than the train split
        raise ValueError(
            f"prepare_data: the test split of a {len(series)}-point series holds {len(test_raw)} "
            f"points, fewer than history_len + horizon = {need}; the 8:1:1 split needs a "
            f"series of at least {min_series_len(need)} points"
        )
    if normalizer is None:
        normalizer = Normalizer.fit(train_raw.values, cfg.normalization)
    train = TimeSeries(normalizer.apply(train_raw.values), name=series.name)
    val = TimeSeries(normalizer.apply(val_raw.values), name=series.name)
    test = TimeSeries(normalizer.apply(test_raw.values), name=series.name)
    if thresholds is None:
        thresholds = compute_thresholds(train.values)
    t, h, s = cfg.history_len, cfg.horizon, cfg.stride
    return PreparedData(
        normalizer=normalizer,
        thresholds=thresholds,
        train=train,
        val=val,
        test=test,
        train_windows=make_windows(train, t, h, s, thresholds),
        test_windows=make_windows(test, t, h, s, thresholds),
    )


@dataclass(eq=False)
class TrainedPipeline:
    """Everything needed to forecast: experts, router, scaling, labeling, config."""

    experts: list[ExpertModel]
    router: Router | None
    normalizer: Normalizer
    thresholds: RarityThresholds
    config: PipelineConfig


def fit_global_bank(train: TimeSeries, cfg: PipelineConfig) -> ewt.FilterBank:
    """Boundaries from the whole training series, bank sized for one window."""
    boundaries = ewt.detect_boundaries(train.values, cfg.n_bands)
    return ewt.build_filter_bank(boundaries, cfg.history_len // 2 + 1, cfg.gamma)


def train_pipeline(
    data: PreparedData, cfg: PipelineConfig, train_router_too: bool = True
) -> tuple[TrainedPipeline, ChainResult]:
    """Train the expert chain and (by default) the router on the training windows.

    Returns the pipeline and the chain's result, whose lazy per-expert curves
    and window counts are the training record; the router's curve is not
    kept. Windows that leave an expert's level empty fail before any
    decomposition.
    """
    check_level_coverage(data.train_windows.window_levels, cfg.n_experts, data.thresholds)
    bank = fit_global_bank(data.train, cfg) if cfg.mode == "global" else None
    hist = data.train_windows.histories
    components = decompose_histories(hist, cfg.n_bands, cfg.mode, bank, cfg.gamma)

    chain = build_expert_chain(data.train_windows, cfg, bank, components)
    router = None
    if train_router_too:
        router, _ = train_router(chain.experts, data.train_windows, cfg, components)
    tp = TrainedPipeline(
        experts=chain.experts,
        router=router,
        normalizer=data.normalizer,
        thresholds=data.thresholds,
        config=cfg,
    )
    return tp, chain


def predict_windows(
    tp: TrainedPipeline, windows: Windows, k: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused forecasts on windows: (preds (N, H), alphas, sparse weights)."""
    if tp.router is None:
        raise ValueError("predict_windows: this pipeline has no trained router")
    return pipeline_predict_batch(tp.experts, tp.router, windows.histories, k=k)


def train_baseline(data: PreparedData, cfg: PipelineConfig) -> ExpertModel:
    """Single-band forecaster trained with plain MSE on every training window.

    This is the reference model for directional checks: no decomposition,
    no rarity penalty, no distillation, same backbone and budget.
    """
    base_cfg = cfg.with_overrides(n_bands=1, beta=0.0, use_rare_penalty=False, mode="per_window")
    model, _ = train_expert(
        data.train_windows, 0, None, base_cfg, components=data.train_windows.histories[:, None, :]
    )
    return model


def baseline_predict(model: ExpertModel, windows: Windows) -> np.ndarray:
    return expert_predict_batch(model, windows.histories)
