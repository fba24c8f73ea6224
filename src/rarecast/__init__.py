"""Rarity-aware forecasting: spectral-band experts, distillation, top-k fusion."""

from .config import PipelineConfig
from .dataset import (
    Normalizer,
    RarityLevel,
    RarityThresholds,
    TimeSeries,
    Windows,
    compute_thresholds,
    label_point,
    label_points,
    load_csv,
    make_windows,
    split_811,
    synth_generate,
)
from .evaluation import MetricsReport, evaluate, sweep_beta, sweep_k
from .ewt import (
    BandComponents,
    Boundaries,
    FilterBank,
    build_filter_bank,
    decompose,
    detect_boundaries,
    reconstruct,
)
from .expert import ExpertModel, build_expert_chain, expert_predict, train_expert
from .losses import LossValueGrad, PenaltyContext, combined_loss, kd_loss, rare_loss, rare_penalty
from .pipeline import PreparedData, TrainedPipeline, prepare_data, train_pipeline
from .router import Router, fuse, gate_forward, pipeline_predict, select_topk, train_router

__all__ = [
    "BandComponents",
    "Boundaries",
    "ExpertModel",
    "FilterBank",
    "LossValueGrad",
    "MetricsReport",
    "Normalizer",
    "PenaltyContext",
    "PipelineConfig",
    "PreparedData",
    "RarityLevel",
    "RarityThresholds",
    "Router",
    "TimeSeries",
    "TrainedPipeline",
    "Windows",
    "build_expert_chain",
    "build_filter_bank",
    "combined_loss",
    "compute_thresholds",
    "decompose",
    "detect_boundaries",
    "evaluate",
    "expert_predict",
    "fuse",
    "gate_forward",
    "kd_loss",
    "label_point",
    "label_points",
    "load_csv",
    "make_windows",
    "pipeline_predict",
    "prepare_data",
    "rare_loss",
    "rare_penalty",
    "reconstruct",
    "select_topk",
    "split_811",
    "synth_generate",
    "sweep_beta",
    "sweep_k",
    "train_expert",
    "train_pipeline",
    "train_router",
]
