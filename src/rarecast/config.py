"""One flat run configuration shared by the CLI, sweeps, scripts and the trainers."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any

from .backbone import KINDS
from .dataset import N_LEVELS

SOURCES = ("synth", "csv")
LEVEL_SCOPES = ("exact", "cumulative")
DECOMPOSITION_MODES = ("per_window", "global")


@dataclass(frozen=True)
class PipelineConfig:
    # windowing
    history_len: int = 128
    horizon: int = 24
    stride: int = 1
    # spectral decomposition
    n_bands: int = 4
    mode: str = "per_window"
    gamma: float | None = None
    # experts
    n_experts: int = 4
    beta: float = 0.5
    backbone: str = "mlp"
    hidden: int = 32
    epochs: int = 20
    lr: float = 1e-3
    batch_size: int = 64
    level_scope: str = "exact"
    use_rare_penalty: bool = True
    # router
    k: int = 2
    gate_hidden: int = 32
    router_epochs: int = 20
    router_lr: float = 1e-3
    class_weights: bool = False
    # labeling and scaling
    percentiles: tuple[float, float, float] = (90.0, 95.0, 99.0)
    normalization: str = "zscore"
    # data source
    source: str = "synth"
    data_path: str | None = None
    data_column: str | int | None = None
    delimiter: str = ","
    synth_n: int = 20000
    spike_rate: float = 0.01
    spike_scale: float = 4.0
    # reproducibility
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("config: horizon must be >= 1")
        if self.n_bands < 1:
            raise ValueError("config: n_bands must be >= 1")
        if self.history_len < 2 * self.n_bands:
            raise ValueError(
                f"config: history_len {self.history_len} must be >= 2 * n_bands = {2 * self.n_bands}"
            )
        if self.stride < 1:
            raise ValueError("config: stride must be >= 1")
        if self.beta < 0.0:
            raise ValueError("config: beta must be >= 0")
        if self.batch_size < 1:
            raise ValueError("config: batch_size must be >= 1")
        if self.epochs < 0 or self.router_epochs < 0:
            raise ValueError("config: epochs and router_epochs must be >= 0")
        for name in ("lr", "router_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"config: {name} must be finite and > 0, got {value}")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"config: gamma must be None or finite and >= 0, got {self.gamma}")
        if self.hidden < 1:
            raise ValueError("config: hidden must be >= 1")
        if self.gate_hidden < 0:
            raise ValueError("config: gate_hidden must be >= 0 (0 means a linear gate)")
        if not 1 <= self.n_experts <= N_LEVELS:
            raise ValueError(f"config: n_experts must be in [1, {N_LEVELS}]")
        if not 1 <= self.k <= self.n_experts:
            raise ValueError(f"config: k must be in [1, n_experts={self.n_experts}]")
        if self.mode not in DECOMPOSITION_MODES:
            raise ValueError(f"config: mode must be one of {DECOMPOSITION_MODES}")
        if self.level_scope not in LEVEL_SCOPES:
            raise ValueError(f"config: level_scope must be one of {LEVEL_SCOPES}")
        if self.backbone not in KINDS:
            raise ValueError(f"config: backbone must be one of {KINDS}")
        if self.normalization not in ("zscore", "identity"):
            raise ValueError("config: normalization must be 'zscore' or 'identity'")
        if self.source not in SOURCES:
            raise ValueError(f"config: source must be one of {SOURCES}")
        if self.source == "csv" and (self.data_path is None or self.data_column is None):
            raise ValueError("config: csv source needs data_path and data_column")
        p = self.percentiles
        if len(p) != 3 or not (0.0 < p[0] <= p[1] <= p[2] < 100.0):
            raise ValueError(f"config: percentiles must be 3 ordered values in (0, 100), got {p}")

    # The training functions take the config itself. These two identity
    # methods remain only because the benchmark harness still calls them.
    def expert_cfg(self) -> "PipelineConfig":
        return self

    def router_cfg(self) -> "PipelineConfig":
        return self

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["percentiles"] = list(self.percentiles)
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PipelineConfig":
        d = dict(d)
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"config: unknown fields {sorted(unknown)}")
        if "percentiles" in d:
            d["percentiles"] = tuple(d["percentiles"])
        return cls(**d)

    def with_overrides(self, **kwargs: Any) -> "PipelineConfig":
        return replace(self, **kwargs)
