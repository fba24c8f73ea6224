"""One flat run configuration shared by the CLI, sweeps, scripts and the trainers."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any

from .backbone import BATCH_SIZE, HIDDEN, KINDS, LR
from .dataset import N_LEVELS

DECOMPOSITION_MODES = ("per_window", "global")


# The defaults are the benchmark preset, which `rarecast reproduce`, the
# release gate and every benchmark workload run. Three experts (top rarity
# levels merged) and linear backbones. No field varies the rest: each expert
# trains on the windows of its own level, every model trains at backbone.LR
# in minibatches of backbone.BATCH_SIZE, an MLP has backbone.HIDDEN units,
# the gate is linear and weighted by inverse class frequency, and the rarity
# thresholds are the training values' P90/P95/P99. Short expert schedule:
# longer training lets the rare experts drift on quiet windows and erodes
# the full configuration's overall-MSE margin. Router schedule: the smallest of
# {5, 10, 20, 40, 80} epochs whose median validation-split overall and
# extreme MSE (seeds 5-9) are within 1% of the 80-epoch medians, for this
# preset and its global-mode MLP variant.
@dataclass(frozen=True)
class PipelineConfig:
    # windowing
    history_len: int = 64
    horizon: int = 16
    stride: int = 1
    # spectral decomposition
    n_bands: int = 4
    mode: str = "per_window"
    gamma: float | None = None
    # experts
    n_experts: int = 3
    beta: float = 0.5
    backbone: str = "linear"
    epochs: int = 10
    use_rare_penalty: bool = True
    # router
    k: int = 2
    router_epochs: int = 5
    # scaling
    normalization: str = "zscore"
    # data source: the CSV at data_path, else the synthetic series
    data_path: str | None = None
    data_column: str | int | None = None
    delimiter: str = ","
    synth_n: int = 20000
    spike_rate: float = 0.02
    spike_scale: float = 5.0
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
        if self.epochs < 0 or self.router_epochs < 0:
            raise ValueError("config: epochs and router_epochs must be >= 0")
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"config: gamma must be None or finite and >= 0, got {self.gamma}")
        if not 1 <= self.n_experts <= N_LEVELS:
            raise ValueError(f"config: n_experts must be in [1, {N_LEVELS}]")
        if not 1 <= self.k <= self.n_experts:
            raise ValueError(f"config: k must be in [1, n_experts={self.n_experts}]")
        if self.mode not in DECOMPOSITION_MODES:
            raise ValueError(f"config: mode must be one of {DECOMPOSITION_MODES}")
        if self.backbone not in KINDS:
            raise ValueError(f"config: backbone must be one of {KINDS}")
        if self.normalization not in ("zscore", "identity"):
            raise ValueError("config: normalization must be 'zscore' or 'identity'")
        if self.data_path is not None and self.data_column is None:
            raise ValueError("config: data_path needs data_column")

    # The training functions take the config itself. These two identity
    # methods remain only because the benchmark harness still calls them.
    def expert_cfg(self) -> "PipelineConfig":
        return self

    def router_cfg(self) -> "PipelineConfig":
        return self

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PipelineConfig":
        """The config a snapshot or bundle stores; fields earlier builds wrote are checked, then dropped.

        A retired field that holds the one value this build implements loads
        as if absent; any other value would select a path that is gone.
        """
        d = dict(d)
        retired = {
            "level_scope": "exact",
            "class_weights": True,
            "gate_hidden": 0,
            "router_lr": LR,
            "percentiles": [90.0, 95.0, 99.0],
            "hidden": HIDDEN,
            "lr": LR,
            "batch_size": BATCH_SIZE,
            "source": "synth" if d.get("data_path") is None else "csv",
        }
        for name, implemented in retired.items():
            value = d.pop(name, implemented)
            if value != implemented:
                raise ValueError(
                    f"config: {name}={value!r} is no longer supported (this build implements {implemented!r})"
                )
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"config: unknown fields {sorted(unknown)}")
        return cls(**d)

    def with_overrides(self, **kwargs: Any) -> "PipelineConfig":
        return replace(self, **kwargs)
