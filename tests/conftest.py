"""Shared fixtures: one small prepared dataset and a pipeline trained on it.

The tiny configuration is chosen so that every rarity level is populated in
every split (seed 3 at 6000 points), while a full train stays well under a
second. Session scope keeps the expensive fixtures to one build per run.
"""

import pytest

from rarecast.config import PipelineConfig
from rarecast.pipeline import prepare_data, train_pipeline

TINY = dict(
    history_len=32,
    horizon=8,
    stride=2,
    n_bands=2,
    k=2,
    n_experts=3,
    epochs=3,
    router_epochs=10,
    backbone="linear",
    synth_n=6000,
    spike_rate=0.02,
    spike_scale=5.0,
    seed=3,
)


@pytest.fixture()
def tiny_cfg() -> PipelineConfig:
    return PipelineConfig(**TINY)


@pytest.fixture(scope="session")
def tiny_data():
    return prepare_data(PipelineConfig(**TINY))


@pytest.fixture(scope="session")
def tiny_pipeline(tiny_data):
    return train_pipeline(tiny_data, PipelineConfig(**TINY))
