"""The bit contract at the data boundary: what a bundle may depend on, and how it scales.

A trained bundle is a function of the training split alone, and a zscore
pipeline commutes with scaling the series by a power of two, which every
float64 operation of the pipeline carries out exactly.
"""

import numpy as np
import pytest

from rarecast.bundle import save_bundle
from rarecast.config import PipelineConfig
from rarecast.dataset import TimeSeries, split_811_lengths
from rarecast.pipeline import load_series, predict_windows, prepare_data, train_pipeline

SMALL = dict(synth_n=4000, epochs=1, router_epochs=1)


def _trained(cfg: PipelineConfig, values: np.ndarray):
    data = prepare_data(cfg, TimeSeries(values))
    tp, _ = train_pipeline(data, cfg)
    return data, tp


@pytest.fixture(scope="module", params=["per_window", "global"])
def reference(request):
    cfg = PipelineConfig(mode=request.param, **SMALL)
    values = load_series(cfg).values
    return cfg, values, *_trained(cfg, values)


def test_points_after_the_training_split_cannot_reach_the_bundle(reference, tmp_path):
    # Split, then normalise and threshold on the training split alone: noise
    # in the validation and test splits must leave every stored byte alone.
    cfg, values, _, tp = reference
    n_train = split_811_lengths(len(values))[0]
    noisy = values.copy()
    noisy[n_train:] = np.random.default_rng(7).normal(50.0, 30.0, len(values) - n_train)
    _, tp_noisy = _trained(cfg, noisy)
    save_bundle(tp, tmp_path / "clean.json")
    save_bundle(tp_noisy, tmp_path / "noisy.json")
    assert (tmp_path / "noisy.json").read_bytes() == (tmp_path / "clean.json").read_bytes()


@pytest.mark.parametrize("factor", [4.0, 0.125])
def test_a_power_of_two_scale_moves_no_bit_but_the_scale(reference, factor):
    cfg, values, data, tp = reference
    data_s, tp_s = _trained(cfg, values * factor)
    assert (tp_s.normalizer.mean, tp_s.normalizer.std) == (
        factor * tp.normalizer.mean, factor * tp.normalizer.std
    )
    for split in ("train", "val", "test"):
        np.testing.assert_array_equal(getattr(data_s, split).values, getattr(data, split).values)
    assert tp_s.thresholds == tp.thresholds
    for e, e_s in zip(tp.experts, tp_s.experts):
        np.testing.assert_array_equal(e_s.stack.flat, e.stack.flat)
    np.testing.assert_array_equal(tp_s.router.gate.flat, tp.router.gate.flat)
    raw = tp.normalizer.invert(predict_windows(tp, data.test_windows)[0])
    raw_s = tp_s.normalizer.invert(predict_windows(tp_s, data_s.test_windows)[0])
    np.testing.assert_array_equal(raw_s, factor * raw)
