"""Metrics, sweeps, and the component ablation grid."""

import math
import re

import numpy as np
import pytest

from rarecast import evaluation as ev
from rarecast.dataset import RarityLevel, RarityThresholds
from rarecast.pipeline import train_pipeline


THRESH = RarityThresholds(t_moderate=0.4, t_very=0.6, t_extreme=0.8)


# ------------------------------------------------------------------- metrics


def test_evaluate_hand_oracle():
    report = ev.evaluate(np.array([1.0, 2.0]), np.array([0.0, 0.0]), THRESH)
    assert report.overall.mse == pytest.approx(2.5, abs=1e-15)
    assert report.overall.mae == pytest.approx(1.5, abs=1e-15)
    assert report.overall.count == 2
    assert set(report.levels) == {RarityLevel.NORMAL}


def test_evaluate_labels_come_from_truth_only():
    preds = np.array([5.0, 5.0, 5.0])  # far above every threshold
    truths = np.array([0.0, 0.5, 0.9])
    report = ev.evaluate(preds, truths, THRESH)
    assert set(report.levels) == {
        RarityLevel.NORMAL, RarityLevel.MODERATE, RarityLevel.EXTREME_RARE,
    }
    assert report.get(RarityLevel.VERY_RARE) is None
    assert report.get(RarityLevel.EXTREME_RARE).count == 1
    assert report.get(RarityLevel.EXTREME_RARE).mse == pytest.approx(4.1 ** 2, abs=1e-12)


def test_evaluate_accepts_stacked_windows():
    preds = np.zeros((3, 4))
    truths = np.full((3, 4), 0.1)
    report = ev.evaluate(preds, truths, THRESH)
    assert report.overall.count == 12
    assert report.overall.mse == pytest.approx(0.01, abs=1e-15)


def test_evaluate_errors():
    with pytest.raises(ValueError, match="share a shape"):
        ev.evaluate(np.zeros(3), np.zeros(4), THRESH)
    with pytest.raises(ValueError, match="no points"):
        ev.evaluate(np.zeros(0), np.zeros(0), THRESH)


def test_evaluate_compares_shapes_before_flattening():
    # (16, 2) and (2, 16) hold 32 points each; flattened first, they were scored
    # against each other (overall MSE 325.5) instead of failing.
    with pytest.raises(ValueError, match=re.escape(
        "evaluate: predictions shaped (16, 2) and truths shaped (2, 16) must share a shape"
    )):
        ev.evaluate(np.zeros((16, 2)), np.arange(32.0).reshape(2, 16), THRESH)


def test_report_rows_absent_levels_are_blank():
    report = ev.evaluate(np.array([0.0, 1.0]), np.array([0.0, 0.5]), THRESH)
    rows = ev.report_rows(report)
    assert [r["level"] for r in rows] == ["overall", "moderate", "very", "extreme"]
    assert rows[1]["count"] == 1
    assert rows[1]["mse"] == pytest.approx(0.25, abs=1e-15)
    assert rows[2] == {"level": "very", "mse": "", "mae": "", "count": 0}
    assert rows[3]["mse"] == ""


def test_write_rows_csv_is_byte_deterministic(tmp_path):
    report = ev.evaluate(np.array([0.0, 1.0]), np.array([0.0, 0.5]), THRESH)
    rows = ev.report_rows(report)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ev.write_rows_csv(rows, a)
    ev.write_rows_csv(rows, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.splitlines()[0] == "level,mse,mae,count"
    assert repr(0.25) in text  # floats serialized via repr, not formatting
    with pytest.raises(ValueError, match="no rows"):
        ev.write_rows_csv([], a)


def test_format_table_smoke():
    rows = [{"level": "overall", "mse": 1.23456789, "count": 7}]
    table = ev.format_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["level", "mse", "count"]
    assert "1.23457" in lines[1]
    assert not any(line.endswith(" ") for line in lines)


# -------------------------------------------------------------------- sweeps


def test_run_once_smoke(tiny_data, tiny_cfg):
    cfg = tiny_cfg.with_overrides(epochs=1, router_epochs=1)
    report, tp = ev.run_once(tiny_data, cfg)
    horizon = cfg.horizon
    assert report.overall.count == len(tiny_data.test_windows) * horizon
    assert report.overall.mse > 0.0
    assert tp.router is not None


def test_sweep_k_varies_inference_only(tiny_data, tiny_cfg, monkeypatch):
    cfg = tiny_cfg.with_overrides(epochs=1, router_epochs=1)
    trainings = []

    def counted(data, cfg):
        trainings.append(cfg)
        return train_pipeline(data, cfg)

    monkeypatch.setattr(ev, "train_pipeline", counted)
    result = ev.sweep_k(tiny_data, cfg, ks=[1, 2, 3])
    assert len(trainings) == 1
    assert len(result.rows) == 12 and not result.errors
    assert [r["k"] for r in result.rows[::4]] == [1, 2, 3]
    assert set(result.rows[0]) == {"k", "level", "mse", "mae", "count"}
    # each k scores the one pipeline exactly as scoring it at that k directly
    tp = train_pipeline(tiny_data, cfg)[0]
    for i, k in enumerate([1, 2, 3]):
        expected = [{"k": k, **row} for row in ev.report_rows(ev.score(tp, tiny_data, k=k))]
        assert result.rows[4 * i : 4 * i + 4] == expected
    with pytest.raises(ValueError, match="k must be in"):
        ev.sweep_k(tiny_data, cfg, ks=[0])
    with pytest.raises(ValueError, match="k must be in"):
        ev.sweep_k(tiny_data, cfg, ks=[4])
    assert len(trainings) == 1  # an invalid k fails before any training


def _fake_sweep_calls(monkeypatch, fails):
    """Replace training and scoring with fakes; training a config for which fails() holds raises."""
    canned = ev.evaluate(np.ones(4), np.zeros(4), THRESH)
    trainings = []

    def fake_train(data, cfg):
        trainings.append(cfg)
        if fails(cfg):
            raise RuntimeError("boom")
        return object(), None

    monkeypatch.setattr(ev, "train_pipeline", fake_train)
    monkeypatch.setattr(ev, "score", lambda tp, data, k=None: canned)
    return trainings


def test_sweep_beta_records_failures_and_continues(tiny_data, tiny_cfg, monkeypatch):
    _fake_sweep_calls(monkeypatch, lambda cfg: cfg.beta == pytest.approx(0.1))
    result = ev.sweep_beta(tiny_data, tiny_cfg, betas=[0.0, 0.1, 0.5])
    assert [r["beta"] for r in result.rows[::4]] == [0.0, 0.5]
    assert len(result.rows) == 8
    assert result.errors == [{"beta": 0.1, "error": "RuntimeError: boom"}]


def test_sweep_trains_once_per_config_apart_from_k(tiny_data, tiny_cfg, monkeypatch):
    # A training that failed is never reused: the next k-only cell trains again.
    trainings = _fake_sweep_calls(monkeypatch, lambda cfg: cfg.beta == 0.1)
    cells = [({"cell": i}, tiny_cfg.with_overrides(beta=b, k=k))
             for i, (b, k) in enumerate([(0.5, 1), (0.5, 2), (0.0, 2), (0.0, 1), (0.1, 1), (0.1, 2)])]
    result = ev.sweep(tiny_data, cells)
    assert [(c.beta, c.k) for c in trainings] == [(0.5, 1), (0.0, 2), (0.1, 1), (0.1, 2)]
    assert [r["cell"] for r in result.rows[::4]] == [0, 1, 2, 3]
    assert [e["cell"] for e in result.errors] == [4, 5]


def test_sweep_k_and_ablate_record_failures_and_continue(tiny_data, tiny_cfg, monkeypatch):
    _fake_sweep_calls(monkeypatch, lambda cfg: cfg.n_bands == 1)  # the "none" preset
    result = ev.ablation_table(tiny_data, tiny_cfg)
    assert result.errors == [{"components": "none", "error": "RuntimeError: boom"}]
    assert [r["components"] for r in result.rows[::4]] == ["WT", "WT+KD", "WT+RP", "WT+RP+KD"]

    def score_fails_at_k2(tp, data, k=None):
        if k == 2:
            raise RuntimeError("no k=2")
        return ev.evaluate(np.ones(4), np.zeros(4), THRESH)

    monkeypatch.setattr(ev, "score", score_fails_at_k2)
    result = ev.sweep_k(tiny_data, tiny_cfg, ks=[1, 2, 3])
    assert result.errors == [{"k": 2, "error": "RuntimeError: no k=2"}]
    assert [r["k"] for r in result.rows[::4]] == [1, 3]


def test_sweep_beta_rejects_invalid_beta_up_front(tiny_data, tiny_cfg):
    with pytest.raises(ValueError):
        ev.sweep_beta(tiny_data, tiny_cfg, betas=[-1.0])


def test_beta_sweep_grid():
    assert ev.BETA_SWEEP == (0.0, 0.1, 0.5, 0.7, 1.0, 1.5, 2.0)


# ----------------------------------------------------------------- ablations


def test_ablate_config_fields(tiny_cfg):
    cfg = tiny_cfg.with_overrides(n_bands=4, beta=0.7)
    none = ev.ablate_config(cfg, [])
    assert (none.n_bands, none.use_rare_penalty, none.beta) == (1, False, 0.0)
    wt = ev.ablate_config(cfg, ["WT"])
    assert (wt.n_bands, wt.use_rare_penalty, wt.beta) == (4, False, 0.0)
    full = ev.ablate_config(cfg, ["wt", "rp", "kd"])  # case-insensitive
    assert (full.n_bands, full.use_rare_penalty, full.beta) == (4, True, 0.7)
    kd = ev.ablate_config(cfg, ["WT", "KD"])
    assert kd.beta == 0.7 and not kd.use_rare_penalty
    with pytest.raises(ValueError, match="unknown components"):
        ev.ablate_config(cfg, ["WT", "XX"])


def test_components_label_ordering():
    assert ev.components_label(frozenset()) == "none"
    assert ev.components_label(frozenset({"KD", "WT"})) == "WT+KD"
    assert ev.components_label(frozenset({"KD", "RP", "WT"})) == "WT+RP+KD"
    assert [ev.components_label(p) for p in ev.TABLE_PRESETS] == [
        "none", "WT", "WT+KD", "WT+RP", "WT+RP+KD",
    ]


def test_ablation_table_complete(tiny_data, tiny_cfg):
    cfg = tiny_cfg.with_overrides(epochs=1, router_epochs=1)
    result = ev.ablation_table(tiny_data, cfg)
    assert not result.errors
    rows = result.rows
    labels = ["none", "WT", "WT+KD", "WT+RP", "WT+RP+KD"]
    assert [r["components"] for r in rows] == [label for label in labels for _ in range(4)]
    assert [r["level"] for r in rows] == ["overall", "moderate", "very", "extreme"] * 5
    for row in rows:
        assert isinstance(row["mse"], float) and math.isfinite(row["mse"])
        assert isinstance(row["mae"], float)  # every level has points in the split
