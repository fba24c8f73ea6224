"""Metrics, sweeps, and the component ablation grid."""

import math

import numpy as np
import pytest

from rarecast import evaluation as ev
from rarecast.dataset import RarityLevel, RarityThresholds


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


def test_sweep_k_varies_inference_only(tiny_data, tiny_cfg):
    cfg = tiny_cfg.with_overrides(epochs=1, router_epochs=1)
    result = ev.sweep_k(tiny_data, cfg, ks=[1, 2, 3])
    assert len(result.rows) == 12 and not result.errors
    assert [r["k"] for r in result.rows[::4]] == [1, 2, 3]
    assert set(result.rows[0]) == {"k", "level", "mse", "mae", "count"}
    with pytest.raises(ValueError, match="outside"):
        ev.sweep_k(tiny_data, cfg, ks=[0])
    with pytest.raises(ValueError, match="outside"):
        ev.sweep_k(tiny_data, cfg, ks=[4])


def test_sweep_beta_records_failures_and_continues(tiny_data, tiny_cfg, monkeypatch):
    canned = ev.evaluate(np.ones(4), np.zeros(4), THRESH)

    def fake_run_once(data, cfg):
        if cfg.beta == pytest.approx(0.1):
            raise RuntimeError("boom")
        return canned, None

    monkeypatch.setattr(ev, "run_once", fake_run_once)
    result = ev.sweep_beta(tiny_data, tiny_cfg, betas=[0.0, 0.1, 0.5])
    assert [r["beta"] for r in result.rows[::4]] == [0.0, 0.5]
    assert len(result.rows) == 8
    assert result.errors == [{"beta": 0.1, "error": "RuntimeError: boom"}]


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
    rows = ev.ablation_table(tiny_data, cfg)
    labels = ["none", "WT", "WT+KD", "WT+RP", "WT+RP+KD"]
    assert [r["components"] for r in rows] == [label for label in labels for _ in range(4)]
    assert [r["level"] for r in rows] == ["overall", "moderate", "very", "extreme"] * 5
    for row in rows:
        assert isinstance(row["mse"], float) and math.isfinite(row["mse"])
        assert isinstance(row["mae"], float)  # every level has points in the split
