"""Expert chain: level assignment, distillation wiring, specialization."""

import hashlib

import numpy as np
import pytest

from rarecast.config import PipelineConfig
from rarecast.dataset import RarityLevel, TimeSeries, Windows
from rarecast.expert import (
    ExpertModel,
    build_expert_chain,
    collapse_level,
    decompose_histories,
    expert_predict,
    expert_predict_batch,
    train_expert,
)
from rarecast.ewt import Boundaries, build_filter_bank
from rarecast.pipeline import baseline_predict, load_series, prepare_data, train_pipeline
from rarecast import backbone as bb


def _params_digest(model: ExpertModel) -> str:
    h = hashlib.sha256()
    for backbone in model.backbones:
        for name in sorted(backbone.params):
            h.update(backbone.params[name].tobytes())
    return h.hexdigest()


# ------------------------------------------------------------ level folding


def test_collapse_level_scalar_and_array():
    assert collapse_level(3, 4) == 3
    assert collapse_level(3, 3) == 2  # the top levels merge
    assert collapse_level(1, 3) == 1
    np.testing.assert_array_equal(
        collapse_level(np.array([0, 1, 2, 3]), 3), [0, 1, 2, 2]
    )
    np.testing.assert_array_equal(
        collapse_level(np.array([0, 1, 2, 3]), 1), [0, 0, 0, 0]
    )
    with pytest.raises(ValueError):
        collapse_level(2, 0)
    with pytest.raises(ValueError):
        collapse_level(2, 5)


def test_expert_train_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(n_bands=0)
    with pytest.raises(ValueError):
        PipelineConfig(beta=-1.0)
    with pytest.raises(ValueError):
        PipelineConfig(mode="wavelet")
    with pytest.raises(ValueError):
        PipelineConfig(level_scope="all")
    with pytest.raises(ValueError):
        PipelineConfig(n_experts=5)


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_bands", 0),
        ("batch_size", 0),
        ("batch_size", -5),
        ("epochs", -1),
        ("router_epochs", -1),
        ("lr", -1.0),
        ("lr", 0.0),
        ("lr", float("inf")),
        ("router_lr", float("nan")),
        ("router_lr", -1.0),
        ("hidden", 0),
        ("gate_hidden", -3),
        ("gamma", -1.0),
        ("gamma", float("nan")),
        ("gamma", float("inf")),
    ],
)
def test_config_rejects_out_of_range_training_values(name, value):
    # Each of these used to train silently or fail deep inside numpy.
    with pytest.raises(ValueError, match=rf"^config: .*\b{name}\b"):
        PipelineConfig(**{name: value})


def test_expert_model_validation():
    lin = bb.make_forecaster("linear", 8, 2)
    with pytest.raises(ValueError, match="one backbone per band"):
        ExpertModel(level=0, n_bands=2, backbones=[lin])
    with pytest.raises(ValueError, match="requires a filter bank"):
        ExpertModel(level=0, n_bands=1, backbones=[lin], mode="global")
    bank = build_filter_bank(Boundaries(np.array([0.0, np.pi])), 99)
    with pytest.raises(ValueError, match="per_window mode .* takes none"):
        # decompose_histories ignores a bank in this mode, so one would ride along unused
        ExpertModel(level=0, n_bands=1, backbones=[lin], mode="per_window", bank=bank)
    merged = ExpertModel(level=5, n_bands=1, backbones=[lin])
    assert merged.penalty_level is RarityLevel.EXTREME_RARE
    assert (merged.history_len, merged.horizon) == (8, 2)


# ------------------------------------------------------------ decomposition


def test_decompose_histories_modes():
    rng = np.random.default_rng(0)
    hist = rng.standard_normal((5, 32))
    per = decompose_histories(hist, 2, "per_window", None)
    assert per.shape == (5, 2, 32)
    bank = build_filter_bank(Boundaries(np.array([0.0, 1.0, np.pi])), 17)
    glob = decompose_histories(hist, 2, "global", bank)
    assert glob.shape == (5, 2, 32)
    np.testing.assert_allclose(glob.sum(axis=1), hist, atol=1e-9)
    with pytest.raises(ValueError, match="requires a bank"):
        decompose_histories(hist, 2, "global", None)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mode", ["per_window", "global"])
def test_expert_predict_rejects_non_finite_history(mode, bad):
    # A NaN history used to come back as an all-NaN forecast, in per-window
    # mode under a "fewer than n spectral maxima" warning that named the wrong cause.
    rng = np.random.default_rng(5)
    bank = build_filter_bank(Boundaries(np.array([0.0, 1.0, np.pi])), 17) if mode == "global" else None
    expert = ExpertModel(
        level=0, n_bands=2, mode=mode, bank=bank,
        backbones=[bb.make_forecaster("linear", 32, 4, rng=rng) for _ in range(2)],
    )
    hist = rng.standard_normal((5, 32))
    hist[3, 7] = bad
    with pytest.raises(ValueError, match="1 of 5 histories hold NaN or infinite values, the first is window 3"):
        expert_predict_batch(expert, hist)
    with pytest.raises(ValueError, match="1 of 1 histories .* the first is window 0"):
        expert_predict(expert, hist[3])
    with pytest.raises(ValueError, match="1 of 5 histories"):
        decompose_histories(hist, 2, mode, bank)


def test_baseline_predict_rejects_non_finite_history(tiny_data):
    # The 1-band baseline skips the band search, so a NaN passed straight through.
    rng = np.random.default_rng(6)
    base = ExpertModel(level=0, n_bands=1, backbones=[bb.make_forecaster("linear", 32, 8, rng=rng)])
    wins = tiny_data.test_windows[:4]
    hist = wins.histories.copy()
    hist[1, 0] = np.nan
    hist[2, -1] = -np.inf
    bad = Windows(hist, wins.targets, wins.point_levels, wins.window_levels)
    with pytest.raises(ValueError, match="2 of 4 histories hold NaN or infinite values, the first is window 1"):
        baseline_predict(base, bad)


def test_expert_forecast_is_sum_of_band_forecasts():
    rng = np.random.default_rng(1)
    backbones = [bb.make_forecaster("linear", 16, 4, rng=rng) for _ in range(3)]
    expert = ExpertModel(level=1, n_bands=3, backbones=backbones)
    hist = rng.standard_normal((4, 16))
    comps = decompose_histories(hist, 3, "per_window", None)
    expected = sum(bb.forecast(backbones[b], comps[:, b, :]) for b in range(3))
    np.testing.assert_allclose(expert_predict_batch(expert, hist, comps), expected, atol=1e-15)
    single = expert_predict(expert, hist[0])
    np.testing.assert_allclose(single, expert_predict_batch(expert, hist)[0], atol=1e-12)
    with pytest.raises(ValueError):
        expert_predict(expert, hist)  # batch input on the single-window API


# ----------------------------------------------------------------- training


def _small_cfg(**kw) -> PipelineConfig:
    base = dict(n_bands=2, beta=0.5, epochs=2, lr=1e-3, batch_size=64,
                backbone="linear", mode="per_window", n_experts=3)
    base.update(kw)
    return PipelineConfig(**base)


def test_train_expert_curve_and_descent(tiny_data):
    wins = tiny_data.train_windows[:300]
    expert, curve = train_expert(wins, 0, None, _small_cfg(epochs=4))
    assert len(curve) == 5  # row 0 precedes any update
    assert set(curve[0]) == {"epoch", "rare", "kd", "total"}
    assert min(row["total"] for row in curve[1:]) <= curve[0]["total"]
    assert curve[0]["kd"] == 0.0  # normal expert never distills


def test_train_expert_errors(tiny_data):
    with pytest.raises(ValueError, match="no samples"):
        train_expert(tiny_data.train_windows[:0], 0, None, _small_cfg())
    with pytest.raises(ValueError, match="requires a teacher"):
        train_expert(tiny_data.train_windows[:50], 1, None, _small_cfg())


def test_teacher_stays_frozen(tiny_data):
    wins = tiny_data.train_windows
    teacher, _ = train_expert(wins[:200], 0, None, _small_cfg())
    digest = _params_digest(teacher)
    _, curve = train_expert(wins[:200], 1, teacher, _small_cfg())
    assert _params_digest(teacher) == digest
    assert curve[0]["kd"] > 0.0  # the student actually sees the teacher


def test_plain_penalty_rare_expert_still_distills(tiny_data):
    """The WT+KD ablation cell: a rare expert on the quadratic loss keeps its KD term."""
    wins = tiny_data.train_windows
    teacher, _ = train_expert(wins[:200], 0, None, _small_cfg())
    digests = []
    for beta in (0.5, 0.0):
        cfg = _small_cfg(beta=beta, use_rare_penalty=False)
        student, curve = train_expert(wins[200:400], 1, teacher, cfg)
        digests.append(_params_digest(student))
    assert curve[0]["kd"] == 0.0  # beta 0 never consults the teacher
    assert digests[0] != digests[1], "distillation was dropped from the gradient"


def test_build_expert_chain_counts_exact_vs_cumulative(tiny_data):
    wins = tiny_data.train_windows
    folded = collapse_level(wins.window_levels, 3)
    exact = build_expert_chain(wins, _small_cfg(epochs=1, level_scope="exact"))
    assert len(exact.experts) == 3
    assert [exact.counts[c] for c in range(3)] == [int((folded == c).sum()) for c in range(3)]
    cum = build_expert_chain(wins, _small_cfg(epochs=1, level_scope="cumulative"))
    assert [cum.counts[c] for c in range(3)] == [int((folded <= c).sum()) for c in range(3)]
    assert [e.level for e in exact.experts] == [0, 1, 2]


def test_build_expert_chain_missing_level_raises(tiny_data):
    wins = tiny_data.train_windows
    quiet = wins[wins.window_levels == RarityLevel.NORMAL]
    with pytest.raises(ValueError, match="no windows for level"):
        build_expert_chain(quiet[:100], _small_cfg())


def test_chain_is_deterministic(tiny_data):
    wins = tiny_data.train_windows
    a = build_expert_chain(wins, _small_cfg(epochs=1))
    b = build_expert_chain(wins, _small_cfg(epochs=1))
    assert [_params_digest(e) for e in a.experts] == [_params_digest(e) for e in b.experts]


def test_chain_trains_on_unnormalized_large_scale_series(tiny_cfg):
    # regression: with identity normalization a series scaled by 100 made the
    # exponential under-prediction penalty overflow, and the first rare
    # expert's step aborted with a non-finite gradient
    cfg = tiny_cfg.with_overrides(normalization="identity")
    raw = load_series(cfg)
    data = prepare_data(cfg, series=TimeSeries(raw.values * 100.0, name=raw.name))
    tp, _ = train_pipeline(data, cfg, train_router_too=False)
    for expert in tp.experts:
        for backbone in expert.backbones:
            assert all(np.all(np.isfinite(p)) for p in backbone.params.values())


# ------------------------------------------------------------ specialization


def test_rare_experts_beat_normal_on_their_own_windows():
    """Median over 5 seeds at the benchmark preset: each level's expert must
    be at least as good as the normal expert on held-out windows of its level."""
    cfg0 = PipelineConfig()
    gaps = {c: ([], []) for c in range(cfg0.n_experts)}
    for seed in range(5):
        cfg = cfg0.with_overrides(seed=seed)
        data = prepare_data(cfg)
        tp, _ = train_pipeline(data, cfg, train_router_too=False)
        hist, targ = data.test_windows.histories, data.test_windows.targets
        folded = collapse_level(data.test_windows.window_levels, cfg.n_experts)
        for c in range(cfg.n_experts):
            sel = folded == c
            assert sel.any(), f"seed {seed}: no held-out windows at level {c}"
            own = expert_predict_batch(tp.experts[c], hist[sel])
            ref = expert_predict_batch(tp.experts[0], hist[sel])
            gaps[c][0].append(float(((own - targ[sel]) ** 2).mean()))
            gaps[c][1].append(float(((ref - targ[sel]) ** 2).mean()))
    for c, (own_mses, ref_mses) in gaps.items():
        assert np.median(own_mses) <= np.median(ref_mses), (
            f"level {c}: median {np.median(own_mses):.4f} vs normal {np.median(ref_mses):.4f}"
        )
