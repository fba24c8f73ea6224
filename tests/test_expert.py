"""Expert chain: level assignment, distillation wiring, specialization."""

import hashlib
import re
import tracemalloc

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
    max_experts,
    train_expert,
)
from rarecast.ewt import Boundaries, build_filter_bank
from rarecast.pipeline import baseline_predict, load_series, prepare_data, train_pipeline
from rarecast import backbone as bb
from rarecast import ewt, pipeline


def _params_digest(model: ExpertModel) -> str:
    h = hashlib.sha256()
    for b in range(model.n_bands):
        for name in sorted(model.stack.params):
            h.update(model.stack.params[name][b].tobytes())
    return h.hexdigest()


def _linear_stack(n_bands: int, history_len: int, horizon: int, rng=None) -> bb.ForecasterStack:
    return bb.stack_params(
        "linear", [bb.init_params("linear", history_len, horizon, rng=rng) for _ in range(n_bands)]
    )


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
        ("hidden", 0),
        ("gamma", -1.0),
        ("gamma", float("nan")),
        ("gamma", float("inf")),
    ],
)
def test_config_rejects_out_of_range_training_values(name, value):
    # Each of these used to train silently or fail deep inside numpy. A stored
    # batch_size, lr or hidden is a retired field that loads only at its one value.
    with pytest.raises(ValueError, match=rf"^config: .*\b{name}\b"):
        PipelineConfig.from_dict({name: value})


def test_expert_model_validation():
    lin = _linear_stack(1, 8, 2)
    # the bank decides the mode, so a mode without its bank cannot be built
    with pytest.raises(TypeError, match="mode"):
        ExpertModel(level=0, stack=lin, mode="global")
    bank = build_filter_bank(Boundaries(np.array([0.0, np.pi])), 99)
    assert ExpertModel(level=0, stack=lin, bank=bank).mode == "global"
    assert ExpertModel(level=0, stack=lin).mode == "per_window"
    merged = ExpertModel(level=5, stack=lin)
    assert merged.penalty_level is RarityLevel.EXTREME_RARE
    assert (merged.n_bands, merged.history_len, merged.horizon) == (1, 8, 2)
    assert ExpertModel(level=0, stack=_linear_stack(3, 8, 2)).n_bands == 3


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
    # an unknown mode used to run the per-window decomposition
    with pytest.raises(ValueError, match=re.escape("mode must be one of ('per_window', 'global'), got 'wavelet'")):
        decompose_histories(hist, 2, "wavelet", None)


@pytest.mark.parametrize("shape", [(32,), (1, 5, 32)])
def test_decompose_histories_rejects_input_that_is_not_2d(shape):
    # np.atleast_2d let 1-d through and read a 3-d batch as rows of its last-but-one axis
    bank = build_filter_bank(Boundaries(np.array([0.0, 1.0, np.pi])), 17)
    for mode, mode_bank in (("global", bank), ("per_window", None)):
        with pytest.raises(ValueError, match=r"decompose_histories: expected a \(N, T\) array"):
            decompose_histories(np.zeros(shape), 2, mode, mode_bank)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mode", ["per_window", "global"])
def test_expert_predict_rejects_non_finite_history(mode, bad):
    # A NaN history used to come back as an all-NaN forecast, in per-window
    # mode under a "fewer than n spectral maxima" warning that named the wrong cause.
    rng = np.random.default_rng(5)
    bank = build_filter_bank(Boundaries(np.array([0.0, 1.0, np.pi])), 17) if mode == "global" else None
    expert = ExpertModel(level=0, bank=bank, stack=_linear_stack(2, 32, 4, rng))
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
    base = ExpertModel(level=0, stack=_linear_stack(1, 32, 8, rng))
    wins = tiny_data.test_windows[:4]
    hist = wins.histories.copy()
    hist[1, 0] = np.nan
    hist[2, -1] = -np.inf
    bad = Windows(hist, wins.targets, wins.point_levels)
    with pytest.raises(ValueError, match="2 of 4 histories hold NaN or infinite values, the first is window 1"):
        baseline_predict(base, bad)


def test_expert_forecast_is_sum_of_band_forecasts():
    rng = np.random.default_rng(1)
    bands = [bb.init_params("linear", 16, 4, rng=rng) for _ in range(3)]
    expert = ExpertModel(level=1, stack=bb.stack_params("linear", bands))
    hist = rng.standard_normal((4, 16))
    comps = decompose_histories(hist, 3, "per_window", None)
    # each band forecast on its own, by a stack of that band's model alone
    expected = sum(bb.forecast(bb.stack_params("linear", [bands[b]]), comps[:, b, :])[0] for b in range(3))
    np.testing.assert_allclose(expert_predict_batch(expert, hist, comps), expected, atol=1e-15)
    single = expert_predict(expert, hist[0])
    np.testing.assert_allclose(single, expert_predict_batch(expert, hist)[0], atol=1e-12)
    with pytest.raises(ValueError):
        expert_predict(expert, hist)  # batch input on the single-window API


# ----------------------------------------------------------------- training


def _small_cfg(**kw) -> PipelineConfig:
    base = dict(n_bands=2, beta=0.5, epochs=2, backbone="linear", mode="per_window", n_experts=3)
    base.update(kw)
    return PipelineConfig(**base)


def _comps(wins: Windows, cfg: PipelineConfig) -> np.ndarray:
    """The windows' band components, decomposed as train_pipeline does in per-window mode."""
    return decompose_histories(wins.histories, cfg.n_bands, cfg.mode, None, cfg.gamma)


def test_train_expert_curve_and_descent(tiny_data):
    wins = tiny_data.train_windows[:300]
    cfg = _small_cfg(epochs=4)
    expert, curve = train_expert(wins, 0, None, cfg, _comps(wins, cfg))
    assert len(curve) == 5  # row 0 precedes any update
    assert set(curve[0]) == {"epoch", "rare", "kd", "total"}
    assert min(row["total"] for row in curve[1:]) <= curve[0]["total"]
    assert curve[0]["kd"] == 0.0  # normal expert never distills


def test_train_expert_errors(tiny_data):
    cfg = _small_cfg()
    with pytest.raises(ValueError, match="no samples"):
        train_expert(tiny_data.train_windows[:0], 0, None, cfg, np.empty((0, cfg.n_bands, 32)))
    wins = tiny_data.train_windows[:50]
    with pytest.raises(ValueError, match="requires a teacher"):
        train_expert(wins, 1, None, cfg, _comps(wins, cfg))


@pytest.mark.parametrize(
    "make_rows",
    [
        lambda n: np.array([-1, -2]),  # numpy would wrap these to the last two rows
        lambda n: np.array([0.0, 1.0]),
        lambda n: np.arange(n) % 2 == 0,  # a mask, not indices
        lambda n: np.array([n]),
        lambda n: np.arange(4).reshape(2, 2),
    ],
    ids=["negative", "float", "mask", "past_end", "2d"],
)
def test_train_expert_rejects_rows_that_are_not_row_indices(tiny_data, make_rows):
    wins = tiny_data.train_windows[:50]
    cfg = _small_cfg(epochs=1)
    with pytest.raises(ValueError, match=r"train_expert: rows must be a 1-d array of integer row indices in \[0, 50\)"):
        train_expert(wins, 0, None, cfg, _comps(wins, cfg), rows=make_rows(len(wins)))


def test_train_expert_reads_band_major_components_in_place(tiny_data):
    # Minibatches, teacher rows and curve rows are gathered band by band from
    # the components as the decomposition stores them; no step may copy the
    # whole array, as a C-ordered copy of it would.
    wins = tiny_data.train_windows
    cfg = _small_cfg(epochs=2)
    comps = decompose_histories(wins.histories, cfg.n_bands, cfg.mode, None)
    teacher, _ = train_expert(wins, 0, None, cfg, components=comps)
    rows = np.arange(0, len(wins), 8)
    tracemalloc.start()
    try:
        train_expert(wins, 0, None, cfg, components=comps)
        normal_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _, curve = train_expert(wins, 1, teacher, cfg, components=comps, rows=rows)
        list(curve)  # the curve gathers its rows when read
        rare_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comps.nbytes > 2**20
    assert normal_peak < comps.nbytes // 2
    assert rare_peak < comps.nbytes // 2  # an eighth of the rows, gathered one copy at a time


def test_teacher_stays_frozen(tiny_data):
    wins = tiny_data.train_windows[:200]
    comps = _comps(wins, _small_cfg())
    teacher, _ = train_expert(wins, 0, None, _small_cfg(), comps)
    digest = _params_digest(teacher)
    _, curve = train_expert(wins, 1, teacher, _small_cfg(), comps)
    assert _params_digest(teacher) == digest
    assert curve[0]["kd"] > 0.0  # the student actually sees the teacher


def test_plain_penalty_rare_expert_still_distills(tiny_data):
    """The WT+KD ablation cell: a rare expert on the quadratic loss keeps its KD term."""
    wins = tiny_data.train_windows
    teacher, _ = train_expert(wins[:200], 0, None, _small_cfg(), _comps(wins[:200], _small_cfg()))
    comps = _comps(wins[200:400], _small_cfg())
    digests = []
    for beta in (0.5, 0.0):
        cfg = _small_cfg(beta=beta, use_rare_penalty=False)
        student, curve = train_expert(wins[200:400], 1, teacher, cfg, comps)
        digests.append(_params_digest(student))
    assert curve[0]["kd"] == 0.0  # beta 0 never consults the teacher
    assert digests[0] != digests[1], "distillation was dropped from the gradient"


def test_build_expert_chain_trains_each_expert_on_its_exact_level(tiny_data):
    wins = tiny_data.train_windows
    folded = collapse_level(wins.window_levels, 3)
    comps = _comps(wins, _small_cfg())
    chain = build_expert_chain(wins, _small_cfg(epochs=1), None, comps)
    assert len(chain.experts) == 3
    assert [chain.counts[c] for c in range(3)] == [int((folded == c).sum()) for c in range(3)]
    assert [e.level for e in chain.experts] == [0, 1, 2]


def test_build_expert_chain_builds_no_windows(tiny_data, monkeypatch):
    # Every expert trains on the one training set, row-indexed by its level;
    # the chain used to copy each level's rows into a new Windows.
    wins = tiny_data.train_windows
    comps = _comps(wins, _small_cfg())
    built = []
    post_init = Windows.__post_init__
    monkeypatch.setattr(Windows, "__post_init__", lambda self: built.append(post_init(self)))
    chain = build_expert_chain(wins, _small_cfg(epochs=1), None, comps)
    assert len(chain.experts) == 3 and built == []


def test_components_of_other_windows_raise_naming_both_row_counts(tiny_data):
    # The test windows with the training components used to train on the wrong
    # rows without a word; the reverse raised a bare IndexError.
    cfg = _small_cfg(epochs=1)
    train, test = tiny_data.train_windows, tiny_data.test_windows
    for wins, comps in ((test, _comps(train, cfg)), (train, _comps(test, cfg))):
        with pytest.raises(
            ValueError, match=rf"components hold {len(comps)} rows but the windows hold {len(wins)}"
        ):
            build_expert_chain(wins, cfg, None, comps)
        with pytest.raises(ValueError, match=rf"{len(comps)} rows but the windows hold {len(wins)}"):
            train_expert(wins, 0, None, cfg, comps)


def test_build_expert_chain_missing_level_raises(tiny_data):
    wins = tiny_data.train_windows
    quiet = wins[wins.window_levels == RarityLevel.NORMAL][:100]
    with pytest.raises(ValueError, match="no windows for level"):
        build_expert_chain(quiet, _small_cfg(), None, _comps(quiet, _small_cfg()))


def test_build_expert_chain_names_the_largest_supported_expert_count():
    # A series clipped at its 93.6th percentile ties t_very == t_extreme, so no
    # point is labelled VERY_RARE; the error used to name only the missing level.
    cfg = PipelineConfig()
    raw = load_series(cfg)
    clipped = np.minimum(raw.values, np.percentile(raw.values, 93.6))
    data = prepare_data(cfg, series=TimeSeries(clipped, name=raw.name))
    assert data.thresholds.t_very == data.thresholds.t_extreme
    comps = _comps(data.train_windows, cfg)
    with pytest.raises(ValueError, match=r"VERY_RARE; these windows support at most 2 experts \(--experts\)"):
        build_expert_chain(data.train_windows, cfg, None, comps)
    assert max_experts(data.train_windows.window_levels) == 2


@pytest.mark.parametrize("mode", ["per_window", "global"])
def test_train_pipeline_names_a_threshold_tie_before_decomposing(monkeypatch, mode):
    # The same clipped series used to run the whole decomposition (and, in
    # global mode, the bank fit) before the chain failed without naming the tie.
    cfg = PipelineConfig(mode=mode)
    raw = load_series(cfg)
    clipped = np.minimum(raw.values, np.percentile(raw.values, 93.6))
    data = prepare_data(cfg, series=TimeSeries(clipped, name=raw.name))
    ran = []
    for mod, name in ((ewt, "decompose_windows"), (ewt, "decompose_with_bank"), (pipeline, "fit_global_bank")):
        monkeypatch.setattr(mod, name, lambda *a, name=name, **k: ran.append(name))
    t_very = re.escape(f"{data.thresholds.t_very:.6g}")
    with pytest.raises(
        ValueError,
        match=rf"VERY_RARE; .* at most 2 experts .* t_very={t_very} t_extreme={t_very}, "
        r"tied: t_very == t_extreme$",
    ):
        pipeline.train_pipeline(data, cfg)
    assert ran == []


@pytest.mark.parametrize(
    "levels, most",
    [([0], 1), ([1, 2], 1), ([0, 1], 2), ([0, 3], 2), ([0, 1, 3], 3), ([0, 1, 2], 3), ([0, 1, 2, 3], 4)],
)
def test_max_experts_needs_each_exact_level_below_the_top(levels, most):
    assert max_experts(np.array(levels)) == most


def test_chain_is_deterministic(tiny_data):
    wins = tiny_data.train_windows
    comps = _comps(wins, _small_cfg())
    a = build_expert_chain(wins, _small_cfg(epochs=1), None, comps)
    b = build_expert_chain(wins, _small_cfg(epochs=1), None, comps)
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
        assert np.isfinite(expert.stack.flat).all()


def test_one_backward_and_one_step_per_minibatch(monkeypatch, tiny_data, tiny_cfg):
    # Every expert, the gate and the baseline train through bb.fit, which the
    # benchmark's backbone call counts read at the module boundary.
    calls = {"backward": 0, "step": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(bb, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(bb, name, counted)
    _, chain = train_pipeline(tiny_data, tiny_cfg)
    pipeline.train_baseline(tiny_data, tiny_cfg)

    def batches(n: int) -> int:
        return -(-n // bb.BATCH_SIZE)

    n = len(tiny_data.train_windows)
    want = (
        sum(tiny_cfg.epochs * batches(c) for c in chain.counts.values())
        + tiny_cfg.router_epochs * batches(n)
        + tiny_cfg.epochs * batches(n)
    )
    assert calls == {"backward": want, "step": want}


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
