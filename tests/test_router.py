"""Router algebra, gate training, and fused inference."""

import logging
import math

import numpy as np
import pytest

from rarecast import backbone as bb
from rarecast import expert as expert_mod
from rarecast import router as router_mod
from rarecast.config import PipelineConfig
from rarecast.dataset import RarityLevel
from rarecast.expert import ExpertModel, collapse_level, expert_predict_batch
from rarecast.losses import rare_loss
from rarecast.pipeline import train_pipeline
from rarecast.router import (
    Router,
    _exp_shifted,
    cross_entropy,
    fuse,
    gate_forward,
    pipeline_predict,
    pipeline_predict_batch,
    select_topk,
    select_topk_batch,
    softmax,
    stack_expert_outputs,
    train_router,
)


def _linear(input_len: int, output_len: int, rng=None, n_models: int = 1) -> bb.ForecasterStack:
    return bb.stack_params(
        "linear", [bb.init_params("linear", input_len, output_len, rng=rng) for _ in range(n_models)]
    )


def _gate(horizon: int, n_experts: int, seed: int = 0) -> bb.ForecasterStack:
    return _linear(horizon * n_experts, n_experts, np.random.default_rng(seed))


def _experts(n_experts: int, history_len: int, horizon: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [ExpertModel(level=c, stack=_linear(history_len, horizon, rng)) for c in range(n_experts)]


# ------------------------------------------------------------------- algebra


def test_router_validation():
    router = Router(gate=_gate(4, 3), k=3)
    assert (router.n_experts, router.horizon) == (3, 4)
    with pytest.raises(ValueError, match="k must be"):
        Router(gate=_gate(4, 3), k=0)
    with pytest.raises(ValueError, match="k must be"):
        Router(gate=_gate(4, 3), k=4)
    with pytest.raises(ValueError, match="not a whole multiple"):
        Router(gate=_linear(13, 3), k=1)
    with pytest.raises(ValueError, match="stack of one model, got 2"):
        Router(gate=_linear(12, 3, n_models=2), k=1)


def test_softmax_oracle_and_shift_invariance():
    a = softmax(np.array([math.log(2.0), 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(a, [0.4, 0.2, 0.2, 0.2], atol=1e-12)
    rng = np.random.default_rng(3)
    z = rng.standard_normal((20, 5))
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(softmax(z + 123.456), p, atol=1e-12)


def test_zero_gate_is_uniform():
    router = Router(gate=_gate(4, 3), k=2)
    router.gate.flat[:] = 0.0
    logits, alpha = gate_forward(router, np.random.default_rng(0).standard_normal((7, 4, 3)))
    np.testing.assert_array_equal(logits, 0.0)
    np.testing.assert_allclose(alpha, 1.0 / 3.0, atol=1e-15)
    with pytest.raises(ValueError, match="expected expert outputs"):
        gate_forward(router, np.zeros((7, 3, 4)))


def test_select_topk_oracles():
    a = np.array([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_allclose(select_topk(a, 2), [4 / 7, 3 / 7, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(select_topk(a, 4), a, atol=1e-12)
    np.testing.assert_array_equal(select_topk(a, 1), [1.0, 0.0, 0.0, 0.0])
    two = select_topk(a, 2)
    np.testing.assert_allclose(select_topk(two, 2), two, atol=1e-12)
    # tie at the cut keeps the lower index
    tied = select_topk(np.array([0.4, 0.3, 0.3]), 2)
    np.testing.assert_allclose(tied, [4 / 7, 3 / 7, 0.0], atol=1e-12)
    assert tied[2] == 0.0
    # the batched kernel is bitwise the 1-d function (the one-row path) row by
    # row, ties, unnormalized weights and k = E included
    rng = np.random.default_rng(12)
    for n_experts in range(1, 5):
        rows = np.concatenate([
            softmax(rng.standard_normal((64, n_experts))),
            rng.integers(1, 3, size=(64, n_experts)) / 4.0,  # many exact ties
            rng.random((64, n_experts)) * 10.0 ** rng.uniform(-8, 8, (64, n_experts)),
        ])
        for k in range(1, n_experts + 1):
            batch = select_topk_batch(rows, k)
            for row, got in zip(rows, batch):
                assert got.tobytes() == select_topk(row, k).tobytes()
    # a NaN row leaves the one-row path and is ranked as the batch ranks it
    nan_rows = np.array([[np.nan, 0.5, 0.2], [0.5, np.nan, 0.5]])
    for row, got in zip(nan_rows, select_topk_batch(nan_rows, 2)):
        assert got.tobytes() == select_topk(row, 2).tobytes()


def test_select_topk_errors():
    with pytest.raises(ValueError, match="1-d"):
        select_topk(np.ones((2, 2)) / 4, 1)
    with pytest.raises(ValueError, match="k must be"):
        select_topk(np.array([0.5, 0.5]), 0)
    with pytest.raises(ValueError, match="k must be"):
        select_topk(np.array([0.5, 0.5]), 3)
    with pytest.raises(ValueError, match="sum to zero"):
        select_topk(np.zeros(3), 2)


def test_fuse_oracles_and_bounds():
    out = np.array([[1.0, 3.0]])
    assert fuse(out, np.array([0.5, 0.5]))[0] == pytest.approx(2.0, abs=1e-15)
    rng = np.random.default_rng(7)
    big = rng.standard_normal((6, 4))
    np.testing.assert_array_equal(fuse(big, np.array([0.0, 0.0, 1.0, 0.0])), big[:, 2])
    same = np.tile(big[:, :1], (1, 4))
    np.testing.assert_allclose(fuse(same, np.full(4, 0.25)), big[:, 0], atol=1e-12)
    w = rng.dirichlet(np.ones(4))
    fused = fuse(big, w)
    assert np.all(fused <= big.max(axis=1) + 1e-12)
    assert np.all(fused >= big.min(axis=1) - 1e-12)
    with pytest.raises(ValueError, match="sum to 1"):
        fuse(big, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="expected"):
        fuse(big[0], np.full(4, 0.25))
    # the batched form fuses each window with its own weight row
    outs = rng.standard_normal((5, 6, 4))
    ws = rng.dirichlet(np.ones(4), size=5)
    for o, wr, row in zip(outs, ws, fuse(outs, ws)):
        np.testing.assert_allclose(row, fuse(o, wr), atol=1e-12)
    with pytest.raises(ValueError, match="expected"):
        fuse(outs, ws[:, :3])
    with pytest.raises(ValueError, match="sum to 1"):
        fuse(outs, 2.0 * ws)


def test_cross_entropy_oracles():
    for n_experts in (3, 4):
        ce = cross_entropy(np.zeros((5, n_experts)), np.zeros(5, dtype=int))
        assert ce == pytest.approx(math.log(n_experts), abs=1e-12)
    ce = cross_entropy(np.array([math.log(2.0), 0.0]), np.array([0]))
    assert ce == pytest.approx(math.log(1.5), abs=1e-12)


def test_gate_permutation_invariance():
    """Relabeling experts and permuting gate rows/columns to match must leave
    the fused forecast unchanged."""
    horizon, n_experts = 5, 3
    rng = np.random.default_rng(11)
    router = Router(gate=_gate(horizon, n_experts, seed=1), k=2)
    out = rng.standard_normal((horizon, n_experts))
    _, alpha = gate_forward(router, out)
    fused = fuse(out, select_topk(alpha, router.k))

    perm = np.array([2, 0, 1])
    w = router.gate.params["w"][0]
    w_p = np.empty_like(w)
    for i in range(n_experts):
        for h in range(horizon):
            for j in range(n_experts):
                w_p[i, h * n_experts + j] = w[perm[i], h * n_experts + perm[j]]
    gate_p = bb.stack_params("linear", [{"w": w_p, "b": router.gate.params["b"][0][perm]}])
    router_p = Router(gate=gate_p, k=2)

    _, alpha_p = gate_forward(router_p, out[:, perm])
    np.testing.assert_allclose(alpha_p, alpha[perm], atol=1e-12)
    np.testing.assert_allclose(
        fuse(out[:, perm], select_topk(alpha_p, router_p.k)), fused, atol=1e-12
    )


# ------------------------------------------------------------------ training


def _router_cfg(**kw) -> PipelineConfig:
    base = dict(k=2, router_epochs=2, seed=0)
    base.update(kw)
    return PipelineConfig(**base)


def test_train_router_empty_error():
    with pytest.raises(ValueError, match="no windows"):
        train_router(_experts(3, 32, 8), [], _router_cfg())


def test_train_router_warns_on_missing_levels(tiny_data, caplog):
    wins = tiny_data.train_windows
    quiet = wins[wins.window_levels == RarityLevel.NORMAL]
    experts = _experts(3, 32, 8)
    with caplog.at_level(logging.WARNING, logger="rarecast.router"):
        router, curve = train_router(experts, quiet[:150], _router_cfg(router_epochs=1))
    assert any("no training windows labeled" in r.getMessage() for r in caplog.records)
    assert router.n_experts == 3 and len(curve) == 2


def test_train_router_curve_and_determinism(tiny_data):
    wins = tiny_data.train_windows[:300]
    experts = _experts(3, 32, 8)
    router, curve = train_router(experts, wins, _router_cfg(router_epochs=3))
    assert [row["epoch"] for row in curve] == [0, 1, 2, 3]
    assert set(curve[0]) == {"epoch", "ce", "accuracy"}
    assert min(row["ce"] for row in curve[1:]) <= curve[0]["ce"]
    _, again = train_router(experts, wins, _router_cfg(router_epochs=3))
    assert curve == again


def test_training_curves_are_computed_only_when_read(tiny_data, tiny_cfg, monkeypatch):
    calls = {"losses": 0, "ce": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(expert_mod, "_losses_on", counted("losses", expert_mod._losses_on))
    monkeypatch.setattr(router_mod, "cross_entropy", counted("ce", router_mod.cross_entropy))
    cfg = tiny_cfg.with_overrides(router_epochs=3)
    wins = tiny_data.train_windows
    tp, chain = train_pipeline(tiny_data, cfg, train_router_too=False)
    router, router_curve = train_router(tp.experts, wins, cfg)
    assert calls == {"losses": 0, "ce": 0}

    labels = collapse_level(wins.window_levels, cfg.n_experts)
    router_rows = list(router_curve)
    assert len(router_rows) == cfg.router_epochs + 1 and calls["ce"] == cfg.router_epochs + 1
    feats = stack_expert_outputs(tp.experts, wins.histories).reshape(len(wins), -1)
    logits = bb.forecast(router.gate, feats)[0]
    assert router_rows[-1]["ce"] == cross_entropy(logits, labels)
    assert router_rows[-1]["accuracy"] == float((logits.argmax(axis=1) == labels).mean())

    expert_rows = {c: list(curve) for c, curve in chain.curves.items()}
    assert all(len(rows) == cfg.epochs + 1 for rows in expert_rows.values())
    assert calls["losses"] == cfg.n_experts * (cfg.epochs + 1)
    normal = wins[labels == 0]  # level 0 has no teacher, so its total is the rare loss
    direct = rare_loss(
        expert_predict_batch(tp.experts[0], normal.histories), normal.targets,
        collapse_level(normal.point_levels, cfg.n_experts), RarityLevel.NORMAL, cfg.horizon,
    ).value
    assert expert_rows[0][-1]["rare"] == expert_rows[0][-1]["total"] == direct

    before = dict(calls)
    assert list(router_curve) == router_rows
    assert all(list(chain.curves[c]) == rows for c, rows in expert_rows.items())
    assert calls == before  # a second read does not recompute


@pytest.mark.parametrize("n_experts", [1, 2, 3, 4])
def test_column_reductions_match_the_axis_form_bitwise(n_experts):
    z = np.random.default_rng(n_experts).standard_normal((5000, n_experts)) * 30.0
    zmax, e, total = _exp_shifted(z)
    np.testing.assert_array_equal(zmax, z.max(axis=1))
    np.testing.assert_array_equal(e, np.exp(z - z.max(axis=1, keepdims=True)))
    np.testing.assert_array_equal(total, e.sum(axis=1))
    np.testing.assert_array_equal(e / total[:, None], softmax(z))


@pytest.mark.parametrize("backbone", ["linear", "mlp"])
def test_c_ordered_components_give_the_band_major_bits(tiny_data, tiny_cfg, backbone):
    # The decomposition stores components band-major; a caller's C-ordered copy
    # of them must train and forecast through the same path to the same bits.
    wins = tiny_data.train_windows
    cfg = tiny_cfg.with_overrides(backbone=backbone, epochs=2, router_epochs=2)
    band_major = expert_mod.decompose_histories(wins.histories, cfg.n_bands, cfg.mode, None)
    c_ordered = np.ascontiguousarray(band_major)
    assert band_major.transpose(1, 0, 2).flags.c_contiguous
    assert not c_ordered.transpose(1, 0, 2).flags.c_contiguous
    runs = []
    for comps in (band_major, c_ordered):
        chain = expert_mod.build_expert_chain(wins, cfg, None, comps)
        router, _ = train_router(chain.experts, wins, cfg, comps)
        outputs = stack_expert_outputs(chain.experts, wins.histories, comps)
        curves = [list(chain.curves[c]) for c in range(cfg.n_experts)]
        runs.append(([e.stack.flat for e in chain.experts], router.gate.params, outputs, curves))
    (flat_a, gate_a, out_a, curves_a), (flat_b, gate_b, out_b, curves_b) = runs
    for a, b in zip(flat_a, flat_b):
        np.testing.assert_array_equal(a, b)
    for name in gate_a:
        np.testing.assert_array_equal(gate_a[name], gate_b[name])
    np.testing.assert_array_equal(out_a, out_b)
    assert curves_a == curves_b


def test_trained_router_beats_chance(tiny_pipeline, tiny_data):
    tp, _ = tiny_pipeline
    router, curve = train_router(tp.experts, tiny_data.train_windows, tp.config)
    np.testing.assert_array_equal(router.gate.flat, tp.router.gate.flat)  # the pipeline's own gate
    assert curve[-1]["accuracy"] > 1.0 / 3.0
    assert min(row["ce"] for row in curve[1:]) <= curve[0]["ce"]


def test_components_of_other_histories_raise_naming_both_row_counts(tiny_pipeline, tiny_data):
    # Training components with the test windows used to raise a bare IndexError.
    tp, _ = tiny_pipeline
    train, test = tiny_data.train_windows, tiny_data.test_windows
    comps = expert_mod.decompose_histories(train.histories, tp.config.n_bands, tp.config.mode, None)
    match = rf"components hold {len(train)} rows but the histories hold {len(test)}"
    with pytest.raises(ValueError, match=match):
        train_router(tp.experts, test, tp.config, comps)
    with pytest.raises(ValueError, match=match):
        stack_expert_outputs(tp.experts, test.histories, comps)


def test_train_router_leaves_experts_frozen(tiny_data):
    experts = _experts(3, 32, 8)
    before = [e.stack.flat.copy() for e in experts]
    train_router(experts, tiny_data.train_windows[:200], _router_cfg(router_epochs=1))
    for e, snap in zip(experts, before):
        np.testing.assert_array_equal(e.stack.flat, snap)


# ----------------------------------------------------------------- inference


def test_pipeline_predict_uniform_and_argmax():
    horizon, n_experts = 8, 3
    experts = _experts(n_experts, 32, horizon, seed=5)
    rng = np.random.default_rng(9)
    hist = rng.standard_normal((10, 32))
    outputs = stack_expert_outputs(experts, hist)

    router = Router(gate=_gate(horizon, n_experts), k=n_experts)
    router.gate.flat[:] = 0.0
    preds, alphas, sparse = pipeline_predict_batch(experts, router, hist)
    np.testing.assert_allclose(alphas, 1.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(preds, outputs.mean(axis=2), atol=1e-12)

    router.gate.params["b"][0] = [0.0, 2.0, 0.0]
    preds1, _, sparse1 = pipeline_predict_batch(experts, router, hist, k=1)
    np.testing.assert_array_equal(sparse1[:, 1], 1.0)
    np.testing.assert_array_equal(preds1, outputs[:, :, 1])

    single = pipeline_predict(experts, router, hist[0])
    preds_full, _, _ = pipeline_predict_batch(experts, router, hist)
    np.testing.assert_allclose(single, preds_full[0], atol=1e-12)
    with pytest.raises(ValueError, match="1-d"):
        pipeline_predict(experts, router, hist)


def test_pipeline_predict_batch_empty(tiny_pipeline):
    tp, _ = tiny_pipeline
    cfg = tp.config
    preds, alphas, sparse = pipeline_predict_batch(tp.experts, tp.router, np.empty((0, cfg.history_len)))
    assert (preds.shape, alphas.shape, sparse.shape) == (
        (0, cfg.horizon), (0, cfg.n_experts), (0, cfg.n_experts)
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pipeline_predict_rejects_non_finite_history(tiny_pipeline, tiny_data, bad):
    # A NaN history used to come back as an all-NaN forecast under a misleading
    # "fewer than n spectral maxima" warning, an infinite one as a NaN row.
    tp, _ = tiny_pipeline
    hist = tiny_data.test_windows[:6].histories.copy()
    hist[2, 5] = bad
    hist[4, -1] = bad
    with pytest.raises(ValueError, match="2 of 6 histories hold NaN or infinite values, the first is window 2"):
        pipeline_predict_batch(tp.experts, tp.router, hist)
    with pytest.raises(ValueError, match="1 of 1 histories .* the first is window 0"):
        pipeline_predict(tp.experts, tp.router, hist[4])


def test_stack_expert_outputs_checks_the_components_shape():
    experts = _experts(2, 16, 4)
    hist = np.random.default_rng(2).standard_normal((3, 16))
    for comps in (np.zeros((3, 2, 16)), np.zeros((3, 1, 15)), np.zeros((3, 16))):
        with pytest.raises(ValueError, match="needs \\(N, 1, 16\\)"):
            stack_expert_outputs(experts, hist, comps)
        with pytest.raises(ValueError, match="needs \\(N, 1, 16\\)"):
            expert_predict_batch(experts[0], hist, comps)
    ok = stack_expert_outputs(experts, hist, hist[:, None, :])
    np.testing.assert_array_equal(ok[..., 1], expert_predict_batch(experts[1], hist))


def test_sparse_weights_stay_on_simplex(tiny_pipeline, tiny_data):
    tp, _ = tiny_pipeline
    hist = tiny_data.test_windows[:64].histories
    _, alphas, sparse = pipeline_predict_batch(tp.experts, tp.router, hist)
    np.testing.assert_allclose(alphas.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(sparse.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(sparse >= 0.0)
    assert (np.count_nonzero(sparse, axis=1) <= tp.router.k).all()
