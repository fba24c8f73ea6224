"""Forecaster forward/backward math, the stacked kernels and the flat Adam update."""

import numpy as np
import pytest

from rarecast.backbone import (
    Forecaster,
    OptimizerState,
    backward,
    forecast,
    forward,
    make_forecaster,
    stack_at,
    stack_forecasters,
    step,
)


def test_make_forecaster_validation():
    with pytest.raises(ValueError):
        make_forecaster("rnn", 4, 2)
    with pytest.raises(ValueError):
        make_forecaster("linear", 0, 2)
    with pytest.raises(ValueError):
        make_forecaster("mlp", 4, 2, hidden=0)


def test_make_forecaster_init_bounds_and_determinism():
    a = make_forecaster("mlp", 16, 4, 8, np.random.default_rng(42))
    b = make_forecaster("mlp", 16, 4, 8, np.random.default_rng(42))
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    assert np.abs(a.params["w1"]).max() <= 1.0 / np.sqrt(16)
    np.testing.assert_array_equal(a.params["b1"], 0.0)
    assert sum(p.size for p in a.params.values()) == 8 * 16 + 8 + 4 * 8 + 4
    # linear kind ignores the hidden argument
    assert make_forecaster("linear", 4, 2, hidden=64).hidden == 0


def test_linear_forecast_oracle():
    m = make_forecaster("linear", 3, 2)
    m.params["w"] = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    m.params["b"] = np.array([0.5, -1.0])
    np.testing.assert_allclose(forecast(m, np.array([1.0, 2.0, 3.0])), [1.5, 3.0])


def test_forecast_batch_matches_single():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 12))
    for kind in ("linear", "mlp"):
        m = make_forecaster(kind, 12, 3, 6, rng)
        batch = forecast(m, x)
        assert batch.shape == (5, 3)
        for i in range(5):
            np.testing.assert_allclose(batch[i], forecast(m, x[i]), atol=1e-15)


def test_forecast_length_check():
    m = make_forecaster("linear", 8, 2)
    with pytest.raises(ValueError, match="input_len"):
        forecast(m, np.zeros(9))


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(17)
    m = make_forecaster(kind, 10, 4, 5, rng)
    x = rng.standard_normal((7, 10))
    g = rng.standard_normal((7, 4))
    grads = backward(m, x, g, forward(m, x)[1])
    assert set(grads) == set(m.params)

    def objective() -> float:
        return float((forecast(m, x) * g).sum())

    h = 1e-6
    for name, grad in grads.items():
        flat = m.params[name].reshape(-1)
        for j in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + h
            up = objective()
            flat[j] = orig - h
            down = objective()
            flat[j] = orig
            fd = (up - down) / (2.0 * h)
            assert grad.reshape(-1)[j] == pytest.approx(fd, abs=1e-5)


def test_backward_single_window():
    rng = np.random.default_rng(2)
    m = make_forecaster("linear", 6, 2, rng=rng)
    x, g = rng.standard_normal(6), rng.standard_normal(2)
    grads = backward(m, x, g)
    np.testing.assert_allclose(grads["w"], np.outer(g, x), atol=1e-15)
    np.testing.assert_allclose(grads["b"], g, atol=1e-15)
    with pytest.raises(ValueError, match="output_grad"):
        backward(m, x, np.zeros(3))


def test_adam_first_step_size_is_lr():
    m = make_forecaster("linear", 1, 1)
    m.params["w"] = np.array([[10.0]])
    opt = OptimizerState(lr=0.05)
    step(stack_forecasters([m]), {"w": np.array([[[7.3]]]), "b": np.array([[0.0]])}, opt)
    # m_hat / (sqrt(v_hat) + eps) is sign(g) on the first step
    assert m.params["w"][0, 0] == pytest.approx(10.0 - 0.05, abs=1e-6)
    assert opt.step_count == 1


def test_adam_converges_on_quadratic():
    m = make_forecaster("linear", 1, 1)
    m.params["w"] = np.array([[0.0]])
    m.params["b"] = np.array([0.0])
    opt = OptimizerState(lr=0.05)
    s = stack_forecasters([m])
    for _ in range(2000):
        w = m.params["w"][0, 0]
        step(s, {"w": np.array([[[2.0 * (w - 3.0)]]]), "b": np.zeros((1, 1))}, opt)
    assert m.params["w"][0, 0] == pytest.approx(3.0, abs=1e-2)


def test_step_validation():
    s = stack_forecasters([make_forecaster("linear", 2, 1)])
    opt = OptimizerState()
    with pytest.raises(ValueError, match="keys"):
        step(s, {"w": np.zeros((1, 1, 2))}, opt)
    with pytest.raises(ValueError, match="non-finite"):
        step(s, {"w": np.full((1, 1, 2), np.nan), "b": np.zeros((1, 1))}, opt)
    with pytest.raises(ValueError, match="shape"):
        step(s, {"w": np.zeros((1, 2)), "b": np.zeros((1, 1))}, opt)
    assert opt.step_count == 0  # failed updates never advance the clock


def test_forecaster_dataclass_shape():
    m = Forecaster(kind="linear", input_len=2, output_len=1, hidden=0,
                   params={"w": np.zeros((1, 2)), "b": np.zeros(1)})
    assert {k: v.shape for k, v in m.params.items()} == {"w": (1, 2), "b": (1,)}


# ------------------------------------------- stacked kernels vs per-band loop
# The reference below is the per-model forward, backward and dict-of-moments
# Adam that the stacked kernels replace; the stack must match it bitwise.


def _ref_forecast(p: dict, kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return x @ p["w"].T + p["b"]
    return np.tanh(x @ p["w1"].T + p["b1"]) @ p["w2"].T + p["b2"]


def _ref_backward(p: dict, kind: str, x: np.ndarray, g: np.ndarray) -> dict:
    if kind == "linear":
        return {"w": g.T @ x, "b": g.sum(axis=0)}
    h = np.tanh(x @ p["w1"].T + p["b1"])
    dz = (g @ p["w2"]) * (1.0 - h * h)
    return {"w1": dz.T @ x, "b1": dz.sum(axis=0), "w2": g.T @ h, "b2": g.sum(axis=0)}


def _ref_adam(p: dict, g: dict, state: dict, lr: float = 1e-3) -> None:
    b1, b2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    bc1, bc2 = 1.0 - b1 ** state["t"], 1.0 - b2 ** state["t"]
    for name in g:
        m = state["m"].setdefault(name, np.zeros_like(p[name]))
        v = state["v"].setdefault(name, np.zeros_like(p[name]))
        state["m"][name] = m = b1 * m + (1.0 - b1) * g[name]
        state["v"][name] = v = b2 * v + (1.0 - b2) * (g[name] * g[name])
        p[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("n_models", [1, 4])
@pytest.mark.parametrize("n", [1, 7, 128])
def test_stacked_kernels_match_per_band_reference(kind, n_models, n):
    rng = np.random.default_rng(100 + n + n_models)
    t, h = 12, 5
    models = [make_forecaster(kind, t, h, 6, rng) for _ in range(n_models)]
    ref = [{k: v.copy() for k, v in m.params.items()} for m in models]
    states = [{"t": 0, "m": {}, "v": {}} for _ in models]
    s = stack_forecasters(models)
    opt = OptimizerState()
    for _ in range(3):
        # (N, B, T) components viewed band-major, as an expert trains on them
        comps = rng.standard_normal((n, n_models, t))
        x = comps.transpose(1, 0, 2)
        g = rng.standard_normal((n, h))
        out, hidden = forward(s, x)
        assert out.shape == (n_models, n, h)
        np.testing.assert_array_equal(forecast(s, x), out)
        if kind == "linear":
            assert hidden is None
        else:
            assert hidden.shape == (n_models, n, 6)
        grads = backward(s, x, g, hidden)
        for b in range(n_models):
            np.testing.assert_array_equal(out[b], _ref_forecast(ref[b], kind, comps[:, b, :]))
            ref_g = _ref_backward(ref[b], kind, comps[:, b, :], g)
            for name in ref_g:
                np.testing.assert_array_equal(grads[name][b], ref_g[name])
            _ref_adam(ref[b], ref_g, states[b])
        step(s, grads, opt)
        for b, m in enumerate(models):
            for name in ref[b]:
                np.testing.assert_array_equal(m.params[name], ref[b][name])
                np.testing.assert_array_equal(s.params[name][b], ref[b][name])
    # a history shared by every model (the gate's case) equals passing it per model
    xs = rng.standard_normal((n, t))
    np.testing.assert_array_equal(forecast(s, xs), forecast(s, np.stack([xs] * n_models)))
    assert opt.step_count == 3


def test_mlp_backward_needs_the_forwards_hidden_layer():
    rng = np.random.default_rng(3)
    m = make_forecaster("mlp", 6, 2, 4, rng)
    s = stack_forecasters([make_forecaster("mlp", 6, 2, 4, rng) for _ in range(3)])
    x, g = rng.standard_normal((5, 6)), rng.standard_normal((5, 2))
    _, hidden = forward(m, x)
    _, stack_hidden = forward(s, x)
    assert hidden.shape == (5, 4) and stack_hidden.shape == (3, 5, 4)
    for model, bad in [
        (m, None), (m, hidden[:4]), (m, hidden[:, :3]), (m, hidden[0]), (m, stack_hidden),
        (s, None), (s, stack_hidden[:2]), (s, hidden),
    ]:
        with pytest.raises(ValueError, match="hidden layer"):
            backward(model, x, g, bad)
    # a single window's hidden layer is (hidden,), like its forecast (H,)
    out, h1 = forward(m, x[0])
    assert out.shape == (2,) and h1.shape == (4,)
    np.testing.assert_array_equal(backward(m, x[0], g[0], h1)["w2"], np.outer(g[0], h1))
    with pytest.raises(ValueError, match="hidden layer"):
        backward(m, x[0], g[0], hidden[:1])
    lin = make_forecaster("linear", 6, 2, rng=rng)
    with pytest.raises(ValueError, match="no hidden layer"):
        backward(lin, x, g, hidden)


def test_stack_members_alias_the_flat_buffer():
    models = [make_forecaster("mlp", 6, 3, 4, np.random.default_rng(i)) for i in range(3)]
    before = [{k: v.copy() for k, v in m.params.items()} for m in models]
    s = stack_forecasters(models)
    assert s.flat.size == sum(p.size for m in models for p in m.params.values())
    for b, m in enumerate(models):
        for name, p in m.params.items():
            np.testing.assert_array_equal(p, before[b][name])
            assert np.shares_memory(p, s.flat)
    s.flat[:] = 0.0
    assert all(not p.any() for m in models for p in m.params.values())
    with pytest.raises(ValueError, match="shapes"):
        stack_forecasters([make_forecaster("linear", 6, 3), make_forecaster("linear", 6, 2)])
    with pytest.raises(ValueError, match="shapes"):
        stack_forecasters([make_forecaster("linear", 6, 3), make_forecaster("mlp", 6, 3, 4)])
    with pytest.raises(ValueError, match="at least one"):
        stack_forecasters([])
    with pytest.raises(ValueError, match="per-model"):
        forecast(s, np.zeros((2, 4, 6)))  # 2 history blocks for 3 models


def test_stack_at_reads_a_saved_buffer_and_leaves_the_stack_alone():
    models = [make_forecaster("mlp", 6, 3, 4, np.random.default_rng(i)) for i in range(3)]
    s = stack_forecasters(models)
    x = np.random.default_rng(9).standard_normal((5, 6))
    saved = s.flat.copy()
    want = forecast(s, x)
    s.flat *= 2.0
    at = stack_at(s, saved)
    assert at.flat is saved and all(np.shares_memory(p, saved) for p in at.params.values())
    assert all(np.shares_memory(p, saved) for m in at.members for p in m.params.values())
    np.testing.assert_array_equal(forecast(at, x), want)
    assert all(np.shares_memory(p, s.flat) for m in models for p in m.params.values())
    with pytest.raises(ValueError, match="stack_at"):
        stack_at(s, saved[:-1])


@pytest.mark.parametrize("band", [0, 2, 3])
def test_step_non_finite_in_any_band_aborts_without_update(band):
    models = [make_forecaster("mlp", 6, 3, 4, np.random.default_rng(i)) for i in range(4)]
    s = stack_forecasters(models)
    flat_before = s.flat.copy()
    opt = OptimizerState()
    grads = {k: np.zeros_like(v) for k, v in s.params.items()}
    grads["w2"][band, 1, 2] = np.inf
    grads["b1"][band, 0] = np.nan
    # the first offending name in the gradient dict's order is reported
    with pytest.raises(ValueError, match="non-finite gradient for 'b1'"):
        step(s, grads, opt)
    with pytest.raises(ValueError, match="non-finite gradient for 'w2'"):
        step(s, {"w2": grads["w2"], "w1": grads["w1"], "b1": np.zeros((4, 4)), "b2": grads["b2"]}, opt)
    with pytest.raises(ValueError, match="keys"):
        step(s, {k: v for k, v in grads.items() if k != "b2"}, opt)
    assert opt.step_count == 0 and opt.m is None
    np.testing.assert_array_equal(s.flat, flat_before)
