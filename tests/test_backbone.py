"""Forecaster stacks: forward/backward math, the stacked kernels and the flat Adam update."""

import numpy as np
import pytest

from rarecast.backbone import (
    OptimizerState,
    _forward,
    backward,
    bind_rows,
    fit,
    forecast,
    forward,
    init_params,
    param_shapes,
    stack_at,
    stack_params,
    step,
)


def _single(kind: str, t: int, h: int, hidden: int = 32, rng=None):
    """A stack of one freshly drawn model."""
    return stack_params(kind, [init_params(kind, t, h, hidden, rng)])


def test_init_params_validation():
    with pytest.raises(ValueError):
        init_params("rnn", 4, 2)
    with pytest.raises(ValueError):
        init_params("linear", 0, 2)
    with pytest.raises(ValueError):
        init_params("mlp", 4, 2, hidden=0)


def test_init_params_bounds_and_determinism():
    a = init_params("mlp", 16, 4, 8, np.random.default_rng(42))
    b = init_params("mlp", 16, 4, 8, np.random.default_rng(42))
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    assert np.abs(a["w1"]).max() <= 1.0 / np.sqrt(16)
    np.testing.assert_array_equal(a["b1"], 0.0)
    assert sum(p.size for p in a.values()) == 8 * 16 + 8 + 4 * 8 + 4
    assert {k: v.shape for k, v in a.items()} == param_shapes("mlp", 16, 4, 8)
    # linear kind ignores the hidden argument
    assert param_shapes("linear", 4, 2, hidden=64) == {"w": (2, 4), "b": (2,)}


def test_linear_forecast_oracle():
    s = _single("linear", 3, 2)
    s.params["w"][0] = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]
    s.params["b"][0] = [0.5, -1.0]
    assert (s.n_models, s.input_len, s.output_len) == (1, 3, 2)
    np.testing.assert_allclose(forecast(s, np.array([[1.0, 2.0, 3.0]])), [[[1.5, 3.0]]])


def test_forecast_batch_matches_single():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 12))
    for kind in ("linear", "mlp"):
        s = _single(kind, 12, 3, 6, rng)
        batch = forecast(s, x)
        assert batch.shape == (1, 5, 3)
        for i in range(5):
            np.testing.assert_allclose(batch[0, i], forecast(s, x[i : i + 1])[0, 0], atol=1e-15)


def test_forecast_length_check():
    s = _single("linear", 8, 2)
    with pytest.raises(ValueError, match="input_len"):
        forecast(s, np.zeros((1, 9)))


def test_kernels_take_a_stack_only():
    s = _single("linear", 4, 2)
    x, g = np.zeros((3, 4)), np.zeros((3, 2))
    for call in (lambda m: forward(m, x), lambda m: forecast(m, x), lambda m: backward(m, x, g)):
        for bad in (s.params, s.flat, None):
            with pytest.raises(TypeError, match="expected a ForecasterStack"):
                call(bad)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(17)
    s = _single(kind, 10, 4, 5, rng)
    x = rng.standard_normal((7, 10))
    g = rng.standard_normal((7, 4))
    grads = backward(s, x, g, forward(s, x)[1])
    assert set(grads) == set(s.params)

    def objective() -> float:
        return float((forecast(s, x)[0] * g).sum())

    h = 1e-6
    for name, grad in grads.items():
        flat = s.params[name][0].reshape(-1)
        for j in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + h
            up = objective()
            flat[j] = orig - h
            down = objective()
            flat[j] = orig
            fd = (up - down) / (2.0 * h)
            assert grad[0].reshape(-1)[j] == pytest.approx(fd, abs=1e-5)


def test_backward_single_window():
    rng = np.random.default_rng(2)
    s = _single("linear", 6, 2, rng=rng)
    x, g = rng.standard_normal((1, 6)), rng.standard_normal((1, 2))
    grads = backward(s, x, g)
    np.testing.assert_allclose(grads["w"][0], np.outer(g[0], x[0]), atol=1e-15)
    np.testing.assert_allclose(grads["b"][0], g[0], atol=1e-15)
    with pytest.raises(ValueError, match="output_grad"):
        backward(s, x, np.zeros((1, 3)))


def test_adam_first_step_size_is_lr():
    s = _single("linear", 1, 1)
    s.params["w"][...] = 10.0
    opt = OptimizerState(lr=0.05)
    s.grads["w"][...] = 7.3
    step(s, opt)
    # m_hat / (sqrt(v_hat) + eps) is sign(g) on the first step
    assert s.params["w"][0, 0, 0] == pytest.approx(10.0 - 0.05, abs=1e-6)
    assert opt.step_count == 1


def test_adam_converges_on_quadratic():
    s = _single("linear", 1, 1)
    s.flat[:] = 0.0
    opt = OptimizerState(lr=0.05)
    for _ in range(2000):
        s.grads["w"][...] = 2.0 * (s.params["w"][0, 0, 0] - 3.0)
        step(s, opt)
    assert s.params["w"][0, 0, 0] == pytest.approx(3.0, abs=1e-2)


def test_step_validation():
    s = _single("linear", 2, 1)
    opt = OptimizerState()
    s.grads["w"][...] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        step(s, opt)
    assert opt.step_count == 0  # failed updates never advance the clock
    s.grads["w"][...] = 0.0
    step(s, opt)
    with pytest.raises(ValueError, match="differently sized"):
        step(_single("linear", 3, 1), opt)
    assert opt.step_count == 1


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
    models = [init_params(kind, t, h, 6, rng) for _ in range(n_models)]
    ref = [{k: v.copy() for k, v in m.items()} for m in models]
    states = [{"t": 0, "m": {}, "v": {}} for _ in models]
    s = stack_params(kind, models)
    opt = OptimizerState()
    for _ in range(3):
        # (B, N, T) components, as an expert trains on them
        x = rng.standard_normal((n_models, n, t))
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
            np.testing.assert_array_equal(out[b], _ref_forecast(ref[b], kind, x[b]))
            ref_g = _ref_backward(ref[b], kind, x[b], g)
            for name in ref_g:
                np.testing.assert_array_equal(grads[name][b], ref_g[name])
            _ref_adam(ref[b], ref_g, states[b])
        step(s, opt)
        # the moments, read in the stack's layout, are the reference's too
        moments = {key: stack_at(s, getattr(opt, key)).params for key in ("m", "v")}
        for b in range(n_models):
            for name in ref[b]:
                np.testing.assert_array_equal(s.params[name][b], ref[b][name])
                for key, got in moments.items():
                    np.testing.assert_array_equal(got[name][b], states[b][key][name])
    # a history shared by every model (the gate's case) equals passing it per model
    xs = rng.standard_normal((n, t))
    np.testing.assert_array_equal(forecast(s, xs), forecast(s, np.stack([xs] * n_models)))
    assert opt.step_count == 3


def test_mlp_backward_needs_the_forwards_hidden_layer():
    rng = np.random.default_rng(3)
    one = _single("mlp", 6, 2, 4, rng)
    s = stack_params("mlp", [init_params("mlp", 6, 2, 4, rng) for _ in range(3)])
    x, g = rng.standard_normal((5, 6)), rng.standard_normal((5, 2))
    _, hidden = forward(one, x)
    _, stack_hidden = forward(s, x)
    assert hidden.shape == (1, 5, 4) and stack_hidden.shape == (3, 5, 4)
    for model, bad in [
        (one, None), (one, hidden[:, :4]), (one, hidden[:, :, :3]), (one, hidden[0]),
        (one, stack_hidden), (s, None), (s, stack_hidden[:2]), (s, hidden),
    ]:
        with pytest.raises(ValueError, match="hidden layer"):
            backward(model, x, g, bad)
    # a single window's hidden layer is (1, 1, hidden), like its forecast (1, 1, H)
    out, h1 = forward(one, x[:1])
    assert out.shape == (1, 1, 2) and h1.shape == (1, 1, 4)
    np.testing.assert_array_equal(backward(one, x[:1], g[:1], h1)["w2"][0], np.outer(g[0], h1[0, 0]))
    with pytest.raises(ValueError, match="hidden layer"):
        backward(one, x[:1], g[:1], hidden[:, :2])
    lin = _single("linear", 6, 2, rng=rng)
    with pytest.raises(ValueError, match="no hidden layer"):
        backward(lin, x, g, hidden)


def test_stack_params_rejects_mismatched_models():
    models = [init_params("mlp", 6, 3, 4, np.random.default_rng(i)) for i in range(3)]
    s = stack_params("mlp", models)
    assert (s.n_models, s.input_len, s.output_len) == (3, 6, 3)
    with pytest.raises(ValueError, match="shapes"):
        stack_params("linear", [init_params("linear", 6, 3), init_params("linear", 6, 2)])
    with pytest.raises(ValueError, match="shapes"):
        stack_params("linear", [init_params("linear", 6, 3), init_params("mlp", 6, 3, 4)])
    with pytest.raises(ValueError, match="not those of a mlp model"):
        stack_params("mlp", [init_params("linear", 6, 3)])
    with pytest.raises(ValueError, match="not those of a linear model"):
        stack_params("linear", [{"w": np.zeros((3, 6)), "b": np.zeros(2)}])
    with pytest.raises(ValueError, match="at least one"):
        stack_params("linear", [])
    with pytest.raises(ValueError, match="per-model"):
        forecast(s, np.zeros((2, 4, 6)))  # 2 history blocks for 3 models
    # the buffer follows the kind's parameter order whatever the dicts' key order
    b_first = stack_params("mlp", [{k: m[k] for k in ("b2", "w2", "b1", "w1")} for m in models])
    np.testing.assert_array_equal(b_first.flat, s.flat)
    assert list(b_first.params) == ["w1", "b1", "w2", "b2"]


def test_stack_at_reads_a_saved_buffer_and_leaves_the_stack_alone():
    s = stack_params("mlp", [init_params("mlp", 6, 3, 4, np.random.default_rng(i)) for i in range(3)])
    x = np.random.default_rng(9).standard_normal((5, 6))
    saved = s.flat.copy()
    want = forecast(s, x)
    s.flat *= 2.0
    at = stack_at(s, saved)
    assert at.flat is saved and all(np.shares_memory(p, saved) for p in at.params.values())
    np.testing.assert_array_equal(forecast(at, x), want)
    assert all(np.shares_memory(p, s.flat) for p in s.params.values())
    with pytest.raises(ValueError, match="stack_at"):
        stack_at(s, saved[:-1])


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_bind_rows_puts_stacks_on_one_buffer_and_one_forward_runs_them_all(kind):
    rng = np.random.default_rng(11)
    stacks = [stack_params(kind, [init_params(kind, 6, 3, 4, rng) for _ in range(2)]) for _ in range(3)]
    saved = [s.flat.copy() for s in stacks]
    bound = bind_rows(stacks)
    group = bound[0].bound
    assert group.flat.shape == (3, saved[0].size) and group.n_stacks == 3
    assert [s.bound for s in bound] == [group] * 3 and [s.row for s in bound] == [0, 1, 2]
    assert all(s.bound is None for s in stacks)
    for e, (s, b) in enumerate(zip(stacks, bound)):
        assert b.kind == kind and np.shares_memory(b.flat, group.flat) and not np.shares_memory(b.flat, s.flat)
        np.testing.assert_array_equal(b.flat, saved[e])
        assert not np.shares_memory(b.grad_flat, group.flat) and not b.grad_flat.any()
        for name, p in b.params.items():
            assert np.shares_memory(p, group.flat)
            np.testing.assert_array_equal(group.params[name][e], p)
    for name, view in group.params.items():
        assert view.shape == (3,) + stacks[0].params[name].shape and np.shares_memory(view, group.flat)
    # one forward over the (E, B, ...) views is each stack's own forward, bit for bit
    x = rng.standard_normal((2, 5, 6))
    out, hidden = _forward(kind, group.params, x)
    assert out.shape == (3, 2, 5, 3)
    for e, s in enumerate(stacks):
        want, want_hidden = forward(s, x)
        np.testing.assert_array_equal(out[e], want)
        if kind == "mlp":
            np.testing.assert_array_equal(hidden[e], want_hidden)
    # an edit through a bound stack is an edit of the group, and the inputs stay alone
    bound[1].flat *= 2.0
    np.testing.assert_array_equal(group.flat[1], 2.0 * saved[1])
    for s, f in zip(stacks, saved):
        np.testing.assert_array_equal(s.flat, f)
    with pytest.raises(ValueError, match="at least one"):
        bind_rows([])
    other = "mlp" if kind == "linear" else "linear"
    for odd in (_single(other, 6, 3, 4, rng), stack_params(kind, [init_params(kind, 6, 3, 4, rng)])):
        with pytest.raises(ValueError, match="^bind_rows: stack 1 differs from stack 0"):
            bind_rows([stacks[0], odd])


@pytest.mark.parametrize("band", [0, 2, 3])
def test_step_non_finite_in_any_band_aborts_without_update(band):
    s = stack_params("mlp", [init_params("mlp", 6, 3, 4, np.random.default_rng(i)) for i in range(4)])
    flat_before = s.flat.copy()
    opt = OptimizerState()
    s.grads["w2"][band, 1, 2] = np.inf
    s.grads["b1"][band, 0] = np.nan
    # the first offending parameter in buffer order is reported
    with pytest.raises(ValueError, match="non-finite gradient for 'b1'"):
        step(s, opt)
    s.grads["b1"][...] = 0.0
    with pytest.raises(ValueError, match="non-finite gradient for 'w2'"):
        step(s, opt)
    assert opt.step_count == 0 and opt.m is None
    np.testing.assert_array_equal(s.flat, flat_before)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_fit_matches_a_hand_rolled_loop(kind):
    # bb.fit against the per-model reference: the same permutation per epoch,
    # minibatches in its order (the last one short), a band-summed loss
    # gradient, _ref_adam, and a snapshot before training and after each epoch.
    rng = np.random.default_rng(23)
    n_models, n, t, h, epochs, batch, lr = 3, 50, 8, 4, 3, 16, 0.01
    models = [init_params(kind, t, h, 6, rng) for _ in range(n_models)]
    comps = rng.standard_normal((n_models, n, t))
    target = rng.standard_normal((n, h))

    ref = [{k: v.copy() for k, v in m.items()} for m in models]
    states = [{"t": 0, "m": {}, "v": {}} for _ in models]
    ref_rng = np.random.default_rng(11)
    want = [stack_params(kind, ref).flat]
    for _ in range(epochs):
        order = ref_rng.permutation(n)
        for start in range(0, n, batch):
            x = comps[:, order[start : start + batch]]
            preds = np.stack([_ref_forecast(ref[b], kind, x[b]) for b in range(n_models)])
            g = preds.sum(axis=0) - target[order[start : start + batch]]
            for b in range(n_models):
                _ref_adam(ref[b], _ref_backward(ref[b], kind, x[b], g), states[b], lr)
        want.append(stack_params(kind, ref).flat)

    s = stack_params(kind, models)
    curve = fit(
        s, n, epochs, batch, lr, np.random.default_rng(11),
        lambda idx: np.take(comps, idx, axis=1),
        lambda idx, out: out.sum(axis=0) - target[idx],
        lambda stacks: [{"epoch": e, "flat": st.flat} for e, st in enumerate(stacks)],
    )
    assert len(curve) == epochs + 1
    for row, flat in zip(curve, want):
        np.testing.assert_array_equal(row["flat"], flat)
    np.testing.assert_array_equal(s.flat, want[-1])
