"""Small forecasting backbones with hand-rolled reverse-mode gradients.

Two kinds: a linear map and a one-hidden-layer tanh MLP. Both map a length-T
history to a length-H forecast. Everything is plain float64 numpy so runs
are bitwise reproducible for a fixed seed.

There is one model type, the ForecasterStack: B same-shaped models (the
bands of an expert, or the gate as B=1) whose parameters live in one flat
buffer. `init_params` draws one model's parameter dict and `stack_params`
copies B of them into a stack. One `forward`, `backward` and `step` call
covers every model in the stack, with batched matmuls over the model axis
and one Adam update on the flat buffer. `forward` returns the output and the
MLP's post-tanh hidden layer, and `backward` consumes that hidden layer
instead of computing it again, as reverse mode keeps forward intermediates
for the backward sweep. `forecast` is the forward's output alone, for
inference. `fit` is the one training loop: every expert, the baseline and
the gate train through it, each supplying only its inputs and loss gradient.

A forward on at least 2 * parallel.MIN_ROWS rows, a batched forecast or a
loss curve's full pass, spreads the stack's models over the usable CPUs
(rarecast.parallel): each thread runs whole models, never a share of one
model's rows, so every matmul is the call a single thread would make and
the bits do not depend on the thread count. Smaller forwards, among them
every training minibatch and single-window request, run inline as before.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import parallel

KINDS = ("linear", "mlp")
# Every expert, the baseline and the gate train with Adam at LR in
# minibatches of BATCH_SIZE; an MLP backbone has HIDDEN tanh units.
HIDDEN = 32
LR = 1e-3
BATCH_SIZE = 128


@dataclass(eq=False)
class ForecasterStack:
    """Same-shaped forecasters sharing one flat parameter buffer.

    `params[name]` is a (B, ...) view of `flat` whose b-th slice is model
    b's parameter. `grads` mirrors that layout over `grad_flat`; `backward`
    fills it and `step` consumes it. The model count and the input and
    output lengths are read off the parameter shapes.
    """

    kind: str
    flat: np.ndarray
    params: dict[str, np.ndarray]
    grad_flat: np.ndarray
    grads: dict[str, np.ndarray]

    @property
    def n_models(self) -> int:
        return len(next(iter(self.params.values())))

    @property
    def input_len(self) -> int:
        return next(iter(self.params.values())).shape[-1]  # w or w1: (B, out, T)

    @property
    def output_len(self) -> int:
        return next(reversed(self.params.values())).shape[-1]  # b or b2: (B, H)


def param_shapes(kind: str, input_len: int, output_len: int, hidden: int = HIDDEN) -> dict[str, tuple[int, ...]]:
    """One model's parameter names and shapes, in draw and buffer order; a linear model has no hidden."""
    if kind not in KINDS:
        raise ValueError(f"param_shapes: kind must be one of {KINDS}, got {kind!r}")
    if input_len < 1 or output_len < 1:
        raise ValueError("param_shapes: input_len and output_len must be positive")
    if kind == "linear":
        return {"w": (output_len, input_len), "b": (output_len,)}
    if hidden < 1:
        raise ValueError("param_shapes: mlp needs hidden >= 1")
    return {"w1": (hidden, input_len), "b1": (hidden,), "w2": (output_len, hidden), "b2": (output_len,)}


def init_params(
    kind: str, input_len: int, output_len: int, hidden: int = HIDDEN, rng: np.random.Generator | None = None
) -> dict[str, np.ndarray]:
    """Fresh parameters for one model: weights uniform in +-1/sqrt(fan_in), zero biases."""
    rng = rng if rng is not None else np.random.default_rng(0)
    params = {}
    for name, shape in param_shapes(kind, input_len, output_len, hidden).items():
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
    return params


def _bind(kind: str, shapes: dict[str, tuple[int, ...]], n: int, flat: np.ndarray) -> ForecasterStack:
    """Stack of n models over `flat` itself: a (n, ...) view per parameter."""
    grad_flat = np.zeros_like(flat)
    params, grads = {}, {}
    start = 0
    for name, shape in shapes.items():
        stop = start + n * int(np.prod(shape))
        params[name] = flat[start:stop].reshape((n,) + shape)
        grads[name] = grad_flat[start:stop].reshape((n,) + shape)
        start = stop
    return ForecasterStack(kind, flat, params, grad_flat, grads)


def stack_params(kind: str, models: Sequence[dict[str, np.ndarray]]) -> ForecasterStack:
    """A stack holding a copy of each model's parameter dict, in model order.

    Every dict must hold the kind's parameter names with the shapes of one
    model of that kind, and all dicts the same shapes. The buffer follows
    `param_shapes` order whatever the dicts' key order.
    """
    if not models:
        raise ValueError("stack_params: need at least one model")
    shapes = {name: np.shape(p) for name, p in models[0].items()}
    names = list(param_shapes(kind, 1, 1, 1))
    first, last = shapes.get(names[0], ()), shapes.get(names[-1], ())
    if len(first) != 2 or len(last) != 1 or shapes != param_shapes(kind, first[1], last[0], first[0]):
        raise ValueError(f"stack_params: parameter shapes {shapes} are not those of a {kind} model")
    if any({name: np.shape(p) for name, p in m.items()} != shapes for m in models):
        raise ValueError("stack_params: models must share parameter shapes")
    flat = np.concatenate(
        [np.stack([m[name] for m in models]).ravel() for name in names], dtype=np.float64
    )
    return _bind(kind, {name: shapes[name] for name in names}, len(models), flat)


def stack_at(stack: ForecasterStack, flat: np.ndarray) -> ForecasterStack:
    """A new stack shaped like `stack` whose parameters are views of `flat`.

    `flat` is typically a saved copy of `stack.flat`; `stack` is left alone.
    """
    if flat.shape != stack.flat.shape:
        raise ValueError(f"stack_at: flat buffer has shape {flat.shape}, expected {stack.flat.shape}")
    shapes = {name: p.shape[1:] for name, p in stack.params.items()}
    return _bind(stack.kind, shapes, stack.n_models, flat)


class EpochCurve(Sequence):
    """Per-epoch rows of a training run, computed from parameter snapshots when first read.

    `fit` calls `snapshot()` before its first update and after each
    epoch; each call keeps a copy of the stack's flat buffer, which costs far
    less than evaluating a row. The first read passes one `stack_at` stack
    per snapshot, in epoch order, to `rows` and caches the list it returns,
    so rows match an eager evaluation bit for bit and are computed once.
    """

    def __init__(self, stack: ForecasterStack, rows: Callable[[list[ForecasterStack]], list[dict]]):
        self._stack = stack
        self._rows_of: Callable[[list[ForecasterStack]], list[dict]] | None = rows
        self._flats: list[np.ndarray] = []
        self._rows: list[dict] | None = None

    def snapshot(self) -> None:
        self._flats.append(self._stack.flat.copy())

    def _built(self) -> list[dict]:
        if self._rows is None:
            self._rows = self._rows_of([stack_at(self._stack, f) for f in self._flats])
            # Drop the snapshots and whatever training arrays `rows` holds.
            self._rows_of, self._flats = None, []
        return self._rows

    def __getitem__(self, index):
        return self._built()[index]

    def __len__(self) -> int:
        return len(self._built())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def _check_input(model: ForecasterStack, history: np.ndarray) -> np.ndarray:
    if not isinstance(model, ForecasterStack):
        raise TypeError(f"forecast: expected a ForecasterStack, got {type(model).__name__}")
    x = np.asarray(history, dtype=np.float64)
    if x.shape[-1] != model.input_len:
        raise ValueError(
            f"forecast: history length {x.shape[-1]} does not match input_len {model.input_len}"
        )
    if not (x.ndim == 2 or (x.ndim == 3 and x.shape[0] == model.n_models)):
        raise ValueError("forecast: a stack takes (N, T) shared or (B, N, T) per-model histories")
    return x


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w[m].T + b[m] for every model m: (N, I) or (B, N, I) inputs, (B, N, O) out."""
    out = np.matmul(x, w.swapaxes(-1, -2))
    out += b[:, None, :]
    return out


def _affine_into(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """_affine written into out."""
    np.matmul(x, w.swapaxes(-1, -2), out=out)
    out += b[:, None, :]


def _forward(
    kind: str, p: dict[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    if x.shape[-2] >= 2 * parallel.MIN_ROWS:  # fewer rows would be one part, run inline
        return _forward_spread(kind, p, x)
    if kind == "linear":
        return _affine(x, p["w"], p["b"]), None
    h = _affine(x, p["w1"], p["b1"])
    np.tanh(h, out=h)
    return _affine(h, p["w2"], p["b2"]), h


def _forward_spread(
    kind: str, p: dict[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """_forward with the stack's models cut into parallel parts.

    Each part writes its models' slices of one output and one hidden
    array, repeating each model's own matmul. The rows of a matmul are
    never cut: OpenBLAS picks its kernel by row count, so a row part could
    change bits.
    """
    first, last = p["w" if kind == "linear" else "w1"], p["b" if kind == "linear" else "b2"]
    n_models, rows = first.shape[0], x.shape[-2]
    out = np.empty((n_models, rows, last.shape[-1]))
    hidden = None if kind == "linear" else np.empty((n_models, rows, first.shape[1]))

    def models(lo: int, hi: int) -> None:
        xs = x if x.ndim == 2 else x[lo:hi]
        if kind == "linear":
            _affine_into(xs, p["w"][lo:hi], p["b"][lo:hi], out[lo:hi])
            return
        h = hidden[lo:hi]
        _affine_into(xs, p["w1"][lo:hi], p["b1"][lo:hi], h)
        np.tanh(h, out=h)
        _affine_into(h, p["w2"][lo:hi], p["b2"][lo:hi], out[lo:hi])

    parallel.spread(models, 0, n_models, rows)
    return out, hidden


def forward(model: ForecasterStack, history: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(output, hidden): the (B, N, H) forecast and, for an mlp, its post-tanh hidden layer.

    hidden is None for a linear stack; for an mlp it is (B, N, hidden). A
    training step passes it on to `backward`.
    """
    x = _check_input(model, history)
    return _forward(model.kind, model.params, x)


def forecast(model: ForecasterStack, history: np.ndarray) -> np.ndarray:
    """Predict H values from T history values with every model of the stack.

    Takes (N, T) histories shared by every model or (B, N, T) per-model ones,
    and returns (B, N, H).
    """
    return forward(model, history)[0]


def backward(
    model: ForecasterStack,
    history: np.ndarray,
    output_grad: np.ndarray,
    hidden: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Parameter gradients of sum(output * output_grad), summed over the batch.

    output_grad is (N, H), shared by every model of the stack as in a band
    sum. hidden is the hidden layer `forward` returned for this stack and
    history: backward consumes the forward's activations rather than
    recomputing them. An mlp requires it; a linear stack has none and takes
    None. The gradients are written into the stack's `grads` buffer and that
    dict is returned, so the next call overwrites them.
    """
    x = _check_input(model, history)
    g = np.asarray(output_grad, dtype=np.float64)
    h = None if hidden is None else np.asarray(hidden, dtype=np.float64)
    p, out = model.params, model.grads
    if g.shape != (x.shape[-2], model.output_len):
        raise ValueError("backward: output_grad shape must match the forecast shape")
    if model.kind == "linear":
        if h is not None:
            raise ValueError("backward: a linear model has no hidden layer")
        np.matmul(g.T, x, out=out["w"])
        out["b"][...] = g.sum(axis=0)
    else:
        want = (p["w1"].shape[0], x.shape[-2], p["w1"].shape[1])
        if h is None or h.shape != want:
            got = None if h is None else h.shape
            raise ValueError(
                f"backward: mlp needs the forward's hidden layer, shape {want}, got {got}"
            )
        dz = np.matmul(g, p["w2"])
        dz *= 1.0 - h * h
        np.matmul(dz.swapaxes(-1, -2), x, out=out["w1"])
        np.sum(dz, axis=-2, out=out["b1"])
        np.matmul(g.T, h, out=out["w2"])
        out["b2"][...] = g.sum(axis=0)
    return out


@dataclass(eq=False)
class OptimizerState:
    """Adam moments and hyperparameters for one stack, shaped like its flat buffer."""

    lr: float = LR
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    work: np.ndarray | None = field(default=None, repr=False)  # (2, P) scratch


def step(model: ForecasterStack, opt: OptimizerState) -> ForecasterStack:
    """One in-place Adam update of the whole stack from the gradients `backward` wrote.

    Non-finite gradients abort training before any state changes.
    """
    g = model.grad_flat
    if not np.isfinite(g).all():
        bad = next(name for name, buf in model.grads.items() if not np.isfinite(buf).all())
        raise ValueError(f"step: non-finite gradient for {bad!r}, training aborted")
    if opt.m is None:
        opt.m, opt.v = np.zeros_like(g), np.zeros_like(g)
        opt.work = np.empty((2, g.size))
    if opt.m.shape != g.shape:
        raise ValueError("step: optimizer state belongs to a differently sized model")
    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    m, v = opt.m, opt.v
    tmp, upd = opt.work
    # Same elementwise roundings as m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), done in place on the flat buffer.
    m *= opt.beta1
    np.multiply(g, 1.0 - opt.beta1, out=tmp)
    m += tmp
    v *= opt.beta2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - opt.beta2
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += opt.eps
    np.divide(m, bc1, out=upd)
    upd *= opt.lr
    upd /= tmp
    model.flat -= upd
    return model


def fit(
    model: ForecasterStack, n: int, epochs: int, batch_size: int, lr: float, rng: np.random.Generator,
    inputs: Callable[[np.ndarray], np.ndarray],
    output_grad: Callable[[np.ndarray, np.ndarray], np.ndarray],
    curve_rows: Callable[[list[ForecasterStack]], list[dict]],
) -> EpochCurve:
    """Train `model` in place by minibatch Adam on n samples; return its `EpochCurve`.

    Each epoch walks one `rng.permutation(n)` in batch_size slices idx:
    `x = inputs(idx)`, `forward`, `backward` with `output_grad(idx, out)`,
    the loss gradient wrt the (B, N, H) output, then `step`. The curve is
    snapshotted before the first update and after each epoch.
    """
    opt = OptimizerState(lr=lr)
    curve = EpochCurve(model, curve_rows)
    curve.snapshot()
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            x = inputs(idx)
            out, hidden = forward(model, x)
            backward(model, x, output_grad(idx, out), hidden)
            step(model, opt)
        curve.snapshot()
    return curve
