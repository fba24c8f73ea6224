"""Release gate: exact property suites plus directional end-to-end checks.

Each test prints one verdict line under pytest -v. The first six pin the
numerics (reconstruction, band isolation, penalty kernels, gradients, router
algebra); the last four run the full pipeline on the seeded synthetic
benchmark and check the headline directional claims.
"""

import math
import time

import numpy as np
import pytest

from rarecast import backbone as bb
from rarecast import ewt
from rarecast.config import PipelineConfig
from rarecast.dataset import (
    RarityLevel,
    compute_thresholds,
    label_points,
)
from rarecast.evaluation import (
    ablate_config,
    evaluate,
    report_rows,
    run_once,
    sweep_beta,
    write_rows_csv,
)
from rarecast.expert import ExpertModel, decompose_histories, expert_predict_batch
from rarecast.losses import PenaltyContext, kd_loss, rare_loss, rare_penalty
from rarecast.pipeline import baseline_predict, prepare_data, train_baseline
from rarecast.router import cross_entropy, fuse, select_topk, softmax


def _close(analytic: float, reference: float, tol: float) -> bool:
    return abs(analytic - reference) <= tol * max(1.0, abs(reference))


# --------------------------------------------------------------------- 1 & 2


def test_a01_ewt_reconstruction_accuracy_and_speed():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(512)
        for n_bands in (1, 2, 4, 8):
            boundaries = ewt.detect_boundaries(x, n_bands)
            bank = ewt.build_filter_bank(boundaries, x.size // 2 + 1)
            recon = ewt.reconstruct(ewt.decompose(x, bank))
            rel = float(np.abs(recon - x).max() / np.abs(x).max())
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"max relative reconstruction error {worst:.3e}"
    assert elapsed < 2.0, f"reconstruction suite took {elapsed:.2f}s"


def test_a02_ewt_band_isolation_vs_fft_masks():
    t = 500  # 0.2*pi and 0.8*pi sit exactly on bins 50 and 200
    n = np.arange(t)
    x = np.sin(0.2 * np.pi * n) + 0.8 * np.sin(0.8 * np.pi * n)
    bank = ewt.build_filter_bank(ewt.detect_boundaries(x, 2), t // 2 + 1, gamma=0.0)
    comps = ewt.decompose(x, bank)
    boundary = bank.boundaries.omegas[1]
    assert abs(boundary - 0.5 * np.pi) <= 1e-12

    spectrum = np.fft.rfft(x)
    freqs = ewt.bin_frequencies(spectrum.size)
    low = np.fft.irfft(np.where(freqs < boundary, spectrum, 0.0), n=t)
    high = np.fft.irfft(np.where(freqs >= boundary, spectrum, 0.0), n=t)
    for got, want in ((comps.components[0], low), (comps.components[1], high)):
        rms = float(np.sqrt(np.mean((got - want) ** 2)))
        assert rms <= 1e-6, f"band RMS vs FFT-mask oracle {rms:.3e}"


# --------------------------------------------------------------------- 3 to 5


def _ctx(level: RarityLevel, horizon: int = 24) -> PenaltyContext:
    return PenaltyContext(expert_level=level, point_level=level, horizon=horizon)


def test_a03_penalty_kernel_closed_forms():
    cases = [
        (_ctx(RarityLevel.NORMAL), 0.5, 0.25),
        (_ctx(RarityLevel.MODERATE), -1.0, math.e - 1.0),
        (_ctx(RarityLevel.VERY_RARE), 1.0, math.log(math.cosh(1.0))),
        (_ctx(RarityLevel.EXTREME_RARE, horizon=24), 1.0, math.expm1(1.0 / 25.0)),
    ]
    for ctx, delta, want in cases:
        got = rare_penalty(delta, ctx).value
        assert abs(got - want) <= 1e-12, f"{ctx.expert_level.name}: {got!r} vs {want!r}"
    eps = 1e-9
    for level in RarityLevel:
        at_zero = rare_penalty(0.0, _ctx(level)).value
        assert abs(rare_penalty(+eps, _ctx(level)).value - at_zero) <= 1e-8
        assert abs(rare_penalty(-eps, _ctx(level)).value - at_zero) <= 1e-8


def test_a04_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6

    # every penalty kernel, both sides of zero, 1000 probes each
    for level in RarityLevel:
        ctx = _ctx(level)
        deltas = rng.uniform(1e-4, 4.0, size=1000) * rng.choice([-1.0, 1.0], size=1000)
        for delta in deltas:
            ana = rare_penalty(float(delta), ctx).d_dpred
            fd = (rare_penalty(float(delta + h), ctx).value
                  - rare_penalty(float(delta - h), ctx).value) / (2 * h)
            assert _close(ana, fd, 1e-5), f"{level.name} at delta={delta:.6f}"

    # distillation gradient, 1000 probed coordinates
    student = rng.standard_normal(1000)
    teacher = rng.standard_normal(1000)
    grad = np.asarray(kd_loss(student, teacher).d_dpred)
    for i in rng.choice(1000, size=1000, replace=True):
        bumped, dipped = student.copy(), student.copy()
        bumped[i] += h
        dipped[i] -= h
        fd = (kd_loss(bumped, teacher).value - kd_loss(dipped, teacher).value) / (2 * h)
        assert _close(float(grad[i]), fd, 1e-5), f"kd coordinate {i}"

    # full expert forward pass: loss gradient wrt every backbone parameter
    n, t, horizon, n_bands = 8, 16, 4, 2
    hist = rng.standard_normal((n, t))
    targets = rng.standard_normal((n, horizon))
    plev = rng.integers(0, 4, size=(n, horizon))
    comps = decompose_histories(hist, n_bands, "per_window", None)
    bands = [bb.init_params("linear", t, horizon, rng=rng) for _ in range(n_bands)]
    expert = ExpertModel(level=2, stack=bb.stack_params("linear", bands))

    def loss_value() -> float:
        preds = expert_predict_batch(expert, hist, comps)
        return rare_loss(preds, targets, plev, expert.penalty_level, horizon).value

    preds = expert_predict_batch(expert, hist, comps)
    dpred = np.asarray(rare_loss(preds, targets, plev, expert.penalty_level, horizon).d_dpred)
    # the stack's backward on (n_bands, N, T) components, as a training step runs it
    grads = bb.backward(expert.stack, comps, dpred)
    for _ in range(1000):
        b = int(rng.integers(n_bands))
        name = "w" if rng.random() < 0.9 else "b"
        flat = expert.stack.params[name][b].reshape(-1)
        i = int(rng.integers(flat.size))
        ana = float(grads[name][b].reshape(-1)[i])
        orig = flat[i]
        flat[i] = orig + h
        up = loss_value()
        flat[i] = orig - h
        down = loss_value()
        flat[i] = orig
        assert _close(ana, (up - down) / (2 * h), 1e-4), f"band {b} {name}[{i}]"


def test_a05_asymmetric_penalty_ordering():
    rng = np.random.default_rng(5)
    deltas = rng.uniform(1e-3, 10.0, size=1000)
    deltas[0] = 10.0  # include the boundary of the range
    rare = (RarityLevel.MODERATE, RarityLevel.VERY_RARE, RarityLevel.EXTREME_RARE)
    for level in rare:
        ctx = _ctx(level)
        for delta in deltas:
            over = rare_penalty(float(delta), ctx).value
            under = rare_penalty(float(-delta), ctx).value
            assert over < under, f"{level.name}: over {over!r} !< under {under!r} at {delta!r}"
    for delta in deltas:  # the under-prediction branch dominates the quadratic
        assert math.expm1(delta) > delta * delta


def test_a06_router_weight_algebra():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((256, 4))
    alphas = softmax(logits)
    assert np.abs(alphas.sum(axis=1) - 1.0).max() <= 1e-12

    for alpha in alphas[:32]:
        np.testing.assert_allclose(select_topk(alpha, 4), alpha, atol=1e-12)

    outputs = rng.standard_normal((16, 4))
    for alpha in alphas[:32]:
        one_hot = select_topk(alpha, 1)
        np.testing.assert_array_equal(fuse(outputs, one_hot), outputs[:, int(alpha.argmax())])

    assert abs(cross_entropy(np.zeros((8, 4)), np.zeros(8, dtype=int)) - math.log(4.0)) <= 1e-12


# -------------------------------------------------------------------- 7 to 10


BENCHMARK = PipelineConfig()


@pytest.fixture(scope="module")
def preset_runs():
    """Five seeded full-configuration runs on the synthetic benchmark."""
    runs = []
    start = time.perf_counter()
    for seed in range(5):
        cfg = BENCHMARK.with_overrides(seed=seed)
        data = prepare_data(cfg)
        report, _ = run_once(data, cfg)
        runs.append((cfg, data, report))
    return runs, time.perf_counter() - start


def test_a07_full_pipeline_beats_baseline_on_extremes(preset_runs):
    runs, elapsed_full = preset_runs
    start = time.perf_counter()
    wins = 0
    pairs = []
    for cfg, data, report in runs:
        base = train_baseline(data, cfg)
        preds = baseline_predict(base, data.test_windows)
        base_report = evaluate(preds, data.test_windows.targets, data.thresholds)
        ours = report.get(RarityLevel.EXTREME_RARE).mse
        theirs = base_report.get(RarityLevel.EXTREME_RARE).mse
        pairs.append((ours, theirs))
        wins += ours <= theirs
    elapsed = elapsed_full + (time.perf_counter() - start)
    assert wins >= 4, f"extreme-point MSE wins {wins}/5: {pairs}"
    assert elapsed < 600.0, f"directional check took {elapsed:.0f}s"


def test_a08_component_ablation_trend(preset_runs):
    runs, _ = preset_runs
    full_mses, none_mses = [], []
    for cfg, data, report in runs:
        full_mses.append(report.overall.mse)
        none_report, _ = run_once(data, ablate_config(cfg, frozenset()))
        none_mses.append(none_report.overall.mse)
    # remaining grid cells complete from the same preset (one seed suffices)
    cfg, data, _ = runs[0]
    for preset in ({"WT"}, {"WT", "KD"}, {"WT", "RP"}):
        report, _ = run_once(data, ablate_config(cfg, preset))
        assert math.isfinite(report.overall.mse)
    assert np.median(full_mses) <= np.median(none_mses), (
        f"full {np.median(full_mses):.4f} vs none {np.median(none_mses):.4f} "
        f"({full_mses} vs {none_mses})"
    )


def test_a09_beta_sweep_complete_and_deterministic(tiny_data, tiny_cfg, tmp_path):
    paths = []
    for name in ("first.csv", "second.csv"):
        result = sweep_beta(tiny_data, tiny_cfg)
        assert not result.errors
        path = tmp_path / name
        write_rows_csv(result.rows, path)
        paths.append(path)
    lines = paths[0].read_text().splitlines()
    assert len(lines) == 1 + 7 * 4
    for line in lines[1:]:  # every level row of every beta is filled in
        cells = line.split(",")
        assert all(cells), line
        assert int(cells[-1]) > 0, line
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_a10_rarity_label_fractions():
    n = 10_000
    values = np.random.default_rng(10).uniform(size=n)
    thresholds = compute_thresholds(values)
    levels = label_points(values, thresholds)
    expected = {
        RarityLevel.NORMAL: 0.90,
        RarityLevel.MODERATE: 0.05,
        RarityLevel.VERY_RARE: 0.04,
        RarityLevel.EXTREME_RARE: 0.01,
    }
    for level, p in expected.items():
        frac = float((levels == int(level)).mean())
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(frac - p) <= 3.0 * sigma, (
            f"{level.name}: fraction {frac:.4f} vs {p} (3 sigma = {3 * sigma:.4f})"
        )
