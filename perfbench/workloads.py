"""The rarecast workloads: untraced runs for end-to-end metrics, staged traced runs for layers.

Every input is generated here from the workload seed and handed to the
program as arrays and configs. One closed-loop client drives each run: the
next operation starts only when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import re
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from rarecast import backbone as bb
from rarecast.bundle import load_bundle, save_bundle
from rarecast.cli import REPRODUCE_OVERRIDES
from rarecast.config import PipelineConfig
from rarecast.dataset import RarityLevel, TimeSeries, label_points, synth_generate
from rarecast.evaluation import MetricsReport, evaluate
from rarecast.expert import build_expert_chain, decompose_histories
from rarecast.pipeline import (
    PreparedData,
    TrainedPipeline,
    baseline_predict,
    fit_global_bank,
    predict_windows,
    prepare_data,
    train_baseline,
    train_pipeline,
)
from rarecast.router import (
    gate_forward,
    pipeline_predict,
    pipeline_predict_batch,
    select_topk,
    stack_expert_outputs,
    train_router,
)

from clock import Calibrator, Timed
from tracing import Tracer, count_calls

WORKLOADS = ("reproduce", "mlp_global", "forecast")
SETUP_REPEATS = 3
# Held-out series draw from seed HELD_OUT_SEED + model seed, far from any training seed.
HELD_OUT_SEED = 1_000_000
SINGLE_TOL = 1e-12
FALLBACK_RE = re.compile(r"decompose_windows: (\d+) of \d+ windows")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one run; FULL is the benchmark, SMOKE a shrunken copy for its test."""

    overrides: dict
    models: int  # distinct training seeds per reproduce / mlp_global run
    held_out_points: int  # held-out series length per trained model
    requests: int  # single-window requests per forecast pass
    batch_size: int  # windows per pipeline_predict_batch call


FULL = Scale({}, models=3, held_out_points=20_000, requests=2000, batch_size=4096)
SMOKE = Scale(
    {"synth_n": 4000, "epochs": 1, "router_epochs": 2},
    models=2, held_out_points=3000, requests=40, batch_size=512,
)


def workload_config(workload: str, scale: Scale) -> PipelineConfig:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    cfg = PipelineConfig().with_overrides(**{**REPRODUCE_OVERRIDES, **scale.overrides})
    if workload == "mlp_global":
        cfg = cfg.with_overrides(mode="global", backbone="mlp")
    return cfg


@dataclass
class Tally:
    """Operations attempted and failed (raised nothing but gave a wrong or non-finite output)."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass(eq=False)
class Inputs:
    series: TimeSeries
    held_out: TimeSeries


def make_inputs(cfg: PipelineConfig, held_out_points: int) -> Inputs:
    series = synth_generate(cfg.seed, cfg.synth_n, cfg.spike_rate, cfg.spike_scale)
    held = synth_generate(HELD_OUT_SEED + cfg.seed, held_out_points, cfg.spike_rate, cfg.spike_scale)
    return Inputs(series, held)


def window_arrays(values: np.ndarray, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """(histories, targets) of every window, laid out as rarecast's make_windows lays them out."""
    t = cfg.history_len
    w = sliding_window_view(np.asarray(values, dtype=np.float64), t + cfg.horizon)[:: cfg.stride]
    return np.ascontiguousarray(w[:, :t]), np.ascontiguousarray(w[:, t:])


def _extreme(report: MetricsReport) -> float | None:
    lm = report.get(RarityLevel.EXTREME_RARE)
    return None if lm is None else lm.mse


def _finite(*arrays: np.ndarray) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


@dataclass(eq=False)
class SeedRun:
    tp: TrainedPipeline
    timed: Timed
    sha256: str
    bundle_bytes: int
    mse: tuple[float, float | None]
    finite: bool


def _finish_seed_run(tp, timed, path, report, preds, base_preds) -> SeedRun:
    body = Path(path).read_bytes()
    return SeedRun(
        tp=tp,
        timed=timed,
        sha256=hashlib.sha256(body).hexdigest(),
        bundle_bytes=len(body),
        mse=(report.overall.mse, _extreme(report)),
        finite=_finite(preds, base_preds),
    )


def seed_run(cfg: PipelineConfig, series: TimeSeries, path: Path, clock: Calibrator) -> SeedRun:
    """One `rarecast reproduce` run: train, baseline, test-split evaluation, bundle."""
    with clock.timed() as timed:
        data = prepare_data(cfg, series)
        tp, _ = train_pipeline(data, cfg)
        base = train_baseline(data, cfg)
        preds, _, _ = predict_windows(tp, data.test_windows)
        _, targets = window_arrays(data.test.values, cfg)
        report = evaluate(preds, targets, data.thresholds)
        base_preds = baseline_predict(base, data.test_windows)
        evaluate(base_preds, targets, data.thresholds)
        save_bundle(tp, path)
    return _finish_seed_run(tp, timed, path, report, preds, base_preds)


def forecast_batches(tp: TrainedPipeline, hist: np.ndarray, batch_size: int) -> np.ndarray:
    return np.concatenate(
        [
            pipeline_predict_batch(tp.experts, tp.router, hist[s : s + batch_size])[0]
            for s in range(0, hist.shape[0], batch_size)
        ]
    )


def single_requests(
    tp: TrainedPipeline, hist, batch_preds, idx, tally: Tally, clock: Calibrator
) -> list[Timed]:
    """One pipeline_predict per index, timed; each must match its batched row."""
    out = []
    for i in idx:
        with clock.timed() as timed:
            p = pipeline_predict(tp.experts, tp.router, hist[i])
        out.append(timed)
        ok = _finite(p) and float(np.max(np.abs(p - batch_preds[i]))) <= SINGLE_TOL
        tally.record(ok, f"single-window forecast {i} disagrees with its batched row")
    return out


@dataclass
class Quality:
    """Pooled squared error over held-out windows, overall and on EXTREME_RARE points."""

    sq: float = 0.0
    n: int = 0
    sq_extreme: float = 0.0
    n_extreme: int = 0

    def add(self, preds: np.ndarray, targets: np.ndarray, tp: TrainedPipeline) -> None:
        err = (preds - targets) ** 2
        extreme = label_points(targets, tp.thresholds) == int(RarityLevel.EXTREME_RARE)
        self.sq += float(err.sum())
        self.n += err.size
        self.sq_extreme += float(err[extreme].sum())
        self.n_extreme += int(extreme.sum())

    def mse(self) -> tuple[float, float]:
        if self.n_extreme == 0:
            raise RuntimeError("held-out windows hold no EXTREME_RARE point")
        return self.sq / self.n, self.sq_extreme / self.n_extreme


def held_out_windows(tp: TrainedPipeline, held: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    return window_arrays(tp.normalizer.apply(held.values), tp.config)


@dataclass
class Samples:
    """End-to-end samples of one untraced run, each as (wall, reference-speed factor)."""

    setup: list[Timed] = field(default_factory=list)
    train: list[Timed] = field(default_factory=list)
    batch: list[tuple[int, Timed]] = field(default_factory=list)  # (windows, pass time)
    latency: list[list[Timed]] = field(default_factory=list)  # one list of requests per pass
    quality: Quality = field(default_factory=Quality)


def _forecast_pass(tp, hist, scale, tally, samples, clock, offset, reference=None) -> np.ndarray:
    """One batched pass over every window, then a chunk of single-window requests."""
    with clock.timed() as timed:
        preds = forecast_batches(tp, hist, scale.batch_size)
    samples.batch.append((hist.shape[0], timed))
    same = reference is None or np.array_equal(preds, reference)
    tally.record(_finite(preds) and same, "batched forecast not finite or not repeatable")
    idx = (offset + np.arange(scale.requests)) % hist.shape[0]
    samples.latency.append(single_requests(tp, hist, preds, idx, tally, clock))
    return preds


def model_configs(workload: str, seed: int, scale: Scale) -> list[PipelineConfig]:
    """The training seeds of one run: a block of scale.models seeds owned by the workload seed."""
    base = workload_config(workload, scale)
    return [base.with_overrides(seed=scale.models * seed + j) for j in range(scale.models)]


def run_training(
    workload: str, seed: int, seconds: float, scale: Scale, work: Path, clock: Calibrator
) -> tuple[Samples, Tally]:
    """reproduce / mlp_global: per-seed runs cycling over the model seeds.

    After each run the model forecasts its held-out series, so forecast
    samples spread over the whole measurement instead of bunching at its end.
    """
    cfgs = model_configs(workload, seed, scale)
    samples, tally = Samples(), Tally()
    for _ in range(SETUP_REPEATS):
        with clock.timed() as timed:
            inputs = [make_inputs(c, scale.held_out_points) for c in cfgs]
        samples.setup.append(timed)

    first: dict[int, tuple[SeedRun, np.ndarray, np.ndarray, np.ndarray]] = {}
    start = time.perf_counter()
    i = 0
    # Every model seed runs once and the first one runs again, so each run checks repeatability.
    while i <= len(cfgs) or time.perf_counter() - start < seconds:
        j = i % len(cfgs)
        r = seed_run(cfgs[j], inputs[j].series, work / f"bundle-{j}.json", clock)
        samples.train.append(r.timed)
        if j not in first:
            hist, targets = held_out_windows(r.tp, inputs[j].held_out)
            preds = _forecast_pass(r.tp, hist, scale, tally, samples, clock, i * scale.requests)
            samples.quality.add(preds, targets, r.tp)
            first[j] = (r, hist, targets, preds)
            tally.record(r.finite, f"seed {cfgs[j].seed}: non-finite run")
        else:
            ref, hist, _, ref_preds = first[j]
            same = (r.sha256, r.mse) == (ref.sha256, ref.mse)
            tally.record(r.finite and same, f"seed {cfgs[j].seed}: run not repeatable")
            _forecast_pass(r.tp, hist, scale, tally, samples, clock, i * scale.requests, ref_preds)
        i += 1
    return samples, tally


def run_forecast(seed: int, seconds: float, scale: Scale, work: Path, clock: Calibrator) -> tuple[Samples, Tally]:
    """forecast: each set-up trains, saves and loads one bundle; the timed part only forecasts.

    The timed loop cycles over the bundles, each on its own held-out series.
    """
    samples, tally = Samples(), Tally()
    models = []
    for j, cfg in enumerate(model_configs("forecast", seed, scale)):
        with clock.timed() as timed:
            inputs = make_inputs(cfg, scale.held_out_points)
            r = seed_run(cfg, inputs.series, work / f"bundle-{j}.json", clock)
            tp = load_bundle(work / f"bundle-{j}.json")
        samples.setup.append(timed)
        samples.train.append(r.timed)
        tally.record(r.finite, f"set-up bundle {cfg.seed} not finite")
        models.append((tp, *held_out_windows(tp, inputs.held_out)))

    first: list[np.ndarray] = []
    start = time.perf_counter()
    passes = 0
    while passes <= len(models) or time.perf_counter() - start < seconds:
        j = passes % len(models)
        tp, hist, targets = models[j]
        ref = first[j] if j < len(first) else None
        preds = _forecast_pass(tp, hist, scale, tally, samples, clock, passes * scale.requests, ref)
        if ref is None:
            first.append(preds)
            samples.quality.add(preds, targets, tp)
        passes += 1
    return samples, tally


def end_to_end(samples: Samples, reference: bool = True) -> dict[str, tuple[float, str]]:
    """End-to-end metrics in reference seconds, or in raw wall time with reference=False."""

    def scaled(t: Timed) -> float:
        return t.ref_s if reference else t.wall_s

    def latency_ms(q: float) -> float:
        """Percentile q of each pass's requests, median over passes, so one noisy pass cannot set it."""
        return statistics.median(float(np.percentile([scaled(t) * 1e3 for t in ts], q)) for ts in samples.latency)

    overall, extreme = samples.quality.mse()
    return {
        "train_s": (statistics.median(map(scaled, samples.train)), "s"),
        "forecast_windows_per_s": (statistics.median(n / scaled(t) for n, t in samples.batch), "windows/s"),
        "forecast_latency_ms_p50": (latency_ms(50), "ms"),
        "forecast_latency_ms_p99": (latency_ms(99), "ms"),
        "overall_mse": (overall, "norm_units2"),
        "extreme_mse": (extreme, "norm_units2"),
        "setup_s": (statistics.median(map(scaled, samples.setup)), "s"),
    }


# ---------------------------------------------------------------- traced run


def traced_decompose(tracer: Tracer, hist, n_bands, mode, bank, gamma) -> np.ndarray:
    """expert.decompose_histories in an ewt.decompose span, counting fallback windows."""
    with tracer.span("ewt.decompose") as s, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        comps = decompose_histories(hist, n_bands, mode, bank, gamma)
    s.attrs["windows"] = int(hist.shape[0])
    s.attrs["fallback"] = sum(
        int(m.group(1)) for w in caught if (m := FALLBACK_RE.match(str(w.message)))
    )
    return comps


def staged_train(cfg: PipelineConfig, data: PreparedData, tracer: Tracer) -> tuple[TrainedPipeline, dict]:
    """train_pipeline one stage at a time."""
    bank = None
    if cfg.mode == "global":
        with tracer.span("ewt.global_bank"):
            bank = fit_global_bank(data.train, cfg)
    hist, _ = window_arrays(data.train.values, cfg)
    comps = traced_decompose(tracer, hist, cfg.n_bands, cfg.mode, bank, cfg.gamma)
    with tracer.span("expert.chain"):
        chain = build_expert_chain(data.train_windows, cfg.expert_cfg(), bank, comps)
    with tracer.span("router.train"):
        router, _ = train_router(chain.experts, data.train_windows, cfg.router_cfg(), comps)
    tp = TrainedPipeline(
        experts=chain.experts,
        router=router,
        normalizer=data.normalizer,
        thresholds=data.thresholds,
        config=cfg,
    )
    return tp, dict(chain.counts)


def staged_predict(tracer: Tracer, tp: TrainedPipeline, hist: np.ndarray):
    """pipeline_predict_batch one stage at a time: (preds, alphas, sparse weights)."""
    first = tp.experts[0]
    comps = traced_decompose(tracer, hist, first.n_bands, first.mode, first.bank, first.gamma)
    with tracer.span("router.experts"):
        outputs = stack_expert_outputs(tp.experts, hist, comps)
    with tracer.span("router.gate"):
        _, alphas = gate_forward(tp.router, outputs)
    with tracer.span("router.topk"):
        sparse = np.stack([select_topk(a, tp.router.k) for a in alphas])
    with tracer.span("router.fuse"):
        preds = np.einsum("nhe,ne->nh", outputs, sparse)
    return preds, alphas, sparse


@dataclass(eq=False)
class StagedRun:
    run: SeedRun
    data: PreparedData
    chain_counts: dict
    calls: dict
    routed: tuple  # (alphas, sparse, targets) on the test windows


def staged_seed_run(cfg, series, path, tracer: Tracer, phase: str) -> StagedRun:
    """seed_run one stage at a time, counting backbone calls at the module boundary."""
    with count_calls(bb, ("forecast", "backward", "step")) as calls:
        with tracer.span("seed_run", trace=f"seed_run-{cfg.seed}", phase=phase) as root:
            with tracer.span("dataset.prepare"):
                data = prepare_data(cfg, series)
            tp, chain_counts = staged_train(cfg, data, tracer)
            with tracer.span("pipeline.baseline"):
                base = train_baseline(data, cfg)
            hist, targets = window_arrays(data.test.values, cfg)
            with tracer.span("pipeline.predict"):
                preds, alphas, sparse = staged_predict(tracer, tp, hist)
            with tracer.span("pipeline.baseline_predict"):
                base_preds = baseline_predict(base, data.test_windows)
            with tracer.span("evaluation.evaluate"):
                report = evaluate(preds, targets, data.thresholds)
                evaluate(base_preds, targets, data.thresholds)
            with tracer.span("bundle.save"):
                save_bundle(tp, path)
    run = _finish_seed_run(tp, Timed(root.seconds, root.factor), path, report, preds, base_preds)
    return StagedRun(run, data, chain_counts, dict(calls), (alphas, sparse, targets))


def traced_load(tracer: Tracer, path: Path, phase: str) -> TrainedPipeline:
    with tracer.span("bundle.load", trace=f"load-{path.name}", phase=phase):
        return load_bundle(path)


def routing_diagnostics(alphas, sparse, targets, tp: TrainedPipeline) -> dict:
    """Shazeer-style routing statistics against each window's (merged) rarity level."""
    n_experts = alphas.shape[1]
    levels = np.minimum(label_points(targets, tp.thresholds).max(axis=1), n_experts - 1)
    kept = sparse > 0.0
    rows = np.arange(levels.size)
    argmax = alphas.argmax(axis=1)
    confusion = np.zeros((n_experts, n_experts), dtype=np.int64)
    np.add.at(confusion, (levels, argmax), 1)
    return {
        "topk_hit_rate": float(kept[rows, levels].mean()),
        "argmax_accuracy": float((argmax == levels).mean()),
        "gate_mass_kept": float((alphas * kept).sum(axis=1).mean()),
        "confusion": confusion.tolist(),
    }


def traced_run(
    workload: str, seed: int, scale: Scale, work: Path, clock: Calibrator
) -> tuple[dict, dict, Tracer, Tally]:
    """Per-layer metrics from one staged, traced pass over the workload's operations.

    The untraced operation runs first; tracing.overhead_s is the traced time
    minus the untraced one, both in reference seconds. Staged outputs must
    equal untraced ones bitwise.
    """
    tracer, tally = Tracer(clock), Tally()
    cfg = model_configs(workload, seed, scale)[0]
    inputs = make_inputs(cfg, scale.held_out_points)
    if workload == "forecast":
        staged = staged_seed_run(cfg, inputs.series, work / "bundle.json", tracer, phase="setup")
        tally.record(staged.run.finite, "set-up run not finite")
        tp = traced_load(tracer, work / "bundle.json", phase="setup")
        hist, targets = held_out_windows(tp, inputs.held_out)
        for _ in range(2):  # the first pass warms up; the second is the reference
            with clock.timed() as untraced_t:
                untraced = forecast_batches(tp, hist, scale.batch_size)
        parts = []
        with tracer.span("forecast_batch", trace=f"forecast-{seed}", phase="run") as root:
            for s in range(0, hist.shape[0], scale.batch_size):
                parts.append(staged_predict(tracer, tp, hist[s : s + scale.batch_size]))
        preds, alphas, sparse = (np.concatenate(x) for x in zip(*parts))
        tally.record(_finite(preds) and np.array_equal(preds, untraced), "staged batch differs")
        overhead = root.seconds * root.factor - untraced_t.ref_s
    else:
        for _ in range(2):  # the first run warms up; the second is the reference
            ref = seed_run(cfg, inputs.series, work / "untraced.json", clock)
            tally.record(ref.finite, "untraced run not finite")
        staged = staged_seed_run(cfg, inputs.series, work / "bundle.json", tracer, phase="run")
        same = (staged.run.sha256, staged.run.mse) == (ref.sha256, ref.mse)
        tally.record(staged.run.finite and same, "staged run differs from train_pipeline")
        tp = traced_load(tracer, work / "bundle.json", phase="setup")
        alphas, sparse, targets = staged.routed
        overhead = staged.run.timed.ref_s - ref.timed.ref_s

    save_bundle(tp, work / "resaved.json")
    resaved = hashlib.sha256((work / "resaved.json").read_bytes()).hexdigest()
    tally.record(resaved == staged.run.sha256, "bundle does not round-trip byte for byte")

    diag = routing_diagnostics(alphas, sparse, targets, tp)
    decompose_s = tracer.self_seconds("ewt.decompose")
    layers = {
        "dataset.prepare_s": (tracer.self_seconds("dataset.prepare"), "s"),
        "dataset.train_windows": (len(staged.data.train_windows), "count"),
        "ewt.decompose_s": (decompose_s, "s"),
        "ewt.decompose_windows_per_s": (tracer.attr_sum("ewt.decompose", "windows") / decompose_s, "windows/s"),
        "ewt.fallback_windows": (tracer.attr_sum("ewt.decompose", "fallback"), "count"),
        "expert.chain_s": (tracer.self_seconds("expert.chain"), "s"),
        **{
            f"expert.windows.level{c}": (staged.chain_counts.get(c, 0), "count")
            for c in range(cfg.n_experts)
        },
        "backbone.step_calls": (staged.calls["step"], "count"),
        "backbone.forecast_calls": (staged.calls["forecast"], "count"),
        "backbone.backward_calls": (staged.calls["backward"], "count"),
        "router.train_s": (tracer.self_seconds("router.train"), "s"),
        "pipeline.baseline_s": (tracer.self_seconds("pipeline.baseline"), "s"),
        "router.experts_s": (tracer.self_seconds("router.experts"), "s"),
        "router.gate_s": (tracer.self_seconds("router.gate"), "s"),
        "router.topk_s": (tracer.self_seconds("router.topk"), "s"),
        "router.topk_hit_rate": (diag["topk_hit_rate"], "ratio"),
        "router.argmax_accuracy": (diag["argmax_accuracy"], "ratio"),
        "router.gate_mass_kept": (diag["gate_mass_kept"], "ratio"),
        "bundle.save_s": (tracer.self_seconds("bundle.save"), "s"),
        "bundle.load_s": (tracer.self_seconds("bundle.load"), "s"),
        "bundle.bytes": (staged.run.bundle_bytes, "bytes"),
        "tracing.overhead_s": (overhead, "s"),
    }
    return layers, {"confusion_level_by_argmax_expert": diag["confusion"]}, tracer, tally
