"""Command line surface: data synthesis, training, prediction, evaluation, sweeps.

Every run resolves one flat config: an optional --config JSON snapshot, else
the defaults, which are the benchmark preset (for evaluate, the bundle's own
config), with explicit flags on top. It writes the resolved snapshot next to
its outputs, so any run can be reproduced bitwise from its own out directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import re
import sys
from pathlib import Path

import numpy as np

from . import ewt
from .bundle import load_bundle, save_bundle
from .config import PipelineConfig
from .dataset import RarityLevel, RarityThresholds, label_points, load_csv, window_view
from .evaluation import (
    BETA_SWEEP,
    LEVEL_KEYS,
    TABLE_PRESETS,
    ablate_config,
    ablation_table,
    evaluate,
    format_table,
    report_rows,
    run_once,
    sweep_beta,
    sweep_k,
    write_rows_csv,
)
from .expert import max_experts
from .losses import loss_landscape_rows
from .pipeline import (
    TrainedPipeline,
    baseline_predict,
    fit_global_bank,
    load_series,
    predict_windows,
    prepare_data,
    train_baseline,
    train_pipeline,
)
from .router import pipeline_predict_batch, train_router

# The benchmark preset is PipelineConfig's defaults. No command reads this empty
# mapping; perfbench/workloads.py is its only reader, and it goes with the
# benchmark harness's next change.
REPRODUCE_OVERRIDES: dict = {}


def _add_common(parser: argparse.ArgumentParser, data: bool = True) -> None:
    parser.add_argument("--config", help="JSON config snapshot to start from")
    parser.add_argument("--seed", type=int, help="run seed (overrides config)")
    parser.add_argument("--out", default="rarecast-out", help="output directory")
    parser.add_argument("--history-len", type=int, dest="history_len", help="history length T")
    parser.add_argument("--horizon", type=int, help="forecast horizon H")
    parser.add_argument("--stride", type=int)
    parser.add_argument("--bands", type=int, dest="n_bands", help="spectral band count B")
    parser.add_argument("--beta", type=float, help="distillation weight")
    parser.add_argument("--k", type=int, help="fusion arity")
    parser.add_argument("--experts", type=int, dest="n_experts", help="expert count E")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--router-epochs", type=int, dest="router_epochs")
    parser.add_argument("--backbone", choices=("linear", "mlp"))
    parser.add_argument("--mode", choices=("per_window", "global"), help="decomposition mode")
    parser.add_argument("--normalization", choices=("zscore", "identity"))
    if data:
        parser.add_argument("--data", dest="data_path", help="CSV input path")
        parser.add_argument("--column", dest="data_column", help="CSV value column")
        parser.add_argument("--delimiter", help="CSV delimiter")
        parser.add_argument("--synth-n", type=int, dest="synth_n")
        parser.add_argument("--spike-rate", type=float, dest="spike_rate")
        parser.add_argument("--spike-scale", type=float, dest="spike_scale")


def resolve_config(
    args: argparse.Namespace, base: PipelineConfig | None = None
) -> PipelineConfig:
    """The --config snapshot (else base, else the defaults) with explicit flags on top."""
    if getattr(args, "config", None):
        cfg = PipelineConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        cfg = base if base is not None else PipelineConfig()
    overrides = {}
    for name in PipelineConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return cfg.with_overrides(**overrides)


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_config_snapshot(cfg: PipelineConfig, out: Path) -> None:
    out.joinpath("config.json").write_text(json.dumps(cfg.to_dict(), sort_keys=True, indent=1))


def _routing_rows(alphas: np.ndarray, sparse: np.ndarray) -> list[dict]:
    rows = []
    for i in range(alphas.shape[0]):
        row: dict = {"window": i}
        for e in range(alphas.shape[1]):
            row[f"alpha{e}"] = float(alphas[i, e])
        row["chosen"] = "+".join(str(e) for e in np.flatnonzero(sparse[i] > 0.0))
        rows.append(row)
    return rows


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = resolve_config(args).with_overrides(data_path=None)
    out = _outdir(args)
    series = load_series(cfg)
    write_rows_csv([{"value": float(v)} for v in series.values], out / "series.csv")
    write_config_snapshot(cfg, out)
    print(f"wrote {len(series)} points to {out / 'series.csv'}")
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    data = prepare_data(cfg)
    write_rows_csv(
        [
            {
                "t_moderate": data.thresholds.t_moderate,
                "t_very": data.thresholds.t_very,
                "t_extreme": data.thresholds.t_extreme,
            }
        ],
        out / "thresholds.csv",
    )
    rows = []
    summary = []
    index = 0
    for split_name, split in (("train", data.train), ("val", data.val), ("test", data.test)):
        levels = label_points(split.values, data.thresholds)
        counts = np.bincount(levels, minlength=len(LEVEL_KEYS))
        fractions = (f"{LEVEL_KEYS[lev]}={c} ({c / len(levels):.4f})" for lev, c in zip(RarityLevel, counts))
        summary.append(f"{split_name}: {' '.join(fractions)}")
        for v, lev in zip(split.values, levels):
            rows.append(
                {
                    "index": index,
                    "split": split_name,
                    "value": float(v),
                    "level": LEVEL_KEYS[RarityLevel(int(lev))],
                }
            )
            index += 1
    write_rows_csv(rows, out / "labels.csv")
    write_config_snapshot(cfg, out)
    print(
        f"thresholds: moderate>{data.thresholds.t_moderate:.6g} "
        f"very>{data.thresholds.t_very:.6g} extreme>{data.thresholds.t_extreme:.6g}"
    )
    print("\n".join(summary))
    print(
        f"train windows support at most {max_experts(data.train_windows.window_levels)} "
        "experts (--experts)"
    )
    return 0


def cmd_train_experts(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    data = prepare_data(cfg)
    tp, chain = train_pipeline(data, cfg, train_router_too=False)
    save_bundle(tp, out / "bundle.json")
    for level, curve in chain.curves.items():
        write_rows_csv(curve, out / f"curve_expert{level}.csv")
    write_config_snapshot(cfg, out)
    counts = ", ".join(f"level{c}={n}" for c, n in sorted(chain.counts.items()))
    print(f"trained {len(tp.experts)} experts ({counts}); bundle at {out / 'bundle.json'}")
    return 0


def cmd_train_router(args: argparse.Namespace) -> int:
    tp = load_bundle(args.bundle)
    cfg = resolve_config(args, base=tp.config)
    out = _outdir(args)
    data = prepare_data(cfg, normalizer=tp.normalizer, thresholds=tp.thresholds)
    router, curve = train_router(tp.experts, data.train_windows, cfg)
    tp = dataclasses.replace(tp, router=router, config=cfg)
    save_bundle(tp, out / "bundle.json")
    write_rows_csv(curve, out / "curve_router.csv")
    write_config_snapshot(cfg, out)
    print(f"router trained (k={router.k}); bundle at {out / 'bundle.json'}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    tp = load_bundle(args.bundle)
    if tp.router is None:
        raise ValueError("predict: bundle has no router, run train-router first")
    if args.data_column is None and tp.config.data_column is None:
        raise ValueError("predict: --column is required when the bundle has no CSV column")
    cfg = resolve_config(args, base=tp.config)  # this run's series and k on the bundle's model
    out = _outdir(args)
    series = load_csv(cfg.data_path, cfg.data_column, cfg.delimiter)
    values = tp.normalizer.apply(series.values)
    t, h = cfg.history_len, cfg.horizon
    if len(values) < t:
        raise ValueError(f"predict: need at least {t} points, got {len(values)}")
    first, stride = (0, cfg.stride) if args.all_windows else (len(values) - t, 1)
    hist = np.ascontiguousarray(window_view(values[first:], t, stride))
    starts = range(first, len(values) - t + 1, stride)
    preds, alphas, sparse = pipeline_predict_batch(tp.experts, tp.router, hist, k=cfg.k)
    preds = tp.normalizer.invert(preds)
    rows = []
    for s, p in zip(starts, preds):
        row = {"start": s}
        row.update({f"step_{j + 1}": float(p[j]) for j in range(h)})
        rows.append(row)
    write_rows_csv(rows, out / "forecast.csv")
    if args.routing_out:
        write_rows_csv(_routing_rows(alphas, sparse), out / args.routing_out)
    write_config_snapshot(cfg, out)
    print(f"wrote {len(rows)} forecast rows of width {h} to {out / 'forecast.csv'}")
    return 0


_LEVEL_BY_KEY = {key: level for level, key in LEVEL_KEYS.items()}
_ASSERT_RE = re.compile(
    rf"^(overall|{'|'.join(_LEVEL_BY_KEY)})\.(mse|mae)(<=|>=|<|>)"
    r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)$"
)


def _parse_assertion(expr: str) -> tuple[str, ...]:
    m = _ASSERT_RE.match(expr.replace(" ", ""))
    if not m:
        raise ValueError(f"evaluate: cannot parse assertion {expr!r}")
    return m.groups()


def check_assertion(report, expr: str) -> tuple[bool, str]:
    level_key, metric, op, bound = _parse_assertion(expr)
    if level_key == "overall":
        lm = report.overall
    else:
        lm = report.get(_LEVEL_BY_KEY[level_key])
        if lm is None:
            return False, f"{expr}: level {level_key} has no points"
    value = getattr(lm, metric)
    bound_f = float(bound)
    ok = {"<=": value <= bound_f, ">=": value >= bound_f, "<": value < bound_f, ">": value > bound_f}[op]
    return ok, f"{expr}: {level_key}.{metric}={value:.6g} {'ok' if ok else 'FAILED'}"


# Besides the series (its file or seed and length), evaluate may change only
# the window stride and the fusion arity; every other field is the model's.
_EVALUATE_FREE = {"data_path", "data_column", "delimiter", "synth_n", "spike_rate", "spike_scale",
                  "seed", "stride", "k"}


def cmd_evaluate(args: argparse.Namespace) -> int:
    for expr in args.assertions or []:
        _parse_assertion(expr)  # a malformed assertion fails before any work
    tp = load_bundle(args.bundle)
    if tp.router is None:
        raise ValueError("evaluate: bundle has no router, run train-router first")
    cfg = resolve_config(args, base=tp.config)
    for name in PipelineConfig.__dataclass_fields__:
        ours, theirs = getattr(cfg, name), getattr(tp.config, name)
        if name not in _EVALUATE_FREE and ours != theirs:
            flag = {"n_bands": "bands", "n_experts": "experts"}.get(name, name.replace("_", "-"))
            flag = f"--{flag}" if getattr(args, name, None) is not None else "--config"
            raise ValueError(
                f"evaluate: {flag} sets {name}={ours!r}, which contradicts the bundle's {name}={theirs!r}"
            )
    out = _outdir(args)
    data = prepare_data(cfg, normalizer=tp.normalizer, thresholds=tp.thresholds)
    preds, alphas, sparse = predict_windows(tp, data.test_windows, k=cfg.k)
    targets = data.test_windows.targets
    if args.raw:
        preds = tp.normalizer.invert(preds)
        targets = tp.normalizer.invert(targets)
        thresholds = _raw_thresholds(tp)
    else:
        thresholds = tp.thresholds
    report = evaluate(preds, targets, thresholds)
    rows = report_rows(report)
    write_rows_csv(rows, out / "metrics.csv")
    if args.routing_out:
        write_rows_csv(_routing_rows(alphas, sparse), out / args.routing_out)
    write_config_snapshot(cfg, out)
    print(format_table(rows))
    failures = 0
    for expr in args.assertions or []:
        ok, msg = check_assertion(report, expr)
        print(msg)
        failures += 0 if ok else 1
    return 1 if failures else 0


def _raw_thresholds(tp: TrainedPipeline) -> RarityThresholds:
    return RarityThresholds(*tp.normalizer.invert(np.asarray(tp.thresholds.as_tuple())).tolist())


def _parse_list(text: str, kind: type, what: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated {kind.__name__}s, got {text!r}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    """sweep-beta, sweep-k and ablate: the rows of every cell, and the failed cells apart."""
    cfg = resolve_config(args)
    if args.command == "sweep-beta":
        grid = _parse_list(args.betas, float, "sweep-beta: --betas") if args.betas else BETA_SWEEP
        stem, run = "sweep_beta", sweep_beta
    elif args.command == "sweep-k":
        grid = _parse_list(args.ks, int, "sweep-k: --ks") if args.ks else None
        stem, run = "sweep_k", sweep_k
    else:
        grid = TABLE_PRESETS
        if args.components is not None:
            enabled = frozenset(args.components.upper().split("+")) - {"", "NONE"}
            ablate_config(cfg, enabled)  # unknown components fail before any work
            grid = (enabled,)
        stem, run = "ablation", ablation_table
    result = run(prepare_data(cfg), cfg, grid)
    out = _outdir(args)
    write_config_snapshot(cfg, out)
    if result.errors:
        write_rows_csv(result.errors, out / f"{stem}_errors.csv")
        for err in result.errors:
            cell = " ".join(f"{name}={value}" for name, value in err.items() if name != "error")
            print(f"{cell}: {err['error']}", file=sys.stderr)
    if not result.rows:
        raise RuntimeError(f"{args.command}: every cell failed; see {out / f'{stem}_errors.csv'}")
    write_rows_csv(result.rows, out / f"{stem}.csv")
    print(format_table(result.rows))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    data = prepare_data(cfg)
    report, tp = run_once(data, cfg)
    base = train_baseline(data, cfg)
    base_preds = baseline_predict(base, data.test_windows)
    base_report = evaluate(base_preds, data.test_windows.targets, data.thresholds)

    write_rows_csv(report_rows(report), out / "metrics.csv")
    write_rows_csv(report_rows(base_report), out / "metrics_baseline.csv")
    save_bundle(tp, out / "bundle.json")
    write_config_snapshot(cfg, out)

    lines = [f"seed {cfg.seed}: full pipeline vs single-band MSE baseline"]
    extreme = RarityLevel.EXTREME_RARE
    pairs = [
        ("overall", report.overall, base_report.overall),
        (LEVEL_KEYS[extreme], report.get(extreme), base_report.get(extreme)),
    ]
    for key, ours, theirs in pairs:
        if ours is None or theirs is None:
            lines.append(f"  {key:8s} (no points)")
            continue
        verdict = "<=" if ours.mse <= theirs.mse else ">"
        lines.append(
            f"  {key:8s} mse {ours.mse:.6g} vs baseline {theirs.mse:.6g} ({verdict})"
        )
    summary = "\n".join(lines)
    (out / "summary.txt").write_text(summary + "\n")
    print(summary)
    return 0


def cmd_loss_landscape(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    rows = [
        {"delta": d, "level": level, "value": v}
        for d, level, v in loss_landscape_rows(cfg.horizon, args.lo, args.hi, args.steps)
    ]
    write_rows_csv(rows, out / "loss_landscape.csv")
    write_config_snapshot(cfg, out)
    print(f"wrote {len(rows)} rows to {out / 'loss_landscape.csv'}")
    return 0


def cmd_ewt_dump(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    out = _outdir(args)
    data = prepare_data(cfg)
    bank = fit_global_bank(data.train, cfg)
    freqs = ewt.bin_frequencies(bank.n_bins)
    rows = [
        {"bin": j, "omega": float(freqs[j])}
        | {f"gain_band{b + 1}": float(g) for b, g in enumerate(bank.filters[:, j])}
        for j in range(bank.n_bins)
    ]
    write_rows_csv(rows, out / "filters.csv")
    write_config_snapshot(cfg, out)
    edges = ", ".join(f"{w:.6g}" for w in bank.boundaries.omegas)
    print(f"boundaries (rad): {edges}\nfilters at {out / 'filters.csv'}")
    return 0


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rarecast",
        description="Rarity-aware forecasting with spectral-band experts and top-k fusion",
    )
    logs = argparse.ArgumentParser(add_help=False)
    logs.add_argument(
        "-v", action="store_const", const="INFO", dest="log_level",
        help="show progress messages (same as --log-level info)",
    )
    logs.add_argument(
        "--log-level", type=str.upper, choices=LOG_LEVELS,
        help="rarecast log messages shown on stderr (default: warning)",
    )
    logs.set_defaults(log_level="WARNING")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("synth", cmd_synth, "generate the synthetic benchmark series", True),
        ("label", cmd_label, "fit thresholds and label every point", True),
        ("train-experts", cmd_train_experts, "train the expert chain", True),
        ("sweep-beta", cmd_sweep, "train once per distillation weight", True),
        ("sweep-k", cmd_sweep, "train once, evaluate every fusion arity", True),
        ("ablate", cmd_sweep, "toggle WT/RP/KD components", True),
        ("reproduce", cmd_reproduce, "end-to-end seeded run with baseline comparison", True),
        ("loss-landscape", cmd_loss_landscape, "export penalty values over an error grid", False),
        ("ewt-dump", cmd_ewt_dump, "export detected boundaries and filter gains", True),
    ]
    for name, fn, help_text, with_data in specs:
        p = sub.add_parser(name, help=help_text, parents=[logs])
        _add_common(p, data=with_data)
        p.set_defaults(fn=fn)

    p = sub.add_parser("train-router", help="train the gate on a saved expert bundle", parents=[logs])
    p.add_argument("--bundle", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--router-epochs", type=int, dest="router_epochs")
    p.add_argument("--out", default="rarecast-out")
    p.set_defaults(fn=cmd_train_router)

    p = sub.add_parser("predict", help="forecast from a saved bundle and a CSV", parents=[logs])
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", dest="data_path", required=True)
    p.add_argument("--column", dest="data_column")
    p.add_argument("--delimiter")
    p.add_argument("--k", type=int)
    p.add_argument("--all-windows", action="store_true", dest="all_windows")
    p.add_argument("--routing-out", dest="routing_out")
    p.add_argument("--out", default="rarecast-out")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="test-split metrics for a saved bundle", parents=[logs])
    p.add_argument("--bundle", required=True)
    _add_common(p, data=True)
    p.add_argument("--raw", action="store_true", help="report errors in raw units")
    p.add_argument("--routing-out", dest="routing_out")
    p.add_argument(
        "--assert", dest="assertions", action="append",
        help="e.g. overall.mse<=0.5 (repeatable; nonzero exit on failure)",
    )
    p.set_defaults(fn=cmd_evaluate)

    sub.choices["sweep-beta"].add_argument("--betas", help="comma-separated sweep values")
    sub.choices["sweep-k"].add_argument("--ks", help="comma-separated k values")
    sub.choices["ablate"].add_argument(
        "--components", help="single cell, e.g. WT+RP or none (default: full table preset)"
    )
    ll = sub.choices["loss-landscape"]
    ll.add_argument("--lo", type=float, default=-5.0)
    ll.add_argument("--hi", type=float, default=5.0)
    ll.add_argument("--steps", type=int, default=201)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The handler lives for this call only, so repeated in-process runs do not stack them.
    logger = logging.getLogger("rarecast")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001, the CLI boundary reports and exits
        module = type(exc).__module__
        qualifier = f" [{module}]" if module not in ("builtins", None) else ""
        print(f"error{qualifier}: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


if __name__ == "__main__":
    sys.exit(main())
