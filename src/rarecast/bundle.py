"""Model persistence: a versioned JSON container with a content checksum.

Arrays are stored as nested lists of full-precision floats (repr round-trips
a float64 exactly), so save, load, save again produces identical bytes. The
checksum covers the canonical payload encoding; any corruption, a format
version this code does not know, or a payload whose shapes disagree with its
own config is a hard error.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import backbone as bb
from .config import PipelineConfig
from .dataset import Normalizer, RarityThresholds
from .ewt import Boundaries, FilterBank
from .expert import ExpertModel
from .pipeline import TrainedPipeline
from .router import Router

FORMAT_VERSION = 1


class BundleError(ValueError):
    """A model file that cannot be trusted or understood."""


def _arr(a: np.ndarray) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def _forecaster_dict(model: bb.Forecaster) -> dict:
    return {
        "kind": model.kind,
        "input_len": model.input_len,
        "output_len": model.output_len,
        "hidden": model.hidden,
        "params": {k: _arr(v) for k, v in sorted(model.params.items())},
    }


def _forecaster_from(d: dict) -> bb.Forecaster:
    model = bb.Forecaster(
        kind=d["kind"],
        input_len=int(d["input_len"]),
        output_len=int(d["output_len"]),
        hidden=int(d["hidden"]),
        params={k: np.asarray(v, dtype=np.float64) for k, v in d["params"].items()},
    )
    template = bb.make_forecaster(model.kind, model.input_len, model.output_len, model.hidden)
    shapes = {k: v.shape for k, v in model.params.items()}
    if shapes != {k: v.shape for k, v in template.params.items()}:
        raise ValueError(f"{model.kind} forecaster parameter shapes {shapes} do not match its dimensions")
    return model


def _bank_dict(bank: FilterBank | None) -> dict | None:
    if bank is None:
        return None
    return {
        "filters": _arr(bank.filters),
        "omegas": _arr(bank.boundaries.omegas),
        "gamma": bank.gamma,
    }


def _bank_from(d: dict | None) -> FilterBank | None:
    if d is None:
        return None
    return FilterBank(
        filters=np.asarray(d["filters"], dtype=np.float64),
        boundaries=Boundaries(np.asarray(d["omegas"], dtype=np.float64)),
        gamma=float(d["gamma"]),
    )


def _expert_dict(e: ExpertModel) -> dict:
    return {
        "level": e.level,
        "n_bands": e.n_bands,
        "mode": e.mode,
        "gamma": e.gamma,
        "bank": _bank_dict(e.bank),
        "backbones": [_forecaster_dict(m) for m in e.backbones],
    }


def _expert_from(d: dict) -> ExpertModel:
    return ExpertModel(
        level=int(d["level"]),
        n_bands=int(d["n_bands"]),
        backbones=[_forecaster_from(m) for m in d["backbones"]],
        mode=d["mode"],
        bank=_bank_from(d["bank"]),
        gamma=None if d["gamma"] is None else float(d["gamma"]),
    )


def _payload(tp: TrainedPipeline) -> dict:
    return {
        "config": tp.config.to_dict(),
        "normalizer": {"mean": tp.normalizer.mean, "std": tp.normalizer.std},
        "thresholds": list(tp.thresholds.as_tuple()),
        "experts": [_expert_dict(e) for e in tp.experts],
        "router": None
        if tp.router is None
        else {
            "k": tp.router.k,
            "n_experts": tp.router.n_experts,
            "horizon": tp.router.horizon,
            "gate": _forecaster_dict(tp.router.gate),
        },
    }


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _reject_constant(literal: str) -> float:
    """Python's json reads NaN and Infinity, which JSON itself has no spelling for."""
    raise ValueError(f"{literal} is not a JSON number")


def save_bundle(tp: TrainedPipeline, path: str | Path) -> None:
    """Write the document {checksum, format_version, payload}, keys sorted, compact.

    The payload is encoded once: its canonical text is both what the
    checksum covers and, spliced in verbatim, the document's payload.
    """
    body = _canonical(_payload(tp))
    checksum = hashlib.sha256(body.encode()).hexdigest()
    head = f'{{"checksum":"{checksum}","format_version":{FORMAT_VERSION},"payload":'
    Path(path).write_text(head + body + "}")


def load_bundle(path: str | Path) -> TrainedPipeline:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"load_bundle: no such file: {path}")
    try:
        doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:  # a JSONDecodeError, or a NaN/Infinity literal
        raise BundleError(f"load_bundle: {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BundleError(f"load_bundle: {path} is not a bundle (top level is not an object)")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleError(
            f"load_bundle: {path} has format version {version!r}, this build reads {FORMAT_VERSION}"
        )
    payload = doc.get("payload")
    stored = doc.get("checksum")
    actual = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    if stored != actual:
        raise BundleError(f"load_bundle: checksum mismatch in {path}, file is corrupted")
    try:
        return _pipeline_from(payload)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise BundleError(f"load_bundle: malformed payload in {path}: {reason}") from exc


def _pipeline_from(payload: dict) -> TrainedPipeline:
    """Rebuild a pipeline, checking every model's shape against the payload's config."""
    cfg = PipelineConfig.from_dict(payload["config"])
    experts = [_expert_from(e) for e in payload["experts"]]
    if len(experts) != cfg.n_experts:
        raise ValueError(f"{len(experts)} experts, config says n_experts={cfg.n_experts}")
    # Inference decomposes once, with the first expert's settings, for every expert.
    first = experts[0]
    for e in experts:
        dims = (e.n_bands, e.history_len, e.horizon)
        if dims != (cfg.n_bands, cfg.history_len, cfg.horizon):
            raise ValueError(
                f"expert {e.level} has (n_bands, input_len, output_len) = {dims}, config says "
                f"{(cfg.n_bands, cfg.history_len, cfg.horizon)}"
            )
        if (e.mode, e.gamma) != (cfg.mode, cfg.gamma):
            raise ValueError(
                f"expert {e.level} has (mode, gamma) = {(e.mode, e.gamma)}, config says "
                f"{(cfg.mode, cfg.gamma)}"
            )
        if cfg.mode == "global" and _bank_dict(e.bank) != _bank_dict(first.bank):
            raise ValueError(
                f"expert {e.level}'s filter bank differs from expert {first.level}'s; "
                "global mode decomposes with one bank"
            )
    bank_shape = (cfg.n_bands, cfg.history_len // 2 + 1)
    if cfg.mode == "global" and first.bank.filters.shape != bank_shape:
        raise ValueError(
            f"the global filter bank has shape {first.bank.filters.shape}, config needs {bank_shape}"
        )
    router = None
    if payload["router"] is not None:
        r = payload["router"]
        router = Router(
            gate=_forecaster_from(r["gate"]),
            n_experts=int(r["n_experts"]),
            horizon=int(r["horizon"]),
            k=int(r["k"]),
        )
        if (router.horizon, router.n_experts) != (cfg.horizon, cfg.n_experts):
            raise ValueError(
                f"router has (horizon, n_experts) = {(router.horizon, router.n_experts)}, "
                f"config says {(cfg.horizon, cfg.n_experts)}"
            )
    th = payload["thresholds"]
    return TrainedPipeline(
        experts=experts,
        router=router,
        normalizer=Normalizer(**payload["normalizer"]),
        thresholds=RarityThresholds(float(th[0]), float(th[1]), float(th[2])),
        config=cfg,
    )
