"""Model persistence: a versioned JSON container with a content checksum.

Format 2: the payload holds `config`, `normalizer`, `thresholds`, one filter
`bank` (null in per_window mode), `experts` (per expert, in level order, a
list of per-band parameter dicts, one per model of its stack) and `router`
(the gate's parameter dict, or null). The config is the only copy of a
setting: load rebuilds every expert's stack and the gate from it, and each
stored parameter dict must match the names and shapes the config gives one
model.

Arrays are stored as nested lists of full-precision floats (repr round-trips
a float64 exactly), so save, load, save again produces identical bytes. The
checksum covers the canonical payload encoding; any corruption, a format
version this code does not read (format-1 bundles must be retrained), or
parameters whose shapes disagree with the config is a hard error.
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

FORMAT_VERSION = 2


class BundleError(ValueError):
    """A model file that cannot be trusted or understood."""


def _arr(a: np.ndarray) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def _params(stack: bb.ForecasterStack, b: int) -> dict:
    """Model b's parameter dict, as stored."""
    return {k: _arr(v[b]) for k, v in stack.params.items()}


def _arrays(params: dict, want: dict[str, tuple[int, ...]], what: str) -> dict[str, np.ndarray]:
    """The stored parameters as arrays, which must match the names and shapes the config needs."""
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    shapes = {k: v.shape for k, v in arrays.items()}
    if shapes != want:
        raise ValueError(f"{what} has parameter shapes {shapes}, config needs {want}")
    return arrays


def _bank_dict(bank: FilterBank | None) -> dict | None:
    if bank is None:
        return None
    return {"filters": _arr(bank.filters), "omegas": _arr(bank.boundaries.omegas), "gamma": bank.gamma}


def _bank_from(d: dict | None) -> FilterBank | None:
    if d is None:
        return None
    return FilterBank(
        filters=np.asarray(d["filters"], dtype=np.float64),
        boundaries=Boundaries(np.asarray(d["omegas"], dtype=np.float64)),
        gamma=float(d["gamma"]),
    )


def _payload(tp: TrainedPipeline) -> dict:
    return {
        "config": tp.config.to_dict(),
        "normalizer": {"mean": tp.normalizer.mean, "std": tp.normalizer.std},
        "thresholds": list(tp.thresholds.as_tuple()),
        # Inference decomposes once, with the first expert's bank, for every expert.
        "bank": _bank_dict(tp.experts[0].bank),
        "experts": [[_params(e.stack, b) for b in range(e.n_bands)] for e in tp.experts],
        "router": None if tp.router is None else _params(tp.router.gate, 0),
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
    """Rebuild a pipeline from its config, checking every stored parameter against it."""
    cfg = PipelineConfig.from_dict(payload["config"])
    if len(payload["experts"]) != cfg.n_experts:
        raise ValueError(f"{len(payload['experts'])} experts, config says n_experts={cfg.n_experts}")
    bank = _bank_from(payload["bank"])
    if cfg.mode == "global" and bank is None:
        raise ValueError("global mode requires a filter bank, the payload stores none")
    if cfg.mode == "per_window" and bank is not None:
        raise ValueError("per_window mode builds a bank per window, the payload stores one")
    want = bb.param_shapes(cfg.backbone, cfg.history_len, cfg.horizon)
    experts = []
    for level, bands in enumerate(payload["experts"]):
        if len(bands) != cfg.n_bands:
            raise ValueError(
                f"expert {level} stores {len(bands)} band backbones, "
                f"config n_bands={cfg.n_bands} needs one backbone per band"
            )
        arrays = [_arrays(p, want, f"expert {level} band {b}") for b, p in enumerate(bands)]
        experts.append(ExpertModel(
            level=level, stack=bb.stack_params(cfg.backbone, arrays), bank=bank, gamma=cfg.gamma,
        ))
    bank_shape = (cfg.n_bands, cfg.history_len // 2 + 1)
    if bank is not None and bank.filters.shape != bank_shape:
        raise ValueError(
            f"the global filter bank has shape {bank.filters.shape}, config needs {bank_shape}"
        )
    router = None
    if payload["router"] is not None:
        gate_want = bb.param_shapes("linear", cfg.horizon * cfg.n_experts, cfg.n_experts)
        gate = bb.stack_params("linear", [_arrays(payload["router"], gate_want, "the gate")])
        router = Router(gate=gate, k=cfg.k)
    th = payload["thresholds"]
    return TrainedPipeline(
        experts=experts,
        router=router,
        normalizer=Normalizer(**payload["normalizer"]),
        thresholds=RarityThresholds(float(th[0]), float(th[1]), float(th[2])),
        config=cfg,
    )
