"""Bundle persistence and the command line surface."""

import copy
import hashlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rarecast import cli, evaluation
from rarecast.bundle import FORMAT_VERSION, BundleError, _canonical, load_bundle, save_bundle
from rarecast.config import PipelineConfig
from rarecast.dataset import load_csv
from rarecast.ewt import Boundaries, build_filter_bank
from rarecast.evaluation import LEVEL_KEYS
from rarecast.pipeline import TrainedPipeline, load_series, predict_windows, train_pipeline
from rarecast.router import pipeline_predict_batch


# ------------------------------------------------------------------- bundles


def test_bundle_roundtrip_is_bitwise(tiny_pipeline, tiny_data, tmp_path):
    tp, _ = tiny_pipeline
    path = tmp_path / "bundle.json"
    save_bundle(tp, path)
    tp2 = load_bundle(path)
    assert tp2.config == tp.config
    assert tp2.thresholds == tp.thresholds
    assert tp2.normalizer == tp.normalizer
    assert tp2.router.k == tp.router.k
    wins = tiny_data.test_windows[:40]
    a, _, _ = predict_windows(tp, wins)
    b, _, _ = predict_windows(tp2, wins)
    np.testing.assert_array_equal(a, b)


def test_bundle_save_is_byte_deterministic(tiny_pipeline, tmp_path):
    tp, _ = tiny_pipeline
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    save_bundle(tp, a)
    save_bundle(tp, b)
    assert a.read_bytes() == b.read_bytes()
    save_bundle(load_bundle(a), c)  # load/save round trip keeps the bytes
    assert a.read_bytes() == c.read_bytes()


def test_bundle_text_is_the_sorted_compact_dump_of_the_document(tiny_pipeline, tmp_path):
    # save_bundle splices the canonical payload text into the document rather
    # than encoding the payload a second time; the bytes must not change.
    tp, _ = tiny_pipeline
    path = tmp_path / "bundle.json"
    save_bundle(tp, path)
    payload = json.loads(path.read_text())["payload"]
    checksum = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    doc = {"format_version": FORMAT_VERSION, "checksum": checksum, "payload": payload}
    want = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    assert path.read_text() == want


FIXTURES = Path(__file__).parent / "data"

# Config fields that earlier builds stored, each with the one value this build
# implements (loaded as if absent) and a value that would select a removed path.
# The accepted source is the one data_path implies, "synth" in every config below.
RETIRED = [
    ("level_scope", "exact", "cumulative"),
    ("class_weights", True, False),
    ("gate_hidden", 0, 4),
    ("router_lr", 1e-3, 1e-2),
    ("percentiles", [90.0, 95.0, 99.0], [80.0, 95.0, 99.0]),
    ("hidden", 32, 64),
    ("lr", 1e-3, 1e-2),
    ("batch_size", 128, 64),
    ("source", "synth", "csv"),
]
RETIRED_NAMES = [name for name, _, _ in RETIRED]


def test_recorded_format_2_bundle_loads_resaves_and_forecasts_bitwise(tmp_path):
    """A format-2 bundle recorded by an earlier build still reads the same.

    bundle_v2.json is save_bundle of train_pipeline at PipelineConfig(synth_n=4000,
    history_len=16, horizon=4, n_bands=2, epochs=1); bundle_v2_forecasts.json holds
    8 test-split windows (rows 0, 54, ..., 380, evenly spaced) and their
    predict_windows forecasts from that build. That build's config also stored
    the retired fields, at the values this build implements; a re-save drops
    exactly those and keeps every other byte of the payload.
    """
    src = FIXTURES / "bundle_v2.json"
    recorded = json.loads((FIXTURES / "bundle_v2_forecasts.json").read_text())
    tp = load_bundle(src)
    hist = np.array(recorded["histories"])
    preds, _, _ = pipeline_predict_batch(tp.experts, tp.router, hist)
    np.testing.assert_array_equal(preds, np.array(recorded["forecasts"]))

    again, twice = tmp_path / "again.json", tmp_path / "twice.json"
    save_bundle(tp, again)
    want = json.loads(src.read_text())["payload"]
    resaved = json.loads(again.read_text())["payload"]
    assert set(want["config"]) - set(resaved["config"]) == set(RETIRED_NAMES)
    for name in RETIRED_NAMES:
        del want["config"][name]
    assert _canonical(resaved) == _canonical(want)
    save_bundle(load_bundle(again), twice)
    assert twice.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("name, accepted, rejected", RETIRED, ids=RETIRED_NAMES)
def test_bundle_retired_config_field_loads_only_at_the_implemented_value(
    tiny_pipeline, tmp_path, name, accepted, rejected
):
    tp, _ = tiny_pipeline
    payload = _saved_payload(tp, tmp_path)
    path = tmp_path / "old.json"
    payload["config"][name] = accepted
    _write_payload(path, payload)
    assert load_bundle(path).config == tp.config
    payload["config"][name] = rejected
    _write_payload(path, payload)
    with pytest.raises(BundleError, match=re.escape(f"config: {name}={rejected!r} is no longer supported")):
        load_bundle(path)


def test_bundle_without_router(tiny_pipeline, tmp_path):
    tp, _ = tiny_pipeline
    bare = TrainedPipeline(
        experts=tp.experts, router=None, normalizer=tp.normalizer,
        thresholds=tp.thresholds, config=tp.config,
    )
    path = tmp_path / "experts.json"
    save_bundle(bare, path)
    assert load_bundle(path).router is None


def test_bundle_rejects_corruption(tiny_pipeline, tmp_path):
    tp, _ = tiny_pipeline
    path = tmp_path / "bundle.json"
    save_bundle(tp, path)
    doc = json.loads(path.read_text())
    doc["payload"]["thresholds"][0] += 1e-9
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    with pytest.raises(BundleError, match="checksum mismatch"):
        load_bundle(path)


def test_bundle_rejects_unknown_version(tiny_pipeline, tmp_path):
    # Format 1 stored a copy of the config's settings on every expert and the
    # router; this build reads only format 2, and a format-1 bundle is retrained.
    tp, _ = tiny_pipeline
    path = tmp_path / "bundle.json"
    save_bundle(tp, path)
    doc = json.loads(path.read_text())
    for version in (1, 99):
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(BundleError, match=f"has format version {version}, this build reads 2"):
            load_bundle(path)


@pytest.mark.parametrize("mode", ["per_window", "global"])
def test_bundle_stores_weights_only_and_rebuilds_settings_from_config(tiny_data, tiny_cfg, tmp_path, mode):
    cfg = tiny_cfg.with_overrides(mode=mode, k=1, epochs=1, router_epochs=1)
    tp, _ = train_pipeline(tiny_data, cfg)
    path = tmp_path / "bundle.json"
    save_bundle(tp, path)
    payload = json.loads(path.read_text())["payload"]
    assert set(payload) == {"config", "normalizer", "thresholds", "bank", "experts", "router"}
    assert (payload["bank"] is None) == (mode == "per_window")
    assert [len(bands) for bands in payload["experts"]] == [cfg.n_bands] * cfg.n_experts
    for params in [p for bands in payload["experts"] for p in bands] + [payload["router"]]:
        assert set(params) == {"w", "b"}  # arrays only: no level, mode, gamma, bank, k, kind, hidden

    tp2 = load_bundle(path)
    assert tp2.router.k == cfg.k == 1
    assert (tp2.router.horizon, tp2.router.n_experts) == (cfg.horizon, cfg.n_experts)
    assert [e.level for e in tp2.experts] == list(range(cfg.n_experts))
    for e in tp2.experts:
        assert (e.n_bands, e.mode, e.gamma) == (cfg.n_bands, cfg.mode, cfg.gamma)
        assert e.bank is tp2.experts[0].bank
        assert e.stack.kind == cfg.backbone
    wins = tiny_data.test_windows[:40]
    np.testing.assert_array_equal(predict_windows(tp, wins)[0], predict_windows(tp2, wins)[0])

    # the config is the only copy of k: editing it changes the loaded router
    payload["config"]["k"] = 2
    _write_payload(path, payload)
    assert load_bundle(path).router.k == 2


def _write_payload(path, payload) -> None:
    """A bundle file around payload with a valid checksum."""
    checksum = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    path.write_text(json.dumps({"format_version": FORMAT_VERSION, "checksum": checksum, "payload": payload}))


def _saved_payload(tp, tmp_path) -> dict:
    path = tmp_path / "good.json"
    save_bundle(tp, path)
    return json.loads(path.read_text())["payload"]


def test_bundle_rejects_malformed_payload_with_valid_checksum(tiny_pipeline, tmp_path):
    tp, _ = tiny_pipeline
    good = _saved_payload(tp, tmp_path)
    no_thresholds = copy.deepcopy(good)
    del no_thresholds["thresholds"]
    ragged = copy.deepcopy(good)
    ragged["experts"][0][1]["w"][0].append(0.0)
    path = tmp_path / "bad.json"
    for name, payload in [
        ("null", None), ("empty", {}), ("list", []), ("no thresholds", no_thresholds),
        ("ragged weights", ragged),
    ]:
        _write_payload(path, payload)
        with pytest.raises(BundleError, match="malformed payload"):
            load_bundle(path)
    path.write_text("[1, 2]")
    with pytest.raises(BundleError, match="not a bundle"):
        load_bundle(path)


def _bank(n_bins: int) -> dict:
    """A stored two-band filter bank over n_bins frequency bins."""
    bank = build_filter_bank(Boundaries(np.array([0.0, 1.0, np.pi])), n_bins)
    return {"filters": bank.filters.tolist(), "omegas": bank.boundaries.omegas.tolist(), "gamma": bank.gamma}


def _resize_gate(p: dict, n_out: int, n_in: int) -> None:
    """Cut the stored linear gate down to an (n_out, n_in) weight."""
    p["router"]["w"] = [row[:n_in] for row in p["router"]["w"][:n_out]]
    p["router"]["b"] = p["router"]["b"][:n_out]


# The tiny payload: 3 experts of 2 linear bands over 32-step histories and
# 8-step horizons, per_window mode, and a linear gate.
MISMATCHES = {
    "config_n_bands": (lambda p: p["config"].update(n_bands=3), "backbone per band"),
    "config_history_len": (lambda p: p["config"].update(history_len=40), "band 0 has parameter shapes"),
    "config_horizon": (lambda p: p["config"].update(horizon=4), "band 0 has parameter shapes"),
    "config_n_experts": (lambda p: p["config"].update(n_experts=2, k=1), "n_experts=2"),
    "config_backbone": (lambda p: p["config"].update(backbone="mlp"), "band 0 has parameter shapes"),
    "config_mode": (lambda p: p["config"].update(mode="global"), "requires a filter bank"),
    "expert_n_bands": (lambda p: p["experts"][1].pop(), "backbone per band"),
    "backbone_input_len": (
        lambda p: p["experts"][0][1].update(w=[row[:-1] for row in p["experts"][0][1]["w"]]),
        "expert 0 band 1 has parameter shapes",
    ),
    "global_bank_size": (
        lambda p: (p["config"].update(mode="global"), p.update(bank=_bank(9))), "filter bank has shape"
    ),
    "per_window_bank": (lambda p: p.update(bank=_bank(17)), "per_window mode"),
    "router_horizon": (lambda p: _resize_gate(p, 3, 4 * 3), "the gate has parameter shapes"),
    "router_n_experts": (lambda p: _resize_gate(p, 2, 8 * 2), "the gate has parameter shapes"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHES))
def test_bundle_rejects_payload_that_disagrees_with_config(tiny_pipeline, tmp_path, case):
    mutate, message = MISMATCHES[case]
    tp, _ = tiny_pipeline
    payload = _saved_payload(tp, tmp_path)
    mutate(payload)
    path = tmp_path / "bad.json"
    _write_payload(path, payload)
    with pytest.raises(BundleError, match=message):
        load_bundle(path)


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3), st.just([]), st.just({}),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bundle_fuzzed_payloads_load_or_raise_bundle_error(tiny_pipeline, tmp_path, data):
    """Replace or delete one node of a valid payload: loading succeeds or raises BundleError."""
    tp, _ = tiny_pipeline
    payload = _saved_payload(tp, tmp_path)
    node, key = payload, None
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            break
        node = child
    if key is not None:
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(_JSON_LEAVES)
    path = tmp_path / "fuzz.json"
    _write_payload(path, payload)
    try:
        load_bundle(path)
    except BundleError:
        pass


def test_bundle_rejects_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BundleError, match="not valid JSON"):
        load_bundle(bad)
    with pytest.raises(FileNotFoundError):
        load_bundle(tmp_path / "nope.json")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_bundle_rejects_non_finite_literals(tiny_pipeline, tmp_path, literal):
    # Python's json reads these non-standard literals; the checksum step used
    # to fail on them with a bare ValueError that did not name the file.
    tp, _ = tiny_pipeline
    path = tmp_path / "bundle.json"
    save_bundle(tp, path)
    doc = json.loads(path.read_text())
    doc["payload"]["thresholds"][0] = float(literal.replace("Infinity", "inf"))
    path.write_text(json.dumps(doc))
    assert literal in path.read_text()
    with pytest.raises(BundleError, match=f"{re.escape(str(path))} is not valid JSON: {literal}"):
        load_bundle(path)


# ----------------------------------------------------------------- assertion


def test_check_assertion_parsing():
    from rarecast.dataset import RarityThresholds
    from rarecast.evaluation import evaluate

    report = evaluate(np.array([0.5, 0.0]), np.array([0.0, 0.0]),
                      RarityThresholds(1.0, 2.0, 3.0))
    ok, msg = cli.check_assertion(report, "overall.mse<=0.2")
    assert ok and "ok" in msg
    ok, _ = cli.check_assertion(report, "overall.mse > 0.2")  # spaces allowed
    assert not ok
    ok, msg = cli.check_assertion(report, "extreme.mse<=1")
    assert not ok and "no points" in msg
    with pytest.raises(ValueError, match="cannot parse"):
        cli.check_assertion(report, "overall.rmse<=1")
    with pytest.raises(ValueError, match="cannot parse"):
        cli.check_assertion(report, "overall.mse==1")


# ----------------------------------------------------------------------- CLI

TINY_FLAGS = [
    "--synth-n", "6000", "--seed", "3", "--history-len", "32", "--horizon", "8",
    "--stride", "2", "--bands", "2", "--experts", "3", "--epochs", "1",
    "--router-epochs", "1", "--backbone", "linear",
    "--spike-rate", "0.02", "--spike-scale", "5.0",
]


def test_cli_synth_train_evaluate_predict_chain(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(synth_dir), "--synth-n", "6000", "--seed", "3"]) == 0
    series_csv = synth_dir / "series.csv"
    assert series_csv.read_text().splitlines()[0] == "value"
    assert len(series_csv.read_text().splitlines()) == 6001
    # the written series parses back to the generated one, bit for bit
    synth_cfg = PipelineConfig.from_dict(json.loads((synth_dir / "config.json").read_text()))
    written = load_csv(series_csv, "value").values
    assert written.tobytes() == load_series(synth_cfg).values.tobytes()

    experts_dir = tmp_path / "experts"
    assert cli.main(["train-experts", "--out", str(experts_dir), *TINY_FLAGS]) == 0
    for name in ("bundle.json", "config.json", "curve_expert0.csv", "curve_expert2.csv"):
        assert (experts_dir / name).exists()

    # the expert-only bundle cannot evaluate or predict yet
    rc = cli.main(["evaluate", "--bundle", str(experts_dir / "bundle.json"),
                   "--out", str(tmp_path / "nope")])
    assert rc == 1
    assert "no router" in capsys.readouterr().err

    routed_dir = tmp_path / "routed"
    assert cli.main(["train-router", "--bundle", str(experts_dir / "bundle.json"),
                     "--router-epochs", "1", "--out", str(routed_dir)]) == 0
    assert (routed_dir / "curve_router.csv").exists()
    bundle = str(routed_dir / "bundle.json")

    eval_dir = tmp_path / "eval"
    assert cli.main(["evaluate", "--bundle", bundle, "--out", str(eval_dir),
                     "--assert", "overall.mse<=100", "--assert", "overall.mae>=0"]) == 0
    lines = (eval_dir / "metrics.csv").read_text().splitlines()
    assert lines[0] == "level,mse,mae,count" and len(lines) == 5
    captured = capsys.readouterr().out
    assert "overall.mse" in captured and "FAILED" not in captured

    assert cli.main(["evaluate", "--bundle", bundle, "--out", str(eval_dir),
                     "--assert", "overall.mse<=0"]) == 1
    assert "FAILED" in capsys.readouterr().out

    pred_dir = tmp_path / "pred"
    assert cli.main(["predict", "--bundle", bundle, "--data", str(series_csv),
                     "--column", "value", "--all-windows",
                     "--routing-out", "routing.csv", "--out", str(pred_dir)]) == 0
    rows = (pred_dir / "forecast.csv").read_text().splitlines()
    assert rows[0] == "start," + ",".join(f"step_{j}" for j in range(1, 9))
    assert len(rows) == 1 + (6000 - 32) // 2 + 1
    routing = (pred_dir / "routing.csv").read_text().splitlines()
    assert routing[0] == "window,alpha0,alpha1,alpha2,chosen"

    rc = cli.main(["predict", "--bundle", bundle, "--data", str(series_csv),
                   "--out", str(pred_dir)])
    assert rc == 1  # synth-trained bundle carries no CSV column name
    assert "--column is required" in capsys.readouterr().err


def test_cli_synth_ignores_a_data_path(tmp_path):
    out = tmp_path / "synth"
    flags = ["--synth-n", "6000", "--seed", "3", "--data", str(tmp_path / "missing.csv"), "--column", "v"]
    assert cli.main(["synth", *flags, "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["data_path"] is None


def test_cli_predict_reads_delimiter_from_bundle(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(synth_dir), "--synth-n", "6000", "--seed", "3"]) == 0
    values = (synth_dir / "series.csv").read_text().splitlines()[1:]
    semi = tmp_path / "semi.csv"
    semi.write_text("t;value\n" + "".join(f"{i};{v}\n" for i, v in enumerate(values)))
    csv_flags = ["--data", str(semi), "--column", "value", "--delimiter", ";"]

    experts_dir = tmp_path / "experts"
    assert cli.main(["train-experts", "--out", str(experts_dir), *TINY_FLAGS, *csv_flags]) == 0
    routed_dir = tmp_path / "routed"
    assert cli.main(["train-router", "--bundle", str(experts_dir / "bundle.json"),
                     "--router-epochs", "1", "--out", str(routed_dir)]) == 0

    # neither --column nor --delimiter: both come from the bundle's config
    pred_dir = tmp_path / "pred"
    rc = cli.main(["predict", "--bundle", str(routed_dir / "bundle.json"),
                   "--data", str(semi), "--out", str(pred_dir)])
    assert rc == 0, capsys.readouterr().err
    assert len((pred_dir / "forecast.csv").read_text().splitlines()) == 2


def test_cli_predict_snapshot_describes_the_run(tiny_pipeline, tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    save_bundle(tiny_pipeline[0], bundle)  # synth-trained, k=2
    series = tmp_path / "series.csv"
    values = np.random.default_rng(0).normal(size=100).tolist()
    series.write_text("t;level\n" + "".join(f"{i};{v!r}\n" for i, v in enumerate(values)))
    flags = ["--bundle", str(bundle), "--data", str(series), "--column", "level", "--delimiter", ";"]

    snapshots = {}
    for k in (None, 1):
        out = tmp_path / f"k{k}"
        assert cli.main(["predict", *flags, *(["--k", str(k)] if k else []), "--out", str(out)]) == 0
        snapshots[k] = json.loads((out / "config.json").read_text())
    assert (snapshots[None]["k"], snapshots[1]["k"]) == (2, 1)
    run = {"data_path": str(series), "data_column": "level", "delimiter": ";"}
    assert {name: snapshots[1][name] for name in run} == run
    assert {**snapshots[1], "k": 2} == snapshots[None]

    # a bad --k is a config error, raised before the CSV is read
    rc = cli.main(["predict", "--bundle", str(bundle), "--data", str(tmp_path / "missing.csv"),
                   "--column", "level", "--k", "4", "--out", str(tmp_path / "bad")])
    assert rc == 1
    assert re.match(r"error: config: k must be in \[1, n_experts=3\]", capsys.readouterr().err)
    assert not (tmp_path / "bad").exists()


def test_cli_evaluate_applies_override_flags_to_bundle_config(tiny_pipeline, tmp_path):
    bundle = tmp_path / "bundle.json"
    save_bundle(tiny_pipeline[0], bundle)
    plain, moved = tmp_path / "plain", tmp_path / "moved"
    assert cli.main(["evaluate", "--bundle", str(bundle), "--out", str(plain)]) == 0
    assert cli.main(["evaluate", "--bundle", str(bundle), "--out", str(moved),
                     "--seed", "7", "--synth-n", "9000"]) == 0
    base = json.loads((plain / "config.json").read_text())
    cfg = json.loads((moved / "config.json").read_text())
    assert (base["seed"], base["synth_n"]) == (3, 6000)
    assert (cfg["seed"], cfg["synth_n"]) == (7, 9000)
    assert {**cfg, "seed": 3, "synth_n": 6000} == base

    def total_count(out):
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        return sum(int(row.split(",")[3]) for row in rows)

    # a longer series gives a longer test split
    assert total_count(moved) > total_count(plain)


def test_cli_evaluate_raw_reports_errors_in_series_units(tiny_pipeline, tmp_path):
    # --raw scores the inverted forecasts against the inverted targets and
    # thresholds: squared errors scale by std**2, absolute errors by std, and
    # every point keeps its level.
    tp = tiny_pipeline[0]
    bundle = tmp_path / "bundle.json"
    save_bundle(tp, bundle)
    rows = {}
    for name, flags in (("normalized", []), ("raw", ["--raw"])):
        out = tmp_path / name
        assert cli.main(["evaluate", "--bundle", str(bundle), *flags, "--out", str(out)]) == 0
        rows[name] = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    std = tp.normalizer.std
    assert std != 1.0
    for (level, mse, mae, count), raw in zip(rows["normalized"], rows["raw"], strict=True):
        assert (raw[0], raw[3]) == (level, count) and int(count) > 0
        assert float(raw[1]) == pytest.approx(std**2 * float(mse), rel=1e-12)
        assert float(raw[2]) == pytest.approx(std * float(mae), rel=1e-12)


def test_cli_evaluate_forecasts_with_the_snapshot_k(tiny_pipeline, tmp_path):
    bundle = tmp_path / "bundle.json"
    save_bundle(tiny_pipeline[0], bundle)  # k=2
    snapshot = tmp_path / "snap.json"
    snapshot.write_text(json.dumps({**tiny_pipeline[0].config.to_dict(), "k": 1}))
    runs = {
        "plain": [],
        "flag": ["--k", "1"],
        "snapshot": ["--config", str(snapshot)],
    }
    for name, flags in runs.items():
        assert cli.main(["evaluate", "--bundle", str(bundle), *flags,
                         "--out", str(tmp_path / name)]) == 0
    metrics = {name: (tmp_path / name / "metrics.csv").read_bytes() for name in runs}
    k = {name: json.loads((tmp_path / name / "config.json").read_text())["k"] for name in runs}
    assert k == {"plain": 2, "flag": 1, "snapshot": 1}
    assert metrics["snapshot"] == metrics["flag"] != metrics["plain"]


def test_cli_verbose_shows_expert_chain_progress(tmp_path, capsys):
    out = tmp_path / "experts"
    assert cli.main(["train-experts", "--out", str(out), *TINY_FLAGS]) == 0
    assert "training" not in capsys.readouterr().err  # info is hidden by default

    assert cli.main(["train-experts", "-v", "--out", str(out), *TINY_FLAGS]) == 0
    captured = capsys.readouterr()
    counts = re.search(r"level0=(\d+), level1=(\d+), level2=(\d+)", captured.out).groups()
    for name, n in zip(("NORMAL", "MODERATE", "VERY_RARE"), counts):
        assert f"INFO rarecast.expert: training {name} expert on {n} windows" in captured.err

    assert cli.main(["train-experts", "--log-level", "error", "--out", str(out), *TINY_FLAGS]) == 0
    assert capsys.readouterr().err == ""
    assert not logging.getLogger("rarecast").handlers  # each run removes its handler


def test_cli_label_on_csv(tmp_path):
    csv_path = tmp_path / "input.csv"
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1500)
    csv_path.write_text("value\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    out = tmp_path / "labels"
    rc = cli.main(["label", "--data", str(csv_path), "--column", "value",
                   "--out", str(out), "--history-len", "32", "--horizon", "8"])
    assert rc == 0
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "index,split,value,level"
    assert len(labels) == 1501
    # the same level names as metrics.csv and --assert
    assert {row.split(",")[3] for row in labels[1:]} == set(LEVEL_KEYS.values())
    cfg = json.loads((out / "config.json").read_text())
    assert (cfg["data_path"], cfg["data_column"]) == (str(csv_path), "value")
    thresholds = (out / "thresholds.csv").read_text().splitlines()
    assert thresholds[0] == "t_moderate,t_very,t_extreme"


def test_cli_label_prints_level_counts_and_fractions_per_split(tmp_path, capsys):
    out = tmp_path / "labels"
    assert cli.main(["label", "--out", str(out), *TINY_FLAGS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("thresholds: ")
    labels = [row.split(",") for row in (out / "labels.csv").read_text().splitlines()[1:]]
    entry = re.compile(r"(\w+)=(\d+) \((\d\.\d{4})\)")
    assert lines[4:] == ["train windows support at most 4 experts (--experts)"]
    for split, line in zip(("train", "val", "test"), lines[1:4], strict=True):
        assert line.startswith(f"{split}: ")
        found = entry.findall(line)
        assert [key for key, _, _ in found] == list(LEVEL_KEYS.values())
        # the counts are those of labels.csv, and the fractions sum to 1 up to their rounding
        split_levels = [row[3] for row in labels if row[1] == split]
        assert [int(c) for _, c, _ in found] == [split_levels.count(key) for key in LEVEL_KEYS.values()]
        assert sum(float(f) for _, _, f in found) == pytest.approx(1.0, abs=2.5e-4)


def test_cli_label_names_the_largest_expert_count_the_training_windows_support(tmp_path, capsys):
    # The preset series clipped at its 93.6th percentile ties t_very == t_extreme,
    # so no point is VERY_RARE and the training windows support only 2 experts.
    raw = load_series(PipelineConfig())
    clipped = np.minimum(raw.values, np.percentile(raw.values, 93.6))
    csv_path = tmp_path / "clipped.csv"
    csv_path.write_text("value\n" + "\n".join(repr(float(v)) for v in clipped) + "\n")
    out = tmp_path / "labels"
    assert cli.main(["label", "--data", str(csv_path), "--column", "value", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "train windows support at most 2 experts (--experts)"


@pytest.mark.parametrize("name, accepted, rejected", RETIRED, ids=RETIRED_NAMES)
def test_cli_config_snapshot_with_a_retired_field(name, accepted, rejected, tmp_path, capsys):
    snapshot = tmp_path / "config.json"
    snapshot.write_text(json.dumps({**PipelineConfig().to_dict(), name: accepted}))
    out = tmp_path / "accepted"
    assert cli.main(["loss-landscape", "--config", str(snapshot), "--steps", "3", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text()) == PipelineConfig().to_dict()
    snapshot.write_text(json.dumps({**PipelineConfig().to_dict(), name: rejected}))
    out = tmp_path / "rejected"
    assert cli.main(["loss-landscape", "--config", str(snapshot), "--steps", "3", "--out", str(out)]) == 1
    assert f"error: config: {name}={rejected!r} is no longer supported" in capsys.readouterr().err
    assert not out.exists()


def test_retired_router_lr_loads_only_at_the_one_learning_rate():
    # router_lr used to load whenever it matched the stored lr; every model now trains at 1e-3.
    assert PipelineConfig.from_dict({"lr": 1e-3, "router_lr": 1e-3}) == PipelineConfig()
    with pytest.raises(ValueError, match=re.escape("config: router_lr=0.01 is no longer supported")):
        PipelineConfig.from_dict({"lr": 0.01, "router_lr": 0.01})


def test_retired_source_loads_only_at_the_value_data_path_implies():
    csv = {"data_path": "series.csv", "data_column": "value"}
    assert PipelineConfig.from_dict({**csv, "source": "csv"}) == PipelineConfig(**csv)
    with pytest.raises(ValueError, match=re.escape("config: source='synth' is no longer supported (this build implements 'csv')")):
        PipelineConfig.from_dict({**csv, "source": "synth"})
    with pytest.raises(ValueError, match="config: data_path needs data_column"):
        PipelineConfig(data_path="series.csv")


def test_cli_ewt_dump(tmp_path):
    out = tmp_path / "ewt"
    assert cli.main(["ewt-dump", "--out", str(out), *TINY_FLAGS]) == 0
    lines = (out / "filters.csv").read_text().splitlines()
    assert lines[0] == "bin,omega,gain_band1,gain_band2"


def test_cli_loss_landscape(tmp_path):
    out = tmp_path / "ll"
    assert cli.main(["loss-landscape", "--out", str(out), "--lo", "-2", "--hi", "2",
                     "--steps", "11", "--horizon", "8"]) == 0
    lines = (out / "loss_landscape.csv").read_text().splitlines()
    assert lines[0] == "delta,level,value"
    assert len(lines) == 1 + 4 * 11


def test_cli_sweep_k(tmp_path, capsys):
    out = tmp_path / "sk"
    assert cli.main(["sweep-k", "--ks", "1,2", "--out", str(out), *TINY_FLAGS]) == 0
    lines = (out / "sweep_k.csv").read_text().splitlines()
    assert lines[0] == "k,level,mse,mae,count"
    assert len(lines) == 1 + 8
    assert capsys.readouterr().out.splitlines()[0].split() == lines[0].split(",")


def test_cli_sweep_beta(tmp_path, capsys):
    out = tmp_path / "sb"
    assert cli.main(["sweep-beta", "--betas", "0,0.5", "--out", str(out), *TINY_FLAGS]) == 0
    lines = (out / "sweep_beta.csv").read_text().splitlines()
    assert lines[0] == "beta,level,mse,mae,count"
    assert len(lines) == 1 + 8
    assert capsys.readouterr().out.splitlines()[0].split() == lines[0].split(",")
    assert not (out / "sweep_beta_errors.csv").exists()


def test_cli_sweep_writes_failed_cells_apart_and_goes_on(tmp_path, monkeypatch, capsys):
    real = evaluation.train_pipeline

    def fails_without_wt(data, cfg):
        if cfg.n_bands == 1:
            raise RuntimeError("boom")
        return real(data, cfg)

    monkeypatch.setattr(evaluation, "train_pipeline", fails_without_wt)
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--out", str(out), *TINY_FLAGS]) == 0
    captured = capsys.readouterr()
    assert "components=none: RuntimeError: boom" in captured.err
    errors = (out / "ablation_errors.csv").read_text().splitlines()
    assert errors == ["components,error", "none,RuntimeError: boom"]
    assert len((out / "ablation.csv").read_text().splitlines()) == 1 + 4 * 4


@pytest.mark.parametrize(
    "argv, stem",
    [(["sweep-beta", "--betas", "0,0.5"], "sweep_beta"), (["sweep-k", "--ks", "1,2"], "sweep_k"),
     (["ablate", "--components", "WT"], "ablation")],
)
def test_cli_sweep_with_every_cell_failed_exits_1_and_keeps_the_errors(
    argv, stem, tmp_path, monkeypatch, capsys
):
    # An all-failed sweep used to exit with "write_rows_csv: no rows" and lose the cause.
    def boom(data, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(evaluation, "train_pipeline", boom)
    out = tmp_path / "sweep"
    assert cli.main([*argv, "--out", str(out), *TINY_FLAGS]) == 1
    errors = out / f"{stem}_errors.csv"
    assert f"error: {argv[0]}: every cell failed; see {errors}" in capsys.readouterr().err
    assert not (out / f"{stem}.csv").exists()
    rows = errors.read_text().splitlines()[1:]
    assert rows and all(row.endswith(",RuntimeError: boom") for row in rows)


@pytest.mark.parametrize(
    "argv", [["synth", "--spike-scale", "nan"], ["loss-landscape", "--steps", "0"]]
)
def test_cli_rejected_input_leaves_no_out_directory(argv, tmp_path, capsys):
    # Both commands used to create --out before checking their input.
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error")
    assert not out.exists()


def test_cli_ablate_single_cell(tmp_path):
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--components", "WT+RP", "--out", str(out), *TINY_FLAGS]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "components,level,mse,mae,count"
    assert len(lines) == 5
    assert all(line.startswith("WT+RP,") for line in lines[1:])


def test_cli_ablate_writes_one_row_shape_with_and_without_components(tmp_path):
    # The full table used to write components,mse,mae,extreme_mse and a single
    # cell components,level,mse,mae,count.
    cell, table = tmp_path / "cell", tmp_path / "table"
    assert cli.main(["ablate", "--components", "WT+RP", "--out", str(cell), *TINY_FLAGS]) == 0
    assert cli.main(["ablate", "--out", str(table), *TINY_FLAGS]) == 0
    cell_lines = (cell / "ablation.csv").read_text().splitlines()
    table_lines = (table / "ablation.csv").read_text().splitlines()
    assert cell_lines[0] == table_lines[0] == "components,level,mse,mae,count"
    assert len(table_lines) == 1 + 4 * 5
    assert [line for line in table_lines if line.startswith("WT+RP,")] == cell_lines[1:]


# small sizes for reproduce, whose defaults are the full benchmark preset
QUICK_FLAGS = ["--history-len", "32", "--horizon", "8", "--stride", "2", "--bands", "2",
               "--epochs", "1", "--router-epochs", "1", "--synth-n", "6000"]


def test_cli_reproduce_smoke(tmp_path):
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--seed", "3", *QUICK_FLAGS, "--out", str(out)]) == 0
    for name in ("metrics.csv", "metrics_baseline.csv", "bundle.json",
                 "config.json", "summary.txt"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("seed 3: full pipeline vs single-band MSE baseline")
    assert "overall" in summary and "extreme" in summary


def test_cli_reproduce_explicit_flags_win_over_the_preset(tmp_path):
    out = tmp_path / "repro"
    argv = ["reproduce", "--seed", "3", *QUICK_FLAGS, "--backbone", "mlp", "--mode", "global",
            "--epochs", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert (cfg["backbone"], cfg["mode"], cfg["epochs"], cfg["seed"]) == ("mlp", "global", 2, 3)
    # the preset still fills every field no flag names
    assert (cfg["router_epochs"], cfg["history_len"], cfg["n_experts"]) == (1, 32, 3)
    tp = load_bundle(out / "bundle.json")
    assert tp.config.backbone == "mlp" and tp.experts[0].stack.kind == "mlp"


def test_cli_train_experts_and_reproduce_share_one_set_of_defaults(tmp_path):
    # Both resolve PipelineConfig() under the seed, so a second set of
    # defaults for either command shows up here.
    for command in ("train-experts", "reproduce"):
        assert cli.main([command, "--seed", "0", "--out", str(tmp_path / command)]) == 0
    written = (tmp_path / "reproduce" / "config.json").read_bytes()
    assert (tmp_path / "train-experts" / "config.json").read_bytes() == written
    assert json.loads(written) == PipelineConfig().to_dict()


@pytest.mark.parametrize(
    "flags",
    [["--backbone", "mlp"], ["--experts", "2"], ["--normalization", "identity"],
     ["--epochs", "99"], ["--history-len", "64"], ["--horizon", "16"], ["--bands", "4"],
     ["--mode", "global"], ["--config", "gamma=0.5"]],
)
def test_cli_evaluate_rejects_values_that_contradict_the_bundle(flags, tiny_pipeline, tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    save_bundle(tiny_pipeline[0], bundle)
    if flags[0] == "--config":
        snapshot = tmp_path / "config.json"
        snapshot.write_text(json.dumps(tiny_pipeline[0].config.with_overrides(gamma=0.5).to_dict()))
        flags = ["--config", str(snapshot)]
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--bundle", str(bundle), *flags, "--out", str(out)]) == 1
    assert re.match(rf"error: evaluate: {flags[0]} sets \w+=.* contradicts the bundle", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["evaluate", "--assert", "overall.mse<=1e"], "evaluate: cannot parse assertion 'overall.mse<=1e'"),
        (["sweep-k", "--ks", "1,,2"], "sweep-k: --ks must be comma-separated ints, got '1,,2'"),
        (["sweep-beta", "--betas", "0,x"], "sweep-beta: --betas must be comma-separated floats"),
        (["ablate", "--components", "WT+XX"], "ablate: unknown components ['XX']"),
        (["ablate", "--components", "None"], None),
    ],
)
def test_cli_list_and_assertion_arguments_fail_before_any_work(argv, error, tiny_pipeline, tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    save_bundle(tiny_pipeline[0], bundle)
    source = ["--bundle", str(bundle)] if argv[0] == "evaluate" else TINY_FLAGS
    out = tmp_path / "out"
    rc = cli.main([*argv, *source, "--out", str(out)])
    if error is None:
        assert rc == 0
        rows = (out / "ablation.csv").read_text().splitlines()[1:]
        assert rows and all(row.startswith("none,") for row in rows)
    else:
        assert rc == 1 and error in capsys.readouterr().err
        assert not out.exists()


def test_cli_reports_errors_and_exit_codes(tmp_path, capsys):
    rc = cli.main(["evaluate", "--bundle", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "no such file" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["not-a-command"])
    rc = cli.main(["synth", "--out", str(tmp_path / "s"), "--synth-n", "10"])
    assert rc == 1
    assert "n must be >= 1000" in capsys.readouterr().err
