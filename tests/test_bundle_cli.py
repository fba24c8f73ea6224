"""Bundle persistence and the command line surface."""

import copy
import hashlib
import json
import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rarecast import cli
from rarecast.bundle import FORMAT_VERSION, BundleError, _bank_dict, _canonical, load_bundle, save_bundle
from rarecast.ewt import Boundaries, build_filter_bank
from rarecast.evaluation import LEVEL_KEYS
from rarecast.pipeline import TrainedPipeline, predict_windows


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
    tp, _ = tiny_pipeline
    path = tmp_path / "bundle.json"
    save_bundle(tp, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(BundleError, match="format version"):
        load_bundle(path)


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
    ragged["experts"][0]["backbones"][1]["params"]["w"][0].append(0.0)
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


def _go_global(payload: dict, cuts: list[float], n_bins: int = 17) -> None:
    """Switch a tiny payload to global mode; expert i gets a bank split at cuts[i]."""
    payload["config"]["mode"] = "global"
    for e, cut in zip(payload["experts"], cuts):
        bank = build_filter_bank(Boundaries(np.array([0.0, cut, np.pi])), n_bins)
        e.update(mode="global", bank=_bank_dict(bank))


MISMATCHES = {
    "config_n_bands": (lambda p: p["config"].update(n_bands=3), "n_bands"),
    "config_history_len": (lambda p: p["config"].update(history_len=40), "input_len"),
    "config_horizon": (lambda p: p["config"].update(horizon=4), "output_len"),
    "config_n_experts": (lambda p: p["config"].update(n_experts=2, k=1), "n_experts=2"),
    "router_horizon": (lambda p: p["router"].update(horizon=4), "horizon"),
    "router_n_experts": (lambda p: p["router"].update(n_experts=2, k=1), "n_experts"),
    "expert_n_bands": (lambda p: p["experts"][1].update(n_bands=3), "backbone per band"),
    "backbone_input_len": (lambda p: p["experts"][0]["backbones"][0].update(input_len=40), "shapes"),
    # inference decomposes once, with the first expert's settings, for all experts
    "expert_gamma": (lambda p: p["experts"][1].update(gamma=0.0), r"\(mode, gamma\)"),
    "expert_gamma_negative": (lambda p: p["experts"][2].update(gamma=-1.0), r"\(mode, gamma\)"),
    "config_mode": (lambda p: p["config"].update(mode="global"), r"\(mode, gamma\)"),
    "global_banks_differ": (lambda p: _go_global(p, [1.0, 1.0, 1.5]), "filter bank differs"),
    "global_bank_size": (lambda p: _go_global(p, [1.0, 1.0, 1.0], n_bins=9), "filter bank has shape"),
    # a per-window expert ignores a bank; carried along, it changed the re-saved bytes
    "per_window_bank": (
        lambda p: p["experts"][1].update(
            bank=_bank_dict(build_filter_bank(Boundaries(np.array([0.0, np.pi])), 99))
        ),
        "per_window mode",
    ),
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
    assert cfg["source"] == "csv"
    thresholds = (out / "thresholds.csv").read_text().splitlines()
    assert thresholds[0] == "t_moderate,t_very,t_extreme"


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


def test_cli_sweep_k(tmp_path):
    out = tmp_path / "sk"
    assert cli.main(["sweep-k", "--ks", "1,2", "--out", str(out), *TINY_FLAGS]) == 0
    lines = (out / "sweep_k.csv").read_text().splitlines()
    assert lines[0] == "k,level,mse,mae,count"
    assert len(lines) == 1 + 8


def test_cli_sweep_beta(tmp_path):
    out = tmp_path / "sb"
    assert cli.main(["sweep-beta", "--betas", "0,0.5", "--out", str(out), *TINY_FLAGS]) == 0
    lines = (out / "sweep_beta.csv").read_text().splitlines()
    assert lines[0] == "beta,level,mse,mae,count"
    assert len(lines) == 1 + 8


def test_cli_ablate_single_cell(tmp_path):
    out = tmp_path / "ab"
    assert cli.main(["ablate", "--components", "WT+RP", "--out", str(out), *TINY_FLAGS]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "components,level,mse,mae,count"
    assert len(lines) == 5
    assert all(line.startswith("WT+RP,") for line in lines[1:])


def test_cli_reproduce_smoke(tmp_path, monkeypatch):
    quick = dict(cli.REPRODUCE_OVERRIDES)
    quick.update(history_len=32, horizon=8, stride=2, n_bands=2, epochs=1,
                 router_epochs=1, synth_n=6000)
    monkeypatch.setattr(cli, "REPRODUCE_OVERRIDES", quick)
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--seed", "3", "--out", str(out)]) == 0
    for name in ("metrics.csv", "metrics_baseline.csv", "bundle.json",
                 "config.json", "summary.txt"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("seed 3: full pipeline vs single-band MSE baseline")
    assert "overall" in summary and "extreme" in summary


def test_cli_reproduce_explicit_flags_win_over_the_preset(tmp_path, monkeypatch):
    quick = dict(cli.REPRODUCE_OVERRIDES)
    quick.update(history_len=32, horizon=8, stride=2, n_bands=2, epochs=1,
                 router_epochs=1, synth_n=6000)
    monkeypatch.setattr(cli, "REPRODUCE_OVERRIDES", quick)
    out = tmp_path / "repro"
    argv = ["reproduce", "--seed", "3", "--backbone", "mlp", "--mode", "global",
            "--epochs", "2", "--out", str(out)]
    assert cli.main(argv) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert (cfg["backbone"], cfg["mode"], cfg["epochs"], cfg["seed"]) == ("mlp", "global", 2, 3)
    # the preset still fills every field no flag names
    assert (cfg["router_epochs"], cfg["history_len"], cfg["n_experts"]) == (1, 32, 3)
    tp = load_bundle(out / "bundle.json")
    assert tp.config.backbone == "mlp" and tp.experts[0].backbones[0].kind == "mlp"


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
