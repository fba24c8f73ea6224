"""Bundle persistence and the command line surface."""

import json

import numpy as np
import pytest

from rarecast import cli
from rarecast.bundle import BundleError, load_bundle, save_bundle
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


def test_bundle_rejects_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BundleError, match="not valid JSON"):
        load_bundle(bad)
    with pytest.raises(FileNotFoundError):
        load_bundle(tmp_path / "nope.json")


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
