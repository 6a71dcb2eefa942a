"""End-to-end tests of config resolution, the stage pipeline (manifests,
resume, determinism), and the CLI exit-code contract.

Runs use deliberately tiny synthetic settings so the whole file stays in
seconds; the full desk-profile checks live in the acceptance suite.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frauduq import cli, pipeline
from frauduq.container import read_json
from frauduq.errors import ValidationError

TINY = {
    "data": {"synth": {"n_per_class": 40, "n_features": 4, "separation": 2.5}},
    "network": {"hidden_units": [8, 6, 4], "epochs": 3, "batch_size": 32},
    "ensemble": {"members": 3, "width_ranges": [[6, 10], [4, 8], [3, 5]]},
    "mc_passes": 8,
    "seed": 21,
}


def write_config(tmp_path, overrides=None, name="run.json"):
    obj = {**TINY, **(overrides or {})}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def quiet(*_args, **_kwargs):
    pass


def tree_digests(root):
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# --- config resolution ---------------------------------------------------------


def test_profiles_set_scale_constants():
    desk = pipeline.load_run_config(profile="desk")
    assert desk.network.hidden_units == (32, 16, 8)
    assert desk.ensemble.members == 5
    assert desk.mc_passes == 100

    paper = pipeline.load_run_config(profile="paper")
    assert paper.network.hidden_units == (256, 64, 16)
    assert paper.network.epochs == 50
    assert paper.ensemble.members == 30
    assert paper.ensemble.width_ranges == ((256, 385), (64, 256), (16, 32))
    assert paper.mc_passes == 1000
    assert paper.thresholds == tuple(pytest.approx(0.1 * k) for k in range(1, 10))
    assert paper.report_threshold == 0.4


def test_flags_override_file_which_overrides_profile(tmp_path):
    path = write_config(tmp_path, {"seed": 5, "method": "ensemble"})
    config = pipeline.load_run_config(path, seed=9, mc_passes=33)
    assert config.seed == 9           # flag beats file
    assert config.method == "ensemble"  # file beats default
    assert config.mc_passes == 33
    assert config.network.epochs == 3  # file section merged over profile


def test_config_validation_rejections(tmp_path):
    with pytest.raises(ValidationError, match="unknown config key"):
        pipeline.load_run_config(write_config(tmp_path, {"epochz": 1}))

    both = {"data": {"csv": {"path": "x", "schema": "y"},
                     "synth": {"n_per_class": 5}}}
    with pytest.raises(ValidationError, match="exactly one data source"):
        pipeline.load_run_config(write_config(tmp_path, both, name="both.json"))

    with pytest.raises(ValidationError, match="not found"):
        pipeline.load_run_config(write_config(
            tmp_path, {"data": {"csv": {"path": "/nope.csv", "schema": "/nope.json"}}},
            name="missing.json"))

    with pytest.raises(ValidationError, match="strictly increasing"):
        pipeline.load_run_config(write_config(
            tmp_path, {"thresholds": [0.4, 0.2]}, name="grid.json"))

    with pytest.raises(ValidationError, match="threshold grid"):
        pipeline.load_run_config(write_config(
            tmp_path, {"report_threshold": 0.35}, name="rt.json"))

    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ValidationError, match="not valid JSON"):
        pipeline.load_run_config(broken)


# --- pipeline stages --------------------------------------------------------------


def run_config(tmp_path, out_name="out", **kw):
    return pipeline.load_run_config(write_config(tmp_path), out=str(tmp_path / out_name), **kw)


def test_reproduce_chain_writes_everything(tmp_path):
    config = run_config(tmp_path)
    pipeline.cmd_reproduce(config, log=quiet)
    out = tmp_path / "out"
    for rel in ("config.json", "data/train.json", "data/test.json",
                "models/single.json", "models/ensemble/spec.json",
                "predictions/mcd/dump.jsonl", "predictions/ensemble/dump.csv",
                "predictions/emcd/dump.jsonl", "reports/mcd/report.json",
                "reports/emcd/reliability.svg", "summary/summary.json",
                "summary/summary.csv"):
        assert (out / rel).is_file(), rel

    summary = read_json(out / "summary/summary.json")
    assert set(summary["methods"]) == {"mcd", "ensemble", "emcd"}
    header = (out / "summary/summary.csv").read_text().splitlines()[1]
    assert header == "method,uacc,usen,uspe,upre"


def test_reproduce_is_deterministic_across_directories(tmp_path):
    pipeline.cmd_reproduce(run_config(tmp_path, "a"), log=quiet)
    pipeline.cmd_reproduce(run_config(tmp_path, "b"), log=quiet)
    assert tree_digests(tmp_path / "a") == tree_digests(tmp_path / "b")


def test_rerun_skips_completed_stages(tmp_path):
    config = run_config(tmp_path)
    pipeline.cmd_reproduce(config, log=quiet)
    messages = []
    pipeline.cmd_reproduce(config, log=messages.append)
    skipped = [m for m in messages if "skipping" in m]
    assert len(skipped) == 9  # data, models, 3 predicts, 3 evaluates, summary


def test_stage_reruns_when_config_changes(tmp_path):
    config = run_config(tmp_path)
    pipeline.cmd_preprocess(config, log=quiet)
    digest_before = tree_digests(tmp_path / "out")

    moved = pipeline.load_run_config(
        write_config(tmp_path, {"seed": 22}, name="run2.json"), out=str(tmp_path / "out"))
    messages = []
    pipeline.stage_data(moved, log=messages.append)
    assert not any("skipping" in m for m in messages)
    assert tree_digests(tmp_path / "out") != digest_before


def test_unreadable_manifest_reruns_the_stage(tmp_path):
    config = run_config(tmp_path)
    pipeline.cmd_preprocess(config, log=quiet)
    manifest = tmp_path / "out" / "data" / "manifest.json"
    good = manifest.read_bytes()
    manifest.write_text("{not json")

    messages = []
    pipeline.stage_data(config, log=messages.append)
    assert not any("skipping" in m for m in messages)
    assert manifest.read_bytes() == good


def test_predict_requires_matching_feature_width(tmp_path):
    from frauduq.data import save_features, synth_generate
    from frauduq.errors import ShapeError

    config = run_config(tmp_path)
    pipeline.cmd_preprocess(config, log=quiet)
    pipeline.cmd_train(config, log=quiet)

    alien = tmp_path / "alien.json"
    save_features(synth_generate(10, 7, 2.0, noise_seed=1), alien)
    with pytest.raises(ShapeError, match="7"):
        pipeline.cmd_predict(config, data_path=alien, log=quiet)


def test_cmd_synth_writes_feature_table(tmp_path):
    config = run_config(tmp_path)
    path = pipeline.cmd_synth(config, log=quiet)
    from frauduq.data import load_features

    table = load_features(path)
    assert table.n_rows == 80
    assert table.features.shape[1] == 4


# --- CLI ------------------------------------------------------------------------


def cli_run(*argv):
    return cli.main(list(argv))


def test_cli_full_chain_exit_codes(tmp_path):
    config_path = write_config(tmp_path)
    out = str(tmp_path / "cli_out")
    base = ["--config", str(config_path), "--out", out]
    assert cli_run("preprocess", *base) == 0
    assert cli_run("train", *base) == 0
    assert cli_run("predict", *base) == 0
    assert cli_run("evaluate", *base) == 0
    assert (tmp_path / "cli_out" / "reports" / "mcd" / "report.json").is_file()


def test_cli_validation_errors_exit_2(tmp_path, capsys):
    missing_schema = write_config(
        tmp_path, {"data": {"csv": {"path": "/nope.csv", "schema": "/nope.json"}}},
        name="míssing.json")
    assert cli_run("preprocess", "--config", str(missing_schema)) == 2
    assert "error:" in capsys.readouterr().err

    bad_method = write_config(tmp_path, {"method": "bogus"}, name="method.json")
    assert cli_run("train", "--config", str(bad_method)) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, named", [
    ({"mc_passes": "abc"}, "config.mc_passes"),
    ({"mc_passes": True}, "config.mc_passes"),
    ({"seed": 7.0}, "config.seed"),
    ({"thresholds": 0.5}, "config.thresholds"),
    ({"thresholds": [0.4, "0.5"]}, "config.thresholds[1]"),
    ({"report_threshold": False}, "config.report_threshold"),
    ({"method": 3}, "config.method"),
    ({"data": {"synth": {"n_per_class": "5"}}}, "data.synth.n_per_class"),
    ({"data": {"synth": {"separation": True}}}, "data.synth.separation"),
    ({"data": ["synth"]}, "config data"),
    ({"network": {"dropout_rate": "0.3"}}, "network.dropout_rate"),
    ({"network": {"epochs": 2.5}}, "network.epochs"),
    ({"network": {"learning_rate": float("nan")}}, "network.learning_rate"),
    ({"network": {"hidden_units": [8, 6.0, 4]}}, "network.hidden_units[1]"),
    ({"ensemble": {"members": True}}, "ensemble.members"),
    ({"ensemble": {"width_ranges": [[6, 10], [4, 8], [3, 5, 7]]}}, "[3, 5, 7]"),
])
def test_cli_mistyped_config_values_exit_2(tmp_path, capsys, overrides, named):
    """A wrong-typed value exits 2, names the field and writes nothing."""
    out = tmp_path / "out"
    config_path = write_config(tmp_path, overrides)
    assert cli_run("preprocess", "--config", str(config_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "frauduq", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    version = run("--version")
    assert version.returncode == 0 and version.stdout.startswith("frauduq ")
    bad = run("preprocess", "--config", str(write_config(tmp_path, {"mc_passes": "abc"})),
              "--out", str(tmp_path / "out"))
    assert bad.returncode == 2 and "config.mc_passes" in bad.stderr
    assert not (tmp_path / "out").exists()


def test_cli_method_model_mismatch_exits_2(tmp_path):
    config_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli_run("preprocess", "--config", str(config_path), "--out", out) == 0
    assert cli_run("train", "--config", str(config_path), "--out", out) == 0  # mcd -> single net
    # pointing mcd at a directory is a mismatch
    assert cli_run("predict", "--config", str(config_path), "--out", out,
                   "--model", out) == 2
    # emcd needs an ensemble, which was never trained
    assert cli_run("predict", "--config", str(config_path), "--out", out,
                   "--method", "emcd") == 2


def test_cli_data_errors_exit_3(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out = str(tmp_path / "out")

    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"format": "frauduq-predictions", "version": 1, "method": "mcd", "n": 0}\n')
    assert cli_run("evaluate", "--config", str(config_path), "--out", out,
                   "--dump", str(empty)) == 3
    assert "no predictions" in capsys.readouterr().err

    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text(
        '{"format": "frauduq-predictions", "version": 1, "method": "mcd", "n": 1}\n'
        '{"index": 0, "mean_probs": [0.6, 0.4], "predicted_class": 0, '
        '"entropy_raw": 0.67, "entropy_norm": 0.97, "label": null}\n')
    assert cli_run("evaluate", "--config", str(config_path), "--out", out,
                   "--dump", str(unlabeled)) == 3
    assert "labels" in capsys.readouterr().err

    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text(
        '{"format": "frauduq-predictions", "version": 1, "method": "mcd", "n": 2}\n'
        '{"index": 0, "mean_probs": [0.6, 0.4], "predicted_class": 0, '
        '"entropy_raw": 0.67, "entropy_norm": 0.97, "label": 0}\n')
    assert cli_run("evaluate", "--config", str(config_path), "--out", out,
                   "--dump", str(truncated)) == 3
    err = capsys.readouterr().err
    assert "truncated.jsonl" in err and "n=2" in err


def test_cli_shape_error_names_both_widths(tmp_path, capsys):
    from frauduq.data import save_features, synth_generate

    config_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    cli_run("preprocess", "--config", str(config_path), "--out", out)
    cli_run("train", "--config", str(config_path), "--out", out)

    alien = tmp_path / "alien.json"
    save_features(synth_generate(6, 9, 2.0, noise_seed=1), alien)
    assert cli_run("predict", "--config", str(config_path), "--out", out,
                   "--data", str(alien)) == 3
    err = capsys.readouterr().err
    assert "9" in err and "4" in err


def test_cli_sweep_prints_threshold_table(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    for command in ("preprocess", "train", "predict"):
        assert cli_run(command, "--config", str(config_path), "--out", out) == 0
    assert cli_run("sweep", "--config", str(config_path), "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "threshold,tc,tu,fu,fc,uacc,usen,uspe,upre" in stdout


def test_cli_prints_per_epoch_loss(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    cli_run("preprocess", "--config", str(config_path), "--out", out)
    cli_run("train", "--config", str(config_path), "--out", out)
    stdout = capsys.readouterr().out
    assert "epoch 1/3 loss" in stdout and "epoch 3/3 loss" in stdout


def test_cli_dump_deterministic_for_fixed_seed(tmp_path):
    config_path = write_config(tmp_path)
    digests = []
    for out_name in ("r1", "r2"):
        out = str(tmp_path / out_name)
        for command in ("preprocess", "train", "predict"):
            assert cli_run(command, "--config", str(config_path), "--out", out) == 0
        dump = tmp_path / out_name / "predictions" / "mcd" / "dump.jsonl"
        digests.append(hashlib.sha256(dump.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
