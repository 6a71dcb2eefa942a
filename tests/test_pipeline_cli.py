"""End-to-end tests of config resolution, the stage pipeline (manifests,
resume, determinism), and the CLI exit-code contract.

Runs use deliberately tiny synthetic settings so the whole file stays in
seconds; the full desk-profile checks live in the acceptance suite.
"""

import dataclasses
import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import types
import typing
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import frauduq.uncertainty as unc
from frauduq import cli, container, network, pipeline
from frauduq.container import check_header, read_json
from frauduq.errors import ValidationError
from frauduq.uncertainty import (
    METHODS,
    DumpFile,
    EnsembleSpec,
    write_dump,
)

TINY = {
    "data": {"synth": {"n_per_class": 40, "n_features": 4, "separation": 2.5}},
    "network": {"hidden_units": [8, 6, 4], "epochs": 3, "batch_size": 32},
    "ensemble": {"members": 3, "width_ranges": [[6, 10], [4, 8], [3, 5]]},
    "mc_passes": 8,
    "seed": 21,
}

# JSON that json.loads refuses without a JSONDecodeError: arrays nested
# past the recursion limit, and an integer of more than 4,300 digits
UNREADABLE_JSON = ("[" * 3000 + "]" * 3000, '{"seed": ' + "9" * 5000 + "}")


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


PAPER_WIDTHS = ((256, 385), (64, 256), (16, 32))


@pytest.mark.parametrize("given, section, want", [
    ({"profile": "paper", "network": {"epochs": 5}}, "network",
     network.NetworkParams(hidden_units=(256, 64, 16), epochs=5, batch_size=128)),
    ({"profile": "paper", "ensemble": {"members": 7}}, "ensemble",
     EnsembleSpec(members=7, width_ranges=PAPER_WIDTHS)),
    ({"data": {"synth": {"separation": 3.0}}}, "data",
     pipeline.DataSource(synth=pipeline.SynthSpec(separation=3.0))),
    ({"data": {"csv": {"path": "rows.csv", "schema": "rows.schema.json"}}}, "data",
     pipeline.DataSource(csv=pipeline.CsvSource("rows.csv", "rows.schema.json"))),
    ({"data": {}}, "data", pipeline.DataSource(synth=pipeline.SynthSpec())),
], ids=["network-merged", "ensemble-merged", "synth-replaced", "csv-replaced", "empty-data"])
def test_file_merges_network_and_ensemble_but_replaces_data(tmp_path, monkeypatch, given,
                                                            section, want):
    """A file's network and ensemble sections change only the keys they
    name; its data replaces the profile's whole, as it names exactly one
    source. The desk profile gets a synth source of its own here, so a
    merged data section would show."""
    own = pipeline.DataSource(synth=pipeline.SynthSpec(n_per_class=9, n_features=3,
                                                       separation=1.5))
    monkeypatch.setitem(pipeline.PROFILES, "desk",
                        dataclasses.replace(pipeline.PROFILES["desk"], data=own))
    monkeypatch.chdir(tmp_path)
    for name in ("rows.csv", "rows.schema.json"):
        (tmp_path / name).write_text("")  # the config only checks that they exist
    path = tmp_path / "run.json"
    path.write_text(json.dumps(given))
    assert getattr(pipeline.load_run_config(path), section) == want


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
    broken.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ValidationError, match="broken.json: not valid UTF-8"):
        pipeline.load_run_config(broken)
    broken.write_text("[7]")
    with pytest.raises(ValidationError, match="broken.json: expected a JSON object"):
        pipeline.load_run_config(broken)
    for text in UNREADABLE_JSON:
        broken.write_text(text)
        with pytest.raises(ValidationError, match="broken.json: not readable as JSON"):
            pipeline.load_run_config(broken)

    # format and version may be left out, but a foreign file is refused
    for i, tag in enumerate([{"format": "not-a-config"}, {"version": 99}, {"version": "1"},
                             {"version": True}]):
        foreign = write_config(tmp_path, tag, name=f"foreign{i}.json")
        with pytest.raises(ValidationError, match=f"foreign{i}.json: not a frauduq-config"):
            pipeline.load_run_config(foreign)


@pytest.mark.parametrize("source", ["desk", "paper", "csv"])
def test_config_json_round_trips(tmp_path, source):
    """A run's config.json, fed back with --config, resolves to the same
    RunConfig and is rewritten byte for byte."""
    first, second = tmp_path / "first", tmp_path / "second"
    if source == "csv":
        for name in ("rows.csv", "rows.schema.json"):
            (tmp_path / name).write_text("")  # synth only checks that they exist
        given = {"path": write_config(tmp_path, {"data": {"csv": {
            "path": str(tmp_path / "rows.csv"), "schema": str(tmp_path / "rows.schema.json")}}})}
        argv = ["--config", str(given["path"])]
    else:
        given = {"profile": source}
        argv = ["--profile", source]
    assert cli_run("synth", *argv, "--out", str(first)) == 0
    assert cli_run("synth", "--config", str(first / "config.json"), "--out", str(second)) == 0
    assert pipeline.load_run_config(first / "config.json") == pipeline.load_run_config(**given)
    assert (second / "config.json").read_bytes() == (first / "config.json").read_bytes()


# --- pipeline stages --------------------------------------------------------------


def run_config(tmp_path, out_name="out", **kw):
    return pipeline.load_run_config(write_config(tmp_path), out=str(tmp_path / out_name), **kw)


def test_reproduce_chain_writes_everything(tmp_path):
    config = run_config(tmp_path)
    pipeline.cmd_reproduce(config, log=quiet)
    out = tmp_path / "out"
    for rel in ("config.json", "data/train.json", "data/test.json",
                "models/single.json", "models/ensemble/spec.json",
                "predictions/mcd/dump.jsonl", "predictions/ensemble/dump.json",
                "predictions/emcd/dump.jsonl", "reports/mcd/report.json",
                "reports/emcd/reliability.svg", "summary/summary.json",
                "summary/summary.csv"):
        assert (out / rel).is_file(), rel

    summary = read_json(out / "summary/summary.json")
    assert set(summary["methods"]) == {"mcd", "ensemble", "emcd"}
    header = (out / "summary/summary.csv").read_text().splitlines()[1]
    assert header == "method,uacc,usen,uspe,upre"

    # every file names its format and version 1, and no temp file is left
    json_formats = {"config.json": "frauduq-config", "train.json": "frauduq-features",
                    "test.json": "frauduq-features", "single.json": "frauduq-network",
                    "spec.json": "frauduq-ensemble", "manifest.json": "frauduq-manifest",
                    "report.json": "frauduq-report", "summary.json": "frauduq-summary",
                    "dump.json": "frauduq-predictions"}
    assert not list(out.rglob("*.tmp"))
    for path in (p for p in sorted(out.rglob("*")) if p.is_file()):
        if path.suffix == ".json":
            fmt = "frauduq-network" if path.name.startswith("member_") else json_formats[path.name]
            check_header(read_json(path), fmt, path)
        elif path.suffix == ".jsonl":
            check_header(json.loads(path.read_text().splitlines()[0]),
                         "frauduq-predictions", path)
        else:
            assert path.suffix in (".csv", ".svg"), path
            first = path.read_text().splitlines()[0].split()
            assert any(w.startswith("format=frauduq-") for w in first), path
            assert "version=1" in first, path


def test_reproduce_is_deterministic_across_directories(tmp_path, monkeypatch):
    """Two output directories get the same bytes. So does one CSV named by
    its relative and by its absolute path, but for config.json, which
    keeps the paths as given."""
    pipeline.cmd_reproduce(run_config(tmp_path, "a"), log=quiet)
    pipeline.cmd_reproduce(run_config(tmp_path, "b"), log=quiet)
    assert tree_digests(tmp_path / "a") == tree_digests(tmp_path / "b")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.csv").write_text(
        "a,b,y\n" + "".join(f"{i},{'xz'[i % 2]},{i % 2}\n" for i in range(20)))
    (tmp_path / "rows.schema.json").write_text(
        '{"format": "frauduq-schema", "version": 1, "label": "y"}')
    for out, prefix in (("relative", ""), ("absolute", f"{tmp_path}/")):
        config_path = write_config(tmp_path, {"data": {"csv": {
            "path": prefix + "rows.csv", "schema": prefix + "rows.schema.json"}}},
            name=f"{out}.json")
        pipeline.cmd_reproduce(pipeline.load_run_config(config_path, out=str(tmp_path / out)),
                               log=quiet)
    relative, absolute = tree_digests(tmp_path / "relative"), tree_digests(tmp_path / "absolute")
    assert relative.pop("config.json") != absolute.pop("config.json")
    assert relative == absolute


def test_rerun_skips_completed_stages(tmp_path):
    config = run_config(tmp_path)
    pipeline.cmd_reproduce(config, log=quiet)
    messages = []
    pipeline.cmd_reproduce(config, log=messages.append)
    skipped = [m for m in messages if "skipping" in m]
    assert len(skipped) == 10  # data, 2 models, 3 predicts, 3 evaluates, summary


def hash_counter(monkeypatch):
    """Every file container.sha256_file hashes, in call order. Stages must
    hash through that module attribute: perfbench's tracer wraps it."""
    hashed = []
    real = container.sha256_file

    def counted(path):
        hashed.append(Path(path).resolve())
        return real(path)

    monkeypatch.setattr(container, "sha256_file", counted)
    return hashed


def test_reproduce_hashes_each_file_once_per_command(tmp_path, monkeypatch):
    """Cold or resumed, a reproduce hashes each file of its run tree once:
    a stage reuses the digests that the stages before it took."""
    hashed = hash_counter(monkeypatch)
    out = tmp_path / "out"
    config = pipeline.load_run_config(profile="desk", out=str(out))
    for phase in ("cold", "resumed"):
        hashed.clear()
        messages = []
        pipeline.cmd_reproduce(config, log=messages.append)
        digested = sorted(p.resolve() for p in out.rglob("*") if p.is_file()
                          and p.name not in ("manifest.json", "config.json"))
        assert sorted(hashed) == digested, phase
    assert sum("skipping" in m for m in messages) == 10


def test_reproduce_rehashes_a_file_edited_between_commands(tmp_path, monkeypatch):
    """Digests do not outlive a command: a byte flipped in place between
    two runs, with size and mtime kept, still reruns the stage that wrote
    the file, which writes it back byte for byte; the rest skip."""
    out = tmp_path / "out"
    config = pipeline.load_run_config(profile="desk", out=str(out))
    pipeline.cmd_reproduce(config, log=quiet)
    before = tree_digests(out)
    test_json = out / "data" / "test.json"
    stat = test_json.stat()
    with open(test_json, "r+b") as fh:
        fh.seek(stat.st_size // 2)
        byte = fh.read(1)
        fh.seek(stat.st_size // 2)
        fh.write(b"A" if byte != b"A" else b"B")
    os.utime(test_json, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    edited = test_json.stat()
    assert (edited.st_ino, edited.st_size, edited.st_mtime_ns) == (
        stat.st_ino, stat.st_size, stat.st_mtime_ns)
    assert tree_digests(out) != before

    hashed = hash_counter(monkeypatch)
    messages = []
    pipeline.cmd_reproduce(config, log=messages.append)
    skipped = {m.split("]")[0] + "]" for m in messages if m.endswith("up to date, skipping")}
    assert "[data]" not in skipped and len(skipped) == 9
    assert tree_digests(out) == before
    counts = Counter(hashed)
    assert counts.pop(test_json.resolve()) == 2  # the edited file, then the one written over it
    assert set(counts.values()) == {1}


READERS = ("load_features", "load_network", "read_dump")
WRITERS = ("save_features", "save_network", "write_dump")


def spy_on(monkeypatch, names, seen):
    """Wrap each ``pipeline`` function in ``names`` (perfbench's tracer
    wraps the same globals) so that ``seen(name, args, result)`` runs
    after every call."""
    for name in names:
        def spied(*args, _real=getattr(pipeline, name), _name=name):
            result = _real(*args)
            seen(_name, args, result)
            return result
        monkeypatch.setattr(pipeline, name, spied)


def test_reproduce_decodes_each_artifact_at_most_once(tmp_path, monkeypatch):
    """A cold chain decodes no array: each stage takes the tables, networks
    and dumps that the stages before it wrote. A rerun with fewer members
    decodes only what no stage of the command wrote or read before:
    train.json, test.json and the mcd dump, one record for each array."""
    decoded, read = [], []
    real = container.decode_array
    monkeypatch.setattr(container, "decode_array",
                        lambda d, context="array": decoded.append(context) or real(d, context))
    spy_on(monkeypatch, READERS, lambda name, args, result: read.append(Path(args[0])))
    out = tmp_path / "out"
    config = pipeline.load_run_config(profile="desk", out=str(out), mc_passes=5)
    pipeline.cmd_reproduce(config, log=quiet)
    assert decoded == [] and read == []

    fewer = dataclasses.replace(config, ensemble=dataclasses.replace(config.ensemble, members=3))
    pipeline.cmd_reproduce(fewer, log=quiet)
    assert sorted(read) == [out / "data" / "test.json", out / "data" / "train.json",
                            out / "predictions" / "mcd" / "dump.json"]
    assert sorted(decoded) == sorted(["frauduq-features.features", "frauduq-features.labels"] * 2
                                     + ["frauduq-predictions.mean_probs",
                                        "frauduq-predictions.labels"])


def assert_same_artifact(given, read, where):
    """``given`` is what a read of its file returns: the same class, equal
    plain fields, and arrays of the same dtype and shape, C-contiguous and
    bitwise equal."""
    assert type(given) is type(read), where
    if dataclasses.is_dataclass(read):
        for f in dataclasses.fields(read):
            assert_same_artifact(getattr(given, f.name), getattr(read, f.name),
                                 f"{where}.{f.name}")
    elif isinstance(read, (list, tuple)):
        assert len(given) == len(read), where
        for i, (a, b) in enumerate(zip(given, read)):
            assert_same_artifact(a, b, f"{where}[{i}]")
    elif isinstance(read, np.ndarray):
        assert (given.dtype, given.shape) == (read.dtype, read.shape), where
        assert given.flags.c_contiguous and given.tobytes() == read.tobytes(), where
    else:
        assert given == read, where


def test_handed_over_artifacts_are_what_a_read_returns(tmp_path, monkeypatch):
    """Every table, network and dump a cold chain hands from stage to stage
    equals a fresh read of its file once the chain has ended, so no stage
    read anything else, nor changed a shared object in place."""
    handed = []
    real = pipeline._hand_over
    monkeypatch.setattr(pipeline, "_hand_over", lambda path, artifact, memo: (
        handed.append((Path(path), artifact)), real(path, artifact, memo)))
    out = tmp_path / "out"
    pipeline.cmd_reproduce(pipeline.load_run_config(profile="desk", out=str(out),
                                                    mc_passes=5), log=quiet)
    files = sorted(p for d in ("data", "models", "predictions") for p in (out / d).rglob("*.json")
                   if p.name not in ("manifest.json", "spec.json"))
    assert sorted(path for path, _ in handed) == files
    readers = {"train.json": pipeline.load_features, "test.json": pipeline.load_features,
               "dump.json": pipeline.read_dump}  # and the networks
    for path, artifact in handed:
        read = readers.get(path.name, pipeline.load_network)(path)
        assert_same_artifact(artifact, read, path.relative_to(out).as_posix())


def test_reproduce_lets_go_of_what_no_later_stage_reads(tmp_path, monkeypatch):
    """The training table is freed before the first predict stage starts,
    the single network before the ensemble predict stage, and nothing the
    chain wrote or read outlives the command; cold, and rerun with fewer
    members, when train.json and test.json are read from their files."""
    refs = {}  # file name -> weak references to the objects written or read there

    def seen(name, args, result):
        if name in READERS:
            path, artifact = args[0], result
        elif name == "write_dump":  # dump.jsonl, dump.json, dump
            _, path, artifact = args
        else:
            artifact, path = args
        refs.setdefault(Path(path).name, []).append(weakref.ref(artifact))

    spy_on(monkeypatch, WRITERS + READERS, seen)

    def alive(name):
        gc.collect()
        return [ref for ref in refs.get(name, ()) if ref() is not None]

    starts = []
    real_predict = pipeline.stage_predict

    def predict(config, method, *args, **kwargs):
        starts.append((method, alive("train.json"), alive("single.json")))
        return real_predict(config, method, *args, **kwargs)

    monkeypatch.setattr(pipeline, "stage_predict", predict)
    config = pipeline.load_run_config(profile="desk", out=str(tmp_path / "out"), mc_passes=5)
    fewer = dataclasses.replace(config, ensemble=dataclasses.replace(config.ensemble, members=3))
    for run in (config, fewer):
        refs.clear()
        starts.clear()
        pipeline.cmd_reproduce(run, log=quiet)
        assert refs["train.json"] and refs["test.json"] and refs["dump.json"]
        assert [(m, t, s != []) for m, t, s in starts] == [
            ("mcd", [], run is config), ("ensemble", [], False), ("emcd", [], False)]
        assert [name for name in refs if alive(name)] == []


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


def test_synthetic_rebuild_removes_the_csv_preprocessor(tmp_path):
    """preprocess with a CSV config and then without one, into the same
    --out: the synthetic build removes the CSV build's preprocessor.json,
    so the data directory holds exactly what its manifest lists."""
    (tmp_path / "rows.csv").write_text(
        "a,b,y\n" + "".join(f"{i},{'xz'[i % 2]},{i % 2}\n" for i in range(20)))
    (tmp_path / "rows.schema.json").write_text(
        '{"format": "frauduq-schema", "version": 1, "label": "y"}')
    csv_config = write_config(tmp_path, {"data": {"csv": {
        "path": str(tmp_path / "rows.csv"), "schema": str(tmp_path / "rows.schema.json")}}},
        name="csv.json")
    out = tmp_path / "out"
    assert cli_run("preprocess", "--config", str(csv_config), "--out", str(out)) == 0
    assert (out / "data" / "preprocessor.json").is_file()
    assert cli_run("preprocess", "--config", str(write_config(tmp_path)), "--out", str(out)) == 0
    manifest = json.loads((out / "data" / "manifest.json").read_text())
    assert sorted(p.name for p in (out / "data").iterdir()) == sorted(
        [*manifest["outputs"], "manifest.json"]) == ["manifest.json", "test.json", "train.json"]


def test_each_model_trains_once_whichever_command_asks(tmp_path):
    """Each model is a stage of its own: after train and train --method
    emcd, neither reproduce nor another train trains anything."""
    config = run_config(tmp_path)
    pipeline.cmd_preprocess(config, log=quiet)
    messages = []
    pipeline.cmd_train(config, log=messages.append)
    pipeline.cmd_train(run_config(tmp_path, method="emcd"), log=messages.append)
    trained = [m for m in messages if m.startswith("[train]")]
    assert len(trained) == 1 + TINY["network"]["epochs"] + TINY["ensemble"]["members"]
    messages.clear()
    pipeline.cmd_reproduce(config, log=messages.append)
    pipeline.cmd_train(config, log=messages.append)
    assert not [m for m in messages if m.startswith("[train]")]


def test_stages_run_as_commands_write_what_reproduce_writes(tmp_path):
    """A stage run by a command of its own takes the path it takes inside
    reproduce: preprocess, then train, predict and evaluate for each
    method, write the bytes that reproduce writes, and a reproduce over
    their tree builds only the summary."""
    pipeline.cmd_preprocess(run_config(tmp_path, "alone"), log=quiet)
    for method in METHODS:
        config = run_config(tmp_path, "alone", method=method)
        pipeline.cmd_train(config, log=quiet)
        pipeline.cmd_predict(config, log=quiet)
        pipeline.cmd_evaluate(config, log=quiet)
    pipeline.cmd_reproduce(run_config(tmp_path, "chain"), log=quiet)
    alone, chain = ({rel: digest for rel, digest in tree_digests(tmp_path / out).items()
                     if rel.split("/")[0] in ("data", "models", "predictions", "reports")}
                    for out in ("alone", "chain"))
    assert alone == chain and len(alone) == 34
    messages = []
    pipeline.cmd_reproduce(run_config(tmp_path, "alone"), log=messages.append)
    skipped = [m for m in messages if m.endswith("] up to date, skipping")]
    assert len(skipped) == 9 and not any(m.startswith("[summary]") for m in skipped)
    assert (tmp_path / "alone/summary/summary.json").is_file()


def test_a_rebuilt_stage_keeps_only_the_files_it_lists(tmp_path):
    """An ensemble retrained with fewer members leaves only the member
    files it lists, and training the ensemble leaves the single net."""
    out = tmp_path / "out"
    config = run_config(tmp_path)
    pipeline.cmd_preprocess(config, log=quiet)
    pipeline.cmd_train(config, log=quiet)
    for members in (3, 2):
        pipeline.cmd_train(pipeline.load_run_config(write_config(
            tmp_path, {"ensemble": {**TINY["ensemble"], "members": members}}),
            out=str(out), method="emcd"), log=quiet)
    ensemble = out / "models" / "ensemble"
    manifest = json.loads((ensemble / "manifest.json").read_text())
    assert sorted(p.name for p in ensemble.iterdir()) == sorted(
        [*manifest["outputs"], "manifest.json"]) == [
        "manifest.json", "member_000.json", "member_001.json", "spec.json"]
    assert sorted(p.name for p in (out / "models").iterdir()) == [
        "ensemble", "manifest.json", "single.json"]


@pytest.mark.parametrize("stale", [False, True], ids=["current", "stale-config"])
@pytest.mark.parametrize("kind", ["relative", "absolute", "directory"])
def test_a_manifest_naming_a_path_reruns_and_removes_nothing(tmp_path, kind, stale):
    """A manifest output key that is a path, not a file name in the stage
    directory, is refused like any faulty manifest: the stage reruns, and
    the rerun removes nothing outside its directory, whether or not the
    rest of the manifest still matches. A key naming a directory in it
    reruns the stage too, and the directory stays."""
    config = run_config(tmp_path)
    pipeline.cmd_preprocess(config, log=quiet)
    data = tmp_path / "out" / "data"
    manifest = data / "manifest.json"
    good = manifest.read_bytes()
    victim = {"relative": data.parent, "absolute": tmp_path, "directory": data}[kind] / "victim"
    key = {"relative": "../victim", "absolute": str(victim), "directory": "victim"}[kind]
    if kind == "directory":
        victim.mkdir()
        victim = victim / "inside"
    victim.write_text("keep")
    doctored = json.loads(good)
    doctored["outputs"][key] = hashlib.sha256(b"keep").hexdigest()
    if stale:
        doctored["config_digest"] = "0" * 64
    manifest.write_text(json.dumps(doctored))
    messages = []
    pipeline.stage_data(config, log=messages.append)
    assert not any("skipping" in m for m in messages)
    assert victim.read_text() == "keep"
    assert manifest.read_bytes() == good


def test_reproduce_over_the_older_dump_layout_reruns_predict(tmp_path, capsys):
    """A tree whose predictions hold the older dump layout (dump.jsonl,
    read back by evaluate, beside dump.csv) has a stage config digest of
    its own: reproduce reruns each predict and evaluate stage, exits 0,
    and leaves the tree of a fresh run, dump.csv gone."""
    config_path = write_config(tmp_path)
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    for out in (old, fresh):
        assert cli_run("reproduce", "--config", str(config_path), "--out", str(out)) == 0
    config = pipeline.load_run_config(config_path)
    for method in METHODS:
        stage = old / "predictions" / method
        passes = None if method == "ensemble" else config.mc_passes
        digest = pipeline._digest_of({"method": method, "mc_passes": passes,
                                      "seed": config.seed})
        head, rows = (stage / "dump.jsonl").read_text().split("\n", 1)
        (stage / "dump.jsonl").write_text(json.dumps(
            {**json.loads(head), "config_digest": digest}, sort_keys=True) + "\n" + rows)
        (stage / "dump.csv").write_text("# format=frauduq-predictions version=1\nindex\n")
        (stage / "dump.json").unlink()
        outputs = {name: hashlib.sha256((stage / name).read_bytes()).hexdigest()
                   for name in ("dump.jsonl", "dump.csv")}
        for path, change in ((stage / "manifest.json", {"config_digest": digest,
                                                        "outputs": outputs}),
                             (old / "reports" / method / "manifest.json",
                              {"inputs": {"dump": outputs["dump.jsonl"]}})):
            path.write_text(json.dumps({**json.loads(path.read_text()), **change}))

    capsys.readouterr()
    assert cli_run("reproduce", "--config", str(config_path), "--out", str(old)) == 0
    skipped = [line for line in capsys.readouterr().out.splitlines() if "skipping" in line]
    assert skipped == ["[data] up to date, skipping", "[models] up to date, skipping",
                       "[models/ensemble] up to date, skipping",
                       "[summary] up to date, skipping"]
    assert tree_digests(old) == tree_digests(fresh)


def test_reproduce_over_float64_sampled_dumps_reruns_predict_once(tmp_path, capsys):
    """A tree predicted before the float32 sampler has the predict stage
    config of its time, with no ``sampling`` key, in its predict manifests
    and dumps. reproduce reruns each predict stage, then each evaluate
    stage and the summary as their dumps changed, and leaves the tree of a
    fresh run; the next reproduce skips every stage."""
    config_path = write_config(tmp_path)
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    for out in (old, fresh):
        assert cli_run("reproduce", "--config", str(config_path), "--out", str(out)) == 0
    config = pipeline.load_run_config(config_path)
    dump_digests = {}
    for method in METHODS:
        stage = old / "predictions" / method
        digest = pipeline._digest_of({
            "method": method, "mc_passes": None if method == "ensemble" else config.mc_passes,
            "seed": config.seed, "files": ["dump.jsonl", "dump.json"]})
        files = [stage / "dump.jsonl", stage / "dump.json"]
        write_dump(*files, dataclasses.replace(unc.read_dump(files[1]), config_digest=digest))
        outputs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        dump_digests[method] = outputs["dump.json"]
        for path, change in ((stage / "manifest.json", {"config_digest": digest,
                                                        "outputs": outputs}),
                             (old / "reports" / method / "manifest.json",
                              {"inputs": {"dump": outputs["dump.json"]}})):
            path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    summary = old / "summary" / "manifest.json"
    summary.write_text(json.dumps({**json.loads(summary.read_text()), "inputs": dump_digests}))

    capsys.readouterr()
    assert cli_run("reproduce", "--config", str(config_path), "--out", str(old)) == 0
    skipped = [line for line in capsys.readouterr().out.splitlines() if "skipping" in line]
    assert skipped == ["[data] up to date, skipping", "[models] up to date, skipping",
                       "[models/ensemble] up to date, skipping"]
    assert tree_digests(old) == tree_digests(fresh)
    assert cli_run("reproduce", "--config", str(config_path), "--out", str(old)) == 0
    assert capsys.readouterr().out.count("up to date, skipping") == 10


def test_unreadable_manifest_reruns_the_stage(tmp_path):
    config = run_config(tmp_path)
    pipeline.cmd_preprocess(config, log=quiet)
    manifest = tmp_path / "out" / "data" / "manifest.json"
    good = manifest.read_bytes()
    # unparsable, then intact but for a version this code does not write,
    # then outputs that are not an object of digests
    newer = good.decode().replace('"version": 1', '"version": 2')
    assert newer != good.decode()
    mistyped = [json.dumps({**json.loads(good), "outputs": v}) for v in (5, "x", [1])]
    lacking = [json.dumps({k: v for k, v in json.loads(good).items() if k != key})
               for key in ("stage", "inputs", "outputs")]
    for doctored in ("{not json", newer, *mistyped, *lacking, *UNREADABLE_JSON):
        manifest.write_text(doctored)
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

    # a csv source does not apply to synth, and synth says so
    for name in ("rows.csv", "rows.schema.json"):
        (tmp_path / name).write_text("")
    csv_config = dataclasses.replace(config, data=pipeline.DataSource(csv=pipeline.CsvSource(
        str(tmp_path / "rows.csv"), str(tmp_path / "rows.schema.json"))))
    messages = []
    path = pipeline.cmd_synth(csv_config, log=messages.append)
    assert load_features(path).n_rows == 1000
    assert any("rows.csv" in m and "is ignored" in m and "default settings" in m
               for m in messages), messages


# --- CLI ------------------------------------------------------------------------


def cli_run(*argv):
    return cli.main(list(argv))


def write_dump_file(path, method, mean_probs, labels):
    """A checked ``dump.json`` of these distributions and labels."""
    write_dump(path.with_suffix(".jsonl"), path, DumpFile(
        method, np.asarray(mean_probs, dtype=np.float64), np.array(labels, dtype=np.int64),
        seed=21, mc_passes=8, config_digest="ab12"))
    return path


def test_cli_full_chain_exit_codes(tmp_path):
    config_path = write_config(tmp_path)
    out = str(tmp_path / "cli_out")
    base = ["--config", str(config_path), "--out", out]
    assert cli_run("preprocess", *base) == 0
    assert cli_run("train", *base) == 0
    assert cli_run("predict", *base) == 0
    assert cli_run("evaluate", *base) == 0
    assert (tmp_path / "cli_out" / "reports" / "mcd" / "report.json").is_file()


COMMAND_PATHS = {
    "preprocess": {}, "train": {},
    "predict": {"model_path": "nets/single.json", "data_path": "data/test.json"},
    "evaluate": {"dump_path": "dumps/mcd.json"}, "sweep": {"dump_path": "dumps/mcd.json"},
    "synth": {}, "reproduce": {},
}
PATH_FLAGS = {"model_path": "--model", "data_path": "--data", "dump_path": "--dump"}


@pytest.mark.parametrize("command", COMMAND_PATHS)
def test_cli_runs_each_subcommand_with_its_config_and_path_keywords(
        command, tmp_path, monkeypatch):
    """Every subcommand reaches its own ``pipeline.cmd_*`` exactly once,
    with the resolved config and only that command's path keywords."""
    calls = []
    for name in COMMAND_PATHS:
        monkeypatch.setattr(pipeline, f"cmd_{name}",
                            lambda config, name=name, **paths: calls.append((name, config, paths)))
    config_path = write_config(tmp_path)
    out = str(tmp_path / "out")
    paths = COMMAND_PATHS[command]
    flags = [arg for key, value in paths.items() for arg in (PATH_FLAGS[key], value)]
    assert cli_run(command, "--config", str(config_path), "--out", out, "--seed", "5",
                   "--method", "emcd", "--mc-passes", "3", *flags) == 0
    config = pipeline.load_run_config(path=config_path, seed=5, out=out, method="emcd",
                                      mc_passes=3)
    assert calls == [(command, config, paths)]


def test_cli_validation_errors_exit_2(tmp_path, capsys):
    missing_schema = write_config(
        tmp_path, {"data": {"csv": {"path": "/nope.csv", "schema": "/nope.json"}}},
        name="míssing.json")
    assert cli_run("preprocess", "--config", str(missing_schema)) == 2
    assert "error:" in capsys.readouterr().err

    bad_method = write_config(tmp_path, {"method": "bogus"}, name="method.json")
    assert cli_run("train", "--config", str(bad_method)) == 2
    assert "bogus" in capsys.readouterr().err

    # A config that cannot be read (missing, or a directory) is bad input
    # too: exit 2 naming it, before any output directory is made.
    out = tmp_path / "never"
    for unreadable in (tmp_path / "nonexist.json", tmp_path):
        assert cli_run("preprocess", "--config", str(unreadable), "--out", str(out)) == 2
        assert str(unreadable) in capsys.readouterr().err
        assert not out.exists()


def test_cli_out_of_memory_exits_5_with_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(pipeline, "cmd_synth", exhausted)
    assert cli_run("synth", "--config", str(write_config(tmp_path))) == 5
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n", err


def config_fields(cls, path=()):
    """(key path, annotation) of every field under a config class, the
    sections' own fields included."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if isinstance(kind, types.UnionType):  # X | None: an optional section
            (kind,) = [a for a in typing.get_args(kind) if a is not type(None)]
        yield (*path, f.name), kind
        if dataclasses.is_dataclass(kind):
            yield from config_fields(kind, (*path, f.name))


def every_field_mistyped():
    """A wrong-kind value, a bool and null for every RunConfig leaf, and
    null for every section, so a field added later is checked too."""
    wrong_kind = {int: "1", float: "0.5", str: 3}
    for path, kind in config_fields(pipeline.RunConfig):
        named = f"config.{'.'.join(path)}"
        if dataclasses.is_dataclass(kind):
            values = [None]
        else:
            wrong = "x" if typing.get_origin(kind) is tuple else wrong_kind[kind]
            values = [wrong, True, None]
        for value in values:
            overrides = value
            for key in reversed(path):
                overrides = {key: overrides}
            yield pytest.param(overrides, named, id=f"{'.'.join(path)}={json.dumps(value)}")


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
    ({"data": ["synth"]}, "config.data"),
    ({"network": {"dropout_rate": "0.3"}}, "network.dropout_rate"),
    ({"network": {"epochs": 2.5}}, "network.epochs"),
    ({"network": {"learning_rate": float("nan")}}, "network.learning_rate"),
    ({"network": {"hidden_units": [8, 6.0, 4]}}, "network.hidden_units[1]"),
    ({"ensemble": {"members": True}}, "ensemble.members"),
    ({"ensemble": {"width_ranges": [[6, 10], [4, 8], [3, 5, 7]]}}, "[3, 5, 7]"),
    ({"ensemble": {"width_ranges": [[8], [4, 8], [3, 5]]}}, "ensemble.width_ranges[0]"),
    ({"network": {"hidden_units": [8, 6]}}, "network.hidden_units must be a list of 3"),
    *every_field_mistyped(),
])
def test_cli_mistyped_config_values_exit_2(tmp_path, capsys, overrides, named):
    """A wrong-typed value exits 2, names the field and writes nothing."""
    out = tmp_path / "out"
    config_path = write_config(tmp_path, overrides)
    assert cli_run("preprocess", "--config", str(config_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, key", [
    ({"network": {"hidden_units": [2**63 - 1, 5, 4]}}, "hidden_units"),
    ({"network": {"hidden_units": [4, 2**62, 4]}}, "hidden_units"),
    ({"ensemble": {"width_ranges": [[4, 2**63 - 1], [2, 5], [2, 3]]}}, "width_ranges"),
], ids=["first-width", "inner-widths", "width-range"])
@pytest.mark.parametrize("method", ["mcd", "ensemble"])
def test_cli_width_numpy_cannot_allocate_exits_2_naming_the_key(tmp_path, capsys, overrides,
                                                                key, method):
    """A hidden width, or the top of a width range, whose weight matrix is
    larger than numpy can allocate at any input width is refused before
    `train` starts on a preprocessed tree: exit 2, one error line naming
    the key, and no model written."""
    out = tmp_path / "out"
    assert cli_run("preprocess", "--config", str(write_config(tmp_path)), "--out", str(out)) == 0
    huge = write_config(tmp_path, overrides, name="huge.json")
    capsys.readouterr()
    assert cli_run("train", "--config", str(huge), "--out", str(out), "--method", method) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {key} ") and "more than numpy can allocate" in line, line
    assert not (out / "models").exists()


@pytest.mark.parametrize("overrides, key", [
    ({"data": {"synth": {**TINY["data"]["synth"], "n_per_class": 2**63 - 1}}}, "data.synth"),
    ({"data": {"synth": {**TINY["data"]["synth"], "n_features": 2**63 - 1}}}, "data.synth"),
    ({"mc_passes": 2**63 - 1}, "mc_passes"),
    ({"m_bins": 2**63 - 1}, "m_bins"),
], ids=["n_per_class", "n_features", "mc_passes", "m_bins"])
def test_cli_config_numpy_cannot_allocate_exits_2_naming_the_key(tmp_path, capsys, overrides,
                                                                 key):
    """A synthetic table, one row's pass tensor or a bin count of more
    values than numpy can allocate is refused before any work: exit 2,
    one error line naming the key, and no output directory."""
    out = tmp_path / "out"
    config = write_config(tmp_path, overrides)
    assert cli_run("preprocess", "--config", str(config), "--out", str(out)) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {key} ") and "more than numpy can allocate" in line, line
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


BLAS_PROBE = """
import ctypes, sys
from pathlib import Path
import numpy as np
from frauduq import cli
package = Path(np.__file__).parent
libs = [ctypes.CDLL(str(p)) for p in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                                             *package.glob(".dylibs/*openblas*")])]
names = [name.replace("_set_", "_get_") for name in cli._BLAS_SETTERS]
getter = next((getattr(lib, n) for lib in libs for n in names if hasattr(lib, n)), None)
before = getter and getter()
code = cli.main(["synth", "--out", sys.argv[1]])
print(before, getter and getter(), code)
"""


def test_cli_pins_numpys_openblas_to_one_thread(tmp_path):
    """With no thread variable set, OpenBLAS starts on as many threads as
    it likes; after a CLI command it runs on one."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after, code = done.stdout.splitlines()[-1].split()
    if before == "None":
        pytest.skip("numpy here does not bundle OpenBLAS")
    assert (int(before) >= 1, after, code) == (True, "1", "0")
    assert "warning" not in done.stderr


def test_cli_says_once_when_blas_cannot_be_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_BLAS_SETTERS", ("no_such_setter",))
    assert cli_run("synth", "--out", str(tmp_path / "out")) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "OpenBLAS" in line]
    assert warnings == ["warning: cannot reach numpy's OpenBLAS to pin it to one thread; set "
                        "OPENBLAS_NUM_THREADS=1 for artifacts that do not depend on the core "
                        "count"]


def test_cli_method_model_mismatch_exits_2(tmp_path, capsys):
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
    # an emcd dump scored as mcd (the default method) is refused, not relabelled
    dump = write_dump_file(tmp_path / "emcd.json", "emcd", [[0.5, 0.5]], [0])
    capsys.readouterr()
    for command in ("evaluate", "sweep"):
        assert cli_run(command, "--config", str(config_path), "--out", out,
                       "--dump", str(dump)) == 2
        err = capsys.readouterr().err
        assert str(dump) in err and "emcd predictions" in err and "method is mcd" in err, err
    assert not (tmp_path / "out" / "reports" / "mcd" / "report.json").exists()


def test_cli_data_errors_exit_3(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out = str(tmp_path / "out")

    empty = write_dump_file(tmp_path / "empty.json", "mcd", np.empty((0, 2)), [])
    assert cli_run("evaluate", "--config", str(config_path), "--out", out,
                   "--dump", str(empty)) == 3
    assert f"{empty}: dump contains no predictions" in capsys.readouterr().err

    # every dump carries labels: a null is refused when the file is read
    unlabeled = write_dump_file(tmp_path / "unlabeled.json", "mcd", [[0.6, 0.4]], [0])
    unlabeled.write_text(json.dumps({**json.loads(unlabeled.read_text()), "labels": None}))
    assert cli_run("evaluate", "--config", str(config_path), "--out", out,
                   "--dump", str(unlabeled)) == 3
    assert f"{unlabeled}: frauduq-predictions.labels: malformed array record: must be an " \
        "object with shape, dtype and data\n" in capsys.readouterr().err

    truncated = tmp_path / "truncated.json"
    whole = write_dump_file(tmp_path / "whole.json", "mcd", [[0.6, 0.4], [0.1, 0.9]], [0, 1])
    truncated.write_bytes(whole.read_bytes()[:-40])
    assert cli_run("evaluate", "--config", str(config_path), "--out", out,
                   "--dump", str(truncated)) == 3
    assert f"{truncated}: not valid JSON" in capsys.readouterr().err

    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(whole.read_bytes() + b"\xff")
    assert cli_run("evaluate", "--config", str(config_path), "--out", out,
                   "--dump", str(not_utf8)) == 3
    assert f"{not_utf8}: not valid UTF-8" in capsys.readouterr().err

    for i, text in enumerate(UNREADABLE_JSON):
        unreadable = tmp_path / f"unreadable{i}.json"
        unreadable.write_text(text)
        assert cli_run("evaluate", "--config", str(config_path), "--out", out,
                       "--dump", str(unreadable)) == 3
        assert f"{unreadable}: not readable as JSON" in capsys.readouterr().err

    # a CSV whose only column is the label: refused by the data stage,
    # before any network is trained
    (tmp_path / "labels.csv").write_text("y\n0\n1\n0\n1\n")
    (tmp_path / "labels.schema.json").write_text(
        '{"format": "frauduq-schema", "version": 1, "label": "y"}')
    labels_only = write_config(tmp_path, {"data": {"csv": {
        "path": str(tmp_path / "labels.csv"), "schema": str(tmp_path / "labels.schema.json")}}},
        name="labels.json")
    assert cli_run("reproduce", "--config", str(labels_only), "--out", out) == 3
    assert "labels.csv" in capsys.readouterr().err
    assert not (tmp_path / "out" / "models").exists()

    # a header that names a column twice, here a second label column
    (tmp_path / "labels.csv").write_text("y,a,y\n0,1.5,0\n1,2.5,1\n")
    assert cli_run("reproduce", "--config", str(labels_only), "--out", out) == 3
    assert "labels.csv: the header names the label column 'y' more than once" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out" / "models").exists()

    # a model file whose stored config is out of range
    assert cli_run("preprocess", "--config", str(config_path), "--out", out) == 0
    assert cli_run("train", "--config", str(config_path), "--out", out) == 0
    model = json.loads((tmp_path / "out" / "models" / "single.json").read_text())
    model["config"]["dropout_rate"] = -0.5
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(model))
    capsys.readouterr()
    assert cli_run("predict", "--config", str(config_path), "--out", out,
                   "--model", str(doctored)) == 3
    err = capsys.readouterr().err
    assert "doctored.json" in err and "dropout_rate" in err


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


def test_cli_non_finite_member_exits_4_without_a_traceback(tmp_path, capsys, monkeypatch):
    """A member with a non-finite bias is refused before its passes run:
    emcd exits 4 with one error line, and no thread is left behind."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config_path = write_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", str(config_path), "--out", str(out), "--method", "emcd"]
    assert cli_run("preprocess", *base) == 0
    assert cli_run("train", *base) == 0
    member = out / "models" / "ensemble" / "member_001.json"
    net = network.load_network(member)
    net.biases[-1][:] = np.inf
    network.save_network(net, member)
    before = threading.active_count()
    capsys.readouterr()
    assert cli_run("predict", *base) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err, err
    assert threading.active_count() == before


def test_cli_member_beyond_float32_exits_4_with_one_error_line(tmp_path, capsys):
    """A member file with a finite float64 weight beyond float32's range
    cannot run the float32 passes: predict exits 4 with one error line
    naming the model, and no warning or traceback."""
    config_path = write_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", str(config_path), "--out", str(out), "--method", "ensemble"]
    assert cli_run("preprocess", *base) == 0
    assert cli_run("train", *base) == 0
    member = out / "models" / "ensemble" / "member_001.json"
    net = network.load_network(member)
    net.weights[1][0, 0] = 1e300
    network.save_network(net, member)
    capsys.readouterr()
    assert cli_run("predict", *base) == 4
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: model 2 of 3 has a weight or bias that is non-finite in float32 "
        "(beyond 3.403e+38)"], err


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_cli_member_files_and_logs_do_not_depend_on_the_core_count(tmp_path, capsys,
                                                                    monkeypatch):
    """1 and 2 cores write the same member files and print the same log,
    bitwise. On one core the caller trains every member; on two, two
    worker processes do, and none is left."""
    config_path = write_config(tmp_path)
    train, runs, pids = unc.train, [], tmp_path / "pids"

    def recording(*args):
        with open(pids, "a") as fh:  # from a worker too: a list would not come back
            fh.write(f"{os.getpid()}\n")
        return train(*args)

    monkeypatch.setattr(unc, "train", recording)
    for cores in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        pids.write_text("")
        out = tmp_path / f"out{cores}"
        base = ["--config", str(config_path), "--out", str(out), "--method", "ensemble"]
        assert cli_run("preprocess", *base) == 0
        capsys.readouterr()
        assert cli_run("train", *base) == 0
        runs.append((tree_digests(out / "models"), capsys.readouterr().out))
        trained_in = pids.read_text().split()
        assert len(trained_in) == 3 and no_child_is_left()
        if cores == 1:
            assert set(trained_in) == {str(os.getpid())}
        else:
            assert len(set(trained_in)) == 2 and str(os.getpid()) not in trained_in
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 5  # manifest, spec and 3 members


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_cli_diverging_member_exits_4_with_one_error_line(tmp_path, capsys, monkeypatch):
    """A member that diverges in a worker process ends `train` with exit 4
    and one error line; no ensemble file is written and no worker is
    left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    member_config = unc.member_config

    def diverging(spec, base, index, master_seed=0):
        config = member_config(spec, base, index, master_seed)
        return dataclasses.replace(config, learning_rate=1e300) if index == 1 else config

    monkeypatch.setattr(unc, "member_config", diverging)
    config_path = write_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", str(config_path), "--out", str(out), "--method", "ensemble"]
    assert cli_run("preprocess", *base) == 0
    capsys.readouterr()
    assert cli_run("train", *base) == 4
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: softmax input contains non-finite values"], err
    assert "Traceback" not in err and not (out / "models" / "ensemble" / "spec.json").exists()
    assert no_child_is_left()


def test_cli_killed_worker_exits_5_naming_the_member_and_the_signal(tmp_path, capsys,
                                                                     monkeypatch):
    """A worker killed by SIGKILL in the middle of member 2, as the kernel
    kills a process out of memory, ends `train` with exit 5 and one error
    line naming the member and the signal; no ensemble file is written and
    no worker is left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    train, config_path = unc.train, write_config(tmp_path)
    member_2 = unc.member_config(EnsembleSpec(**TINY["ensemble"]), network.NetworkConfig(
        input_units=1, **TINY["network"]), 1, TINY["seed"]).seed

    def killed(config, data):
        if config.seed == member_2:
            os.kill(os.getpid(), signal.SIGKILL)
        return train(config, data)

    monkeypatch.setattr(unc, "train", killed)
    out = tmp_path / "out"
    base = ["--config", str(config_path), "--out", str(out), "--method", "ensemble"]
    assert cli_run("preprocess", *base) == 0
    capsys.readouterr()
    assert cli_run("train", *base) == 5
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: ensemble member 2/3: its worker process was killed by "
                                f"signal {signal.SIGKILL.value} "
                                f"({signal.strsignal(signal.SIGKILL)})"], err
    assert not (out / "models" / "ensemble" / "spec.json").exists()
    assert no_child_is_left()


PAPER_WIDTHS = {
    "data": {"synth": {"n_per_class": 100, "n_features": 30, "separation": 2.5}},
    "network": {"hidden_units": [256, 64, 16], "epochs": 1, "batch_size": 128},
    "ensemble": {"members": 2, "width_ranges": [[256, 260], [64, 66], [16, 18]]},
    "mc_passes": 2,
    "seed": 5,
}


def reproduce_in_subprocess(tmp_path, out_name, env_changes, pin=None):
    """Run `frauduq reproduce` on the paper-width PAPER_WIDTHS config in a
    fresh process and return its tree's digests and its stdout."""
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(PAPER_WIDTHS))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, **env_changes,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env = {k: v for k, v in env.items() if v is not None}
    out = tmp_path / out_name
    done = subprocess.run([sys.executable, "-m", "frauduq", "reproduce", "--config",
                           str(config_path), "--out", str(out)], env=env, preexec_fn=pin,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return tree_digests(out), done.stdout


def usable_core_ids():
    cores = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if len(cores) < 2 or not hasattr(os, "fork"):
        pytest.skip("needs at least 2 usable cores and os.fork")
    return cores


def test_cli_reproduce_tree_does_not_depend_on_the_core_count(tmp_path):
    """A tiny `reproduce` with paper-width members writes the same tree
    pinned to one core, where the caller trains them, as on every usable
    core, where worker processes do."""
    core = min(usable_core_ids())
    pinned = reproduce_in_subprocess(tmp_path, "pinned", {},
                                     pin=lambda: os.sched_setaffinity(0, {core}))
    assert pinned == reproduce_in_subprocess(tmp_path, "unpinned", {})


def test_cli_reproduce_forks_safely_beside_openblas_threads(tmp_path):
    """With OPENBLAS_NUM_THREADS unset, OpenBLAS's threads are alive when
    the workers are forked; `reproduce` still exits 0 and writes the tree
    it writes with OPENBLAS_NUM_THREADS=1."""
    usable_core_ids()
    unset = {name: None for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                     "OMP_NUM_THREADS")}
    if os.path.exists("/proc/self/status"):  # the CLI's threads once it has pinned BLAS
        probe = subprocess.run([sys.executable, "-c", "from frauduq import cli; "
                                "cli._pin_blas_threads(); print(open('/proc/self/status').read())"],
                               env={k: v for k, v in {**os.environ, **unset}.items() if v},
                               capture_output=True, text=True, timeout=60,
                               cwd=Path(__file__).resolve().parent.parent / "src")
        assert re.search(r"^Threads:\s+([2-9]|\d\d+)$", probe.stdout, re.M), probe.stdout
    forked = reproduce_in_subprocess(tmp_path, "unset", unset)
    assert forked == reproduce_in_subprocess(tmp_path, "one", {"OPENBLAS_NUM_THREADS": "1"})


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
