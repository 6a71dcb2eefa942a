"""Bad artifacts read back from disk exit 3 naming the file, never with a
traceback: pinned faults, a non-UTF-8 CSV, a sweep that breaks every
leaf of every JSON artifact a command takes by path, and a seeded fuzzer
that changes one leaf of a run tree's artifact before a reproduce.

One tiny run tree (1 epoch, 2 MC passes) is built once for the module;
each test edits copies of its files.
"""

import copy
import hashlib
import json
import random
import shutil
import signal

import numpy as np
import pytest

from frauduq import cli
from frauduq.data import FeatureTable, save_features

TINY = {
    "data": {"synth": {"n_per_class": 20, "n_features": 3, "separation": 2.5}},
    "network": {"hidden_units": [6, 5, 4], "epochs": 1, "batch_size": 16},
    "ensemble": {"members": 3, "width_ranges": [[4, 8], [3, 6], [2, 4]]},
    "mc_passes": 2,
    "seed": 5,
}

CSV_ROWS = "amount,colour,y\n" + "".join(
    f"{i * 1.5},{('red', 'blue', 'NA')[i % 3]},{i % 2}\n" for i in range(24))
SCHEMA = {"format": "frauduq-schema", "version": 1, "label": "y",
          "kinds": {"colour": "categorical"}, "missing_values": ["", "NA"]}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A reproduced run and its config."""
    root = tmp_path_factory.mktemp("tree")
    (root / "tiny.json").write_text(json.dumps(TINY))
    assert cli.main(["reproduce", "--config", str(root / "tiny.json"),
                     "--out", str(root / "out")]) == 0
    return root


@pytest.fixture
def work(tree, tmp_path):
    """A private copy of the tree, so a test can break its files, plus a
    CSV, its schema and a config naming them."""
    shutil.copytree(tree, tmp_path, dirs_exist_ok=True)
    (tmp_path / "rows.csv").write_text(CSV_ROWS)
    (tmp_path / "rows.schema.json").write_text(json.dumps(SCHEMA))
    (tmp_path / "csv.json").write_text(json.dumps({**TINY, "data": {"csv": {
        "path": str(tmp_path / "rows.csv"), "schema": str(tmp_path / "rows.schema.json")}}}))
    return tmp_path


def commands(root):
    """The file a command takes by path -> that command's argv."""
    run = ["--config", str(root / "tiny.json"), "--out", str(root / "again"),
           "--data", str(root / "out/data/test.json")]
    single = ["predict", *run, "--model", str(root / "out/models/single.json")]
    ensemble = ["predict", *run, "--model", str(root / "out/models/ensemble"),
                "--method", "ensemble"]
    return {
        "out/data/test.json": single,
        "out/models/single.json": single,
        "out/models/ensemble/member_000.json": ensemble,
        "out/models/ensemble/spec.json": ensemble,
        "rows.schema.json": ["preprocess", "--config", str(root / "csv.json"),
                             "--out", str(root / "again")],
        "out/predictions/mcd/dump.json": ["evaluate", *run[:4],
                                          "--dump", str(root / "out/predictions/mcd/dump.json")],
    }


@pytest.mark.parametrize("rel, change, key", [
    ("out/models/ensemble/spec.json", {"width_ranges": [[8], [3, 6], [2, 4]]},
     "width_ranges[0] must be a list of 2 items"),
    ("rows.schema.json", {"kinds": [1]}, "kinds must be an object"),
    ("rows.schema.json", {"missing_values": 5}, "missing_values must be a list"),
    ("rows.schema.json", {"colour": "red"}, "unknown frauduq-schema key(s)"),
    ("rows.schema.json", {"kinds": {"colour": "ordinal"}}, "unknown kind 'ordinal'"),
    ("out/data/test.json", {"provenance": [1]}, "provenance must be a string"),
    ("out/models/ensemble/spec.json", {"members": 1}, "members must be >= 2"),
    ("out/models/ensemble/spec.json", {"width_ranges": [[8, 4], [3, 6], [2, 4]]},
     "width range [8, 4]"),
    *(("out/data/test.json", {"labels": {"shape": shape, "dtype": "int64", "data": data}},
       f"labels: {key}")
      for shape, data, key in (
          ([-1, -1], "AAAAAAAAAAA=", "shape [-1, -1] must list integers >= 0"),
          ([2**32, 2**32], "", f"payload holds 0 bytes but shape {(2**32, 2**32)} needs"),
          ([1.7], "AAAAAAAAAAA=", "shape [1.7] must list integers >= 0"),
          ([True, 1], "AAAAAAAAAAA=", "shape [True, 1] must list integers >= 0"))),
], ids=["spec-width-range-short", "schema-kinds-list", "schema-missing-5", "schema-unknown-key",
        "schema-unknown-kind", "features-provenance-list", "spec-one-member",
        "spec-width-range-inverted", "labels-shape-negative", "labels-shape-overflow",
        "labels-shape-float", "labels-shape-bool"])
def test_malformed_artifact_exits_3_naming_file_and_key(work, capsys, rel, change, key):
    path = work / rel
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    assert cli.main(commands(work)[rel]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and key in err, err


def test_non_utf8_csv_exits_3_naming_the_file(work, capsys):
    rows = work / "rows.csv"
    rows.write_bytes(rows.read_bytes().replace(b",1\n", b",\xff\n", 1))
    assert cli.main(commands(work)["rows.schema.json"]) == 3
    err = capsys.readouterr().err
    assert f"{rows}: not valid UTF-8" in err, err


def leaf_paths(node, path=()):
    """The key path of every leaf (non-container value) under ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from leaf_paths(child, (*path, key))
    else:
        yield path


def faults(obj):
    """(label, broken copy) for every leaf: the key deleted, set to null,
    and given a value of the wrong kind."""
    for path in leaf_paths(obj):
        *parents, last = path
        for fault in ("deleted", "null", "wrong kind"):
            doc = copy.deepcopy(obj)
            node = doc
            for key in parents:
                node = node[key]
            if fault == "deleted":
                del node[last]
            else:
                node[last] = None if fault == "null" else [1] if isinstance(node[last], str) else "x"
            yield f"{'.'.join(map(str, path))} {fault}", json.dumps(doc).encode()


# Files frauduq writes hold every key, so deleting any of them is a fault;
# the schema is written by the user, and a key it leaves out has a default.
WRITTEN = {"out/data/test.json", "out/models/single.json",
           "out/models/ensemble/member_000.json", "out/models/ensemble/spec.json",
           "out/predictions/mcd/dump.json"}


def test_every_artifact_leaf_fault_exits_0_or_3_naming_the_file(work, capsys):
    """Each faulted file either still works or is refused with exit 3 and
    its name on stderr; no fault raises out of the CLI. A deleted key in a
    file frauduq writes is always refused."""
    bad = []
    for rel, argv in commands(work).items():
        path = work / rel
        good = path.read_bytes()
        for label, text in [*faults(json.loads(good)), ("non-UTF-8 byte", good + b"\xff")]:
            path.write_bytes(text)
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - the sweep reports every escape
                bad.append(f"{rel} {label}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            refused = (3,) if rel in WRITTEN and label.endswith(" deleted") else (0, 3)
            if code not in refused or (code == 3 and str(path) not in err):
                bad.append(f"{rel} {label}: exit {code}, stderr {err!r}")
        path.write_bytes(good)
    assert not bad, "\n".join(bad)


def reseal(manifest_path, section, key, text):
    """Record the digest of ``text`` as a stage manifest's ``section``
    entry ``key``, so the stage takes the edited file as its own."""
    manifest = json.loads(manifest_path.read_text())
    manifest[section][key] = hashlib.sha256(text).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def test_summary_equals_each_report_at_the_report_threshold(tree):
    """The summary scores the dumps as the evaluate stage does, so its
    numbers are the reports' at the report threshold, for every method."""
    out = tree / "out"
    summary = json.loads((out / "summary/summary.json").read_text())
    assert sorted(summary["methods"]) == ["emcd", "ensemble", "mcd"]
    for method, scores in summary["methods"].items():
        report = json.loads((out / "reports" / method / "report.json").read_text())
        row, = (r for r in report["thresholds"] if r["threshold"] == summary["threshold"])
        assert scores == {**{k: row[k] for k in ("uacc", "usen", "uspe", "upre")},
                          "accuracy": report["classic"]["accuracy"],
                          "ece": report["calibration"]["ece"], "n": report["n"]}


@pytest.mark.parametrize("edit", [
    lambda report: report["thresholds"].pop(),
    lambda report: report["thresholds"][3].update(upre=3.0),
    lambda report: report["thresholds"][3].update(tc=-5),
], ids=["last-row-deleted", "upre-3", "tc-negative"])
def test_edited_report_leaves_the_summary_unchanged(work, capsys, edit):
    """Nothing reads report.json back. A report edited in place and
    re-sealed in its stage's manifest is kept, and a rebuilt summary is
    byte-identical to the clean tree's."""
    summary = work / "out/summary"
    clean = {name: (summary / name).read_bytes() for name in ("summary.json", "summary.csv")}
    path = work / "out/reports/mcd/report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))
    reseal(work / "out/reports/mcd/manifest.json", "outputs", "report.json", path.read_bytes())
    shutil.rmtree(summary)
    assert cli.main(["reproduce", "--config", str(work / "tiny.json"),
                     "--out", str(work / "out")]) == 0
    assert "[reports/mcd] up to date, skipping" in capsys.readouterr().out
    assert {name: (summary / name).read_bytes() for name in clean} == clean


def test_up_to_date_ensemble_stages_skip_without_reading_spec(work, capsys):
    """The predict stages list an ensemble's files without decoding
    spec.json: one with a key frauduq does not know, re-sealed in the
    ensemble stage and in both predict stages that take it, leaves every
    stage of a rerun skipped."""
    path = work / "out/models/ensemble/spec.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "note": "edited"}))
    text = path.read_bytes()
    reseal(work / "out/models/ensemble/manifest.json", "outputs", "spec.json", text)
    for method in ("ensemble", "emcd"):
        reseal(work / f"out/predictions/{method}/manifest.json", "inputs", "model_0", text)
    assert cli.main(["reproduce", "--config", str(work / "tiny.json"),
                     "--out", str(work / "out")]) == 0
    stages = [line for line in capsys.readouterr().out.splitlines()
              if not line.startswith("[reproduce]")]
    assert len(stages) == 10 and all(line.endswith("] up to date, skipping")
                                     for line in stages), stages


@pytest.mark.parametrize("change, named", [
    (lambda ensemble: (ensemble / "member_001.json").unlink(),
     "missing ['member_001.json'], extra []"),
    (lambda ensemble: shutil.copy(ensemble / "member_000.json", ensemble / "member_009.json"),
     "missing [], extra ['member_009.json']"),
], ids=["member-deleted", "member-stray"])
def test_ensemble_directory_unlike_its_spec_exits_2_naming_the_files(work, capsys, change,
                                                                     named):
    """The member files must be exactly those spec.json lists: a missing
    or a stray one is refused, naming the directory and the file, before
    any dump is written."""
    ensemble = work / "out/models/ensemble"
    change(ensemble)
    assert cli.main(commands(work)["out/models/ensemble/spec.json"]) == 2
    err = capsys.readouterr().err
    assert f"{ensemble} does not hold the member files its spec.json lists: {named}" in err, err
    assert not (work / "again/predictions/ensemble/dump.json").exists()


def test_spec_listing_more_members_than_memory_can_name_exits_2(work, capsys):
    """A spec.json whose member count is 2**63, re-sealed as the ensemble
    stage's own, is refused at once by the predict stage that reads it:
    the files are counted, as there are too many to name."""
    ensemble = work / "out/models/ensemble"
    path = ensemble / "spec.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "members": 2**63}))
    reseal(ensemble / "manifest.json", "outputs", "spec.json", path.read_bytes())
    assert cli.main(["reproduce", "--config", str(work / "tiny.json"),
                     "--out", str(work / "out")]) == 2
    err = capsys.readouterr().err
    assert (f"{ensemble} does not hold the member files its spec.json lists: "
            f"{2**63} listed, 3 found") in err, err


@pytest.mark.parametrize("rel, array, key", [
    ("out/models/single.json", lambda doc: doc["weights"][2], "weights[2]"),
    ("out/models/ensemble/member_000.json", lambda doc: doc["biases"][0], "biases[0]"),
    ("out/data/test.json", lambda doc: doc["features"], "features"),
], ids=["single-weights-2", "member-biases-0", "test-features"])
def test_float_array_relabelled_int64_exits_3_naming_file_and_key(work, capsys, rel, array,
                                                                   key):
    """Weights, biases and features are float64. The same bytes labelled
    int64 would load as integers near 4.6e18, so the file is refused."""
    path = work / rel
    doc = json.loads(path.read_text())
    array(doc)["dtype"] = "int64"
    path.write_text(json.dumps(doc))
    assert cli.main(commands(work)[rel]) == 3
    err = capsys.readouterr().err
    assert f"{path}: {key} must be a float64 array, got int64" in err, err
    assert not list((work / "again").glob("predictions/*/dump.json"))


@pytest.mark.parametrize("shape", ["scalar", "column"])
def test_feature_labels_of_another_shape_exit_3_naming_the_file(work, capsys, shape):
    """A feature table's labels must be one integer per row: a 0-d array,
    or an (n, 1) column, is refused when the file is read, before any
    prediction is made."""
    path = work / "out/data/test.json"
    table = json.loads(path.read_text())
    labels = table["labels"]
    if shape == "scalar":
        labels.update(shape=[], data="AAAAAAAAAAA=")  # one int64, 0
    else:
        labels["shape"] = [*labels["shape"], 1]
    path.write_text(json.dumps(table))
    assert cli.main(commands(work)["out/data/test.json"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: labels must all be the integers 0 or 1" in err, err
    assert not (work / "again/predictions/mcd/dump.json").exists()


@pytest.mark.parametrize("rel, old, key", [
    ("out/models/ensemble/member_000.json", lambda d: d["config"].update(adam_beta2=0.999),
     "unknown frauduq-network key(s) in frauduq-network.config: ['adam_beta2']"),
    ("out/models/ensemble/spec.json",
     lambda d: d.update(files=[f"member_{i:03d}.json" for i in range(3)]),
     "unknown frauduq-ensemble key(s) in frauduq-ensemble: ['files']"),
    ("out/predictions/mcd/dump.json",
     lambda d: d.update(estimates={"mean_probs": d.pop("mean_probs")}),
     "unknown frauduq-predictions key(s) in frauduq-predictions: ['estimates']"),
], ids=["member-adam-beta2", "spec-files", "dump"])
def test_model_file_of_an_older_tree_exits_3_naming_file_and_key(work, capsys, rel, old, key):
    """Network files and spec.json no longer store the class count, Adam's
    constants or the member file names, and dump.json keeps its mean
    distributions at the top level, with no derived columns: a file of
    the older layout is refused, with no reader for it."""
    path = work / rel
    doc = json.loads(path.read_text())
    old(doc)
    path.write_text(json.dumps(doc))
    assert cli.main(commands(work)[rel]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and key in err, err


@pytest.mark.parametrize("rel", ["out/models/single.json", "out/models/ensemble/member_000.json"])
def test_feature_table_of_another_width_exits_3_naming_table_and_model(work, capsys, rel):
    """A table whose width is not a network's input width is refused
    before any prediction, naming the table and that network's file."""
    table = work / "wide.json"
    save_features(FeatureTable(np.zeros((4, 5)), np.array([0, 1, 0, 1])), table)
    argv = commands(work)[rel]
    argv[argv.index("--data") + 1] = str(table)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert f"{table} has 5 features but {work / rel} expects 3" in err, err
    assert not list((work / "again").glob("predictions/*/dump.json"))


def test_empty_training_table_exits_3_naming_the_file(work, capsys):
    train = work / "out/data/train.json"
    save_features(FeatureTable(np.zeros((0, 3)), np.zeros(0, dtype=np.int64)), train)
    assert cli.main(["train", "--config", str(work / "tiny.json"),
                     "--out", str(work / "out")]) == 3
    assert f"{train}: training data is empty" in capsys.readouterr().err


# The fuzzer's files: every JSON artifact a later stage of reproduce reads.
FUZZED = ("data/train.json", "data/test.json", "models/single.json",
          *(f"models/ensemble/member_{i:03d}.json" for i in range(TINY["ensemble"]["members"])),
          "models/ensemble/spec.json",
          *(f"predictions/{method}/dump.json" for method in ("mcd", "ensemble", "emcd")))


def mutants(value):
    """What the fuzzer may put in place of one leaf: a huge int or float,
    a value of another type, the sign flipped, or a string cut in half."""
    if isinstance(value, str):
        return [2**63, 1e308, len(value), value[: len(value) // 2]]
    flipped = [-value] if type(value) in (int, float) else []
    return [2**63, 1e308, str(value), *flipped]


def files_of(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def timed_out(*_):
    raise TimeoutError("the run took over 5 s")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_leaf_mutations_exit_0_or_3_naming_the_file(tree, tmp_path, capsys, seed):
    """100 runs: each restores the clean tree, changes one leaf of one
    artifact, re-seals the file in its stage manifest and reproduces. No
    exception escapes, exit 3 names the file, exit 2 is only spec.json's
    member-set refusal, and exit 0 leaves every other file as it was.
    A run that takes over 5 s is stopped and fails (exit 5)."""
    rng = random.Random(seed)
    clean, out = files_of(tree / "out"), tmp_path / "out"
    argv = ["reproduce", "--config", str(tree / "tiny.json"), "--out", str(out)]
    bad, codes = [], []
    old_handler = signal.signal(signal.SIGALRM, timed_out)
    try:
        for _ in range(100):
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(tree / "out", out)
            rel = rng.choice(FUZZED)
            path = out / rel
            doc = json.loads(path.read_text())
            *parents, last = rng.choice(list(leaf_paths(doc)))
            node = doc
            for key in parents:
                node = node[key]
            node[last] = rng.choice(mutants(node[last]))
            label = f"{rel} {'.'.join(map(str, (*parents, last)))} = {node[last]!r}"
            text = json.dumps(doc).encode()
            path.write_bytes(text)
            reseal(path.parent / "manifest.json", "outputs", path.name, text)
            signal.alarm(5)
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - the fuzzer reports every escape
                bad.append(f"{label}: raised {exc!r}")
                continue
            finally:
                signal.alarm(0)
            codes.append(code)
            err = capsys.readouterr().err
            if code == 0:
                now = files_of(out)
                changed = sorted(name for name in now.keys() | clean.keys()
                                 if name != rel and now.get(name) != clean.get(name))
                if not changed:
                    continue
                err = f"changed {changed}"
            elif code == 3 and str(path) in err or (
                    code == 2 and rel.endswith("spec.json")
                    and "does not hold the member files its spec.json lists" in err):
                continue
            bad.append(f"{label}: exit {code}, {err!r}")
    finally:
        signal.signal(signal.SIGALRM, old_handler)
    assert not bad, "\n".join(bad)
    assert 0 in codes and 3 in codes
