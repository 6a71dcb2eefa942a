"""Bad artifacts read back from disk exit 3 naming the file, never with a
traceback: pinned faults, a non-UTF-8 CSV, and sweeps that break every
leaf of every JSON artifact a command takes by path, and of the
``report.json`` that the summary stage reads back.

One tiny run tree (1 epoch, 2 MC passes) is built once for the module;
each test edits copies of its files.
"""

import copy
import hashlib
import json
import shutil

import pytest

from frauduq import cli

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


# The report keys whose value may be undefined (a 0/0 ratio, the mean
# entropy of an empty group): null is their None and reads back.
UNDEFINED = {"accuracy", "sensitivity", "specificity", "precision", "confidence",
             "uacc", "usen", "uspe", "upre", "mean_entropy_correct", "mean_entropy_incorrect"}


def test_every_report_leaf_fault_exits_3_naming_the_file(work, capsys):
    """reproduce reads each report.json back in its summary stage. Each
    fault is re-stamped in the report stage's manifest, so that stage is
    skipped, and summary/ is removed, so the summary stage reads the
    broken file. A deleted key or a wrong kind exits 3 naming the file; a
    null exits 0 on a value that may be undefined and 3 anywhere else."""
    path = work / "out/reports/mcd/report.json"
    manifest_path = work / "out/reports/mcd/manifest.json"
    manifest = json.loads(manifest_path.read_text())
    argv = ["reproduce", "--config", str(work / "tiny.json"), "--out", str(work / "out")]
    bad = []
    for label, text in faults(json.loads(path.read_text())):
        path.write_bytes(text)
        manifest["outputs"]["report.json"] = hashlib.sha256(text).hexdigest()
        manifest_path.write_text(json.dumps(manifest))
        shutil.rmtree(work / "out/summary", ignore_errors=True)
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - the sweep reports every escape
            bad.append(f"{label}: raised {exc!r}")
            continue
        err = capsys.readouterr().err
        key, fault = label.split(" ", 1)
        expected = 0 if fault == "null" and key.rsplit(".", 1)[-1] in UNDEFINED else 3
        if code != expected or (code == 3 and str(path) not in err):
            bad.append(f"{label}: exit {code}, stderr {err!r}")
    assert not bad, "\n".join(bad)


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
], ids=["member-adam-beta2", "spec-files"])
def test_model_file_of_an_older_tree_exits_3_naming_file_and_key(work, capsys, rel, old, key):
    """Network files and spec.json no longer store the class count, Adam's
    constants or the member file names: a file that still holds one is
    refused, with no reader for the older layout."""
    path = work / rel
    doc = json.loads(path.read_text())
    old(doc)
    path.write_text(json.dumps(doc))
    assert cli.main(commands(work)[rel]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and key in err, err


def test_report_off_the_config_grid_exits_3_naming_the_file(work, capsys):
    """The summary stage reads each report at the config's threshold grid:
    a report that lacks its last threshold row, re-stamped in its stage's
    manifest so that stage is skipped, is refused."""
    path = work / "out/reports/mcd/report.json"
    report = json.loads(path.read_text())
    del report["thresholds"][-1]
    text = json.dumps(report).encode()
    path.write_bytes(text)
    manifest_path = work / "out/reports/mcd/manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["report.json"] = hashlib.sha256(text).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    shutil.rmtree(work / "out/summary")
    assert cli.main(["reproduce", "--config", str(work / "tiny.json"),
                     "--out", str(work / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{path}: the report's threshold grid is not the config's" in err, err
    assert not (work / "out/summary/summary.json").exists()
