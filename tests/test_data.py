"""Tests for CSV ingestion, preprocessing, splitting, and the synthetic
data source. Frozen literals were computed by hand / with independent
arithmetic before the implementation existed."""

import dataclasses
import json

import numpy as np
import pytest

from frauduq.data import (
    CsvSchema,
    FeatureTable,
    PreprocessorState,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    load_features,
    save_features,
    split_train_test,
    synth_generate,
)
from frauduq.errors import DataError, FormatError, ValidationError


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA = CsvSchema(label="y")


# --- ingestion ---------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    path = write_csv(tmp_path, "a,b,y\n1.5,x,0\n2.5,z,1\n")
    table = load_csv(path, SCHEMA)
    assert table.column_names == ["a", "b"]
    assert table.kinds == ["numeric", "categorical"]
    assert list(table.labels) == [0, 1]
    assert table.columns[0][0] == 1.5


def test_load_csv_missing_sentinels_become_gaps(tmp_path):
    path = write_csv(tmp_path, "a,y\n1,0\nNA,1\n,0\nNaN,1\n4,0\n")
    table = load_csv(path, SCHEMA)
    assert np.isnan(table.columns[0][1:4]).all()
    assert not np.isnan(table.columns[0][[0, 4]]).any()


def test_load_csv_error_reports_row_numbers(tmp_path):
    ragged = write_csv(tmp_path, "a,y\n1,0\n2\n", name="ragged.csv")
    with pytest.raises(DataError, match="row 3"):
        load_csv(ragged, SCHEMA)

    # rows count CSV records, not lines: a quoted newline starts no new row
    split = write_csv(tmp_path, 'a,y\n"x\ny",0\n2\n', name="split.csv")
    with pytest.raises(DataError, match="split.csv: row 3 has 1 fields"):
        load_csv(split, SCHEMA)

    bad_label = write_csv(tmp_path, "a,y\n1,0\n2,7\n", name="label.csv")
    with pytest.raises(DataError, match="label.csv: row 3: label '7' is not 0 or 1"):
        load_csv(bad_label, SCHEMA)

    missing = write_csv(tmp_path, "a,b\n1,2\n", name="nolabel.csv")
    with pytest.raises(DataError, match="y"):
        load_csv(missing, SCHEMA)

    # non-finite numeric cells that are not listed missing values
    for cell in ("inf", "-inf", "nan"):
        path = write_csv(tmp_path, f"a,b,y\n1,x,0\n{cell},x,1\n", name="nonfinite.csv")
        with pytest.raises(DataError, match=f"nonfinite.csv: row 3: column 'a'.*'{cell}'"):
            load_csv(path, SCHEMA)

    # a cell over csv.field_size_limit() (131,072 characters)
    wide = write_csv(tmp_path, "a,y\n1,0\n" + "2" * 200_000 + ",1\n", name="wide.csv")
    with pytest.raises(DataError, match="wide.csv: row 3: field larger than field limit"):
        load_csv(wide, SCHEMA)
    wide = write_csv(tmp_path, 'a,y\n"x\ny",0\n' + "2" * 200_000 + ",1\n", name="wide.csv")
    with pytest.raises(DataError, match="wide.csv: row 3: field larger than field limit"):
        load_csv(wide, SCHEMA)


@pytest.mark.parametrize("cell, label", [("1.0", 1), (" 1 ", 1), ("-0", 0), ("1e0", 1)])
def test_load_csv_reads_a_label_in_any_spelling_of_0_or_1(tmp_path, cell, label):
    table = load_csv(write_csv(tmp_path, f"a,y\n1,0\n2,{cell}\n"), SCHEMA)
    assert table.labels.tolist() == [0, label] and table.labels.dtype == np.int64


@pytest.mark.parametrize("cell, problem", [
    ("2", "label '2' is not 0 or 1"), ("0.5", "label '0.5' is not 0 or 1"),
    ("nan", "label 'nan' is not 0 or 1"), ("inf", "label 'inf' is not 0 or 1"),
    ("", "label is missing"), ("NA", "label is missing"),
])
def test_load_csv_refuses_a_label_other_than_0_or_1_naming_file_and_row(tmp_path, cell, problem):
    path = write_csv(tmp_path, f"a,y\n1,0\n2,{cell}\n3,1\n", name="labels.csv")
    with pytest.raises(DataError, match=f"labels.csv: row 3: {problem}$"):
        load_csv(path, SCHEMA)


def test_load_csv_refuses_repeated_names_and_stray_schema_kinds(tmp_path):
    """A repeated header name would give two features one name, or leak a
    second label column into the features; a schema kind for a name that
    is no feature column (a typo, or the label) would be ignored. Both
    are refused, naming the file and the column."""
    for header, role, name in (("y,amt,amt,y", "label column", "y"),
                               ("amt,y,b,amt", "column", "amt")):
        path = write_csv(tmp_path, f"{header}\n1,0,2,0\n", name="repeats.csv")
        with pytest.raises(DataError, match=f"repeats.csv: the header names the {role} "
                                            f"'{name}' more than once$"):
            load_csv(path, SCHEMA)
    path = write_csv(tmp_path, "amt,y\n1,0\n")
    for name, role in (("amount_typo", "not in the header"), ("y", "the label column")):
        schema = CsvSchema(label="y", kinds={"amt": "numeric", name: "categorical"})
        with pytest.raises(DataError, match=f"data.csv: the schema gives a kind for '{name}', "
                                            f"which is {role}, not a feature column$"):
            load_csv(path, schema)


def test_load_csv_header_only_gives_empty_table(tmp_path):
    for schema in (SCHEMA, CsvSchema(label="y", kinds={"a": "numeric"})):
        table = load_csv(write_csv(tmp_path, "a,y\n"), schema)
        assert table.n_rows == 0 and table.kinds == ["numeric"]
        assert table.columns[0].dtype == np.float64 and table.columns[0].shape == (0,)


def test_load_csv_numeric_cells_parse_as_float_does(tmp_path):
    """A numeric cell takes every spelling Python's float() takes."""
    cells = ["1_000", " 2.25 ", "+.5", "5.", "1e-320", "١٢", "-0", "1e-400"]
    text = "a,y\n" + "".join(f'"{c}",{i % 2}\n' for i, c in enumerate(cells)) + "NA,0\n"
    for schema in (SCHEMA, CsvSchema(label="y", kinds={"a": "numeric"})):
        table = load_csv(write_csv(tmp_path, text), schema)
        assert table.kinds == ["numeric"]
        col = table.columns[0]
        assert col.dtype == np.float64
        assert col[:-1].tobytes() == np.array([float(c) for c in cells]).tobytes()
        assert np.isnan(col[-1])  # the missing cell


def test_load_csv_non_number_in_numeric_column(tmp_path):
    """A declared numeric column names the first cell float() refuses; an
    undeclared one holding such a cell is categorical."""
    path = write_csv(tmp_path, "a,y\n1,0\n,1\n2,0\n0x10,1\n1__0,0\n")
    declared = CsvSchema(label="y", kinds={"a": "numeric"})
    with pytest.raises(DataError, match=r"data.csv: row 5: column 'a' declared numeric "
                                        r"but holds '0x10'$"):
        load_csv(path, declared)
    table = load_csv(path, SCHEMA)
    assert table.kinds == ["categorical"]
    assert table.columns[0].tolist() == ["1", None, "2", "0x10", "1__0"]

    # literal non-finite cells are refused with the missing_values hint,
    # declared or inferred, in any float() spelling
    for cell in (" nan ", "Infinity", "-iNF", "1e999"):
        path = write_csv(tmp_path, f'a,y\n1,0\n,1\n"{cell}",0\n', name="nonfinite.csv")
        for schema in (SCHEMA, declared):
            with pytest.raises(DataError, match=r"row 4: column 'a' holds the non-finite "
                                                r".*list it in missing_values"):
                load_csv(path, schema)


# --- preprocessing -------------------------------------------------------------


def test_numeric_impute_and_scale_hand_values(tmp_path):
    """Column [1, missing, 3]: impute the observed mean 2.0, then scale by
    the population std over the imputed column, sqrt(2/3)."""
    path = write_csv(tmp_path, "a,y\n1,0\nNA,1\n3,0\n")
    table = load_csv(path, SCHEMA)
    state = fit_preprocessor(table)
    out = apply_preprocessor(state, table)

    assert out.features[0, 0] == pytest.approx(-1.224744871391589, abs=1e-12)
    assert out.features[1, 0] == pytest.approx(0.0, abs=1e-12)
    assert out.features[2, 0] == pytest.approx(1.224744871391589, abs=1e-12)


def test_categorical_first_appearance_codes(tmp_path):
    path = write_csv(tmp_path, "c,y\nred,0\nblue,1\nred,0\ngreen,1\n")
    table = load_csv(path, SCHEMA)
    state = fit_preprocessor(table)
    out = apply_preprocessor(state, table)
    # codes follow first appearance: red=0, blue=1, green=2
    assert list(out.features[:, 0]) == [0.0, 1.0, 0.0, 2.0]


def test_categorical_missing_gets_mode_earliest_tie(tmp_path):
    # blue and red both appear twice; red was seen first, so red is the mode
    path = write_csv(tmp_path, "c,y\nred,0\nblue,1\nblue,0\nred,1\n,0\n")
    table = load_csv(path, SCHEMA)
    out = apply_preprocessor(fit_preprocessor(table), table)
    assert out.features[4, 0] == 0.0  # imputed as red


def test_unseen_category_maps_to_unknown_index(tmp_path):
    train = load_csv(write_csv(tmp_path, "c,y\na,0\nb,1\n", name="tr.csv"), SCHEMA)
    state = fit_preprocessor(train)
    test = load_csv(write_csv(tmp_path, "c,y\nzzz,0\na,1\n", name="te.csv"), SCHEMA)
    out = apply_preprocessor(state, test)
    assert out.features[0, 0] == 2.0  # len(categories), one past the last code
    assert out.features[1, 0] == 0.0


def test_constant_numeric_column_maps_to_zero(tmp_path):
    table = load_csv(write_csv(tmp_path, "a,y\n5,0\n5,1\n5,0\n"), SCHEMA)
    out = apply_preprocessor(fit_preprocessor(table), table)
    assert np.array_equal(out.features[:, 0], np.zeros(3))


def test_entirely_missing_column_is_rejected(tmp_path):
    table = load_csv(write_csv(tmp_path, "a,y\nNA,0\n,1\n"), SCHEMA)
    with pytest.raises(DataError, match="entirely missing"):
        fit_preprocessor(table)


def test_preprocessor_round_trip_bitwise(tmp_path):
    path = write_csv(tmp_path, "a,c,y\n1.25,u,0\nNA,v,1\n-3.5,u,0\n8,w,1\n")
    table = load_csv(path, SCHEMA)
    state = fit_preprocessor(table)
    before = apply_preprocessor(state, table)

    state_path = tmp_path / "prep.json"
    state.save(state_path)
    after = apply_preprocessor(PreprocessorState.load(state_path), table)
    assert np.array_equal(before.features, after.features)


PREP_ROWS = "a,c,y\n1.25,u,0\nNA,v,1\n-3.5,u,0\n8,w,1\n"


@pytest.mark.parametrize("fault, named", [
    (lambda d: d["columns"][0].update(std=True), "frauduq-preprocessor.columns[0].std"),
    (lambda d: d["columns"][0].update(mean="1.5"), "frauduq-preprocessor.columns[0].mean"),
    (lambda d: d["columns"][1].update(categories="TF"), "frauduq-preprocessor.columns[1].categories"),
    (lambda d: d["columns"][0].update(scale=2.0), "frauduq-preprocessor.columns[0]: ['scale']"),
    (lambda d: d.update(columns_v2=[]), "['columns_v2']"),
    (lambda d: d["columns"][0].update(categories=["u"]), "column 'a'"),
    (lambda d: d["columns"][1].update(impute_value=1.0), "column 'c'"),
], ids=["std-bool", "mean-string", "categories-string", "unknown-column-key",
        "unknown-top-key", "numeric-with-categories", "categorical-number-impute"])
def test_doctored_preprocessor_is_refused_naming_file_and_key(tmp_path, fault, named):
    state_path = tmp_path / "prep.json"
    fit_preprocessor(load_csv(write_csv(tmp_path, PREP_ROWS), SCHEMA)).save(state_path)
    doc = json.loads(state_path.read_text())
    fault(doc)
    state_path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as info:
        PreprocessorState.load(state_path)
    assert str(state_path) in str(info.value) and named in str(info.value), info.value


def test_apply_rejects_unfitted_and_mismatched(tmp_path):
    table = load_csv(write_csv(tmp_path, "a,y\n1,0\n2,1\n"), SCHEMA)
    other = load_csv(write_csv(tmp_path, "b,y\n1,0\n2,1\n", name="o.csv"), SCHEMA)
    with pytest.raises(DataError):
        apply_preprocessor(fit_preprocessor(table), other)


# --- splitting ------------------------------------------------------------------


def balanced_table(n_per_class):
    n = 2 * n_per_class
    return FeatureTable(
        features=np.arange(n, dtype=np.float64).reshape(n, 1),
        labels=np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                               np.ones(n_per_class, dtype=np.int64)]),
    )


def test_split_reproduces_published_row_counts():
    """41,326 balanced rows at 70/30 -> 28,928 train / 12,398 test."""
    table = balanced_table(20663)
    train, test = split_train_test(table, 0.7, seed=1)
    assert train.n_rows == 28928
    assert test.n_rows == 12398
    assert int(train.labels.sum()) == 14464
    assert int(test.labels.sum()) == 6199


def test_split_disjoint_exhaustive_deterministic():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n_per_class = int(rng.integers(5, 60))
        frac = float(rng.uniform(0.2, 0.9))
        seed = int(rng.integers(0, 1000))
        table = balanced_table(n_per_class)

        tr_a, te_a = split_train_test(table, frac, seed=seed)
        tr_b, te_b = split_train_test(table, frac, seed=seed)
        assert np.array_equal(tr_a.features, tr_b.features)

        ids = np.concatenate([tr_a.features[:, 0], te_a.features[:, 0]])
        assert sorted(ids) == list(range(2 * n_per_class))
        expected = int(round(frac * n_per_class))
        assert int((tr_a.labels == 0).sum()) == expected
        assert int((tr_a.labels == 1).sum()) == expected


def test_split_rejects_bad_fraction_and_single_class():
    table = balanced_table(5)
    with pytest.raises(ValidationError):
        split_train_test(table, 1.0)
    lone = FeatureTable(features=np.zeros((4, 1)), labels=np.zeros(4, dtype=np.int64))
    with pytest.raises(DataError):
        split_train_test(lone, 0.5)


# --- synthetic data ----------------------------------------------------------------


def test_synth_nearest_mean_oracle():
    """With separation s between class means, the nearest-true-mean rule
    is right with probability Phi(s/2); at s=2 that's ~0.841."""
    table = synth_generate(n_per_class=2000, d=8, class_separation=2.0, noise_seed=0)
    direction = np.ones(8) / np.sqrt(8)
    score = table.features @ direction  # signed distance along the class axis
    pred = (score > 0).astype(int)
    acc = float((pred == table.labels).mean())
    assert acc == pytest.approx(0.841, abs=0.03)


def test_synth_wide_separation_is_learnable():
    """8 sigma between the means leaves essentially zero Bayes error, so a
    small trained net should be near-perfect on the held-out split."""
    from frauduq.network import NetworkConfig, forward, train

    table = synth_generate(500, 2, 8.0, noise_seed=3)
    train_t, test_t = split_train_test(table, 0.7, seed=3)
    config = NetworkConfig(input_units=2, hidden_units=(16, 8, 4), dropout_rate=0.1,
                           epochs=30, batch_size=64, learning_rate=3e-3, seed=3)
    net, _ = train(config, train_t)
    predictions = np.array([forward(net, x).argmax() for x in test_t.features])
    assert (predictions == test_t.labels).mean() > 0.98


def test_synth_zero_separation_is_chance():
    from frauduq.network import NetworkConfig, forward, train

    table = synth_generate(500, 2, 0.0, noise_seed=3)
    train_t, test_t = split_train_test(table, 0.7, seed=3)
    config = NetworkConfig(input_units=2, hidden_units=(16, 8, 4), dropout_rate=0.1,
                           epochs=30, batch_size=64, learning_rate=3e-3, seed=3)
    net, _ = train(config, train_t)
    predictions = np.array([forward(net, x).argmax() for x in test_t.features])
    assert (predictions == test_t.labels).mean() == pytest.approx(0.5, abs=0.05)


def test_synth_deterministic_and_balanced():
    a = synth_generate(100, 4, 2.0, noise_seed=9)
    b = synth_generate(100, 4, 2.0, noise_seed=9)
    assert np.array_equal(a.features, b.features)
    assert int(a.labels.sum()) == 100
    c = synth_generate(100, 4, 2.0, noise_seed=10)
    assert not np.array_equal(a.features, c.features)


def test_synth_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        synth_generate(0, 4, 2.0)
    with pytest.raises(ValidationError):
        synth_generate(10, 1, 2.0)


# --- features container -----------------------------------------------------------


def test_features_save_load_bitwise(tmp_path):
    table = synth_generate(30, 5, 1.5, noise_seed=3)
    path = tmp_path / "features.json"
    save_features(table, path)
    loaded = load_features(path)
    assert np.array_equal(table.features, loaded.features)
    assert np.array_equal(table.labels, loaded.labels)
    assert loaded.provenance == table.provenance


def test_load_features_refuses_labels_other_than_the_integers_0_and_1(tmp_path):
    """Float labels, or integers other than 0 and 1, are refused naming the
    file when read, so a dump never meets a label it cannot write."""
    table = synth_generate(3, 2, 1.5, noise_seed=3)
    for i, labels in enumerate((table.labels.astype(np.float64), table.labels * 2)):
        path = tmp_path / f"labels{i}.json"
        save_features(dataclasses.replace(table, labels=labels), path)
        with pytest.raises(FormatError, match=f"labels{i}.json: labels must all be the integers"):
            load_features(path)


def test_load_features_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(FormatError):
        load_features(path)

    # the version must be the int 1, not a value that merely compares equal
    for i, version in enumerate(["true", "1.0"]):
        path = tmp_path / f"loose{i}.json"
        path.write_text(f'{{"format": "frauduq-features", "version": {version}}}')
        with pytest.raises(FormatError, match=f"loose{i}.json: not a frauduq-features v1"):
            load_features(path)
