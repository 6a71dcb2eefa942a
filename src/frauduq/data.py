"""Tabular ingestion and preprocessing.

CSV transaction files are parsed into columnar RawTables, imputed and
scaled/encoded into dense FeatureTables using statistics fitted on the
training split only. Also generates two-Gaussian synthetic tables for
desk-scale runs where the real transaction data is not available.
"""

import csv
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import container
from .errors import DataError, ValidationError
from .seeding import STREAM_SPLIT, STREAM_SYNTH, substream

NUMERIC = "numeric"
CATEGORICAL = "categorical"

DEFAULT_MISSING = ("", "NA", "NaN")

FEATURES_FORMAT = "frauduq-features"
PREPROCESSOR_FORMAT = "frauduq-preprocessor"
SCHEMA_FORMAT = "frauduq-schema"


@dataclass(frozen=True)
class CsvSchema:
    """A schema file: names the label column and optionally pins kinds.

    Columns not listed in ``kinds`` are inferred: numeric if every
    observed cell parses as a float, categorical otherwise.
    """

    label: str
    kinds: dict[str, str] = field(default_factory=dict)
    missing_values: tuple[str, ...] = DEFAULT_MISSING

    def validate(self) -> "CsvSchema":
        for col, kind in self.kinds.items():
            if kind not in (NUMERIC, CATEGORICAL):
                raise ValidationError(f"column {col!r} has unknown kind {kind!r}")
        return self

    @classmethod
    def from_file(cls, path) -> "CsvSchema":
        # the user writes the schema, so a key left out takes its default
        return container.read_artifact(path, SCHEMA_FORMAT, cls, defaults=True)


@dataclass
class RawTable:
    """Columnar parsed CSV: numeric columns hold NaN for missing cells,
    categorical columns hold None. ``source`` is the CSV's file name."""

    column_names: list[str]
    kinds: list[str]
    columns: list[np.ndarray]
    labels: np.ndarray
    source: str = ""

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def take(self, indices: np.ndarray) -> "RawTable":
        return replace(self, columns=[col[indices] for col in self.columns],
                       labels=self.labels[indices])


@dataclass
class FeatureTable:
    """Dense numeric feature matrix with binary labels (1 = fraud)."""

    features: np.ndarray
    labels: np.ndarray
    provenance: str = ""

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def validate(self) -> "FeatureTable":
        if self.features.ndim != 2 or not np.isfinite(self.features).all():
            raise DataError("features must be a matrix of finite entries, none missing")
        check_labels(self.labels, len(self.features))
        return self

    def take(self, indices: np.ndarray) -> "FeatureTable":
        return replace(self, features=self.features[indices], labels=self.labels[indices])


def check_labels(labels, n: int) -> None:
    """Refuse anything but an integer (n,) array of 0s and 1s."""
    if not (isinstance(labels, np.ndarray) and labels.dtype.kind in "iu"
            and labels.shape == (n,) and np.isin(labels, (0, 1)).all()):
        raise DataError(f"labels must all be the integers 0 or 1, in an integer ({n},) array")


def load_csv(path, schema: CsvSchema) -> RawTable:
    """Parse a headered CSV into a RawTable, marking missing cells.

    Raises DataError naming the file and the row (the header is row 1,
    and each CSV record adds one) for ragged rows, records the csv module
    refuses, bad labels and non-finite numeric cells; when the label
    column is absent or is the only column; and naming the column when
    the header repeats a name or the schema gives a kind for a name that
    is no feature column.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    records = enumerate(csv.reader(fh), start=1)
    row_num = 0  # the last record read
    try:
        with fh, container.utf8_text(path):
            try:
                row_num, header = next(records)
            except StopIteration:
                raise DataError(f"{path}: file is empty, no header row") from None
            if schema.label not in header:
                raise DataError(f"{path}: label column {schema.label!r} not in header")
            repeated = next((h for h, count in Counter(header).items() if count > 1), None)
            if repeated is not None:
                role = "label column" if repeated == schema.label else "column"
                raise DataError(f"{path}: the header names the {role} {repeated!r} more than once")
            feature_names = [h for h in header if h != schema.label]
            if not feature_names:
                raise DataError(f"{path}: no feature column besides the label {schema.label!r}")
            stray = next((name for name in schema.kinds if name not in feature_names), None)
            if stray is not None:
                role = "the label column" if stray == schema.label else "not in the header"
                raise DataError(f"{path}: the schema gives a kind for {stray!r}, which is {role}, "
                                f"not a feature column")

            missing = set(schema.missing_values)
            cells: list[list] = [[] for _ in header]
            for row_num, row in records:
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {row_num} has {len(row)} fields, header has {len(header)}"
                    )
                for column, cell in zip(cells, row):
                    column.append(None if cell.strip() in missing else cell)
    except csv.Error as exc:  # say, a cell over csv.field_size_limit()
        raise DataError(f"{path}: row {row_num + 1}: {exc}") from exc

    raw_labels = cells.pop(header.index(schema.label))
    labels = _parse_numeric(raw_labels)
    if labels is None or not np.isin(labels, (0.0, 1.0)).all():
        i, cell = next((i, c) for i, c in enumerate(raw_labels)
                       if (one := _parse_numeric([c])) is None or one[0] not in (0.0, 1.0))
        problem = "label is missing" if cell is None else f"label {cell.strip()!r} is not 0 or 1"
        raise DataError(f"{path}: row {i + 2}: {problem}")

    columns, kinds = [], []
    for name, raw in zip(feature_names, cells):
        kind = schema.kinds.get(name)
        if kind != CATEGORICAL:
            col = _parse_numeric(raw)
            if col is None and kind == NUMERIC:
                i, cell = next((i, c) for i, c in enumerate(raw) if _parse_numeric([c]) is None)
                raise DataError(f"{path}: row {i + 2}: column {name!r} declared numeric "
                                f"but holds {cell!r}")
            # an undeclared column is numeric if every observed cell parses
            kind = NUMERIC if col is not None else CATEGORICAL
        kinds.append(kind)
        if kind == NUMERIC:
            # one vectorized check per column: only a missing cell may be NaN
            if np.isinf(col).any() or np.count_nonzero(np.isnan(col)) != raw.count(None):
                i = next(i for i, c in enumerate(raw) if c is not None and not np.isfinite(col[i]))
                raise DataError(f"{path}: row {i + 2}: column {name!r} holds the non-finite "
                                f"{raw[i]!r}; list it in missing_values if it means missing")
            columns.append(col)
        else:
            columns.append(np.array(raw, dtype=object))
    return RawTable(
        column_names=feature_names,
        kinds=kinds,
        columns=columns,
        labels=labels.astype(np.int64),
        source=path.name,
    )


def _parse_numeric(raw: list) -> np.ndarray | None:
    """A column's cells as float64, NaN for a missing (None) cell, in one
    call; None if some cell is not a number. numpy parses a Python str as
    ``float()`` does (underscores, surrounding whitespace, ``inf``/``nan``
    spellings, Unicode digits), so this accepts exactly what ``float``
    accepts."""
    try:
        return np.array(["nan" if cell is None else cell for cell in raw], dtype=np.float64)
    except ValueError:
        return None


# a column kind -> the type of its impute_value and its own keys, sorted
_COLUMN_KEYS = {NUMERIC: (float, ["mean", "std"]),
                CATEGORICAL: (str, ["categories"])}


@dataclass(frozen=True)
class ColumnParams:
    """One column's fitted statistics. Numeric: the observed mean as
    ``impute_value``, then ``mean`` and population ``std`` after imputing
    (0 for a constant column). Categorical: the mode as ``impute_value``,
    ``categories`` (code i is the i-th seen; an unseen value gets code
    ``len(categories)``). The other kind's fields are None, so the file
    leaves their keys out."""

    name: str
    kind: str
    impute_value: float | str
    mean: float | None = None
    std: float | None = None
    categories: tuple[str, ...] | None = None

    def validate(self) -> "ColumnParams":
        if self.kind not in _COLUMN_KEYS:
            raise ValidationError(f"column {self.name!r} has unknown kind {self.kind!r}")
        impute, own = _COLUMN_KEYS[self.kind]
        given = [k for k in ("categories", "mean", "std") if getattr(self, k) is not None]
        if not isinstance(self.impute_value, impute) or given != own:
            raise ValidationError(
                f"column {self.name!r}: a {self.kind} column takes a {impute.__name__} "
                f"impute_value and the keys {own}, got "
                f"{type(self.impute_value).__name__} and {given}")
        return self


@dataclass(frozen=True)
class PreprocessorState:
    """Per-column imputation / scaling / encoding parameters, fitted on
    train only: the ``preprocessor.json`` artifact."""

    columns: tuple[ColumnParams, ...]

    def validate(self) -> "PreprocessorState":
        for column in self.columns:
            column.validate()
        return self

    def save(self, path) -> None:
        container.write_artifact(self, PREPROCESSOR_FORMAT, path)

    @classmethod
    def load(cls, path) -> "PreprocessorState":
        return container.read_artifact(path, PREPROCESSOR_FORMAT, cls)


def fit_preprocessor(train: RawTable) -> PreprocessorState:
    """Fit imputation, scaling, and ordinal-encoding statistics on a training table.

    Numeric columns: impute with the observed mean, then standardize with the
    population mean/std of the imputed column (constant columns scale to 0).
    Categorical columns: impute with the mode (first-appearance tie break),
    encode categories in first-appearance order, reserve index |categories|
    for unseen values.
    """
    if train.n_rows == 0:
        raise DataError("cannot fit a preprocessor on an empty table")
    columns = []
    for name, kind, col in zip(train.column_names, train.kinds, train.columns):
        if kind == NUMERIC:
            observed = col[~np.isnan(col)]
            if observed.size == 0:
                raise DataError(f"column {name!r} is entirely missing")
            impute = float(observed.mean())
            imputed = np.where(np.isnan(col), impute, col)
            columns.append(ColumnParams(name, kind, impute, mean=float(imputed.mean()),
                                        std=float(imputed.std())))
        else:
            counts = Counter(c for c in col if c is not None)  # first-appearance order
            if not counts:
                raise DataError(f"column {name!r} is entirely missing")
            mode = max(counts, key=counts.get)  # max is stable: first appearance wins ties
            columns.append(ColumnParams(name, kind, mode, categories=tuple(counts)))
    return PreprocessorState(tuple(columns))


def apply_preprocessor(state: PreprocessorState, table: RawTable) -> FeatureTable:
    """Transform a RawTable with fitted statistics into a dense FeatureTable."""
    if [(p.name, p.kind) for p in state.columns] != list(zip(table.column_names, table.kinds)):
        raise DataError("table columns do not match the fitted preprocessor")
    out = np.empty((table.n_rows, len(state.columns)))
    for j, (p, col) in enumerate(zip(state.columns, table.columns)):
        if p.kind == NUMERIC:
            filled = np.where(np.isnan(col), p.impute_value, col)
            if p.std == 0.0:
                out[:, j] = 0.0
            else:
                out[:, j] = (filled - p.mean) / p.std
        else:
            codes = {c: i for i, c in enumerate(p.categories)}
            out[:, j] = np.array([codes.get(p.impute_value if c is None else c,
                                            len(p.categories)) for c in col], dtype=np.float64)
    return FeatureTable(features=out, labels=table.labels.copy(),
                        provenance=table.source).validate()


def split_train_test(table, train_fraction: float = 0.7, seed: int = 0):
    """Disjoint, exhaustive row split, stratified: each class is split at
    ``train_fraction`` on its own, so per-class counts stay within 1.

    Works on any table with ``labels`` and ``take`` (RawTable before
    preprocessing, FeatureTable after).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    labels = np.asarray(table.labels)
    n = len(labels)
    if n == 0:
        raise DataError("cannot split an empty table")
    rng = substream(seed, STREAM_SPLIT)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DataError("stratified split needs both classes present")
    train_idx = []
    for cls in classes:
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        take = int(round(train_fraction * len(members)))
        train_idx.append(members[:take])
    train_mask = np.zeros(n, dtype=bool)
    train_mask[np.concatenate(train_idx)] = True
    return table.take(np.flatnonzero(train_mask)), table.take(np.flatnonzero(~train_mask))


def synth_generate(n_per_class: int, d: int, class_separation: float, noise_seed: int = 0) -> FeatureTable:
    """Two identity-covariance Gaussian blobs, means +/- (separation/2) apart.

    The class means sit at +/-(separation/2) along the normalized all-ones
    direction, so the Euclidean distance between them equals
    ``class_separation``. Balanced labels; class 1 plays the fraud role.
    """
    if n_per_class < 1:
        raise ValidationError(f"n_per_class must be >= 1, got {n_per_class}")
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d}")
    rng = substream(noise_seed, STREAM_SYNTH)
    direction = np.ones(d) / np.sqrt(d)
    offset = (class_separation / 2.0) * direction
    x0 = rng.standard_normal((n_per_class, d)) - offset
    x1 = rng.standard_normal((n_per_class, d)) + offset
    features = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    return FeatureTable(features=features, labels=labels,
                        provenance=f"synth(n={n_per_class}x2,d={d},sep={class_separation},seed={noise_seed})")


def save_features(table: FeatureTable, path) -> None:
    container.write_artifact(table, FEATURES_FORMAT, path)


def load_features(path) -> FeatureTable:
    return container.read_artifact(path, FEATURES_FORMAT, FeatureTable)
