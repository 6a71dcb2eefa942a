"""Tabular ingestion and preprocessing.

CSV transaction files are parsed into columnar RawTables, imputed and
scaled/encoded into dense FeatureTables using statistics fitted on the
training split only. Also generates two-Gaussian synthetic tables for
desk-scale runs where the real transaction data is not available.
"""

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .errors import DataError, FormatError, ValidationError
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
        return container.read_artifact(path, SCHEMA_FORMAT, cls)


@dataclass
class RawTable:
    """Columnar parsed CSV: numeric columns hold NaN for missing cells,
    categorical columns hold None."""

    column_names: list[str]
    kinds: list[str]
    columns: list[np.ndarray]
    labels: np.ndarray
    source: str = ""

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def take(self, indices: np.ndarray) -> "RawTable":
        return RawTable(
            column_names=list(self.column_names),
            kinds=list(self.kinds),
            columns=[col[indices] for col in self.columns],
            labels=self.labels[indices],
            source=self.source,
        )


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
        if self.features.ndim != 2 or self.features.shape[0] != len(self.labels):
            raise DataError("features and labels are misaligned")
        if not np.isfinite(self.features).all():
            raise DataError("feature matrix contains missing or non-finite entries")
        if len(self.labels) and not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must all be 0 or 1")
        return self

    def take(self, indices: np.ndarray) -> "FeatureTable":
        return FeatureTable(
            features=self.features[indices], labels=self.labels[indices], provenance=self.provenance
        )


def _parse_label(value: str, row_num: int) -> int:
    try:
        as_float = float(value)
    except ValueError:
        raise DataError(f"row {row_num}: label {value!r} is not 0 or 1") from None
    if as_float not in (0.0, 1.0):
        raise DataError(f"row {row_num}: label {value!r} is not 0 or 1")
    return int(as_float)


def load_csv(path, schema: CsvSchema) -> RawTable:
    """Parse a headered CSV into a RawTable, marking missing cells.

    Raises DataError naming the row for ragged rows or bad labels, and
    when the label column is absent.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh, container.utf8_text(path):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, no header row") from None
        if schema.label not in header:
            raise DataError(f"{path}: label column {schema.label!r} not in header")
        label_pos = header.index(schema.label)
        feature_names = [h for i, h in enumerate(header) if i != label_pos]

        missing = set(schema.missing_values)
        cells: list[list] = [[] for _ in feature_names]
        labels: list[int] = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_num} has {len(row)} fields, header has {len(header)}"
                )
            label_raw = row[label_pos].strip()
            if label_raw in missing:
                raise DataError(f"{path}: row {row_num}: label is missing")
            labels.append(_parse_label(label_raw, row_num))
            j = 0
            for i, cell in enumerate(row):
                if i == label_pos:
                    continue
                cells[j].append(None if cell.strip() in missing else cell)
                j += 1

    columns, kinds = [], []
    for name, raw in zip(feature_names, cells):
        kind = schema.kinds.get(name) or _infer_kind(raw)
        kinds.append(kind)
        if kind == NUMERIC:
            col = np.full(len(raw), np.nan)
            for i, cell in enumerate(raw):
                if cell is not None:
                    try:
                        col[i] = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {i + 2}: column {name!r} declared numeric "
                            f"but holds {cell!r}"
                        ) from None
            columns.append(col)
        else:
            columns.append(np.array(raw, dtype=object))
    return RawTable(
        column_names=feature_names,
        kinds=kinds,
        columns=columns,
        labels=np.array(labels, dtype=np.int64),
        source=str(path),
    )


def _infer_kind(raw: list) -> str:
    for cell in raw:
        if cell is None:
            continue
        try:
            float(cell)
        except ValueError:
            return CATEGORICAL
    return NUMERIC


@dataclass
class _NumericColumn:
    name: str
    impute_value: float
    mean: float
    std: float  # population std post-imputation; 0 flags a constant column


@dataclass
class _CategoricalColumn:
    name: str
    impute_value: str
    mapping: dict  # category -> ordinal code, first-appearance order
    unknown_index: int


@dataclass
class PreprocessorState:
    """Per-column imputation / scaling / encoding parameters, fitted on train only."""

    column_names: list[str]
    kinds: list[str]
    params: list  # _NumericColumn | _CategoricalColumn, aligned with column_names
    fitted: bool = False

    def to_dict(self) -> dict:
        cols = []
        for kind, p in zip(self.kinds, self.params):
            if kind == NUMERIC:
                cols.append({"name": p.name, "kind": kind, "impute_value": p.impute_value,
                             "mean": p.mean, "std": p.std})
            else:
                cols.append({"name": p.name, "kind": kind, "impute_value": p.impute_value,
                             "categories": list(p.mapping.keys()),
                             "unknown_index": p.unknown_index})
        return container.header(PREPROCESSOR_FORMAT, fitted=self.fitted, columns=cols)

    @classmethod
    def from_dict(cls, obj: dict, context: str = "preprocessor") -> "PreprocessorState":
        try:
            names, kinds, params = [], [], []
            for col in obj["columns"]:
                names.append(col["name"])
                kinds.append(col["kind"])
                if col["kind"] == NUMERIC:
                    params.append(_NumericColumn(col["name"], float(col["impute_value"]),
                                                 float(col["mean"]), float(col["std"])))
                elif col["kind"] == CATEGORICAL:
                    mapping = {c: i for i, c in enumerate(col["categories"])}
                    params.append(_CategoricalColumn(col["name"], col["impute_value"],
                                                     mapping, int(col["unknown_index"])))
                else:
                    raise FormatError(f"{context}: unknown column kind {col['kind']!r}")
            return cls(column_names=names, kinds=kinds, params=params,
                       fitted=bool(obj["fitted"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{context}: malformed preprocessor state ({exc})") from exc

    def save(self, path) -> None:
        container.write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "PreprocessorState":
        obj = container.check_header(container.read_json(path), PREPROCESSOR_FORMAT, path)
        return cls.from_dict(obj, context=str(path))


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
    params = []
    for name, kind, col in zip(train.column_names, train.kinds, train.columns):
        if kind == NUMERIC:
            observed = col[~np.isnan(col)]
            if observed.size == 0:
                raise DataError(f"column {name!r} is entirely missing")
            impute = float(observed.mean())
            imputed = np.where(np.isnan(col), impute, col)
            params.append(_NumericColumn(name, impute, float(imputed.mean()),
                                         float(imputed.std())))
        else:
            observed = [c for c in col if c is not None]
            if not observed:
                raise DataError(f"column {name!r} is entirely missing")
            order, counts = [], {}
            for c in observed:
                if c not in counts:
                    order.append(c)
                    counts[c] = 0
                counts[c] += 1
            mode = max(order, key=lambda c: counts[c])  # max is stable: first appearance wins ties
            mapping = {c: i for i, c in enumerate(order)}
            params.append(_CategoricalColumn(name, mode, mapping, len(order)))
    return PreprocessorState(
        column_names=list(train.column_names), kinds=list(train.kinds),
        params=params, fitted=True,
    )


def apply_preprocessor(state: PreprocessorState, table: RawTable) -> FeatureTable:
    """Transform a RawTable with fitted statistics into a dense FeatureTable."""
    if not state.fitted:
        raise DataError("preprocessor state is not fitted")
    if list(table.column_names) != state.column_names or list(table.kinds) != state.kinds:
        raise DataError("table columns do not match the fitted preprocessor")
    out = np.empty((table.n_rows, len(state.params)))
    for j, (kind, p, col) in enumerate(zip(state.kinds, state.params, table.columns)):
        if kind == NUMERIC:
            filled = np.where(np.isnan(col), p.impute_value, col)
            if p.std == 0.0:
                out[:, j] = 0.0
            else:
                out[:, j] = (filled - p.mean) / p.std
        else:
            codes = [p.mapping.get(p.impute_value if c is None else c, p.unknown_index)
                     for c in col]
            out[:, j] = np.array(codes, dtype=np.float64)
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
