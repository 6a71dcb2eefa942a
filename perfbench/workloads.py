"""Workload definitions and the deterministic input generator.

Each workload is a frauduq run config (the JSON a user would pass to
``frauduq reproduce --config``) plus, for ``vesta-rows``, a generated CSV
and schema. Everything is a pure function of (workload, seed, toy), so
the same seed always gives the same input bytes.
"""

import json
from pathlib import Path

import numpy as np

TRAIN_FRACTION = 0.7
# Network shapes are spelled out rather than taken from the profiles, so a
# change of profile defaults cannot change a workload.
PAPER_HIDDEN = [256, 64, 16]
PAPER_WIDTHS = [[256, 385], [64, 256], [16, 32]]  # member width ranges per hidden layer
DESK_HIDDEN = [32, 16, 8]
DESK_WIDTHS = [[24, 48], [12, 24], [6, 12]]

# Why each workload exists and which layer it stresses; BENCHMARK.json
# repeats these lines.
WHY = {
    "paper-predict": "The paper's cost centre, M*T whole-table passes: 2,000 rows, d=400, "
                     "256/64/16 net + 5 paper-width members, T=50. Stresses forward "
                     "passes and mask draws",
    "paper-train": "Training M+1 nets: 800 rows, d=30, paper widths, 5 members, 20 epochs, "
                   "T=4. Stresses fwd/bwd, Adam and train masks; control for "
                   "prediction-only changes",
    "vesta-rows": "Row-bound path: 6,000-row Vesta-shaped CSV, desk nets, 1 epoch, T=4. "
                  "Stresses CSV ingest, per-row reduction, dump I/O and evaluation; "
                  "control for forward work",
}

# Numeric and categorical columns named after the Vesta transaction table.
NUMERIC_COLUMNS = (
    ["TransactionAmt", "card1", "card2", "card3", "card5", "addr1", "addr2", "dist1"]
    + [f"C{i}" for i in range(1, 15)]
    + [f"D{i}" for i in range(1, 11)]
)
CATEGORICAL_COLUMNS = {
    "ProductCD": ["W", "C", "R", "H", "S"],
    "card4": ["visa", "mastercard", "american express", "discover"],
    "card6": ["debit", "credit", "charge card"],
    "P_emaildomain": ["gmail.com", "yahoo.com", "hotmail.com", "anonymous.com",
                      "aol.com", "outlook.com", "comcast.net", "icloud.com"],
    "R_emaildomain": ["gmail.com", "hotmail.com", "anonymous.com", "yahoo.com",
                      "outlook.com", "icloud.com"],
    "M4": ["M0", "M1", "M2"],
    "M5": ["T", "F"],
    "M6": ["T", "F"],
}
LABEL_COLUMN = "isFraud"
CSV_NAME, SCHEMA_NAME = "vesta.csv", "vesta.schema.json"
# The paper's balanced Vesta sample has 41,326 rows; 6,000 keep a chain near
# 1.2-1.6 s, so a 40 s run holds 25-35 chains and one slow chain moves the
# run's mean little. The costs here grow per row and per cell, so the share
# of each layer does not depend on the row count.
VESTA_ROWS = 6_000
MISSING_SHARE = 0.05
CSV_TAG = 0x5E57A  # keeps the CSV stream apart from any stream frauduq derives


def synth_config(n_per_class: int, n_features: int, separation: float, epochs: int,
                 passes: int, members: int) -> dict:
    return {
        "profile": "paper",
        "mc_passes": passes,
        "train_fraction": TRAIN_FRACTION,
        "data": {"synth": {"n_per_class": n_per_class, "n_features": n_features,
                           "separation": separation}},
        "network": {"hidden_units": PAPER_HIDDEN, "epochs": epochs},
        "ensemble": {"members": members, "width_ranges": PAPER_WIDTHS},
    }


def csv_config(epochs: int, passes: int) -> dict:
    return {
        "profile": "desk",
        "mc_passes": passes,
        "train_fraction": TRAIN_FRACTION,
        "data": {"csv": {"path": CSV_NAME, "schema": SCHEMA_NAME}},
        "network": {"hidden_units": DESK_HIDDEN, "epochs": epochs, "batch_size": 64},
        "ensemble": {"members": 5, "width_ranges": DESK_WIDTHS},
    }


def _test_rows(class_counts) -> int:
    # Same arithmetic as frauduq's stratified split.
    return sum(c - int(round(TRAIN_FRACTION * c)) for c in class_counts)


def prepare(workload: str, seed: int, work_dir: Path, toy: bool = False) -> dict:
    """Write the workload's inputs into ``work_dir``.

    Returns ``{"config": <path>, "test_rows": <int>, "params": <dict>}``;
    the config names its data files relative to ``work_dir``, which is the
    working directory of every run.
    """
    # Toy sizes only keep the harness tested; their wider class separation
    # and extra epochs keep accuracy above chance on so few rows. At d=400,
    # 2 epochs over 1,400 rows (22 Adam steps) reach 0.75-0.8 accuracy with
    # separation 4; at separation 2 they stay near chance.
    if workload == "paper-predict":
        n_per_class = 100 if toy else 1_000
        config = (synth_config(n_per_class, 400, 4.0, epochs=8, passes=3, members=2) if toy
                  else synth_config(n_per_class, 400, 4.0, epochs=2, passes=50, members=5))
        class_counts = (n_per_class, n_per_class)
    elif workload == "paper-train":
        n_per_class = 100 if toy else 400
        config = (synth_config(n_per_class, 30, 4.0, epochs=8, passes=2, members=2) if toy
                  else synth_config(n_per_class, 30, 2.0, epochs=20, passes=4, members=5))
        class_counts = (n_per_class, n_per_class)
    elif workload == "vesta-rows":
        rows = 2_000 if toy else VESTA_ROWS
        labels = write_vesta_csv(work_dir / CSV_NAME, work_dir / SCHEMA_NAME, rows, seed)
        config = csv_config(epochs=20 if toy else 1, passes=2 if toy else 4)
        class_counts = np.bincount(labels, minlength=2).tolist()
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {"config": config_path, "test_rows": _test_rows(class_counts), "params": config}


def write_vesta_csv(csv_path: Path, schema_path: Path, rows: int, seed: int) -> np.ndarray:
    """Write a balanced Vesta-shaped CSV and its schema; return the labels.

    Numeric cells are shifted Gaussians (fraud rows shifted on half the
    columns) with MISSING_SHARE of them left empty; categorical columns
    draw from label-dependent distributions. Numbers are written with
    fixed formats, so the bytes depend on the seed alone.
    """
    rng = np.random.default_rng([CSV_TAG, seed])
    labels = np.zeros(rows, dtype=np.int64)
    labels[: rows // 2] = 1
    labels = labels[rng.permutation(rows)]

    n_num = len(NUMERIC_COLUMNS)
    shift = np.where(np.arange(n_num) % 2 == 0, 2.0, 0.0)
    scale = np.exp(rng.uniform(-1.0, 4.0, n_num))
    offset = rng.uniform(-50.0, 500.0, n_num)
    numeric = (rng.standard_normal((rows, n_num)) + labels[:, None] * shift) * scale + offset
    cells = np.char.mod("%.4f", numeric).astype(object)
    cells[rng.random((rows, n_num)) < MISSING_SHARE] = ""

    columns = [np.char.mod("%d", labels).astype(object)]
    columns.extend(cells.T)
    for values in CATEGORICAL_COLUMNS.values():
        k = len(values)
        per_class = rng.dirichlet(np.ones(k), size=2).cumsum(axis=1)
        u = rng.random(rows)
        idx = np.where(labels == 1,
                       np.searchsorted(per_class[1], u, side="right"),
                       np.searchsorted(per_class[0], u, side="right"))
        columns.append(np.asarray(values, dtype=object)[np.minimum(idx, k - 1)])

    header = [LABEL_COLUMN, *NUMERIC_COLUMNS, *CATEGORICAL_COLUMNS]
    body = "\n".join(",".join(row) for row in zip(*columns))
    csv_path.write_text(",".join(header) + "\n" + body + "\n", encoding="utf-8")

    kinds = {name: "numeric" for name in NUMERIC_COLUMNS}
    kinds.update({name: "categorical" for name in CATEGORICAL_COLUMNS})
    schema = {"format": "frauduq-schema", "version": 1, "label": LABEL_COLUMN, "kinds": kinds}
    schema_path.write_text(json.dumps(schema, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return labels
