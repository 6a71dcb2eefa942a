"""Experiment orchestration.

A resolved RunConfig drives a chain of stages (data -> train -> predict
-> evaluate -> summary), each writing its artifacts plus a manifest of
config/input/output digests into its own directory. Reruns skip a stage
when its manifest still matches, so a killed reproduction resumes where
it stopped. Every artifact is a pure function of (config, seed): no
timestamps, hostnames, or absolute paths are ever written.
"""

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import container
from .data import (
    CsvSchema,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    load_features,
    save_features,
    split_train_test,
    synth_generate,
)
from .errors import DataError, FormatError, ValidationError
from .evaluation import (
    DEFAULT_THRESHOLDS,
    build_report,
    entropy_histogram_csv,
    render_reliability_svg,
    report_to_dict,
    threshold_table_csv,
)
from .network import NetworkConfig, load_network, save_network, train
from .seeding import STREAM_TRAIN, derive_seed
from .uncertainty import (
    METHOD_EMCD,
    METHOD_ENSEMBLE,
    METHOD_MCD,
    METHODS,
    EnsembleSpec,
    predict_table,
    read_dump,
    train_ensemble,
    write_dump,
)

MANIFEST_FORMAT = "frauduq-manifest"
ENSEMBLE_FORMAT = "frauduq-ensemble"
SUMMARY_FORMAT = "frauduq-summary"
CONFIG_FORMAT = "frauduq-config"
PIPELINE_VERSION = 1

PROFILE_PAPER = "paper"
PROFILE_DESK = "desk"


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the built-in two-Gaussian data source."""

    n_per_class: int = 500
    n_features: int = 8
    separation: float = 2.0

    def validate(self) -> "SynthSpec":
        if self.n_per_class < 1:
            raise ValidationError(f"synth n_per_class must be >= 1, got {self.n_per_class}")
        if self.n_features < 2:
            raise ValidationError(f"synth n_features must be >= 2, got {self.n_features}")
        if self.separation <= 0:
            raise ValidationError(f"synth separation must be > 0, got {self.separation}")
        return self


@dataclass(frozen=True)
class NetworkParams:
    """NetworkConfig minus the data-dependent input width."""

    hidden_units: tuple[int, int, int] = (256, 64, 16)
    dropout_rate: float = 0.3
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-3

    def to_config(self, input_units: int, seed: int) -> NetworkConfig:
        return NetworkConfig(
            input_units=input_units,
            hidden_units=tuple(self.hidden_units),
            dropout_rate=self.dropout_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=seed,
        )


@dataclass(frozen=True)
class EnsembleParams:
    members: int = 30
    width_ranges: tuple = ((256, 385), (64, 256), (16, 32))

    def validate(self) -> "EnsembleParams":
        if self.members < 2:
            raise ValidationError(f"ensemble members must be >= 2, got {self.members}")
        if len(self.width_ranges) != 3:
            raise ValidationError("ensemble width_ranges must cover the 3 hidden layers")
        for lo, hi in self.width_ranges:
            if not 1 <= lo < hi:
                raise ValidationError(f"width range ({lo}, {hi}) must satisfy 1 <= low < high")
        return self


# Profile defaults. "paper" mirrors the published experiment scale
# (256/64/16 network, 30-member ensemble, 1000 MC passes); "desk" is the
# same shape shrunk until the full chain runs in CI minutes.
PROFILES = {
    PROFILE_PAPER: {
        "network": NetworkParams(),
        "ensemble": EnsembleParams(),
        "mc_passes": 1000,
    },
    PROFILE_DESK: {
        "network": NetworkParams(hidden_units=(32, 16, 8), epochs=20, batch_size=64),
        "ensemble": EnsembleParams(members=5, width_ranges=((24, 48), (12, 24), (6, 12))),
        "mc_passes": 100,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved from profile + file + flags."""

    profile: str = PROFILE_DESK
    seed: int = 7
    out_dir: str = "frauduq-out"
    method: str = METHOD_MCD
    mc_passes: int = 100
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    m_bins: int = 10
    report_threshold: float = 0.4
    train_fraction: float = 0.7
    csv_path: str | None = None
    schema_path: str | None = None
    synth: SynthSpec = field(default_factory=SynthSpec)
    network: NetworkParams = field(default_factory=NetworkParams)
    ensemble: EnsembleParams = field(default_factory=EnsembleParams)

    def validate(self) -> "RunConfig":
        if self.profile not in PROFILES:
            raise ValidationError(f"unknown profile {self.profile!r}")
        if self.method not in METHODS:
            raise ValidationError(f"unknown UQ method {self.method!r}")
        if self.mc_passes < 1:
            raise ValidationError(f"mc_passes must be >= 1, got {self.mc_passes}")
        if self.m_bins < 1:
            raise ValidationError(f"m_bins must be >= 1, got {self.m_bins}")
        if len(self.thresholds) == 0:
            raise ValidationError("thresholds list is empty")
        if any(not 0.0 <= t <= 1.0 for t in self.thresholds):
            raise ValidationError(f"thresholds must lie in [0, 1], got {list(self.thresholds)}")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValidationError("thresholds must be strictly increasing")
        if not any(math.isclose(t, self.report_threshold, abs_tol=1e-9) for t in self.thresholds):
            raise ValidationError(
                f"report_threshold {self.report_threshold} is not in the threshold grid"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if (self.csv_path is None) != (self.schema_path is None):
            raise ValidationError("csv data needs both 'path' and 'schema'")
        if self.csv_path is not None:
            for p in (self.csv_path, self.schema_path):
                if not os.path.isfile(p):
                    raise ValidationError(f"data file not found: {p}")
        # hidden-unit / rate / epoch sanity via the real config validator
        self.network.to_config(input_units=1, seed=0).validate()
        self.ensemble.validate()
        self.synth.validate()
        return self

    @property
    def uses_csv(self) -> bool:
        return self.csv_path is not None

    def to_dict(self) -> dict:
        """Snapshot for config.json and digests; deliberately excludes
        out_dir so artifacts are identical wherever the run lands."""
        data = ({"csv": {"path": self.csv_path, "schema": self.schema_path}}
                if self.uses_csv else {"synth": vars(self.synth)})
        return {
            "format": CONFIG_FORMAT,
            "version": PIPELINE_VERSION,
            "profile": self.profile,
            "seed": self.seed,
            "method": self.method,
            "mc_passes": self.mc_passes,
            "thresholds": list(self.thresholds),
            "m_bins": self.m_bins,
            "report_threshold": self.report_threshold,
            "train_fraction": self.train_fraction,
            "data": data,
            "network": {**vars(self.network), "hidden_units": list(self.network.hidden_units)},
            "ensemble": {"members": self.ensemble.members,
                         "width_ranges": [list(r) for r in self.ensemble.width_ranges]},
        }


_TOP_KEYS = {"format", "version", "profile", "seed", "out", "method", "mc_passes",
             "thresholds", "m_bins", "report_threshold", "train_fraction",
             "data", "network", "ensemble"}


def _take(section: dict, allowed: set, where: str) -> dict:
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    return section


def load_run_config(path=None, profile: str | None = None, seed: int | None = None,
                    out: str | None = None, method: str | None = None,
                    mc_passes: int | None = None) -> RunConfig:
    """Resolve a RunConfig: profile defaults <- config file <- CLI flags.

    The file is JSON with the same nesting as RunConfig.to_dict; every
    invariant is checked here, before any command does work.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: config is not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: config must be a JSON object")
        _take(raw, _TOP_KEYS, "config")

    name = profile or raw.get("profile") or PROFILE_DESK
    if name not in PROFILES:
        raise ValidationError(f"unknown profile {name!r}")
    base = PROFILES[name]

    data = _take(dict(raw.get("data", {})), {"csv", "synth"}, "data")
    if "csv" in data and "synth" in data:
        raise ValidationError("config must name exactly one data source, found csv and synth")
    csv_path = schema_path = None
    synth = SynthSpec()
    if "csv" in data:
        csv = _take(dict(data["csv"]), {"path", "schema"}, "data.csv")
        csv_path, schema_path = csv.get("path"), csv.get("schema")
    elif "synth" in data:
        synth = SynthSpec(**_take(dict(data["synth"]),
                                  {"n_per_class", "n_features", "separation"}, "data.synth"))

    net_raw = _take(dict(raw.get("network", {})),
                    {"hidden_units", "dropout_rate", "epochs", "batch_size", "learning_rate"},
                    "network")
    if "hidden_units" in net_raw:
        net_raw["hidden_units"] = tuple(net_raw["hidden_units"])
    network = replace(base["network"], **net_raw)

    ens_raw = _take(dict(raw.get("ensemble", {})), {"members", "width_ranges"}, "ensemble")
    if "width_ranges" in ens_raw:
        ens_raw["width_ranges"] = tuple(tuple(r) for r in ens_raw["width_ranges"])
    ensemble = replace(base["ensemble"], **ens_raw)

    config = RunConfig(
        profile=name,
        seed=int(seed if seed is not None else raw.get("seed", 7)),
        out_dir=str(out if out is not None else raw.get("out", "frauduq-out")),
        method=str(method if method is not None else raw.get("method", METHOD_MCD)),
        mc_passes=int(mc_passes if mc_passes is not None
                      else raw.get("mc_passes", base["mc_passes"])),
        thresholds=tuple(float(t) for t in raw.get("thresholds", DEFAULT_THRESHOLDS)),
        m_bins=int(raw.get("m_bins", 10)),
        report_threshold=float(raw.get("report_threshold", 0.4)),
        train_fraction=float(raw.get("train_fraction", 0.7)),
        csv_path=csv_path,
        schema_path=schema_path,
        synth=synth,
        network=network,
        ensemble=ensemble,
    )
    return config.validate()


# --- stage machinery ------------------------------------------------------


@dataclass
class StageResult:
    name: str
    dir: Path
    skipped: bool
    outputs: dict  # path relative to the stage dir -> sha256


def _digest_of(obj) -> str:
    return container.sha256_text(container.dumps_canonical(obj))


def _relative_outputs(stage_dir: Path, paths) -> dict:
    return {p.relative_to(stage_dir).as_posix(): container.sha256_file(p) for p in paths}


def run_stage(out_dir, name: str, stage_config: dict, inputs: dict,
              build, log=print) -> StageResult:
    """Run one stage unless its manifest proves it already ran.

    ``inputs`` maps labels to existing files whose digests gate the
    resume; ``build(stage_dir)`` writes the artifacts and returns their
    paths. The manifest is written last, so a crash mid-stage simply
    reruns it.
    """
    stage_dir = Path(out_dir) / name
    manifest_path = stage_dir / "manifest.json"
    config_digest = _digest_of(stage_config)
    input_digests = {label: container.sha256_file(p) for label, p in sorted(inputs.items())}

    if manifest_path.is_file():
        try:
            manifest = container.read_json(manifest_path)
        except (FormatError, OSError):
            manifest = {}
        if (manifest.get("format") == MANIFEST_FORMAT
                and manifest.get("config_digest") == config_digest
                and manifest.get("inputs") == input_digests
                and all((stage_dir / rel).is_file()
                        and container.sha256_file(stage_dir / rel) == digest
                        for rel, digest in manifest.get("outputs", {}).items())):
            log(f"[{name}] up to date, skipping")
            return StageResult(name, stage_dir, True, manifest["outputs"])

    stage_dir.mkdir(parents=True, exist_ok=True)
    produced = build(stage_dir)
    outputs = _relative_outputs(stage_dir, [Path(p) for p in produced])
    container.write_json({
        "format": MANIFEST_FORMAT,
        "version": PIPELINE_VERSION,
        "stage": name,
        "config_digest": config_digest,
        "inputs": input_digests,
        "outputs": outputs,
    }, manifest_path)
    return StageResult(name, stage_dir, False, outputs)


def _require_file(path: Path, hint: str) -> Path:
    if not path.is_file():
        raise ValidationError(f"{path} not found; {hint}")
    return path


def _write_config_snapshot(config: RunConfig) -> None:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    container.write_json(config.to_dict(), out / "config.json")


# --- stages ---------------------------------------------------------------


def stage_data(config: RunConfig, log=print) -> StageResult:
    """Materialize train/test FeatureTables (and, for CSV data, the
    fitted preprocessor) under <out>/data."""
    if config.uses_csv:
        stage_config = {"source": "csv", "train_fraction": config.train_fraction,
                        "seed": config.seed}
        inputs = {"csv": Path(config.csv_path), "schema": Path(config.schema_path)}
    else:
        stage_config = {"source": "synth", "synth": vars(config.synth),
                        "train_fraction": config.train_fraction, "seed": config.seed}
        inputs = {}

    def build(stage_dir: Path):
        if config.uses_csv:
            schema = CsvSchema.from_file(config.schema_path)
            raw = load_csv(config.csv_path, schema)
            log(f"[data] loaded {raw.n_rows} rows x {len(raw.column_names)} columns")
            train_raw, test_raw = split_train_test(
                raw, config.train_fraction, stratified=True, seed=config.seed)
            state = fit_preprocessor(train_raw)
            train_t = apply_preprocessor(state, train_raw)
            test_t = apply_preprocessor(state, test_raw)
            state.save(stage_dir / "preprocessor.json")
            extra = [stage_dir / "preprocessor.json"]
        else:
            s = config.synth
            table = synth_generate(s.n_per_class, s.n_features, s.separation,
                                   noise_seed=config.seed)
            log(f"[data] synthesized {table.n_rows} rows of {s.n_features} features "
                f"(separation {s.separation})")
            train_t, test_t = split_train_test(
                table, config.train_fraction, stratified=True, seed=config.seed)
            extra = []
        save_features(train_t, stage_dir / "train.json")
        save_features(test_t, stage_dir / "test.json")
        log(f"[data] split {train_t.n_rows} train / {test_t.n_rows} test rows")
        return [stage_dir / "train.json", stage_dir / "test.json", *extra]

    return run_stage(config.out_dir, "data", stage_config, inputs, build, log)


def _needed_models(method: str) -> tuple[str, ...]:
    return ("single",) if method == METHOD_MCD else ("ensemble",)


def stage_train(config: RunConfig, needs: tuple[str, ...], log=print) -> StageResult:
    """Train the single network and/or the ensemble under <out>/models."""
    train_path = _require_file(Path(config.out_dir) / "data" / "train.json",
                               "run the preprocess command first")
    stage_config = {"needs": sorted(needs), "seed": config.seed,
                    "network": config.to_dict()["network"]}
    if "ensemble" in needs:
        stage_config["ensemble"] = config.to_dict()["ensemble"]

    def build(stage_dir: Path):
        data = load_features(train_path)
        input_units = data.features.shape[1]
        produced = []
        if "single" in needs:
            net_config = config.network.to_config(
                input_units, derive_seed(config.seed, STREAM_TRAIN))
            log(f"[train] single network {list(net_config.hidden_units)} "
                f"on {data.n_rows} rows")
            net, history = train(net_config, data)
            for epoch, loss in enumerate(history, start=1):
                log(f"[train] single epoch {epoch}/{len(history)} loss {loss:.6f}")
            save_network(net, stage_dir / "single.json")
            produced.append(stage_dir / "single.json")
        if "ensemble" in needs:
            spec = EnsembleSpec(
                members=config.ensemble.members,
                width_ranges=config.ensemble.width_ranges,
                base=config.network.to_config(input_units, seed=0),
                master_seed=config.seed,
            )
            ens_dir = stage_dir / "ensemble"
            ens_dir.mkdir(exist_ok=True)

            def member_log(index, member_cfg, history):
                log(f"[train] member {index + 1}/{spec.members} "
                    f"{list(member_cfg.hidden_units)} final loss {history[-1]:.6f}")

            members = train_ensemble(spec, data, log=member_log)
            files = []
            for i, net in enumerate(members):
                member_path = ens_dir / f"member_{i:03d}.json"
                save_network(net, member_path)
                files.append(member_path.name)
                produced.append(member_path)
            container.write_json({
                "format": ENSEMBLE_FORMAT,
                "version": PIPELINE_VERSION,
                "members": spec.members,
                "master_seed": spec.master_seed,
                "width_ranges": [list(r) for r in spec.width_ranges],
                "files": files,
            }, ens_dir / "spec.json")
            produced.append(ens_dir / "spec.json")
        return produced

    return run_stage(config.out_dir, "models", stage_config,
                     {"train": train_path}, build, log)


def _ensemble_files(ens_dir: Path) -> list[Path]:
    """spec.json plus every member file, all verified to exist."""
    spec_path = _require_file(ens_dir / "spec.json", "train an ensemble first")
    spec = container.read_json(spec_path)
    container.expect_format(spec, ENSEMBLE_FORMAT, PIPELINE_VERSION, spec_path)
    return [spec_path,
            *(_require_file(ens_dir / name, "the ensemble directory is incomplete")
              for name in spec["files"])]


def _model_files(method: str, model_path: Path) -> list[Path]:
    """Every file making up the model artifact, with mismatches rejected
    before anything is read."""
    if method == METHOD_MCD:
        if model_path.is_dir():
            raise ValidationError(
                f"method mcd expects a single network file, got ensemble directory {model_path}")
        return [_require_file(model_path, "train a model first")]
    if model_path.is_file():
        raise ValidationError(
            f"method {method} expects an ensemble directory, got single network file {model_path}")
    return _ensemble_files(model_path)


def load_models(method: str, model_path) -> list:
    """Load the model artifact a method expects."""
    files = _model_files(method, Path(model_path))
    if method == METHOD_MCD:
        return [load_network(files[0])]
    return [load_network(p) for p in files[1:]]


def stage_predict(config: RunConfig, method: str, model_path=None,
                  data_path=None, log=print) -> StageResult:
    """Predict the test table with one UQ method; dump under
    <out>/predictions/<method>."""
    out = Path(config.out_dir)
    if data_path is None:
        data_path = _require_file(out / "data" / "test.json",
                                  "run the preprocess command first")
    else:
        data_path = _require_file(Path(data_path), "no such feature table")
    if model_path is None:
        model_path = (out / "models" / "single.json" if method == METHOD_MCD
                      else out / "models" / "ensemble")
    else:
        model_path = Path(model_path)
    model_files = _model_files(method, model_path)

    passes = config.mc_passes if method != METHOD_ENSEMBLE else None
    stage_config = {"method": method, "mc_passes": passes, "seed": config.seed}
    inputs = {"data": Path(data_path)}
    inputs.update({f"model_{i}": Path(p) for i, p in enumerate(model_files)})

    def build(stage_dir: Path):
        models = load_models(method, model_path)
        table = load_features(data_path)
        log(f"[predict] {method} on {table.n_rows} rows "
            f"({len(models)} model(s), T={passes if passes else '-'})")
        estimates = predict_table(method, models, table.features,
                                  passes=config.mc_passes, seed=config.seed)
        meta = {"seed": config.seed, "mc_passes": passes,
                "config_digest": _digest_of(stage_config)}
        write_dump(stage_dir / "dump.jsonl", stage_dir / "dump.csv",
                   method, estimates, table.labels, meta=meta)
        return [stage_dir / "dump.jsonl", stage_dir / "dump.csv"]

    return run_stage(config.out_dir, f"predictions/{method}", stage_config, inputs, build, log)


def stage_evaluate(config: RunConfig, method: str, dump_path=None, log=print) -> StageResult:
    """Score one prediction dump: report JSON/CSVs + reliability SVG
    under <out>/reports/<method>."""
    if dump_path is None:
        dump_path = Path(config.out_dir) / "predictions" / method / "dump.jsonl"
    dump_path = _require_file(Path(dump_path), "run the predict command first")
    stage_config = {"method": method, "thresholds": list(config.thresholds),
                    "m_bins": config.m_bins, "report_threshold": config.report_threshold,
                    "seed": config.seed}

    def build(stage_dir: Path):
        header, estimates, labels = read_dump(dump_path)
        if len(estimates) == 0:
            raise DataError(f"{dump_path}: dump contains no predictions")
        if None in labels:
            raise DataError(f"{dump_path}: dump has no labels; evaluation needs them")
        report = build_report(header.get("method", method), estimates, labels,
                              thresholds=config.thresholds, m_bins=config.m_bins)
        meta = {"seed": config.seed, "config_digest": _digest_of(stage_config)}
        container.write_json(report_to_dict(report, meta), stage_dir / "report.json")
        (stage_dir / "thresholds.csv").write_text(
            threshold_table_csv(report, meta), encoding="utf-8")
        (stage_dir / "entropy_histogram.csv").write_text(
            entropy_histogram_csv(report, meta), encoding="utf-8")
        render_reliability_svg(report.calibration, stage_dir / "reliability.svg", meta)
        row = _threshold_row(report_to_dict(report), config.report_threshold, dump_path)
        log(f"[evaluate] {report.method}: n={report.n} acc={report.classic.accuracy:.4f} "
            f"ece={report.calibration.ece:.4f} | t={config.report_threshold:g} "
            f"uacc={_fmt(row['uacc'])} usen={_fmt(row['usen'])} "
            f"uspe={_fmt(row['uspe'])} upre={_fmt(row['upre'])}")
        return [stage_dir / "report.json", stage_dir / "thresholds.csv",
                stage_dir / "entropy_histogram.csv", stage_dir / "reliability.svg"]

    return run_stage(config.out_dir, f"reports/{method}", stage_config,
                     {"dump": dump_path}, build, log)


def _fmt(value) -> str:
    return "NA" if value is None else f"{value:.4f}"


def _threshold_row(report_obj: dict, threshold: float, where) -> dict:
    for row in report_obj["thresholds"]:
        if math.isclose(row["threshold"], threshold, abs_tol=1e-9):
            return row
    raise DataError(f"{where}: no threshold row at {threshold}")


def stage_summary(config: RunConfig, methods=METHODS, log=print) -> StageResult:
    """Side-by-side UQ metrics of all methods at the report threshold."""
    out = Path(config.out_dir)
    report_paths = {m: _require_file(out / "reports" / m / "report.json",
                                     "run the evaluate command first")
                    for m in methods}
    stage_config = {"methods": list(methods), "report_threshold": config.report_threshold,
                    "seed": config.seed}

    def build(stage_dir: Path):
        rows = {}
        for m, path in report_paths.items():
            report_obj = container.read_json(path)
            row = _threshold_row(report_obj, config.report_threshold, path)
            rows[m] = {
                "uacc": row["uacc"], "usen": row["usen"],
                "uspe": row["uspe"], "upre": row["upre"],
                "accuracy": report_obj["classic"]["accuracy"],
                "ece": report_obj["calibration"]["ece"],
                "n": report_obj["n"],
            }
        container.write_json({
            "format": SUMMARY_FORMAT,
            "version": PIPELINE_VERSION,
            "seed": config.seed,
            "threshold": config.report_threshold,
            "methods": rows,
        }, stage_dir / "summary.json")

        lines = [f"# format={SUMMARY_FORMAT}-table version={PIPELINE_VERSION} "
                 f"seed={config.seed} threshold={config.report_threshold:g}",
                 "method,uacc,usen,uspe,upre"]
        for m in methods:
            r = rows[m]
            lines.append(",".join([m] + [("NA" if r[k] is None else repr(r[k]))
                                         for k in ("uacc", "usen", "uspe", "upre")]))
        (stage_dir / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

        log(f"[summary] threshold {config.report_threshold:g}")
        log("  method    uacc    usen    uspe    upre")
        for m in methods:
            r = rows[m]
            log(f"  {m:<8}{_fmt(r['uacc']):>8}{_fmt(r['usen']):>8}"
                f"{_fmt(r['uspe']):>8}{_fmt(r['upre']):>8}")
        return [stage_dir / "summary.json", stage_dir / "summary.csv"]

    return run_stage(config.out_dir, "summary", stage_config, report_paths, build, log)


# --- commands -------------------------------------------------------------


def cmd_synth(config: RunConfig, log=print) -> Path:
    """Write the full (unsplit) synthetic FeatureTable to <out>/synth.json."""
    _write_config_snapshot(config)
    s = config.synth
    table = synth_generate(s.n_per_class, s.n_features, s.separation, noise_seed=config.seed)
    path = Path(config.out_dir) / "synth.json"
    save_features(table, path)
    log(f"[synth] wrote {table.n_rows} rows x {s.n_features} features to {path}")
    return path


def cmd_preprocess(config: RunConfig, log=print) -> StageResult:
    _write_config_snapshot(config)
    return stage_data(config, log)


def cmd_train(config: RunConfig, log=print) -> StageResult:
    _write_config_snapshot(config)
    return stage_train(config, _needed_models(config.method), log)


def cmd_predict(config: RunConfig, model_path=None, data_path=None, log=print) -> StageResult:
    _write_config_snapshot(config)
    return stage_predict(config, config.method, model_path, data_path, log)


def cmd_evaluate(config: RunConfig, dump_path=None, log=print) -> StageResult:
    _write_config_snapshot(config)
    return stage_evaluate(config, config.method, dump_path, log)


def cmd_sweep(config: RunConfig, dump_path=None, log=print) -> StageResult:
    """Evaluate, then echo the per-threshold metric table."""
    result = cmd_evaluate(config, dump_path, log)
    table_path = result.dir / "thresholds.csv"
    log(table_path.read_text(encoding="utf-8").rstrip("\n"))
    return result


def cmd_reproduce(config: RunConfig, log=print) -> StageResult:
    """The full chain: data -> train both model kinds -> predict with all
    three methods (EMCD reuses the ensemble members) -> evaluate each ->
    summary. Finished stages are skipped on rerun.
    """
    _write_config_snapshot(config)
    if not config.uses_csv:
        log("[reproduce] no csv data source configured; using the built-in "
            "synthetic generator")
    stage_data(config, log)
    stage_train(config, ("single", "ensemble"), log)
    for method in METHODS:
        stage_predict(config, method, log=log)
        stage_evaluate(config, method, log=log)
    return stage_summary(config, METHODS, log)
