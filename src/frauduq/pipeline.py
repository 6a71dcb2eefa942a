"""Experiment orchestration.

A resolved RunConfig drives a chain of stages (data -> train -> predict
-> evaluate -> summary), each writing its artifacts plus a manifest of
config/input/output digests into its own directory. Reruns skip a stage
when its manifest still matches, so a killed reproduction resumes where
it stopped. Every artifact is a pure function of (config, seed): no
timestamps, hostnames, or absolute paths are ever written. config.json
alone keeps a CSV source's paths as given, because --config reads it back.
"""

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import container
from .data import (
    MAX_FLOATS,
    CsvSchema,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    load_features,
    save_features,
    split_train_test,
    synth_generate,
)
from .errors import DataError, FormatError, ShapeError, ValidationError
from .evaluation import (
    DEFAULT_THRESHOLDS,
    ThresholdRow,
    UQ_METRICS,
    UqReport,
    build_report,
    check_thresholds,
    entropy_histogram_csv,
    render_reliability_svg,
    report_to_dict,
    threshold_table_csv,
)
from .network import N_CLASSES, NetworkConfig, NetworkParams, load_network, save_network, train
from .seeding import STREAM_TRAIN, derive_seed
from .uncertainty import (
    METHOD_ENSEMBLE,
    METHOD_MCD,
    METHODS,
    SAMPLER,
    DumpFile,
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
        if 2 * self.n_per_class * self.n_features > MAX_FLOATS:
            raise ValidationError(f"data.synth makes a table of 2 * {self.n_per_class} * "
                                  f"{self.n_features} values, more than numpy can allocate")
        return self


@dataclass(frozen=True)
class CsvSource:
    """A raw CSV file and the schema file that describes its columns."""

    path: str
    schema: str


@dataclass(frozen=True)
class DataSource:
    """Where the rows come from: one CSV source or the built-in generator.

    A config file names exactly one; naming neither means the generator
    with its defaults.
    """

    csv: CsvSource | None = None
    synth: SynthSpec | None = None

    def __post_init__(self):
        if self.csv is None and self.synth is None:
            object.__setattr__(self, "synth", SynthSpec())

    def validate(self) -> "DataSource":
        if self.csv is not None and self.synth is not None:
            raise ValidationError("config must name exactly one data source, found csv and synth")
        if self.csv is None:
            self.synth.validate()
        else:
            for p in (self.csv.path, self.csv.schema):
                if not os.path.isfile(p):
                    raise ValidationError(f"data file not found: {p}")
        return self


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved from profile + file + flags.

    The fields are the config file's schema: the file has the same keys
    and nesting (``format`` and ``version`` aside), and the defaults are
    the desk profile.
    """

    profile: str = PROFILE_DESK
    seed: int = 7
    out: str = "frauduq-out"
    method: str = METHOD_MCD
    mc_passes: int = 100
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    m_bins: int = 10
    report_threshold: float = 0.4
    train_fraction: float = 0.7
    data: DataSource = field(default_factory=DataSource)
    network: NetworkParams = field(default_factory=NetworkParams)
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)

    def validate(self) -> "RunConfig":
        if self.profile not in PROFILES:
            raise ValidationError(f"unknown profile {self.profile!r}")
        if self.method not in METHODS:
            raise ValidationError(f"unknown UQ method {self.method!r}")
        if self.mc_passes < 1:
            raise ValidationError(f"mc_passes must be >= 1, got {self.mc_passes}")
        if self.mc_passes * N_CLASSES > MAX_FLOATS:
            raise ValidationError(f"mc_passes {self.mc_passes} makes a pass tensor of "
                                  f"{self.mc_passes * N_CLASSES} values per row, more than "
                                  f"numpy can allocate")
        if self.m_bins < 1:
            raise ValidationError(f"m_bins must be >= 1, got {self.m_bins}")
        if self.m_bins > MAX_FLOATS:
            raise ValidationError(f"m_bins {self.m_bins} is more than numpy can allocate")
        check_thresholds(self.thresholds)
        if not any(math.isclose(t, self.report_threshold, abs_tol=1e-9) for t in self.thresholds):
            raise ValidationError(
                f"report_threshold {self.report_threshold} is not in the threshold grid"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        self.data.validate()
        self.network.validate()
        self.ensemble.validate()
        return self

    @property
    def uses_csv(self) -> bool:
        return self.data.csv is not None

    def to_dict(self) -> dict:
        """Snapshot for config.json and digests; deliberately excludes
        out so artifacts are identical wherever the run lands."""
        plain = container.to_plain(self)
        del plain["out"]
        return container.header(CONFIG_FORMAT, **plain)


# Profiles: "desk" (the RunConfig defaults) is the paper's experiment
# shrunk until the full chain runs in CI minutes; "paper" mirrors the
# published scale (256/64/16 network, 30-member ensemble, 1000 MC passes).
PROFILES = {
    PROFILE_PAPER: RunConfig(
        profile=PROFILE_PAPER,
        mc_passes=1000,
        network=NetworkParams(hidden_units=(256, 64, 16), epochs=50, batch_size=128),
        ensemble=EnsembleSpec(members=30, width_ranges=((256, 385), (64, 256), (16, 32))),
    ),
    PROFILE_DESK: RunConfig(),
}


def load_run_config(path=None, profile: str | None = None, seed: int | None = None,
                    out: str | None = None, method: str | None = None,
                    mc_passes: int | None = None) -> RunConfig:
    """Resolve a RunConfig: profile defaults <- config file <- CLI flags.

    The file is JSON with the same nesting as RunConfig.to_dict; its
    ``format`` and ``version`` may be left out but must match when given.
    Every invariant is checked here, before any command does work.
    """
    raw: dict = {}
    if path is not None:
        try:
            raw = container.read_json(path)
            stated = {k: raw.pop(k) for k in ("format", "version") if k in raw}
            container.check_header(container.header(CONFIG_FORMAT) | stated, CONFIG_FORMAT, path)
        except (FormatError, OSError) as exc:  # a bad or unreadable config is bad input: exit 2
            raise ValidationError(str(exc)) from exc

    name = profile or raw.get("profile", PROFILE_DESK)
    # An unknown or mistyped name merges over the defaults; validate() or
    # the type check then rejects it.
    plain = container.to_plain(PROFILES.get(name, RunConfig()) if isinstance(name, str)
                               else RunConfig())
    # The network and ensemble sections change only the keys the file
    # names; any other value replaces the profile's, data too, as it names
    # exactly one source.
    config = container.from_plain(RunConfig, plain | raw | {
        key: plain[key] | raw[key] for key in ("network", "ensemble")
        if isinstance(raw.get(key), dict)})
    flags = {"profile": profile, "seed": seed, "out": out, "method": method,
             "mc_passes": mc_passes}
    return replace(config, **{k: v for k, v in flags.items() if v is not None}).validate()


# --- stage machinery ------------------------------------------------------


@dataclass(frozen=True)
class Manifest:
    """A stage's ``manifest.json``: the digests that prove it ran."""

    stage: str
    config_digest: str
    inputs: dict[str, str]  # input label -> sha256
    outputs: dict[str, str]  # file name in the stage dir -> sha256

    def validate(self) -> "Manifest":
        """Refuse any output but a plain file name (a path, "", "." or
        ".."), so that no name read back leaves the stage directory."""
        for name in self.outputs:
            if name in ("", ".", "..") or "/" in name or "\0" in name:
                raise ValidationError(f"outputs entry {name!r} is not a plain file name")
        return self


@dataclass(frozen=True)
class EnsembleFile(EnsembleSpec):
    """An ensemble directory's ``spec.json``: the config's ensemble
    section plus the master seed, checked by the same rules as the config."""

    master_seed: int = 0

    @property
    def files(self) -> tuple[str, ...]:
        """The member files, in member order."""
        return tuple(f"member_{i:03d}.json" for i in range(self.members))


@dataclass
class StageResult:
    dir: Path
    skipped: bool


def _digest_of(obj) -> str:
    return container.sha256_text(container.dumps_canonical(obj))


@dataclass
class _Known:
    """What one command knows of one file: its sha256 and its decoded
    artifact, each once taken (None until then)."""

    sha256: str | None = None
    artifact: object = None


def _known(path, memo: dict) -> _Known:
    """The ``memo`` entry of this very file: the same absolute path, inode,
    size and mtime. A stage that reruns replaces its files (see
    ``open_atomic``), which gives them new inodes, so nothing known of the
    old file is ever reused."""
    st = os.stat(path)
    return memo.setdefault((os.path.abspath(path), st.st_ino, st.st_size, st.st_mtime_ns),
                           _Known())


def _file_digest(path, memo: dict) -> str:
    """The sha256 of ``path``, hashed only if ``memo`` holds none for it."""
    known = _known(path, memo)
    if known.sha256 is None:
        known.sha256 = container.sha256_file(path)
    return known.sha256


def _artifact(path, read, memo: dict):
    """The artifact at ``path``: the one ``memo`` holds for it, else
    ``read(path)``, which then stays in ``memo`` for later readers. Every
    build reads this way, in a chain or alone (see :func:`run_stage`)."""
    known = _known(path, memo)
    if known.artifact is None:
        known.artifact = read(path)
    return known.artifact


def _hand_over(path, artifact, memo: dict) -> None:
    """Keep ``artifact``, just written to ``path``, in ``memo`` for the
    stages after this one, in a chain or alone. It is not validated again:
    every build makes an object that passes the ``validate()`` a read runs
    (the feature tables by construction, ``train`` and ``write_dump`` by
    checking it)."""
    _known(path, memo).artifact = artifact


def _drop(path, memo: dict) -> None:
    """Let go of the artifact ``memo`` holds for ``path``, which no later
    stage reads, so that its arrays are freed; its digest stays. No stage
    of a command rewrites a file that an earlier one read, so the file's
    one entry is its live one."""
    _known(path, memo).artifact = None


def run_stage(out_dir, name: str, stage_config: dict, inputs: dict,
              build, log=print, memo: dict | None = None) -> StageResult:
    """Run one stage unless its manifest proves it already ran.

    ``inputs`` maps labels to existing files whose digests gate the
    resume; ``build(stage_dir, memo)`` writes the artifacts into
    ``stage_dir`` and returns their paths. A rebuild removes each file the
    old manifest lists and the build did not write, so the directory holds
    what its manifest lists. The manifest is written last, so a crash
    mid-stage simply reruns it. ``memo`` holds what the command that runs
    this stage already knows of its files, keyed by path, inode, size and
    mtime (see :func:`_known`): their digests, and the artifacts it wrote
    or read. A chain of stages shares one, so a file that one stage
    wrote or checked is not hashed again by the next, and an artifact
    that one stage wrote or read is not decoded again by the next; a
    stage run on its own gets a fresh one here. Either way the build
    reads through :func:`_artifact` and hands what it writes over with
    :func:`_hand_over`.
    """
    memo = {} if memo is None else memo
    stage_dir = Path(out_dir) / name
    manifest_path = stage_dir / "manifest.json"
    config_digest = _digest_of(stage_config)
    input_digests = {label: _file_digest(p, memo) for label, p in sorted(inputs.items())}

    try:
        old = container.read_artifact(manifest_path, MANIFEST_FORMAT, Manifest)
    except (FormatError, OSError):  # none or a faulty one: rerun, and remove nothing
        old = None
    if (old is not None and old.config_digest == config_digest
            and old.inputs == input_digests
            and all((stage_dir / rel).is_file()
                    and _file_digest(stage_dir / rel, memo) == digest
                    for rel, digest in old.outputs.items())):
        log(f"[{name}] up to date, skipping")
        return StageResult(stage_dir, True)

    stage_dir.mkdir(parents=True, exist_ok=True)
    produced = build(stage_dir, memo)
    manifest = Manifest(name, config_digest, input_digests, {
        Path(p).relative_to(stage_dir).as_posix(): _file_digest(p, memo)
        for p in produced}).validate()
    stale = old.outputs.keys() - manifest.outputs.keys() if old else set()
    for rel in sorted(stale):
        if not (stage_dir / rel).is_dir():  # an edited manifest may name one, say ensemble
            (stage_dir / rel).unlink(missing_ok=True)
    container.write_artifact(manifest, MANIFEST_FORMAT, manifest_path)
    return StageResult(stage_dir, False)


def _require_file(path: Path, hint: str) -> Path:
    if not path.is_file():
        raise ValidationError(f"{path} not found; {hint}")
    return path


def _write_config_snapshot(config: RunConfig) -> None:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    container.write_json(config.to_dict(), out / "config.json")


# --- stages ---------------------------------------------------------------


def stage_data(config: RunConfig, log=print, memo: dict | None = None) -> StageResult:
    """Materialize train/test FeatureTables (and, for CSV data, the
    fitted preprocessor) under <out>/data."""
    if config.uses_csv:
        stage_config = {"source": "csv", "train_fraction": config.train_fraction,
                        "seed": config.seed}
        inputs = {"csv": Path(config.data.csv.path), "schema": Path(config.data.csv.schema)}
    else:
        stage_config = {"source": "synth", "synth": vars(config.data.synth),
                        "train_fraction": config.train_fraction, "seed": config.seed}
        inputs = {}

    def build(stage_dir: Path, memo: dict):
        if config.uses_csv:
            schema = CsvSchema.from_file(config.data.csv.schema)
            raw = load_csv(config.data.csv.path, schema)
            log(f"[data] loaded {raw.n_rows} rows x {len(raw.column_names)} columns")
            train_raw, test_raw = split_train_test(raw, config.train_fraction, seed=config.seed)
            state = fit_preprocessor(train_raw)
            train_t = apply_preprocessor(state, train_raw)
            test_t = apply_preprocessor(state, test_raw)
            state.save(stage_dir / "preprocessor.json")
            extra = [stage_dir / "preprocessor.json"]
        else:
            s = config.data.synth
            table = synth_generate(s.n_per_class, s.n_features, s.separation,
                                   noise_seed=config.seed)
            log(f"[data] synthesized {table.n_rows} rows of {s.n_features} features "
                f"(separation {s.separation})")
            train_t, test_t = split_train_test(table, config.train_fraction, seed=config.seed)
            extra = []
        for part, name in ((train_t, "train.json"), (test_t, "test.json")):
            save_features(part, stage_dir / name)
            _hand_over(stage_dir / name, part, memo)
        log(f"[data] split {train_t.n_rows} train / {test_t.n_rows} test rows")
        return [stage_dir / "train.json", stage_dir / "test.json", *extra]

    return run_stage(config.out, "data", stage_config, inputs, build, log, memo)


def stage_train(config: RunConfig, method: str, log=print,
                memo: dict | None = None) -> StageResult:
    """Train the model that ``method`` predicts with, as a stage of its
    own: the single net for mcd under <out>/models, the ensemble
    otherwise under <out>/models/ensemble."""
    train_path = _require_file(Path(config.out) / "data" / "train.json",
                               "run the preprocess command first")
    stage_config = {"seed": config.seed, "network": container.to_plain(config.network)}
    if method != METHOD_MCD:
        stage_config["ensemble"] = container.to_plain(config.ensemble)

    def build(stage_dir: Path, memo: dict):
        data = _artifact(train_path, load_features, memo)
        if data.n_rows == 0:
            raise DataError(f"{train_path}: training data is empty")
        input_units = data.features.shape[1]
        if method == METHOD_MCD:
            net_config = NetworkConfig(**vars(config.network), input_units=input_units,
                                       seed=derive_seed(config.seed, STREAM_TRAIN))
            log(f"[train] single network {list(net_config.hidden_units)} "
                f"on {data.n_rows} rows")
            net, history = train(net_config, data)
            for epoch, loss in enumerate(history, start=1):
                log(f"[train] single epoch {epoch}/{len(history)} loss {loss:.6f}")
            save_network(net, stage_dir / "single.json")
            _hand_over(stage_dir / "single.json", net, memo)
            return [stage_dir / "single.json"]

        spec = config.ensemble

        def member_log(index, member_cfg, history):
            log(f"[train] member {index + 1}/{spec.members} "
                f"{list(member_cfg.hidden_units)} final loss {history[-1]:.6f}")

        base = NetworkConfig(**vars(config.network), input_units=input_units)
        members = train_ensemble(spec, base, data, config.seed, log=member_log)
        spec_file = EnsembleFile(spec.members, spec.width_ranges, config.seed)
        for net, name in zip(members, spec_file.files):
            save_network(net, stage_dir / name)
            _hand_over(stage_dir / name, net, memo)
        container.write_artifact(spec_file, ENSEMBLE_FORMAT, stage_dir / "spec.json")
        return [stage_dir / "spec.json", *(stage_dir / name for name in spec_file.files)]

    return run_stage(config.out, "models" if method == METHOD_MCD else "models/ensemble",
                     stage_config, {"train": train_path}, build, log, memo)


def _model_files(method: str, model_path: Path) -> list[Path]:
    """Every file making up the model artifact: the network file, or an
    ensemble's spec.json and then the member files beside it. None is
    decoded here, so an up-to-date stage skips unread; the predict build
    checks the members against spec.json."""
    if method == METHOD_MCD:
        if model_path.is_dir():
            raise ValidationError(
                f"method mcd expects a single network file, got ensemble directory {model_path}")
        return [_require_file(model_path, "train a model first")]
    if model_path.is_file():
        raise ValidationError(
            f"method {method} expects an ensemble directory, got single network file {model_path}")
    return [_require_file(model_path / "spec.json", "train an ensemble first"),
            *sorted(model_path.glob("member_*.json"),  # in member order, 999 before 1000
                    key=lambda p: (len(p.name), p.name))]


def stage_predict(config: RunConfig, method: str, model_path=None,
                  data_path=None, log=print, memo: dict | None = None) -> StageResult:
    """Predict the test table with one UQ method; dump under
    <out>/predictions/<method>."""
    out = Path(config.out)
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
    # The files are named here so that a tree written with another dump
    # layout (dump.jsonl and dump.csv, read back from the JSONL) reruns
    # this stage; the rerun removes that layout's dump.csv (see run_stage).
    files = ("dump.jsonl", "dump.json")
    stage_config = {"method": method, "mc_passes": passes, "seed": config.seed,
                    "files": list(files), "sampling": SAMPLER}
    inputs = {"data": Path(data_path)}
    inputs.update({f"model_{i}": Path(p) for i, p in enumerate(model_files)})

    def build(stage_dir: Path, memo: dict):
        if method != METHOD_MCD:
            spec = container.read_artifact(model_files[0], ENSEMBLE_FORMAT, EnsembleFile)
            found = {p.name for p in model_files[1:]}
            refusal = f"{model_path} does not hold the member files its spec.json lists"
            if spec.members > len(found) + 10:  # counted, as there may be too many to name
                raise ValidationError(f"{refusal}: {spec.members} listed, {len(found)} found")
            listed = set(spec.files)
            if found != listed:
                raise ValidationError(f"{refusal}: missing {sorted(listed - found)}, "
                                      f"extra {sorted(found - listed)}")
        net_files = model_files if method == METHOD_MCD else model_files[1:]
        models = [_artifact(p, load_network, memo) for p in net_files]
        table = _artifact(data_path, load_features, memo)
        for path, net in zip(net_files, models):
            if net.config.input_units != table.features.shape[1]:
                raise ShapeError(f"{data_path} has {table.features.shape[1]} features but "
                                 f"{path} expects {net.config.input_units}")
        log(f"[predict] {method} on {table.n_rows} rows "
            f"({len(models)} model(s), T={passes if passes else '-'})")
        estimates = predict_table(method, models, table.features,
                                  passes=config.mc_passes, seed=config.seed)
        paths = [stage_dir / name for name in files]
        dump = DumpFile(method, estimates.mean_probs, table.labels, config.seed, passes,
                        _digest_of(stage_config))
        write_dump(*paths, dump)
        _hand_over(paths[1], dump, memo)
        return paths

    return run_stage(config.out, f"predictions/{method}", stage_config, inputs, build, log,
                     memo)


def _report(config: RunConfig, method: str, dump_path: Path, memo: dict) -> UqReport:
    """Score the dump at ``dump_path``, refused unless it holds some of
    ``method``'s predictions. The evaluate and summary stages both call it."""
    dump = _artifact(dump_path, read_dump, memo)
    if dump.method != method:
        raise ValidationError(f"{dump_path} holds {dump.method} predictions, "
                              f"but the method is {method}; pass --method {dump.method}")
    if len(dump.estimates) == 0:
        raise DataError(f"{dump_path}: dump contains no predictions")
    return build_report(method, dump.estimates, dump.labels,
                        thresholds=config.thresholds, m_bins=config.m_bins)


def stage_evaluate(config: RunConfig, method: str, dump_path=None, log=print,
                   memo: dict | None = None) -> StageResult:
    """Score one prediction dump: report JSON/CSVs + reliability SVG
    under <out>/reports/<method>."""
    if dump_path is None:
        dump_path = Path(config.out) / "predictions" / method / "dump.json"
    dump_path = _require_file(Path(dump_path), "run the predict command first")
    stage_config = {"method": method, "thresholds": list(config.thresholds),
                    "m_bins": config.m_bins, "report_threshold": config.report_threshold,
                    "seed": config.seed}

    def build(stage_dir: Path, memo: dict):
        report = _report(config, method, dump_path, memo)
        meta = {"seed": config.seed, "config_digest": _digest_of(stage_config)}
        container.write_json(report_to_dict(report, meta), stage_dir / "report.json")
        threshold_table_csv(report, stage_dir / "thresholds.csv", meta)
        entropy_histogram_csv(report, stage_dir / "entropy_histogram.csv", meta)
        render_reliability_svg(report.calibration, stage_dir / "reliability.svg", meta)
        row = _threshold_row(report, config.report_threshold)
        log(f"[evaluate] {report.method}: n={report.n} acc={report.classic.accuracy:.4f} "
            f"ece={report.calibration.ece:.4f} | t={config.report_threshold:g} "
            + " ".join(f"{k}={_fmt(getattr(row, k))}" for k in UQ_METRICS))
        return [stage_dir / "report.json", stage_dir / "thresholds.csv",
                stage_dir / "entropy_histogram.csv", stage_dir / "reliability.svg"]

    return run_stage(config.out, f"reports/{method}", stage_config,
                     {"dump": dump_path}, build, log, memo)


def _fmt(value) -> str:
    return "NA" if value is None else f"{value:.4f}"


def _threshold_row(report: UqReport, threshold: float) -> ThresholdRow:
    """The row at ``threshold``, which a validated config keeps on its grid."""
    return next(row for row in report.thresholds
                if math.isclose(row.threshold, threshold, abs_tol=1e-9))


def stage_summary(config: RunConfig, log=print, memo: dict | None = None) -> StageResult:
    """Side-by-side UQ metrics of all methods at the report threshold,
    scored from the dumps as the evaluate stage scores them."""
    out = Path(config.out)
    dump_paths = {m: _require_file(out / "predictions" / m / "dump.json",
                                   "run the predict command first")
                  for m in METHODS}
    stage_config = {"methods": list(METHODS), "thresholds": list(config.thresholds),
                    "m_bins": config.m_bins, "report_threshold": config.report_threshold,
                    "seed": config.seed}

    def build(stage_dir: Path, memo: dict):
        rows, summaries = [], {}
        for m, path in dump_paths.items():
            report = _report(config, m, path, memo)
            row = _threshold_row(report, config.report_threshold)
            uq = {k: getattr(row, k) for k in UQ_METRICS}
            rows.append((m, *uq.values()))
            summaries[m] = {**uq, "accuracy": report.classic.accuracy,
                            "ece": report.calibration.ece, "n": report.n}
        container.write_json(container.header(
            SUMMARY_FORMAT, seed=config.seed, threshold=config.report_threshold,
            methods=summaries), stage_dir / "summary.json")
        container.write_csv(stage_dir / "summary.csv", f"{SUMMARY_FORMAT}-table",
                            {"seed": config.seed, "threshold": f"{config.report_threshold:g}"},
                            ("method", *UQ_METRICS), rows)

        log(f"[summary] threshold {config.report_threshold:g}")
        log("  method" + "".join(f"{k:>8}" for k in UQ_METRICS))
        for m, *metrics in rows:
            log(f"  {m:<8}" + "".join(f"{_fmt(v):>8}" for v in metrics))
        return [stage_dir / "summary.json", stage_dir / "summary.csv"]

    return run_stage(config.out, "summary", stage_config, dump_paths, build, log, memo)


# --- commands -------------------------------------------------------------


def cmd_synth(config: RunConfig, log=print) -> Path:
    """Write the full (unsplit) synthetic FeatureTable to <out>/synth.json."""
    _write_config_snapshot(config)
    s = config.data.synth or SynthSpec()
    table = synth_generate(s.n_per_class, s.n_features, s.separation, noise_seed=config.seed)
    path = Path(config.out) / "synth.json"
    save_features(table, path)
    if config.uses_csv:
        log(f"[synth] data.csv ({config.data.csv.path}) is ignored: synth writes the "
            f"built-in generator's table with its default settings")
    log(f"[synth] wrote {table.n_rows} rows x {s.n_features} features to {path}")
    return path


def cmd_preprocess(config: RunConfig, log=print) -> StageResult:
    _write_config_snapshot(config)
    return stage_data(config, log)


def cmd_train(config: RunConfig, log=print) -> StageResult:
    _write_config_snapshot(config)
    return stage_train(config, config.method, log)


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

    The stages share one memo (see :func:`run_stage`), so the command
    hashes each file at most once, and decodes each artifact at most once:
    a table, network or dump that one stage wrote or read is handed to
    the stages after it. The training table leaves the memo after the
    last model stage, and the single network after the mcd predict
    stage, so that neither is held through the sampling that follows.
    The memo lives only as long as the command: a file edited in place
    between two commands is hashed and read afresh by the next, even if
    its size and mtime were kept.
    """
    _write_config_snapshot(config)
    if not config.uses_csv:
        log("[reproduce] no csv data source configured; using the built-in "
            "synthetic generator")
    out, memo = Path(config.out), {}
    stage_data(config, log, memo)
    stage_train(config, METHOD_MCD, log, memo)
    stage_train(config, METHOD_ENSEMBLE, log, memo)
    _drop(out / "data" / "train.json", memo)
    for method in METHODS:
        stage_predict(config, method, log=log, memo=memo)
        if method == METHOD_MCD:
            _drop(out / "models" / "single.json", memo)
        stage_evaluate(config, method, log=log, memo=memo)
    return stage_summary(config, log, memo)
