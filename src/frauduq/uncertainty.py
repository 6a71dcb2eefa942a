"""Predictive distributions and entropy-based uncertainty estimates.

Three sampling schemes over a trained classifier stack:

* MC dropout: T stochastic forward passes of one network with fresh
  dropout masks each pass.
* Deep ensemble: one deterministic pass per independently trained member
  (all members see the identical training table, no bootstrapping).
* Ensemble MC dropout: T stochastic passes per member, M*T samples.

All three are one computation in :func:`predict_table`: M*T softmax
samples per row (MC dropout is M=1, the ensemble T=1), reduced to the
mean distribution, its predictive entropy in nats, and the entropy
normalized by ln(num classes) so the certainty threshold lives on a
[0, 1] axis.
"""

import json
import math
import os
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from . import container
from .errors import DataError, ValidationError
from .network import Network, NetworkConfig, first_hidden, forward, sample_dropout_mask, train
from .seeding import STREAM_MEMBER, STREAM_PREDICT, derive_seed, substream

METHOD_MCD = "mcd"
METHOD_ENSEMBLE = "ensemble"
METHOD_EMCD = "emcd"
METHODS = (METHOD_MCD, METHOD_ENSEMBLE, METHOD_EMCD)


@dataclass(frozen=True)
class Estimates:
    """Mean distribution plus entropy for every row of a table, as columns.

    ``mean_probs`` is (n, num_classes); ``predicted_class``, ``entropy_raw``
    and ``entropy_norm`` are (n,). Row i of each column belongs to input i.
    """

    mean_probs: np.ndarray
    predicted_class: np.ndarray
    entropy_raw: np.ndarray
    entropy_norm: np.ndarray

    def __len__(self) -> int:
        return len(self.predicted_class)


@dataclass(frozen=True)
class EnsembleSpec:
    """How to build an ensemble: the member count and the per-layer width
    ranges (inclusive). It is also the config's ``ensemble`` section."""

    members: int = 5
    width_ranges: tuple[tuple[int, int], ...] = ((24, 48), (12, 24), (6, 12))

    def validate(self) -> "EnsembleSpec":
        if self.members < 2:
            raise ValidationError(f"ensemble members must be >= 2, got {self.members}")
        if len(self.width_ranges) != 3:
            raise ValidationError("ensemble width_ranges must cover the 3 hidden layers")
        for r in self.width_ranges:
            if len(r) != 2 or not 1 <= r[0] < r[1]:
                raise ValidationError(f"width range {list(r)} must be [low, high] "
                                      f"with 1 <= low < high")
        return self


def predictive_entropy(mean_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shannon entropy of mean distributions along the last axis, raw nats
    and ln(C)-normalized.

    Uses the 0*ln(0) := 0 convention; the normalized value is clamped to
    [0, 1] against last-ulp rounding. Rejects vectors that are not a
    probability distribution rather than returning a meaningless number.
    """
    p = np.asarray(mean_probs, dtype=np.float64)
    bad = ~((p.min(axis=-1) >= -1e-9) & (np.abs(p.sum(axis=-1) - 1.0) <= 1e-6))  # NaN is bad
    if bad.any():
        raise DataError(f"not a probability distribution: {p[bad][0].tolist()}")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    raw = np.maximum(-terms.sum(axis=-1) + 0.0, 0.0)  # +0.0 normalizes -0.0
    norm = np.clip(raw / math.log(p.shape[-1]), 0.0, 1.0)
    return raw, norm


def _centered_mean(x: np.ndarray, axis: int) -> np.ndarray:
    """Mean along ``axis``, taken relative to the first entry on that axis.

    Offsetting by the first entry keeps the mean of bitwise-identical
    entries exact, so zero-dropout sampling collapses to the single
    forward pass with no rounding drift. ``x`` is centered in place.
    """
    first = x.take([0], axis=axis)
    x -= first
    mean = x.mean(axis=axis)
    mean += first.squeeze(axis)
    return mean


def summarize(samples: np.ndarray) -> Estimates:
    """Collapse a (rows, members, passes, classes) softmax tensor into the
    mean distribution and its entropy per row.

    Each member's passes are averaged first, then the member means, which
    equals the flat mean over all samples up to rounding. The tensor is
    overwritten (centered in place), so besides it the reduction only
    holds arrays of one pass per member. Argmax ties resolve to the lower
    class index (genuine).
    """
    if 0 in samples.shape[1:3]:
        raise DataError("cannot summarize an empty sample set")
    mean_probs = _centered_mean(_centered_mean(samples, axis=2), axis=1)
    raw, norm = predictive_entropy(mean_probs)
    return Estimates(mean_probs=mean_probs, predicted_class=mean_probs.argmax(axis=1),
                     entropy_raw=raw, entropy_norm=norm)


def member_config(spec: EnsembleSpec, base: NetworkConfig, index: int,
                  master_seed: int = 0) -> NetworkConfig:
    """``base`` as ensemble member ``index``: its widths and training seed.

    Widths are drawn uniformly (inclusive) from the spec ranges and the
    training seed (the config's ``seed``) is derived from (master_seed,
    index), so members are reproducible independently of training order.
    """
    width_rng = substream(master_seed, STREAM_MEMBER, index, 0)
    widths = tuple(int(width_rng.integers(lo, hi, endpoint=True)) for lo, hi in spec.width_ranges)
    return replace(base, hidden_units=widths,
                   seed=derive_seed(master_seed, STREAM_MEMBER, index, 1))


def train_ensemble(spec: EnsembleSpec, base: NetworkConfig, data, master_seed: int = 0,
                   log=None) -> list[Network]:
    """Train all members of ``base`` independently on the identical training table."""
    spec.validate()
    members = []
    for i in range(spec.members):
        config = member_config(spec, base, i, master_seed)
        net, history = train(config, data)
        if log is not None:
            log(i, config, history)
        members.append(net)
    return members


def _run_striped(n_tasks: int, task) -> None:
    """Run ``task(i)`` for i in range(n_tasks), striped over one thread per
    usable core; the caller runs stripe 0. Of the tasks that fail, the
    lowest index's error is raised: a stripe stops only above a failure."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_threads = max(1, min(n_tasks, cores or 1))
    failed = [None] * n_threads  # stripe k's failure (index, error); only k writes it

    def stripe(k):
        for i in range(k, n_tasks, n_threads):
            if any(f and f[0] < i for f in failed):
                return
            try:
                task(i)
            except Exception as exc:  # handed to the caller below
                failed[k] = (i, exc)

    workers = [threading.Thread(target=stripe, args=(k,)) for k in range(1, n_threads)]
    for w in workers:
        w.start()
    try:
        stripe(0)
    except BaseException:  # e.g. KeyboardInterrupt: stop the workers too
        failed[0] = (-1, None)
        raise
    finally:
        for w in workers:
            w.join()
    first = min((f for f in failed if f), default=None, key=lambda f: f[0])
    if first:
        raise first[1]


# Input rows are processed in chunks sized so one chunk's sample tensor
# stays near this many floats; a constant keeps chunking (and therefore
# the dropout mask streams) reproducible across machines.
_CHUNK_BUDGET_FLOATS = 16_000_000


def predict_table(method: str, models: list[Network], features: np.ndarray,
                  passes: int, seed: int = 0) -> Estimates:
    """Uncertainty estimates for every row of a feature matrix (a vector is one row).

    Runs whole-chunk forward passes per (member, pass) with a fresh
    per-row dropout mask each pass, and reduces each chunk's sample
    tensor with :func:`summarize`. Layer 1's activation is the same on
    every pass (dropout acts after each hidden ReLU), so it is computed
    once per member per chunk. That member's passes then run on one
    thread per usable core, each into its own slot: any core count
    gives the same bytes.

    A row's MC samples are fixed by (seed, member, pass, chunk): one
    stream per key draws the masks of every row in the chunk. So for mcd
    and emcd, the same rows predicted alone, or under another chunk
    budget, give other samples, and ``_CHUNK_BUDGET_FLOATS`` is a fixed
    constant, not tuned to the machine. The same table, models and seed
    always give the same bytes; the mask-free ensemble does not depend
    on chunking.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown UQ method {method!r}")
    if method == METHOD_MCD and len(models) != 1:
        raise ValidationError("mcd predicts with exactly one network")
    if method != METHOD_MCD and len(models) < 2:
        raise ValidationError(f"ensemble prediction needs >= 2 members, got {len(models)}")
    if method != METHOD_ENSEMBLE and passes < 1:
        raise ValidationError(f"number of MC passes must be >= 1, got {passes}")

    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = features.shape[0]
    n_members = len(models)
    per_member = 1 if method == METHOD_ENSEMBLE else passes
    stochastic = method != METHOD_ENSEMBLE
    n_classes = models[0].config.output_units

    chunk_rows = max(1, min(n, _CHUNK_BUDGET_FLOATS // (n_members * per_member * n_classes)))
    parts = []
    # An empty table still runs one (empty) chunk, so the columns get their shapes.
    for chunk_no, start in enumerate(range(0, max(n, 1), chunk_rows)):
        block = features[start : start + chunk_rows]
        tensor = np.empty((block.shape[0], n_members, per_member, n_classes))
        for m, net in enumerate(models):
            hidden1 = first_hidden(net, block)

            def one_pass(t):
                mask = None
                if stochastic:
                    rng = substream(seed, STREAM_PREDICT, m, t, chunk_no)
                    mask = sample_dropout_mask(net.config, rng, n_rows=block.shape[0])
                tensor[:, m, t] = forward(net, block, mask, hidden1)

            _run_striped(per_member, one_pass)
        parts.append(summarize(tensor))
    return Estimates(*(np.concatenate([getattr(p, f.name) for p in parts])
                       for f in fields(Estimates)))


DUMP_FORMAT = "frauduq-predictions"
# How far a dump's stored entropies may sit from the ones recomputed on
# reading: np.log may differ in the last ulp between numpy builds and CPUs.
ENTROPY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class DumpFile:
    """A ``dump.json``: one method's estimates for every row of a table,
    the table's labels (None if it has none) and the provenance of the
    stage that predicted them."""

    method: str
    estimates: Estimates
    labels: np.ndarray | None
    seed: int
    mc_passes: int | None
    config_digest: str

    def validate(self) -> "DumpFile":
        """Refuse a dump that :func:`predict_table` cannot have made: an
        unknown method, columns of another dtype, shape or length, or a
        row whose ``mean_probs`` is not a distribution over two classes,
        whose ``predicted_class`` is not their argmax, or whose entropies
        are more than ``ENTROPY_TOLERANCE`` from what
        :func:`predictive_entropy` gives for them (the stored values are
        the ones evaluated); and labels other than None or an integer
        array of 0s and 1s, one per row."""
        e = self.estimates
        n = len(e.predicted_class) if np.ndim(e.predicted_class) else -1  # 0-d fits no shape
        if self.method not in METHODS:
            raise DataError(f"method must be one of {list(METHODS)}, got {self.method!r}")
        floats = (e.mean_probs, e.entropy_raw, e.entropy_norm)
        if not (all(isinstance(a, np.ndarray) and a.dtype == np.float64 and np.isfinite(a).all()
                    for a in floats)
                and isinstance(e.predicted_class, np.ndarray)
                and e.predicted_class.dtype.kind in "iu"
                and [a.shape for a in (*floats, e.predicted_class)] == [(n, 2), (n,), (n,), (n,)]):
            raise DataError("estimates need mean_probs as a finite float64 (n, 2) array, "
                            "entropy_raw and entropy_norm as finite float64 (n,) arrays, and "
                            "predicted_class as an integer (n,) array")
        try:
            expected = predictive_entropy(e.mean_probs)
        except DataError as exc:
            raise DataError(f"mean_probs: {exc}") from exc
        wrong = e.predicted_class != e.mean_probs.argmax(axis=1)
        for stored, recomputed in zip((e.entropy_raw, e.entropy_norm), expected):
            wrong |= ~(np.abs(stored - recomputed) <= ENTROPY_TOLERANCE)
        if wrong.any():
            raise DataError(f"row {np.flatnonzero(wrong)[0]} disagrees with its mean_probs: "
                            f"predicted_class must be their argmax, entropy_raw and "
                            f"entropy_norm their predictive entropy")
        y = self.labels
        if y is not None and not (isinstance(y, np.ndarray) and y.dtype.kind in "iu"
                                  and y.shape == (n,) and np.isin(y, (0, 1)).all()):
            raise DataError(f"labels must be None or an integer array of {n} 0s and 1s")
        return self


def write_dump(path_jsonl, path_json, dump: DumpFile) -> None:
    """Write a dump as ``dump.json`` and as its per-row view, JSON lines.

    Nothing reads the JSONL back: its first line is the header (format,
    version, method, n, seed, mc_passes, config digest) and each further
    line one row, written from one template as ``json.dumps(record,
    sort_keys=True)`` writes it, since a finite float's ``repr`` is json's
    spelling of it. The dump is validated before either file is opened,
    and each file replaces the old one only when complete.
    """
    dump.validate()
    e, n = dump.estimates, len(dump.estimates)
    header = container.header(DUMP_FORMAT, method=dump.method, n=n, seed=dump.seed,
                              mc_passes=dump.mc_passes, config_digest=dump.config_digest)
    labels = ["null"] * n if dump.labels is None else dump.labels.tolist()
    p0, p1, raw, norm = (map(repr, a.tolist()) for a in
                         (e.mean_probs[:, 0], e.mean_probs[:, 1], e.entropy_raw, e.entropy_norm))
    with container.open_atomic(path_jsonl) as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.writelines([
            f'{{"entropy_norm": {en}, "entropy_raw": {er}, "index": {i}, "label": {y}, '
            f'"mean_probs": [{g}, {f}], "predicted_class": {c}}}\n'
            for i, g, f, c, er, en, y in zip(range(n), p0, p1, e.predicted_class.tolist(),
                                             raw, norm, labels)])
    container.write_artifact(dump, DUMP_FORMAT, path_json)


def read_dump(path) -> DumpFile:
    """Read a ``dump.json`` back, checked by :meth:`DumpFile.validate`."""
    return container.read_artifact(path, DUMP_FORMAT, DumpFile)
