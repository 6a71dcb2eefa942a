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

import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from . import container
from .errors import DataError, FormatError, ValidationError
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
DUMP_COLUMNS = ("index", "method", "mean_prob_genuine", "mean_prob_fraud",
                "predicted_class", "entropy_raw", "entropy_norm", "label")
_RECORD_KEYS = frozenset(("index", "mean_probs", "predicted_class", "entropy_raw",
                          "entropy_norm", "label"))
_LABEL_REPRS = frozenset(("0", "1", "None"))  # the repr of each label a dump may hold


def write_dump(path_jsonl, path_csv, method: str, estimates: Estimates,
               labels, meta: dict | None = None) -> None:
    """Write the per-input prediction dump as JSON lines and CSV.

    The first JSONL line and a leading ``#`` CSV line carry the metadata
    (format, version, method, seed, config digest). Each file replaces the
    old one only when complete. Column order follows DUMP_COLUMNS. A row is
    one template per file; a JSONL record is what ``json.dumps(record,
    sort_keys=True)`` writes, as a float's ``repr`` (shortest round-trip)
    is json's spelling of it if finite. So before either file is opened,
    the float columns must be finite float64 and the classes integers,
    and each label None or an integer 0 or 1 (NumPy's too), as
    :func:`read_dump` reads them back: never a bool, float or string.
    """
    n = len(estimates)
    header = container.header(DUMP_FORMAT, method=method, n=n, **(meta or {}))
    labels = [None] * n if labels is None else [
        int(y) if isinstance(y, np.integer) else y for y in labels]
    if len(labels) != n:
        raise DataError("labels and estimates are misaligned")
    stray = set(map(repr, labels)) - _LABEL_REPRS
    if stray:
        raise DataError(f"cannot dump labels other than 0, 1 or None, got {sorted(stray)}")
    floats = (estimates.mean_probs, estimates.entropy_raw, estimates.entropy_norm)
    classes = estimates.predicted_class
    if not (all(isinstance(a, np.ndarray) and a.dtype == np.float64 and np.isfinite(a).all()
                for a in floats)
            and isinstance(classes, np.ndarray) and classes.dtype.kind in "iu"
            and [a.shape for a in (*floats, classes)] == [(n, 2), (n,), (n,), (n,)]):
        raise DataError("cannot dump these estimates: mean_probs must be a finite float64 "
                        "(n, 2) array, entropy_raw and entropy_norm finite float64 (n,) "
                        "arrays, and predicted_class an integer (n,) array")
    # each float's repr once, shared by both files
    p0, p1, raw, norm = (list(map(repr, a.tolist())) for a in
                         (floats[0][:, 0], floats[0][:, 1], *floats[1:]))
    rows = list(zip(range(n), p0, p1, classes.tolist(), raw, norm, labels))

    with container.open_atomic(path_jsonl) as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.writelines([
            f'{{"entropy_norm": {en}, "entropy_raw": {er}, "index": {i}, '
            f'"label": {"null" if y is None else y}, "mean_probs": [{g}, {f}], '
            f'"predicted_class": {c}}}\n' for i, g, f, c, er, en, y in rows])

    with container.open_atomic(path_csv) as fh:
        fh.write(f"# {container.stamp(DUMP_FORMAT, header)}\n")
        fh.write(",".join(DUMP_COLUMNS) + "\n")
        fh.writelines([f'{i},{method},{g},{f},{c},{er},{en},{"" if y is None else y}\n'
                       for i, g, f, c, er, en, y in rows])


def read_dump(path_jsonl) -> tuple[dict, Estimates, list]:
    """Read a JSONL prediction dump back; labels may contain None.

    Rejects, naming the file, a header whose ``n`` is not an int or whose
    ``method`` is not one of METHODS, a record key that :func:`write_dump`
    does not write or leaves out, a record count other than ``n``, indices
    other than the ints 0..n-1 in order, a ``mean_probs`` that is not a
    distribution over two classes, a ``predicted_class`` other than its
    argmax, entropies more than ``ENTROPY_TOLERANCE`` from what
    :func:`predictive_entropy` gives for it, and a class or label other
    than the ints 0 and 1 (a label may also be null). As in
    ``container.from_plain``, a number is an int or a float, never a bool
    or a string.
    """
    with open(path_jsonl, encoding="utf-8") as fh, container.utf8_text(path_jsonl):
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path_jsonl}: invalid JSONL header at offset {exc.pos}") from exc
        container.check_header(header, DUMP_FORMAT, path_jsonl)
        records = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                probs = rec["mean_probs"]
                records.append((rec["index"], probs, rec["predicted_class"],
                                rec["entropy_raw"], rec["entropy_norm"], rec["label"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(f"{path_jsonl}: bad record on line {line_no} ({exc})") from exc
            if not rec.keys() <= _RECORD_KEYS:
                raise FormatError(f"{path_jsonl}: line {line_no} has unknown key(s) "
                                  f"{sorted(rec.keys() - _RECORD_KEYS)}")
            if not isinstance(probs, list):
                raise FormatError(f"{path_jsonl}: line {line_no} has mean_probs {probs!r}, "
                                  f"expected a list")
            if len(probs) != 2:
                raise FormatError(f"{path_jsonl}: line {line_no} has {len(probs)} "
                                  f"mean_probs entries, expected 2")
    n, method = header.get("n"), header.get("method")
    if type(n) is not int or method not in METHODS:
        raise FormatError(f"{path_jsonl}: header needs an integer n and a method in "
                          f"{list(METHODS)}, got n={n!r}, method={method!r}")
    if len(records) != n:
        raise FormatError(f"{path_jsonl}: header says n={n} but {len(records)} records follow")
    index, probs, pred, raw, norm, labels = list(zip(*records)) or [()] * 6
    number = {int, float}
    for name, values, key, allowed, wording in (
            ("index", index, type, {int}, "integers"),
            ("mean_probs", itertools.chain.from_iterable(probs), type, number, "numbers"),
            ("entropy_raw", raw, type, number, "numbers"),
            ("entropy_norm", norm, type, number, "numbers"),
            ("predicted_class", pred, repr, {"0", "1"}, "0 or 1"),
            ("labels", labels, repr, _LABEL_REPRS, "0, 1 or null")):
        stray = set(map(key, values)) - allowed
        if stray:
            raise FormatError(f"{path_jsonl}: {name} must be {wording}, got "
                              f"{sorted(getattr(s, '__name__', s) for s in stray)}")
    if not np.array_equal(index, np.arange(n)):
        raise FormatError(f"{path_jsonl}: record indices are not 0..{n - 1} in order")
    estimates = Estimates(
        mean_probs=np.array(probs, dtype=np.float64).reshape(n, 2),
        predicted_class=np.array(pred, dtype=np.int64),
        entropy_raw=np.array(raw, dtype=np.float64),
        entropy_norm=np.array(norm, dtype=np.float64),
    )
    try:
        expected = predictive_entropy(estimates.mean_probs)
    except DataError as exc:
        raise FormatError(f"{path_jsonl}: mean_probs {exc}") from exc
    wrong = estimates.predicted_class != estimates.mean_probs.argmax(axis=1)
    for stored, recomputed in zip((estimates.entropy_raw, estimates.entropy_norm), expected):
        wrong |= ~(np.abs(stored - recomputed) <= ENTROPY_TOLERANCE)  # NaN is wrong too
    if wrong.any():
        raise FormatError(f"{path_jsonl}: record {np.flatnonzero(wrong)[0]} disagrees with its "
                          f"mean_probs: predicted_class must be their argmax, entropy_raw and "
                          f"entropy_norm their predictive entropy")
    return header, estimates, list(labels)
