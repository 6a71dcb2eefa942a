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

import contextlib
import functools
import json
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import container
from .data import check_labels
from .errors import DataError, NumericError, ValidationError
from .network import (N_CLASSES, Network, NetworkConfig, check_allocatable, first_hidden,
                      forward, train)
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
        check_allocatable("width_ranges", [list(r) for r in self.width_ranges],
                          [high for _, high in self.width_ranges])
        return self


def predictive_entropy(mean_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shannon entropy of mean distributions along the last axis, raw nats
    and ln(C)-normalized.

    Uses the 0*ln(0) := 0 convention; the normalized value is clamped to
    [0, 1] against last-ulp rounding. Rejects vectors that are not a
    probability distribution, naming the first, rather than returning a
    meaningless number.
    """
    p = np.asarray(mean_probs, dtype=np.float64)
    bad = ~((p.min(axis=-1) >= -1e-9) & (np.abs(p.sum(axis=-1) - 1.0) <= 1e-6))  # NaN is bad
    if bad.any():
        raise DataError(f"not a probability distribution in row {np.flatnonzero(bad)[0]}: "
                        f"{p[bad][0].tolist()}")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    raw = np.maximum(-terms.sum(axis=-1) + 0.0, 0.0)  # +0.0 normalizes -0.0
    norm = np.clip(raw / math.log(p.shape[-1]), 0.0, 1.0)
    return raw, norm


def estimates_of(mean_probs: np.ndarray) -> Estimates:
    """The :class:`Estimates` of (n, num_classes) mean distributions: their
    argmax, ties going to the lower class (genuine), and entropy."""
    raw, norm = predictive_entropy(mean_probs)
    return Estimates(mean_probs, mean_probs.argmax(axis=1), raw, norm)


def summarize(samples: np.ndarray) -> np.ndarray:
    """The (rows, classes) mean of a (rows, k, classes) softmax sample array
    along axis 1, taken relative to the first sample.

    Offsetting by the first sample keeps the mean of bitwise-identical
    samples exact, so zero-dropout sampling collapses to the single
    forward pass with no rounding drift. ``samples`` is centered in place.
    """
    if samples.shape[1] == 0:
        raise DataError("cannot summarize an empty sample set")
    first = samples.take([0], axis=1)
    samples -= first
    mean = samples.mean(axis=1)
    mean += first.squeeze(1)
    return mean


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


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, else the CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _core_pool():
    """A thread pool for :func:`_on_cores`: one thread per usable core but
    the caller's. A thread starts only when a task is handed to it."""
    # imported here, not at the top: it pulls in logging, a start-up cost for every command
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(_usable_cores() - 1, 1))


def _on_cores(task, n: int, pool=None) -> list:
    """``[task(i) for i in range(n)]``, run by the calling thread together
    with up to ``usable cores - 1`` threads of ``pool``.

    Each thread takes the next index from one shared iterator, so tasks
    start in index order; the results come back in index order. With no
    pool, or one core, the caller runs every task. Once a task fails, even
    with a KeyboardInterrupt, no index is handed out: the tasks in flight
    finish, and the lowest failing index's exception is raised, the one
    the plain loop raises, as every lower index had started. Nothing is
    built per task up front, so ``n`` may be as large as ``range`` takes.
    """
    indices, lock = iter(range(n)), threading.Lock()
    results, failures = {}, {}

    def share():
        while True:
            with lock:
                i = None if failures else next(indices, None)
            if i is None:
                return
            try:
                results[i] = task(i)
            except BaseException as exc:  # raised by the caller, the lowest index first
                with lock:
                    failures[i] = exc

    helpers = [pool.submit(share) for _ in range(min(n, _usable_cores()) - 1)] if pool else []
    try:
        share()
        for helper in helpers:
            helper.result()
    except BaseException as exc:  # interrupted while waiting: hand out no more indices
        with lock:
            failures.setdefault(n, exc)
        raise
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(n)]


def _in_workers(task, n: int):
    """Yield ``task(i)`` for i in range(n), in index order, each computed in
    one of the worker processes forked from the caller, one per usable core.

    The caller hands an idle worker the next index over a pipe, and the
    worker sends back the pickled result or exception. A result is
    yielded as soon as it and every lower one are back. Once a task
    fails, no index is handed out, and the lowest failing index's
    exception is raised after every lower result, the one the plain loop
    raises; a worker that dies in a task fails it with a ChildProcessError
    naming the member and the signal or exit status. However the caller
    leaves (done, raised, interrupted or closed early), it kills and reaps
    every worker and closes every pipe. The workers block SIGINT, so a
    Ctrl-C reaches the caller alone, which abandons the tasks in flight.
    On Linux the kernel kills the workers when the caller dies; elsewhere
    a worker outliving its caller ends with its task.
    With one usable core, or no ``os.fork``, the caller runs every task.
    """
    n_workers = min(n, _usable_cores())
    if n_workers < 2 or not hasattr(os, "fork"):
        yield from map(task, range(n))
        return
    import pickle
    import select
    import signal
    import warnings

    indices, replies, failed, caller = iter(range(n)), {}, False, os.getpid()
    fds, pids, busy = [], [], {}  # busy: a reply pipe -> (worker pid, its task pipe, index)
    poller = select.poll()

    def hand_out(pid, task_w, reply_r):
        i = None if failed else next(indices, None)
        if i is not None:
            busy[reply_r] = pid, task_w, i
            poller.register(reply_r, select.POLLIN)
            with contextlib.suppress(BrokenPipeError):  # a dead worker shows as end of file
                os.write(task_w, pickle.dumps(i))

    try:
        for _ in range(n_workers):
            fds += os.pipe()
            fds += os.pipe()
            task_r, task_w, reply_r, reply_w = fds[-4:]
            # A Ctrl-C stays pending until the worker is recorded, as CPython discards an
            # interrupt raised in an at-fork hook; the worker keeps SIGINT blocked for good.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns at a fork beside other threads. With no other Python
                    # thread alive they are native, as OpenBLAS's, which its fork handler stops.
                    if threading.active_count() == 1:
                        warnings.filterwarnings("ignore", ".* is multi-threaded",
                                                DeprecationWarning)
                    pid = os.fork()
                if pid == 0:  # a worker: serve tasks until it is killed
                    try:
                        import ctypes
                        prctl = getattr(ctypes.CDLL(None), "prctl", None)  # only Linux has it
                        if prctl is not None:  # sent when the forking thread ends: the caller's
                            prctl(1, ctypes.c_ulong(signal.SIGKILL))  # 1: PR_SET_PDEATHSIG
                        if os.getppid() != caller:  # the caller died before the call
                            os._exit(1)
                        for fd in fds:
                            if fd not in (task_r, reply_w):
                                os.close(fd)
                        tasks, out = open(task_r, "rb"), open(reply_w, "wb")
                        while True:
                            i = pickle.load(tasks)
                            try:
                                reply = True, task(i)
                            except BaseException as exc:  # the caller raises it
                                reply = False, exc
                            pickle.dump(reply, out)
                            out.flush()
                    finally:
                        os._exit(1)
                pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in (task_r, reply_w):
                fds.remove(fd)
                os.close(fd)
            hand_out(pid, task_w, reply_r)
        for i in range(n):
            while i not in replies:
                for reply_r, _ in poller.poll():
                    poller.unregister(reply_r)
                    pid, task_w, j = busy.pop(reply_r)
                    try:
                        with open(reply_r, "rb", closefd=False) as reply:
                            replies[j] = pickle.load(reply)
                    except (EOFError, pickle.UnpicklingError):  # the worker died in the task
                        os.kill(pid, signal.SIGKILL)
                        pids.remove(pid)
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        how = (f"was killed by signal {-code} ({signal.strsignal(-code)})"
                               if code < 0 else f"exited with status {code}")
                        replies[j] = False, ChildProcessError(
                            f"ensemble member {j + 1}/{n}: its worker process {how}")
                    failed = failed or not replies[j][0]
                    if pid in pids:
                        hand_out(pid, task_w, reply_r)
            ok, result = replies.pop(i)
            if not ok:
                raise result
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def train_ensemble(spec: EnsembleSpec, base: NetworkConfig, data, master_seed: int = 0,
                   log=None) -> list[Network]:
    """Train all members of ``base`` independently on the identical training table.

    A member's config and training depend only on (master_seed, index),
    so the members train in worker processes through :func:`_in_workers`,
    one per usable core, and the networks are the same bitwise on any
    core count. ``log(index, config, history)`` is called for member i as
    soon as it and every lower member have trained, so in member order.
    If members fail, no other member starts, and the lowest failing
    member's error is raised once every lower member has trained.
    """
    spec.validate()

    def train_member(i):
        return train(member_config(spec, base, i, master_seed), data)

    members = []
    with contextlib.closing(_in_workers(train_member, spec.members)) as trained:
        for i, (net, history) in enumerate(trained):
            if log is not None:
                log(i, net.config, history)
            members.append(net)
    return members


# Input rows are processed in chunks of _CHUNK_BUDGET_FLOATS // (M*T*C)
# rows, which bounds one member's (rows, T, C) samples and the (rows, M, C)
# member means. No mask depends on it (a row's masks are keyed by its
# index), but a float32 product's rows depend on how many rows it holds,
# so another value may move mean_probs in their last bits.
_CHUNK_BUDGET_FLOATS = 16_000_000

# Names the sampling scheme in the predict stage's config, so that dumps
# sampled another way are sampled again on resume.
SAMPLER = "float32, u16 lanes"


def sample_dropout_mask(config: NetworkConfig, seed: int, member: int, pass_no: int,
                        start: int = 0, *, n_rows: int) -> list[np.ndarray]:
    """The float32 inverted-dropout masks of table rows [start, start + n_rows)
    on pass ``pass_no`` of member ``member``: one (n_rows, width) array per
    hidden layer, 0 (dropped) or float32 1/(1-rate) (kept).

    Layer ``layer`` reads ``substream(seed, STREAM_PREDICT, member, pass_no,
    layer)`` as 16-bit lanes, four to each 64-bit output, low lane first.
    Row r of a width-w layer owns lanes [r*w, (r+1)*w), so the stream is
    advanced to row ``start``: a row draws the same mask whichever rows
    are drawn with it. A lane at or above min(round(rate * 65536), 65535)
    keeps its unit, so the dropped share is within 2^-16 of the rate.
    """
    threshold = min(round(config.dropout_rate * 65536), 65535)
    scale = np.float32(1.0 / (1.0 - config.dropout_rate))
    masks = []
    for layer, width in enumerate(config.hidden_units):
        bits = substream(seed, STREAM_PREDICT, member, pass_no, layer).bit_generator
        first, n = start * width, n_rows * width
        bits.advance(first // 4)
        skip = first % 4
        lanes = bits.random_raw(-(-(skip + n) // 4)).astype("<u8", copy=False).view("<u2")
        mask = np.multiply(lanes[skip : skip + n] >= threshold, scale, dtype=np.float32)
        masks.append(mask.reshape(n_rows, width))
    return masks


def _float32(net: Network, index: int, n_models: int) -> Network:
    """``net`` with its weights and biases cast to float32, as the MC passes
    run it; one that is not finite there (beyond float32's range) raises."""
    with np.errstate(over="ignore"):
        arrays = [a.astype(np.float32) for a in net.weights + net.biases]
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericError(f"model {index + 1} of {n_models} has a weight or bias that is "
                           f"non-finite in float32 (beyond {np.finfo(np.float32).max:.4g})")
    return Network(arrays[: len(net.weights)], arrays[len(net.weights) :], net.config)


def predict_table(method: str, models: list[Network], features: np.ndarray,
                  passes: int, seed: int = 0) -> Estimates:
    """Uncertainty estimates for every row of a feature matrix (a vector is one row).

    Runs whole-chunk forward passes per (member, pass) in float32, with a
    fresh per-row dropout mask each pass: each member's weights and each
    chunk's features are cast once, and each pass's logits go back to
    float64 for its softmax, so the samples, their reduction and the
    estimates are float64. Layer 1's activation is the same on every
    pass (dropout acts after each hidden ReLU), so it is computed once
    per member per chunk. That member's passes then run through
    :func:`_on_cores`, on the caller and one pool for the whole call, at
    most one thread per usable core and per pass, each pass into its own
    slot of one (rows, T, C) tensor: any core count gives the same bytes.
    :func:`summarize` reduces the tensor to the member's mean at once, so
    the members take turns, and one member's layer-1 activation and
    samples are held at a time. Each chunk's member means are reduced in
    turn, and :func:`estimates_of` takes their concatenation.

    A row's masks are fixed by (seed, member, pass) and its index in the
    table (see :func:`sample_dropout_mask`), not by the rows chunked with
    it. A pass at dropout rate 0 draws no mask, so MC dropout at rate 0
    is the plain float32 pass bitwise. The same table, models and seed
    always give the same bytes; another chunking gives the same masks,
    with mean_probs that may differ in their last bits, as a float32
    product's rounding depends on its row count.
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
    nets = [_float32(net, m, n_members) for m, net in enumerate(models)]

    chunk_rows = max(1, min(n, _CHUNK_BUDGET_FLOATS // (n_members * per_member * N_CLASSES)))
    means = []
    with _core_pool() as pool:
        # An empty table still runs one (empty) chunk, so the columns get their shapes.
        for start in range(0, max(n, 1), chunk_rows):
            with np.errstate(over="ignore"):
                block = features[start : start + chunk_rows].astype(np.float32)
            if not np.isfinite(block).all():
                raise NumericError(f"rows {start}-{start + len(block) - 1} hold a feature "
                                   f"value that is not finite in float32")
            tensor = np.empty((block.shape[0], per_member, N_CLASSES))
            member_means = np.empty((block.shape[0], n_members, N_CLASSES))
            for m, net in enumerate(nets):
                with np.errstate(over="ignore", invalid="ignore"):
                    hidden1 = first_hidden(net, block)
                masked = method != METHOD_ENSEMBLE and net.config.dropout_rate > 0.0

                def one_pass(t):
                    mask = (sample_dropout_mask(net.config, seed, m, t, start,
                                                n_rows=block.shape[0]) if masked else None)
                    # a pass that overflows is refused by softmax, not warned of
                    with np.errstate(over="ignore", invalid="ignore"):
                        tensor[:, t] = forward(net, block, mask, hidden1)

                _on_cores(one_pass, per_member, pool)
                member_means[:, m] = summarize(tensor)
            means.append(summarize(member_means))
    return estimates_of(np.concatenate(means))


DUMP_FORMAT = "frauduq-predictions"


@dataclass(frozen=True)
class DumpFile:
    """A ``dump.json``: one method's mean distributions for every row of a
    table, the table's labels and the provenance of the stage that made
    them. The other estimate columns are derived (``estimates``), not stored."""

    method: str
    mean_probs: np.ndarray
    labels: np.ndarray
    seed: int
    mc_passes: int | None
    config_digest: str

    @functools.cached_property
    def estimates(self) -> Estimates:
        return estimates_of(self.mean_probs)

    def validate(self) -> "DumpFile":
        """Refuse a dump that :func:`predict_table` cannot have made: an
        unknown method, ``mc_passes`` other than None for the ensemble and
        an integer >= 1 otherwise, ``mean_probs`` that is not a finite
        float64 (n, 2) array whose rows are distributions, and labels
        :func:`check_labels` refuses."""
        if self.method not in METHODS:
            raise DataError(f"method must be one of {list(METHODS)}, got {self.method!r}")
        if not (self.mc_passes is None if self.method == METHOD_ENSEMBLE
                else isinstance(self.mc_passes, int) and self.mc_passes >= 1):
            raise DataError(f"mc_passes must be null for the ensemble and an integer >= 1 "
                            f"otherwise, got {self.mc_passes!r} for {self.method}")
        p = self.mean_probs
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64 and p.shape[1:] == (2,)
                and np.isfinite(p).all()):
            raise DataError("mean_probs must be a finite float64 (n, 2) array")
        try:
            self.estimates  # derived and cached: a row that is no distribution fails here
        except DataError as exc:
            raise DataError(f"mean_probs: {exc}") from exc
        check_labels(self.labels, len(p))
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
    p0, p1, raw, norm = (map(repr, a.tolist()) for a in
                         (e.mean_probs[:, 0], e.mean_probs[:, 1], e.entropy_raw, e.entropy_norm))
    with container.open_atomic(path_jsonl) as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.writelines([
            f'{{"entropy_norm": {en}, "entropy_raw": {er}, "index": {i}, "label": {y}, '
            f'"mean_probs": [{g}, {f}], "predicted_class": {c}}}\n'
            for i, g, f, c, er, en, y in zip(range(n), p0, p1, e.predicted_class.tolist(),
                                             raw, norm, dump.labels.tolist())])
    container.write_artifact(dump, DUMP_FORMAT, path_json)


def read_dump(path) -> DumpFile:
    """Read a ``dump.json`` back, checked by :meth:`DumpFile.validate`."""
    return container.read_artifact(path, DUMP_FORMAT, DumpFile)
