"""Tests for the sampling engine, the entropy summary, ensemble
construction, and the prediction dump files."""

import concurrent.futures
import dataclasses
import gc
import itertools
import json
import math
import os
import re
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import frauduq.uncertainty as unc
from frauduq import container, network
from frauduq.data import FeatureTable
from frauduq.errors import DataError, FormatError, NumericError, ShapeError, ValidationError
from frauduq.evaluation import threshold_sweep
from frauduq.network import Network, NetworkConfig, forward, init_network, sample_dropout_mask
from frauduq.seeding import STREAM_PREDICT, substream
from frauduq.uncertainty import (
    DumpFile,
    EnsembleSpec,
    Estimates,
    member_config,
    predict_table,
    predictive_entropy,
    read_dump,
    summarize,
    train_ensemble,
    write_dump,
)

BASE = NetworkConfig(input_units=3, hidden_units=(5, 4, 3), dropout_rate=0.3, seed=0)


def biased_network(logit: float) -> Network:
    """A constant network: zero weights, output bias fixed at (+logit, -logit)."""
    config = NetworkConfig(input_units=3, hidden_units=(2, 2, 2), dropout_rate=0.0)
    net = init_network(config)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = (logit, -logit)
    return net


# --- entropy ------------------------------------------------------------------


def test_entropy_hand_value():
    raw, norm = predictive_entropy(np.array([0.9, 0.1]))
    assert raw == pytest.approx(0.3250829733914482, abs=1e-15)
    assert norm == pytest.approx(0.46899559358928117, abs=1e-15)


def test_entropy_one_hot_is_exactly_zero():
    raw, norm = predictive_entropy(np.array([1.0, 0.0]))
    assert raw == 0.0 and norm == 0.0
    assert not math.copysign(1.0, norm) < 0  # never -0.0


def test_entropy_uniform_is_exactly_one():
    raw, norm = predictive_entropy(np.array([0.5, 0.5]))
    assert raw == pytest.approx(math.log(2), abs=0)
    assert norm == 1.0


def test_entropy_rejects_garbage():
    with pytest.raises(DataError):
        predictive_entropy(np.array([0.7, 0.7]))  # doesn't sum to 1
    with pytest.raises(DataError):
        predictive_entropy(np.array([1.2, -0.2]))
    with pytest.raises(DataError):
        predictive_entropy(np.array([np.nan, np.nan]))
    # in a matrix, the first row that is not a distribution is named
    with pytest.raises(DataError,
                       match=r"not a probability distribution in row 2: \[0\.5, 0\.7\]"):
        predictive_entropy(np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.7], [0.2, 0.2]]))


# --- summarize: the tensor reduction --------------------------------------------------


def random_tensor(rng, rows, members, passes):
    raw = rng.random((rows, members, passes, 2))
    return raw / raw.sum(axis=-1, keepdims=True)


def reference_summary(rows: np.ndarray) -> tuple[np.ndarray, int, float, float]:
    """Per-row reduction of one (members, passes, classes) sample block,
    written as a plain loop: centered mean per member, then across members."""
    def centered_mean(block):
        return block[0] + (block - block[0]).mean(axis=0)

    mean_probs = centered_mean(np.stack([centered_mean(member) for member in rows]))
    terms = np.where(mean_probs > 0.0,
                     mean_probs * np.log(np.where(mean_probs > 0.0, mean_probs, 1.0)), 0.0)
    raw = max(float(-terms.sum() + 0.0), 0.0)
    norm = min(max(raw / math.log(2), 0.0), 1.0)
    return mean_probs, int(np.argmax(mean_probs)), raw, norm


def test_summarize_matches_per_row_reference_bitwise():
    rng = np.random.default_rng(19)
    for case in range(60):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)),
                 int(rng.choice([1, 2, 7, 9, 150])))
        tensor = random_tensor(rng, *shape)
        if case % 3 == 0:
            tensor[:] = tensor[:, :, :1]  # identical passes, as with dropout 0
        got = summarize(tensor.copy())
        for i in range(shape[0]):
            mean_probs, pred, raw, norm = reference_summary(tensor[i])
            assert np.array_equal(got.mean_probs[i], mean_probs)
            assert got.predicted_class[i] == pred
            assert got.entropy_raw[i] == raw and got.entropy_norm[i] == norm


def test_summarize_matches_grand_mean():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rows, members, passes = (int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                                 int(rng.integers(1, 9)))
        tensor = random_tensor(rng, rows, members, passes)
        flat_mean = tensor.reshape(rows, -1, 2).mean(axis=1)
        assert summarize(tensor).mean_probs == pytest.approx(flat_mean, abs=1e-12)


def test_argmax_tie_prefers_lower_index():
    est = summarize(np.full((3, 2, 2, 2), 0.5))
    assert est.predicted_class.tolist() == [0, 0, 0]


# --- the sampling engine --------------------------------------------------------------


def captured_tensors(monkeypatch):
    """Record a copy of every sample tensor predict_table hands to summarize."""
    import frauduq.uncertainty as unc

    seen = []

    def spy(tensor):
        seen.append(tensor.copy())
        return summarize(tensor)

    monkeypatch.setattr(unc, "summarize", spy)
    return seen


def test_mcd_produces_spread_with_dropout(monkeypatch):
    net = init_network(dataclasses.replace(BASE, seed=1))
    x = np.random.default_rng(1).normal(size=(4, 3))
    seen = captured_tensors(monkeypatch)
    predict_table("mcd", [net], x, passes=50, seed=5)
    assert [t.shape for t in seen] == [(4, 1, 50, 2)]
    assert seen[0].std(axis=2).max() > 0  # dropout actually perturbs


def test_mcd_rejects_bad_passes():
    net = init_network(dataclasses.replace(BASE, seed=2))
    x = np.zeros((2, 3))
    with pytest.raises(ValidationError):
        predict_table("mcd", [net], x, passes=0)
    with pytest.raises(ValidationError):
        predict_table("emcd", [net, net], x, passes=0)


def test_emcd_sample_count_and_provenance(monkeypatch):
    """Slot (m, t) of the tensor is pass t of member m, drawn from its own stream."""
    members = [init_network(dataclasses.replace(BASE, seed=s)) for s in (1, 2)]
    x = np.random.default_rng(3).normal(size=(5, 3))
    seen = captured_tensors(monkeypatch)
    predict_table("emcd", members, x, passes=7, seed=3)
    assert [t.shape for t in seen] == [(5, 2, 7, 2)]
    for m, net in enumerate(members):
        for t in range(7):
            mask = sample_dropout_mask(net.config, substream(3, STREAM_PREDICT, m, t, 0),
                                       n_rows=5)
            assert np.array_equal(seen[0][:, m, t], forward(net, x, mask))


@pytest.mark.parametrize("method, n_members", [("mcd", 1), ("emcd", 2)])
def test_chunked_samples_equal_full_forward_passes(monkeypatch, method, n_members):
    """In every chunk, slot (m, t) is member m's full forward pass of that
    chunk under the mask stream of (seed, m, t, chunk), bitwise: reusing
    layer 1 across passes changes no sample."""
    import frauduq.uncertainty as unc

    config = NetworkConfig(input_units=40, hidden_units=(6, 5, 4), dropout_rate=0.3)
    members = [init_network(dataclasses.replace(config, seed=s)) for s in range(1, n_members + 1)]
    x = np.random.default_rng(59).normal(size=(11, 40))
    passes, seed = 3, 13
    monkeypatch.setattr(unc, "_CHUNK_BUDGET_FLOATS", 4 * n_members * passes * 2)  # 4-row chunks
    seen = captured_tensors(monkeypatch)
    predict_table(method, members, x, passes=passes, seed=seed)

    assert [t.shape for t in seen] == [(rows, n_members, passes, 2) for rows in (4, 4, 3)]
    for chunk_no, tensor in enumerate(seen):
        block = x[4 * chunk_no : 4 * chunk_no + len(tensor)]
        for m, net in enumerate(members):
            for t in range(passes):
                rng = substream(seed, STREAM_PREDICT, m, t, chunk_no)
                mask = sample_dropout_mask(net.config, rng, n_rows=len(block))
                assert np.array_equal(tensor[:, m, t], forward(net, block, mask))


def test_ensemble_disagreement_yields_maximal_entropy():
    """Two confident members voting for opposite classes average to ~uniform."""
    members = [biased_network(40.0), biased_network(-40.0)]
    est = predict_table("ensemble", members, np.zeros((1, 3)), passes=1)
    assert est.mean_probs[0] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert est.entropy_norm[0] == pytest.approx(1.0, abs=1e-9)


def test_ensemble_needs_two_members_and_equal_widths():
    lone = [biased_network(1.0)]
    with pytest.raises(ValidationError):
        predict_table("ensemble", lone, np.zeros((1, 3)), passes=1)

    wrong = init_network(NetworkConfig(input_units=4, hidden_units=(2, 2, 2), seed=1))
    with pytest.raises(ShapeError):
        predict_table("ensemble", [biased_network(1.0), wrong], np.zeros((1, 3)), passes=1)

    base = NetworkConfig(input_units=3, hidden_units=(4, 3, 2))
    three_ends = EnsembleSpec(members=2, width_ranges=((4, 6), (3, 5), (2, 3, 4)))
    with pytest.raises(ValidationError, match=r"\[2, 3, 4\]"):
        train_ensemble(three_ends, base, None)


# --- certainty flagging -------------------------------------------------------------


def make_estimate(entropy_norm: float) -> Estimates:
    """One correct class-1 prediction carrying the given normalized entropy."""
    return Estimates(
        mean_probs=np.array([[0.1, 0.9]]), predicted_class=np.array([1]),
        entropy_raw=np.array([entropy_norm * math.log(2)]),
        entropy_norm=np.array([entropy_norm]))


def is_certain(estimate: Estimates, threshold: float) -> bool:
    """A correct prediction lands in TC when flagged certain and in FU otherwise."""
    c = threshold_sweep(estimate, [1], (threshold,))[0]
    assert c.tc + c.fu == 1
    return c.tc == 1


def test_flag_certainty_boundary_is_certain():
    assert is_certain(make_estimate(0.4), threshold=0.4) is True
    assert is_certain(make_estimate(0.4000001), 0.4) is False
    assert is_certain(make_estimate(0.0), 0.0) is True


def test_flag_certainty_rejects_out_of_range_threshold():
    with pytest.raises(ValidationError):
        threshold_sweep(make_estimate(0.5), [1], (1.5,))


# --- ensemble construction ---------------------------------------------------------


def test_member_config_widths_and_seeds():
    spec = EnsembleSpec(members=30, width_ranges=((256, 385), (64, 256), (16, 32)))
    base = NetworkConfig(input_units=10, hidden_units=(1, 1, 1))
    seeds = set()
    for i in range(spec.members):
        config = member_config(spec, base, i, master_seed=5)
        for width, (lo, hi) in zip(config.hidden_units, spec.width_ranges):
            assert lo <= width <= hi
        seeds.add(config.seed)
        again = member_config(spec, base, i, master_seed=5)
        assert again.hidden_units == config.hidden_units
    assert len(seeds) == 30  # member training streams never collide


def test_train_ensemble_members_differ():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(40, 3))
    labels = (x.sum(axis=1) > 0).astype(np.int64)
    data = FeatureTable(features=x, labels=labels)
    spec = EnsembleSpec(members=3, width_ranges=((3, 6), (3, 5), (2, 4)))
    base = NetworkConfig(input_units=3, hidden_units=(1, 1, 1), epochs=2, batch_size=16)
    members = train_ensemble(spec, base, data, master_seed=8)
    assert len(members) == 3
    widths = {m.config.hidden_units for m in members}
    probs = {tuple(forward(m, x[0]).round(6)) for m in members}
    assert len(widths) > 1 or len(probs) > 1


# --- table-scale prediction ----------------------------------------------------------


def assert_same_estimates(a, b):
    for column in ("mean_probs", "predicted_class", "entropy_raw", "entropy_norm"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def test_predict_table_deterministic_and_validates():
    net = init_network(dataclasses.replace(BASE, seed=4))
    rng = np.random.default_rng(41)
    x = rng.normal(size=(12, 3))

    first = predict_table("mcd", [net], x, passes=20, seed=9)
    second = predict_table("mcd", [net], x, passes=20, seed=9)
    assert len(first) == 12 and first.mean_probs.shape == (12, 2)
    assert_same_estimates(first, second)

    empty = predict_table("mcd", [net], x[:0], passes=20, seed=9)
    assert len(empty) == 0 and empty.mean_probs.shape == (0, 2)
    # One input vector is one row: its length must be the input width, not a row count.
    assert_same_estimates(predict_table("mcd", [net], x[0], passes=20, seed=9),
                          predict_table("mcd", [net], x[:1], passes=20, seed=9))

    with pytest.raises(ValidationError):
        predict_table("mcd", [net, net], x, passes=5)
    with pytest.raises(ValidationError):
        predict_table("ensemble", [net], x, passes=1)
    with pytest.raises(ValidationError):
        predict_table("bogus", [net], x, passes=5)
    with pytest.raises(ShapeError, match="3"):
        predict_table("mcd", [net], rng.normal(size=(4, 5)), passes=5)


def test_predict_table_ensemble_chunking_is_invisible(monkeypatch):
    """The deterministic ensemble path must not depend on chunk size."""
    import frauduq.uncertainty as unc

    members = [init_network(dataclasses.replace(BASE, seed=s)) for s in (1, 2, 3)]
    x = np.random.default_rng(43).normal(size=(17, 3))
    whole = predict_table("ensemble", members, x, passes=1, seed=0)
    monkeypatch.setattr(unc, "_CHUNK_BUDGET_FLOATS", 12)  # forces 2-row chunks
    tiny = predict_table("ensemble", members, x, passes=1, seed=0)
    assert_same_estimates(whole, tiny)


# --- work across cores -------------------------------------------------------------


def usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def on_main():
    return threading.current_thread() is threading.main_thread()


def pool_spy(monkeypatch):
    """Record every pool opened, and return an event set when a thread has
    left its share of the tasks: a pool thread's share is done, or the
    caller waits for the pool threads. By then every failure that thread
    met is recorded, so no index is handed out any more."""
    opened, left = [], threading.Event()

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            future.add_done_callback(lambda _: left.set())  # a pool thread's share is done
            wait = future.result

            def result(*a, **k):  # the caller waits for the pool threads
                left.set()
                return wait(*a, **k)

            future.result = result
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return opened, left


def forward_threads(monkeypatch, meet=1):
    """Record the thread of every forward pass, and whether it raised
    NumericError. The first ``meet`` passes wait for each other, so they
    run on ``meet`` threads at once: otherwise one thread may take every
    pass before another starts."""
    calls = []
    barrier = threading.Barrier(meet, timeout=10)
    order = itertools.count()

    def spy(*args):
        if next(order) < meet:
            barrier.wait()
        try:
            probs = forward(*args)
        except NumericError:
            calls.append((threading.get_ident(), on_main(), True))
            raise
        calls.append((threading.get_ident(), on_main(), False))
        return probs

    monkeypatch.setattr(unc, "forward", spy)
    return calls


def failing_passes(monkeypatch, fails, error=NumericError, hold=None):
    """Make each pass in ``fails`` raise ``error`` as it draws its masks,
    and every other pass first wait for the event ``hold``, if given.
    Returns the (pass, on the caller) of every pass started."""
    started = []

    def spy(*key):
        t = key[3]  # (seed, STREAM_PREDICT, member, pass, chunk)
        started.append((t, on_main()))
        if t in fails:
            raise error(f"pass {t} failed")
        if hold is not None:
            hold.wait(timeout=10)
        return substream(*key)

    monkeypatch.setattr(unc, "substream", spy)
    return started


@pytest.mark.parametrize("method, n_members, passes",
                         [("mcd", 1, 7), ("ensemble", 3, 1), ("emcd", 3, 5)])
def test_predict_table_bytes_do_not_depend_on_the_core_count(monkeypatch, method, n_members,
                                                              passes):
    """One pool per call runs each member's passes on the caller and at
    most one more thread per further usable core; over a 3-chunk table,
    1 and 2 cores give the same Estimates bitwise. With one thread (1
    core, or the ensemble's single pass) the caller runs every pass."""
    members = [init_network(dataclasses.replace(BASE, seed=s)) for s in range(1, n_members + 1)]
    x = np.random.default_rng(61).normal(size=(11, 3))
    monkeypatch.setattr(unc, "_CHUNK_BUDGET_FLOATS", 4 * n_members * passes * 2)  # 4-row chunks
    opened, _ = pool_spy(monkeypatch)
    runs = []
    for cores in (1, 2):
        usable_cores(monkeypatch, cores)
        pooled = cores > 1 and passes > 1
        calls = forward_threads(monkeypatch, meet=2 if pooled else 1)
        opened.clear()
        before = threading.active_count()
        runs.append(predict_table(method, members, x, passes=passes, seed=17))
        assert len(calls) == 3 * n_members * passes and len(opened) == 1
        assert len({ident for ident, _, _ in calls}) == (2 if pooled else 1)
        assert {main for _, main, _ in calls} == ({True, False} if pooled else {True})
        assert threading.active_count() == before
    assert_same_estimates(*runs)


def test_usable_cores_fall_back_to_the_cpu_count(monkeypatch):
    """Without CPU affinity the thread count is os.cpu_count(), else 1,
    and one thread means the caller runs every pass."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    net = init_network(BASE)
    for cpu_count, n_threads in ((2, 2), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        calls = forward_threads(monkeypatch, meet=n_threads)
        before = threading.active_count()
        predict_table("mcd", [net], np.zeros((2, 3)), passes=4, seed=0)
        assert len({ident for ident, _, _ in calls}) == n_threads
        assert {main for _, main, _ in calls} == ({True, False} if n_threads == 2 else {True})
        assert threading.active_count() == before


def test_pool_raises_the_lowest_failing_pass(monkeypatch):
    """A failure in any pass reaches the caller and the lowest pass wins,
    whichever thread ran it; every pass below it started, and every pool
    thread has ended. Repeated with a short switch interval, so the
    threads interleave in many orders."""
    usable_cores(monkeypatch, 2)
    net = init_network(BASE)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for fails in ({3, 4, 6}, {4, 3}, {0, 1}, {1, 8}, {9}):
            started = failing_passes(monkeypatch, fails)
            for _ in range(40):
                started.clear()
                with pytest.raises(NumericError, match=f"pass {min(fails)} failed"):
                    predict_table("mcd", [net], np.zeros((2, 3)), passes=10, seed=0)
                assert {t for t, _ in started} >= set(range(min(fails) + 1))
                assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("error", [KeyboardInterrupt, NumericError], ids=["interrupt", "error"])
def test_a_failing_pass_cancels_the_passes_not_started(monkeypatch, error, cores):
    """When pass 0 raises, even a KeyboardInterrupt, the call raises it and
    no pass starts after the failure. On one core the caller stops at
    once. On two, the other thread's pass waits until the failing thread
    has left its share, so that thread holds at most pass 1 when the
    failure is recorded. One pool per call, and every pool thread has
    ended."""
    usable_cores(monkeypatch, cores)
    opened, left = pool_spy(monkeypatch)
    started = failing_passes(monkeypatch, {0}, error, hold=left)
    before = threading.active_count()
    with pytest.raises(error, match="pass 0 failed"):
        predict_table("mcd", [init_network(BASE)], np.zeros((2, 3)), passes=20, seed=0)
    assert 0 in {t for t, _ in started}
    assert {t for t, _ in started} <= ({0} if cores == 1 else {0, 1})
    assert len(opened) == 1 and threading.active_count() == before


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_member_raises_numeric_error_from_a_worker_thread(monkeypatch):
    """One unit per layer: the logits overflow exactly on a pass that keeps
    all three units. The pool thread's pass draws masks that keep all and
    the caller's masks that drop one, so the pool thread's pass fails and
    its NumericError reaches the caller."""
    config = NetworkConfig(input_units=3, hidden_units=(1, 1, 1), dropout_rate=0.3)
    net = init_network(config)
    for w in net.weights:
        w[:] = 0.0
    net.biases[0][:] = 1.0
    net.weights[1][:] = net.weights[2][:] = 1.0
    net.weights[3][:] = [[1e308], [0.0]]  # 1e308 * (1 / 0.7)**3 overflows

    def keeps_all(seed, t):
        masks = sample_dropout_mask(config, substream(seed, STREAM_PREDICT, 0, t, 0), n_rows=1)
        return all(m[0, 0] > 0 for m in masks)

    seed = next(s for s in range(1000) if not keeps_all(s, 0) and keeps_all(s, 1))
    monkeypatch.setattr(unc, "substream", lambda *key: substream(
        seed, STREAM_PREDICT, 0, 0 if on_main() else 1, 0))
    usable_cores(monkeypatch, 2)
    calls = forward_threads(monkeypatch, meet=2)
    before = threading.active_count()
    with pytest.raises(NumericError, match="non-finite"):
        predict_table("mcd", [net], np.zeros((1, 3)), passes=2, seed=seed)
    # (on the main thread, raised): the caller's pass ran, the pool thread's failed
    assert sorted((main, failed) for _, main, failed in calls) == [(False, True), (True, False)]
    assert threading.active_count() == before


def test_on_cores_hands_out_each_index_once_on_many_threads(monkeypatch):
    """With more threads than this machine has cores and a short switch
    interval, every index runs exactly once and the results come back in
    index order: a lost or doubled hand-out would break either."""
    usable_cores(monkeypatch, 8)
    ran = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with unc._core_pool() as pool:
            for _ in range(20):
                ran.clear()
                assert unc._on_cores(lambda i: ran.append(i) or -i, 300, pool) == [
                    -i for i in range(300)]
                assert sorted(ran) == list(range(300))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cores", [1, 2])
def test_on_cores_builds_nothing_per_task_up_front(monkeypatch, cores):
    """A map over 10**30 tasks whose task 2 fails raises that error: no
    storage or list of the indices is built before the tasks run."""
    usable_cores(monkeypatch, cores)

    def task(i):
        if i == 2:
            raise NumericError(f"task {i} failed")
        return i

    before = threading.active_count()
    with unc._core_pool() as pool:
        with pytest.raises(NumericError, match="task 2 failed"):
            unc._on_cores(task, 10**30, pool)
        assert unc._on_cores(task, 2, pool) == [0, 1]
    with pytest.raises(NumericError, match="task 2 failed"):
        unc._on_cores(task, 10**30)
    assert threading.active_count() == before


# --- ensemble training across cores ---------------------------------------------------


def tiny_table(rows=40):
    x = np.random.default_rng(31).normal(size=(rows, 3))
    return FeatureTable(features=x, labels=(x.sum(axis=1) > 0).astype(np.int64))


TINY_SPEC = EnsembleSpec(members=5, width_ranges=((3, 6), (3, 5), (2, 4)))
TINY_BASE = NetworkConfig(input_units=3, hidden_units=(1, 1, 1), epochs=2, batch_size=16)


def event_log(tmp_path):
    """(record, read): ``record(*event)`` appends the event and the pid of
    the process recording it to a file, one line per event, and ``read()``
    returns them in the order written. A spy's list would stay behind in
    the worker process that appends to it."""
    path = tmp_path / "events.jsonl"
    path.touch()

    def record(*event):
        with open(path, "a") as fh:  # one small appending write: events never interleave
            fh.write(json.dumps([*event, os.getpid()]) + "\n")

    def read():
        return [tuple(json.loads(line)) for line in path.read_text().splitlines()]

    return record, read


def training_spy(monkeypatch, record, fails=(), error=NumericError, hold=0.0):
    """Record ("start", member) and ("trained", member) around each
    member's training. Each member in ``fails`` raises ``error``; every
    other first sleeps ``hold`` seconds."""
    index = {member_config(TINY_SPEC, TINY_BASE, i, 8).seed: i for i in range(TINY_SPEC.members)}

    def spy(config, data):
        i = index[config.seed]
        record("start", i)
        if i in fails:
            raise error(f"member {i} failed")
        time.sleep(hold)
        trained = network.train(config, data)
        record("trained", i)
        return trained

    monkeypatch.setattr(unc, "train", spy)


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_members_train_in_workers_and_equal_the_serial_ones(monkeypatch, tmp_path):
    """On two cores the members train in two worker processes, not in the
    caller, and a SIGINT sent to a worker (which keeps it blocked) leaves
    its member alone; the networks and the logs equal one core's bitwise."""
    record, read = event_log(tmp_path)
    train, runs = network.train, []

    def spy(config, data):
        record("start")
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGINT)
        return train(config, data)

    monkeypatch.setattr(unc, "train", spy)
    caller = os.getpid()
    for cores in (1, 2):
        usable_cores(monkeypatch, cores)
        logged = []
        members = train_ensemble(TINY_SPEC, TINY_BASE, tiny_table(), master_seed=8,
                                 log=lambda *entry: logged.append(entry))
        runs.append((members, logged))
    pids = [pid for _, pid in read()]
    assert set(pids[:5]) == {caller}
    assert len(set(pids[5:])) == 2 and caller not in pids[5:]
    (serial, serial_log), (forked, forked_log) = runs
    assert repr(serial_log) == repr(forked_log)
    assert [i for i, _, _ in serial_log] == list(range(5))
    for a, b in zip(serial, forked):
        assert a.config == b.config
        assert all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases,
                                                        b.weights + b.biases))
    assert no_child_is_left()


@pytest.mark.parametrize("cores", [1, 4], ids=["serial", "workers"])
def test_each_member_is_logged_once_it_and_every_lower_member_have_trained(monkeypatch,
                                                                           tmp_path, cores):
    """Line i comes after members 0 to i have trained, each line comes
    once and in member order, and one after another line i comes before
    member i + 1 starts, so a long ensemble shows its progress. The
    workers run on more processes than cores."""
    usable_cores(monkeypatch, cores)
    record, read = event_log(tmp_path)
    training_spy(monkeypatch, record)
    members = range(TINY_SPEC.members)
    for _ in range(5):
        (tmp_path / "events.jsonl").write_text("")
        train_ensemble(TINY_SPEC, TINY_BASE, tiny_table(), master_seed=8,
                       log=lambda i, config, history: record("log", i))
        events = [event for *event, _ in read()]
        at = {tuple(event): k for k, event in enumerate(events)}
        assert len(at) == len(events) == 3 * len(members)
        assert [i for kind, i in events if kind == "log"] == list(members)
        for i in members:
            assert all(at[("trained", j)] < at[("log", i)] for j in range(i + 1))
            if cores == 1 and i + 1 in members:
                assert at[("log", i)] < at[("start", i + 1)]


def test_train_ensemble_raises_the_lowest_failing_member(monkeypatch, tmp_path):
    """On two cores a failure in any member reaches the caller, the lowest
    member wins, every member below it has trained, and no worker is
    left. Repeated, so the workers finish in many orders."""
    usable_cores(monkeypatch, 2)
    data = tiny_table()
    record, read = event_log(tmp_path)
    for fails in ({3, 4}, {1, 2}, {0, 1}, {4}):
        training_spy(monkeypatch, record, fails)
        for _ in range(5):
            (tmp_path / "events.jsonl").write_text("")
            with pytest.raises(NumericError, match=f"member {min(fails)} failed"):
                train_ensemble(TINY_SPEC, TINY_BASE, data, master_seed=8)
            assert {i for kind, i, _ in read() if kind == "trained"} >= set(range(min(fails)))
            assert no_child_is_left()


@pytest.mark.parametrize("cores", [1, 2])
def test_an_interrupted_member_starts_no_new_member(monkeypatch, tmp_path, cores):
    """A KeyboardInterrupt in member 0 is raised at once: on two cores the
    worker still training member 1 is killed, not waited for, and no
    member starts after it."""
    usable_cores(monkeypatch, cores)
    record, read = event_log(tmp_path)
    training_spy(monkeypatch, record, {0}, KeyboardInterrupt, hold=60.0)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt, match="member 0 failed"):
        train_ensemble(TINY_SPEC, TINY_BASE, tiny_table(), master_seed=8)
    assert time.monotonic() - start < 30
    started = {i for kind, i, _ in read() if kind == "start"}
    assert 0 in started and started <= ({0} if cores == 1 else {0, 1})
    assert no_child_is_left()


FORK_HOOK_SIGNALS = []  # a signal a test has the next fork's hook in the caller send


def send_from_fork_hook():
    if FORK_HOOK_SIGNALS:
        os.kill(os.getpid(), FORK_HOOK_SIGNALS.pop())


os.register_at_fork(after_in_parent=send_from_fork_hook)  # idle until a test arms it


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("way", ["returns", "raises", "interrupted", "interrupted-in-fork"])
def test_train_ensemble_leaves_no_worker_pipe_or_warning(monkeypatch, tmp_path, way):
    """However the workers' map ends (every member trains, member 1
    raises, or the caller takes a Ctrl-C's SIGINT while members train, or
    while it forks the first worker, where an interrupt raised in an
    at-fork hook would be discarded), it ends at once, no child process
    is left, as many files are open as before, and no ResourceWarning is
    raised."""
    usable_cores(monkeypatch, 2)
    record, _ = event_log(tmp_path)
    training_spy(monkeypatch, record, fails={1} if way == "raises" else ())
    if way.startswith("interrupted"):
        def spy(config, data):
            if way == "interrupted" and config.seed == member_config(TINY_SPEC, TINY_BASE, 1,
                                                                     8).seed:
                os.kill(os.getppid(), signal.SIGINT)  # once, from member 1's worker
            time.sleep(60)  # until killed

        monkeypatch.setattr(unc, "train", spy)
    if way == "interrupted-in-fork":
        FORK_HOOK_SIGNALS.append(signal.SIGINT)
    data, fds, start = tiny_table(), len(os.listdir("/proc/self/fd")), time.monotonic()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if way == "returns":
            assert len(train_ensemble(TINY_SPEC, TINY_BASE, data, master_seed=8)) == 5
        else:
            with pytest.raises(NumericError if way == "raises" else KeyboardInterrupt):
                train_ensemble(TINY_SPEC, TINY_BASE, data, master_seed=8)
        gc.collect()
    assert time.monotonic() - start < 30 and not FORK_HOOK_SIGNALS
    assert no_child_is_left()
    assert len(os.listdir("/proc/self/fd")) == fds
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_forking_beside_native_threads_only_does_not_warn(monkeypatch):
    """Python 3.12 warns at a fork while the process has other threads,
    OpenBLAS's too. With no other Python thread alive, those are native
    threads whose library stops them at a fork, so the map forks without
    the warning (filterwarnings = error would raise it)."""
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          f"may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    usable_cores(monkeypatch, 2)
    assert len(train_ensemble(TINY_SPEC, TINY_BASE, tiny_table(), master_seed=8)) == 5
    assert no_child_is_left()


# --- prediction dumps -----------------------------------------------------------------


def dump_of(mean_probs, labels=None, method="mcd", **provenance):
    """A dump of these mean distributions; labels default to 0, 1, 0, 1, ..."""
    labels = np.arange(len(mean_probs)) % 2 if labels is None else labels
    return DumpFile(method, mean_probs, labels, **{"seed": 2, "mc_passes": 4,
                                                   "config_digest": "ab12", **provenance})


def test_dump_round_trip(tmp_path):
    net = init_network(dataclasses.replace(BASE, seed=6))
    x = np.random.default_rng(47).normal(size=(5, 3))
    estimates = predict_table("mcd", [net], x, passes=10, seed=2)
    paths = tmp_path / "d.jsonl", tmp_path / "d.json"
    write_dump(*paths, dump_of(estimates.mean_probs, np.array([0, 1, 1, 0, 1])))
    loaded = read_dump(paths[1])
    assert (loaded.method, loaded.seed, loaded.mc_passes, loaded.config_digest) == \
        ("mcd", 2, 4, "ab12")
    assert_same_estimates(estimates, loaded.estimates)
    assert loaded.labels.tolist() == [0, 1, 1, 0, 1]

    write_dump(*paths, dump_of(estimates.mean_probs, np.array([1, 1, 0, 0, 1]), "ensemble",
                               mc_passes=None))
    loaded = read_dump(paths[1])
    assert (loaded.method, loaded.mc_passes) == ("ensemble", None)
    assert loaded.labels.tolist() == [1, 1, 0, 0, 1]


def test_dump_json_stores_only_what_sampling_made(tmp_path):
    """dump.json keeps the mean distributions, the labels and the
    provenance; the other estimate columns are derived on reading."""
    paths = tmp_path / "d.jsonl", tmp_path / "d.json"
    write_dump(*paths, dump_of(np.array([[0.9, 0.1], [0.5, 0.5]])))
    assert sorted(json.loads(paths[1].read_text())) == [
        "config_digest", "format", "labels", "mc_passes", "mean_probs", "method", "seed",
        "version"]


def test_failed_writes_leave_old_files_whole(tmp_path, monkeypatch):
    """A write that raises partway leaves the previous file byte for byte
    and no temp file beside it."""
    target = tmp_path / "note.txt"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with container.open_atomic(target) as fh:
            fh.write("new, but never finished\n")
            raise RuntimeError("killed mid-write")
    with pytest.raises(TypeError):
        container.write_json({"ok": 1, "not json": object()}, target)
    assert target.read_text() == "old\n"

    net = init_network(dataclasses.replace(BASE, seed=6))
    mean_probs = predict_table("mcd", [net], np.random.default_rng(47).normal(size=(5, 3)),
                               4).mean_probs
    jsonl, dump_json = tmp_path / "d.jsonl", tmp_path / "d.json"
    write_dump(jsonl, dump_json, dump_of(mean_probs))
    old = {p: p.read_bytes() for p in (jsonl, dump_json)}

    # the JSON fails after the JSONL is complete: the JSONL is replaced,
    # the JSON keeps its bytes
    def disk_full(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(container, "dumps_canonical", disk_full)
    with pytest.raises(OSError, match="no space"):
        write_dump(jsonl, dump_json, dump_of(mean_probs, np.array([0, 1, 1, 0, 1])))
    assert jsonl.read_bytes() != old[jsonl] and '"label": 1' in jsonl.read_text()
    assert dump_json.read_bytes() == old[dump_json]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json", "d.jsonl", "note.txt"]


def _reference_jsonl(dump):
    """The JSONL view as ``json.dumps`` writes it, one record at a time."""
    e = dump.estimates
    header = container.header(unc.DUMP_FORMAT, method=dump.method, n=len(e), seed=dump.seed,
                              mc_passes=dump.mc_passes, config_digest=dump.config_digest)
    lines = [json.dumps(header, sort_keys=True)]
    for i, (probs, pred, raw, norm, label) in enumerate(zip(
            e.mean_probs.tolist(), e.predicted_class.tolist(), e.entropy_raw.tolist(),
            e.entropy_norm.tolist(), dump.labels.tolist())):
        lines.append(json.dumps({"index": i, "mean_probs": probs, "predicted_class": pred,
                                 "entropy_raw": raw, "entropy_norm": norm, "label": label},
                                sort_keys=True))
    return "".join(line + "\n" for line in lines)


def test_dump_bytes_equal_json_dumps_reference(tmp_path):
    """Each template row is what json.dumps(sort_keys=True) writes, on the
    floats where repr is at its edges: subnormals, 0.1, 1/3 and the
    largest double below 1."""
    fraud = np.array([5e-324, 1e-320, 0.1, 1 / 3, 1 - 2**-53, 0.0, 1.0, 0.5])
    mean_probs = np.stack([1.0 - fraud, fraud], axis=1)
    mean_probs[1] = [1e-320, 1.0 - 1e-320]
    paths = tmp_path / "d.jsonl", tmp_path / "d.json"
    for dump in (dump_of(mean_probs, np.array([1, 0, 1, 1, 1, 0, 1, 0]), "emcd"),
                 dump_of(mean_probs, np.array([0, 1, 1, 0, 0, 1, 0, 1]), "ensemble",
                         mc_passes=None),
                 dump_of(np.empty((0, 2)))):
        write_dump(*paths, dump)
        assert paths[0].read_text() == _reference_jsonl(dump)
        assert_same_estimates(read_dump(paths[1]).estimates, dump.estimates)


def test_dump_refuses_unwritable_estimates_before_touching_files(tmp_path):
    """Mean distributions the dump's checks refuse (non-finite, object or
    non-float64 dtype, wrong shape, a row that is not a distribution),
    labels other than an integer array of 0s and 1s, an unknown method,
    and an mc_passes that does not fit the method raise before either
    file is opened: the old files stay byte for byte and no temp file
    appears."""
    net = init_network(dataclasses.replace(BASE, seed=6))
    good = predict_table("mcd", [net], np.random.default_rng(47).normal(size=(4, 3)),
                         4).mean_probs
    paths = (tmp_path / "d.jsonl", tmp_path / "d.json")
    write_dump(*paths, dump_of(good, np.array([0, 1, 1, 0])))
    kept = [p.read_bytes() for p in paths]
    for labels in (np.array([0, 2, 1, 0]), np.array([0, -1, 1, 0]), np.array([0.0, 1, 1, 0]),
                   np.array([False, True, True, False]), np.array(["0", "1", "1", "0"]),
                   [0, 1, 1, 0], np.array([0, 1, 1]), np.array([[0, 1, 1, 0]])):
        with pytest.raises(DataError, match=r"labels must all be the integers 0 or 1, "
                                            r"in an integer \(4,\) array"):
            write_dump(*paths, dump_of(good, labels))
    with pytest.raises(DataError, match="method must be one of"):
        write_dump(*paths, dump_of(good, method="bogus"))
    # mc_passes is None exactly for the ensemble, as the predict stage writes it
    for method, passes in (("ensemble", -1), ("ensemble", 4), ("mcd", None), ("emcd", 0)):
        with pytest.raises(DataError, match=f"mc_passes must be null for the ensemble and an "
                                            f"integer >= 1 otherwise, got {passes} for {method}"):
            write_dump(*paths, dump_of(good, method=method, mc_passes=passes))
    nan_probs = good.copy()
    nan_probs[2, 0] = np.nan
    inf_probs = good.copy()
    inf_probs[1] = [np.inf, -np.inf]
    for bad in (nan_probs, inf_probs, good.astype(object), good.astype(np.float32),
                good.tolist(), good[:, :1], good.T, good[0], good[None]):
        with pytest.raises(DataError,
                           match=r"mean_probs must be a finite float64 \(n, 2\) array"):
            write_dump(*paths, dump_of(bad, np.array([0, 1, 1, 0])))
    over_one = good.copy()
    over_one[2] = [0.5, 0.7]
    with pytest.raises(DataError, match="mean_probs: not a probability distribution in row 2"):
        write_dump(*paths, dump_of(over_one))
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert [p.read_bytes() for p in paths] == kept


def test_read_dump_rejects_foreign_and_truncated(tmp_path):
    """A foreign, truncated or malformed dump.json is refused naming the
    file: each fault class that DumpFile.validate() and the reader check."""
    net = init_network(dataclasses.replace(BASE, seed=6))
    good = predict_table("mcd", [net], np.random.default_rng(53).normal(size=(6, 3)),
                         4).mean_probs
    labels = np.array([0, 1, 1, 0, 1, 0])
    whole = tmp_path / "whole.json"
    write_dump(tmp_path / "whole.jsonl", whole, dump_of(good, labels))
    text = whole.read_text()

    for name, content, message in (
        ("other.json", text.replace('"frauduq-predictions"', '"frauduq-report"'),
         "not a frauduq-predictions v1 file"),
        # the version must be the int 1, not a value that merely compares equal
        ("true.json", text.replace('"version": 1', '"version": true'), "not a frauduq"),
        ("float.json", text.replace('"version": 1', '"version": 1.0'), "not a frauduq"),
        ("chopped.json", text[:len(text) // 2], "not valid JSON"),
        ("empty.json", "", "not valid JSON"),
    ):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(FormatError, match=f"{name}: {message}"):
            read_dump(path)

    # each fault written as write_dump would, but without its checks
    over_one = good.copy()
    over_one[1] = [0.5, 0.7]
    three = np.concatenate([good, np.zeros((6, 1))], axis=1)
    for name, dump, message in (
        ("over_one", dump_of(over_one, labels),
         r"mean_probs: not a probability distribution in row 1: \[0\.5, 0\.7\]"),
        ("three_probs", dump_of(three, labels), "mean_probs must be a finite float64"),
        ("short_labels", dump_of(good, labels[:5]), "labels must all be the integers 0 or 1"),
        ("label_2", dump_of(good, labels + 1), "labels must all be the integers 0 or 1"),
        ("float_labels", dump_of(good, labels.astype(np.float64)),
         "labels must all be the integers 0 or 1"),
        ("method", dump_of(good, labels, "bayes"), "method must be one of"),
        ("ensemble_passes", dump_of(good, labels, "ensemble"), "mc_passes must be null"),
        ("emcd_passes", dump_of(good, labels, "emcd", mc_passes=0), "mc_passes must be null"),
    ):
        path = tmp_path / f"{name}.json"
        container.write_artifact(dump, unc.DUMP_FORMAT, path)
        with pytest.raises(FormatError, match=f"{name}.json: .*{message}"):
            read_dump(path)

    # every key is written, so none may be left out, and each has its kind
    doc = json.loads(text)
    for i, (change, message) in enumerate([
        *(({"labels": record}, "labels: malformed array record: must be an object with "
           "shape, dtype and data$") for record in (None, 3, [0, 1], "0,1")),
        ({"mc_passes": None}, "mc_passes must be null for the ensemble"),
        ({"seed": True}, "seed must be an integer"),
        ({"weight": 1.0}, r"unknown frauduq-predictions key\(s\) .*\['weight'\]"),
        *(({key: "__deleted__"}, rf"lacks key\(s\) \['{key}'\]")
          for key in ("mean_probs", "labels", "mc_passes", "seed", "config_digest", "method")),
    ]):
        probe = tmp_path / f"probe_{i}.json"
        probe.write_text(json.dumps({k: v for k, v in {**doc, **change}.items()
                                     if v != "__deleted__"}))
        with pytest.raises(FormatError, match=f"probe_{i}.json: .*{message}"):
            read_dump(probe)
