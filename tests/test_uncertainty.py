"""Tests for the sampling engine, the entropy summary, ensemble
construction, and the prediction dump files."""

import dataclasses
import json
import math
import os
import re
import sys
import threading
import time

import numpy as np
import pytest

import frauduq.uncertainty as unc
from frauduq import container
from frauduq.data import FeatureTable
from frauduq.errors import DataError, FormatError, NumericError, ShapeError, ValidationError
from frauduq.evaluation import uq_confusion
from frauduq.network import Network, NetworkConfig, forward, init_network, sample_dropout_mask
from frauduq.seeding import STREAM_PREDICT, substream
from frauduq.uncertainty import (
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
    c = uq_confusion(estimate, [1], threshold)
    assert c.tc + c.fu == 1
    return c.tc == 1


def test_flag_certainty_boundary_is_certain():
    assert is_certain(make_estimate(0.4), threshold=0.4) is True
    assert is_certain(make_estimate(0.4000001), 0.4) is False
    assert is_certain(make_estimate(0.0), 0.0) is True


def test_flag_certainty_rejects_out_of_range_threshold():
    with pytest.raises(ValidationError):
        uq_confusion(make_estimate(0.5), [1], 1.5)


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


# --- sampling across cores ---------------------------------------------------------


def usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def forward_threads(monkeypatch):
    """Record the thread of every forward pass, and whether it raised NumericError."""
    calls = []
    real = unc.forward

    def spy(*args):
        main = threading.current_thread() is threading.main_thread()
        try:
            probs = real(*args)
        except NumericError:
            calls.append((threading.get_ident(), main, True))
            raise
        calls.append((threading.get_ident(), main, False))
        return probs

    monkeypatch.setattr(unc, "forward", spy)
    return calls


@pytest.mark.parametrize("method, n_members, passes",
                         [("mcd", 1, 7), ("ensemble", 3, 1), ("emcd", 3, 5)])
def test_predict_table_bytes_do_not_depend_on_the_core_count(monkeypatch, method, n_members,
                                                              passes):
    """Each member's passes run striped over the usable cores; over a
    3-chunk table, 1 and 2 cores give the same Estimates bitwise."""
    members = [init_network(dataclasses.replace(BASE, seed=s)) for s in range(1, n_members + 1)]
    x = np.random.default_rng(61).normal(size=(11, 3))
    monkeypatch.setattr(unc, "_CHUNK_BUDGET_FLOATS", 4 * n_members * passes * 2)  # 4-row chunks
    calls = forward_threads(monkeypatch)
    runs = []
    for cores in (1, 2):
        usable_cores(monkeypatch, cores)
        calls.clear()
        runs.append(predict_table(method, members, x, passes=passes, seed=17))
        assert len(calls) == 3 * n_members * passes
        assert (len({ident for ident, _, _ in calls}) > 1) == (cores > 1 and passes > 1)
    assert_same_estimates(*runs)


def test_usable_cores_fall_back_to_the_cpu_count(monkeypatch):
    """Without CPU affinity the thread count is os.cpu_count(), else 1."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpu_count, n_threads in ((2, 2), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        threads = set()
        unc._run_striped(4, lambda i: threads.add(threading.get_ident()))
        assert len(threads) == n_threads


def test_striped_tasks_raise_the_lowest_failing_index(monkeypatch):
    """A failure in any stripe reaches the caller, the lowest index wins
    whichever thread ran it, every task below it runs, its stripe stops
    there, and every worker thread has ended. Repeated with a short
    switch interval, so the threads interleave in many orders."""
    usable_cores(monkeypatch, 2)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for fails in ({3, 4, 6}, {4, 3}, {0, 1}, {1, 8}, {9}):
            ran = []

            def task(i):
                ran.append((i, threading.current_thread() is threading.main_thread()))
                if i in fails:
                    raise NumericError(f"pass {i} failed")

            for _ in range(40):
                ran.clear()
                with pytest.raises(NumericError, match=f"pass {min(fails)} failed"):
                    unc._run_striped(10, task)
                lowest = min(fails)
                assert {i for i, _ in ran} >= set(range(lowest + 1))
                assert (lowest, lowest % 2 == 0) in ran  # odd indices run on the worker
                assert not [i for i, _ in ran if i > lowest and i % 2 == lowest % 2]
                assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


def test_an_interrupt_in_the_caller_stops_the_worker_threads(monkeypatch):
    """A KeyboardInterrupt in the caller's stripe propagates at once: the
    worker stops after at most the task it is running, and has ended."""
    usable_cores(monkeypatch, 2)
    before = threading.active_count()
    worker_ran = []

    def task(i):
        if i == 0:
            raise KeyboardInterrupt
        worker_ran.append(i)
        time.sleep(0.05)

    with pytest.raises(KeyboardInterrupt):
        unc._run_striped(20, task)
    assert len(worker_ran) <= 1 and threading.active_count() == before


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_member_raises_numeric_error_from_a_worker_thread(monkeypatch):
    """One unit per layer: the logits overflow exactly on a pass that keeps
    all three units. With a seed whose pass 0 drops one and pass 1 keeps
    all, pass 1 fails on the worker thread and its NumericError reaches
    the caller."""
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
    usable_cores(monkeypatch, 2)
    calls = forward_threads(monkeypatch)
    before = threading.active_count()
    with pytest.raises(NumericError, match="non-finite"):
        predict_table("mcd", [net], np.zeros((1, 3)), passes=2, seed=seed)
    # (on the main thread, raised): pass 0 ran on the caller, pass 1 failed on the worker
    assert sorted((main, failed) for _, main, failed in calls) == [(False, True), (True, False)]
    assert threading.active_count() == before


# --- prediction dumps -----------------------------------------------------------------


def test_dump_round_trip(tmp_path):
    net = init_network(dataclasses.replace(BASE, seed=6))
    x = np.random.default_rng(47).normal(size=(5, 3))
    estimates = predict_table("mcd", [net], x, passes=10, seed=2)
    labels = [0, 1, 1, 0, None]

    jsonl, csv = tmp_path / "d.jsonl", tmp_path / "d.csv"
    write_dump(jsonl, csv, "mcd", estimates, labels, meta={"seed": 2})
    header, loaded, loaded_labels = read_dump(jsonl)

    assert header["method"] == "mcd" and header["n"] == 5
    assert loaded_labels == labels
    assert_same_estimates(estimates, loaded)

    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "index,method,mean_prob_genuine,mean_prob_fraud," \
                       "predicted_class,entropy_raw,entropy_norm,label"


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
    estimates = predict_table("mcd", [net], np.random.default_rng(47).normal(size=(5, 3)), 4)
    jsonl, csv = tmp_path / "d.jsonl", tmp_path / "d.csv"
    write_dump(jsonl, csv, "mcd", estimates, None)
    old = {p: p.read_bytes() for p in (jsonl, csv)}
    # row 3 cannot be written: refused before either file is opened
    probs = np.empty(5, dtype=object)
    for i, row in enumerate(estimates.mean_probs.tolist()):
        probs[i] = [object(), 0.5] if i == 3 else row
    with pytest.raises(DataError, match="cannot dump"):
        write_dump(jsonl, csv, "mcd", dataclasses.replace(estimates, mean_probs=probs), None)
    assert all(p.read_bytes() == old[p] for p in (jsonl, csv))

    # the CSV fails after the JSONL is complete: the JSONL is replaced,
    # the CSV keeps its bytes
    def disk_full(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(container, "stamp", disk_full)
    with pytest.raises(OSError, match="no space"):
        write_dump(jsonl, csv, "mcd", estimates, [0, 1, 1, 0, 1])
    assert read_dump(jsonl)[2] == [0, 1, 1, 0, 1]
    assert csv.read_bytes() == old[csv]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.jsonl", "note.txt"]


def _reference_dump(method, estimates, labels, meta):
    """The dump rows as ``json.dumps`` and ``",".join`` write them, one cell at a time."""
    header = container.header(unc.DUMP_FORMAT, method=method, n=len(estimates), **meta)
    jsonl, csv = [json.dumps(header, sort_keys=True)], [
        f"# {container.stamp(unc.DUMP_FORMAT, header)}", ",".join(unc.DUMP_COLUMNS)]
    for i, (probs, pred, raw, norm, label) in enumerate(zip(
            estimates.mean_probs.tolist(), estimates.predicted_class.tolist(),
            estimates.entropy_raw.tolist(), estimates.entropy_norm.tolist(), labels)):
        jsonl.append(json.dumps({"index": i, "mean_probs": probs, "predicted_class": pred,
                                 "entropy_raw": raw, "entropy_norm": norm, "label": label},
                                sort_keys=True))
        csv.append(",".join([str(i), method, repr(probs[0]), repr(probs[1]), str(pred),
                             repr(raw), repr(norm), "" if label is None else str(label)]))
    return "".join(line + "\n" for line in jsonl), "".join(line + "\n" for line in csv)


def test_dump_bytes_equal_json_dumps_reference(tmp_path):
    """Each template row is what json.dumps(sort_keys=True) and the
    ",".join CSV row write, on the floats where repr is at its edges:
    subnormals, 0.1, 1/3 and the largest double below 1."""
    fraud = np.array([5e-324, 1e-320, 0.1, 1 / 3, 1 - 2**-53, 0.0, 1.0, 0.5])
    mean_probs = np.stack([1.0 - fraud, fraud], axis=1)
    mean_probs[1] = [1e-320, 1.0 - 1e-320]
    raw, norm = predictive_entropy(mean_probs)
    estimates = Estimates(mean_probs, mean_probs.argmax(axis=1), raw, norm)
    labels = [None, 0, 1, None, 1, 0, 1, 0]
    meta = {"seed": 3, "mc_passes": None, "config_digest": "ab12"}
    jsonl, csv = tmp_path / "d.jsonl", tmp_path / "d.csv"
    write_dump(jsonl, csv, "emcd", estimates, np.array(labels, dtype=object), meta=meta)
    assert (jsonl.read_text(), csv.read_text()) == _reference_dump("emcd", estimates, labels, meta)
    assert read_dump(jsonl)[2] == labels

    empty = Estimates(np.empty((0, 2)), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    write_dump(jsonl, csv, "mcd", empty, None, meta={})
    assert (jsonl.read_text(), csv.read_text()) == _reference_dump("mcd", empty, [], {})


def test_dump_refuses_unwritable_estimates_before_touching_files(tmp_path):
    """Estimates whose repr would not be json's spelling (non-finite,
    object or non-float dtype, wrong shape), and labels that read_dump
    would refuse or that would be written as another value, raise before
    either file is opened: the old files stay byte for byte and no temp
    file appears."""
    net = init_network(dataclasses.replace(BASE, seed=6))
    good = predict_table("mcd", [net], np.random.default_rng(47).normal(size=(4, 3)), 4)
    paths = (tmp_path / "d.jsonl", tmp_path / "d.csv")
    write_dump(*paths, "mcd", good, np.array([0, 1, 1, 0]))
    kept = [p.read_bytes() for p in paths]
    for label in (0.7, 2, -1, True, "1", 1.0):
        with pytest.raises(DataError, match="cannot dump labels"):
            write_dump(*paths, "mcd", good, [0, label, 1, 0])
    nan_probs = good.mean_probs.copy()
    nan_probs[2, 0] = np.nan
    inf_norm = good.entropy_norm.copy()
    inf_norm[1] = np.inf
    for bad in (
        dataclasses.replace(good, mean_probs=nan_probs),
        dataclasses.replace(good, entropy_norm=inf_norm),
        dataclasses.replace(good, mean_probs=good.mean_probs.astype(object)),
        dataclasses.replace(good, entropy_raw=good.entropy_raw.astype(np.float32)),
        dataclasses.replace(good, entropy_raw=good.entropy_raw.tolist()),
        dataclasses.replace(good, predicted_class=good.predicted_class.astype(np.float64)),
        dataclasses.replace(good, predicted_class=good.predicted_class.astype(bool)),
        dataclasses.replace(good, mean_probs=good.mean_probs[:, :1]),
        dataclasses.replace(good, mean_probs=good.mean_probs.T),
        dataclasses.replace(good, entropy_norm=good.entropy_norm[:3]),
        dataclasses.replace(good, entropy_raw=good.entropy_raw[:, None]),
    ):
        with pytest.raises(DataError, match="cannot dump these estimates"):
            write_dump(*paths, "mcd", bad, None)
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert [p.read_bytes() for p in paths] == kept


def test_read_dump_rejects_foreign_and_truncated(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "other", "version": 1}\n')
    with pytest.raises(FormatError):
        read_dump(bad)

    # the version must be the int 1, not a value that merely compares equal
    for i, version in enumerate(["true", "1.0"]):
        loose = tmp_path / f"loose{i}.jsonl"
        loose.write_text(f'{{"format": "frauduq-predictions", "n": 0, "version": {version}}}\n')
        with pytest.raises(FormatError, match=f"loose{i}.jsonl: not a frauduq-predictions v1"):
            read_dump(loose)

    chopped = tmp_path / "chopped.jsonl"
    chopped.write_text('{"format": "frauduq-predictions", "version": 1}\n{"index": 0,')
    with pytest.raises(FormatError, match="line 2"):
        read_dump(chopped)

    net = init_network(dataclasses.replace(BASE, seed=6))
    x = np.random.default_rng(53).normal(size=(6, 3))
    jsonl = tmp_path / "whole.jsonl"
    write_dump(jsonl, tmp_path / "whole.csv", "mcd", predict_table("mcd", [net], x, 4), None)
    header, *records = jsonl.read_text().splitlines()
    one_prob = re.sub(r'"mean_probs": \[[^]]*\]', '"mean_probs": [0.9]', records[0])
    three_probs = records[0].replace('"mean_probs": [', '"mean_probs": [0.5, ')
    over_one = re.sub(r'"mean_probs": \[[^]]*\]', '"mean_probs": [0.5, 0.7]', records[0])
    nan_probs = re.sub(r'"mean_probs": \[[^]]*\]', '"mean_probs": [NaN, NaN]', records[0])
    flipped = re.sub(r'"predicted_class": (\d)',
                     lambda m: f'"predicted_class": {1 - int(m[1])}', records[0])
    raw_off = re.sub(r'"entropy_raw": [^,}]*', '"entropy_raw": 0.5', records[3])
    norm_off = re.sub(r'"entropy_norm": [^,}]*', '"entropy_norm": 0.5', records[0])
    for name, lines, message in (
        ("short.jsonl", [header, *records[:2]], "n=6 but 2 records"),
        ("long.jsonl", [header, *records, records[-1]], "n=6 but 7 records"),
        ("shifted.jsonl", [header, records[0].replace('"index": 0', '"index": 5'),
                           *records[1:]], "indices"),
        ("swapped.jsonl", [header, records[1], records[0], *records[2:]], "indices"),
        ("one_prob.jsonl", [header, one_prob, *records[1:]], "1 mean_probs"),
        ("three_probs.jsonl", [header, three_probs, *records[1:]], "3 mean_probs"),
        ("over_one.jsonl", [header, over_one, *records[1:]], "not a probability distribution"),
        ("nan_probs.jsonl", [header, nan_probs, *records[1:]], "not a probability distribution"),
        ("flipped.jsonl", [header, flipped, *records[1:]], "record 0 disagrees"),
        ("raw_off.jsonl", [header, *records[:3], raw_off, *records[4:]], "record 3 disagrees"),
        ("norm_off.jsonl", [header, norm_off, *records[1:]], "record 0 disagrees"),
        *((f"label_{i}.jsonl", [header, records[0].replace('"label": null', f'"label": {label}'),
                                *records[1:]], "labels must be 0, 1 or null")
          for i, label in enumerate(["2", "-1", "0.5", "1.0", "true", '"1"', "[1]"])),
        *((f"class_{i}.jsonl", [header, re.sub(r'"predicted_class": \d',
                                              f'"predicted_class": {cls}', records[0]),
                                *records[1:]], "predicted_class must be 0 or 1")
          for i, cls in enumerate(["true", "false", '"1"', '"0"', "1.0", "0.0", "null"])),
    ):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"{name}.*{message}"):
            read_dump(path)

    # As in from_plain, numbers are ints or floats but not bools, and
    # indices are ints: each probe agrees with itself in every other way.
    head = {"format": "frauduq-predictions", "version": 1, "method": "mcd", "n": 1}
    one = {"index": 0, "mean_probs": [1.0, 0.0], "predicted_class": 0,
           "entropy_raw": 0.0, "entropy_norm": 0.0, "label": None}
    for i, (change, message) in enumerate([
        ({}, None),
        ({"mean_probs": [True, False]}, "mean_probs must be numbers"),
        ({"mean_probs": ["1.0", "0"]}, "mean_probs must be numbers"),
        ({"index": 0.7}, "index must be integers"),
        ({"index": "0"}, "index must be integers"),
        ({"index": False}, "index must be integers"),
        ({"entropy_raw": "0"}, "entropy_raw must be numbers"),
        ({"entropy_raw": False, "entropy_norm": False}, "entropy_raw must be numbers"),
        ({"weight": 1.0}, r"unknown key\(s\) \['weight'\]"),
    ]):
        probe = tmp_path / f"probe_{i}.jsonl"
        probe.write_text(json.dumps(head) + "\n" + json.dumps({**one, **change}) + "\n")
        if message is None:
            assert read_dump(probe)[2] == [None]
            continue
        with pytest.raises(FormatError, match=f"probe_{i}.jsonl: .*{message}"):
            read_dump(probe)

    # write_dump writes every header and record key, so none may be left
    # out; the header's n is an int and its method one of the three.
    no_method = {k: v for k, v in head.items() if k != "method"}
    no_label = {k: v for k, v in one.items() if k != "label"}
    header_fault = "header needs an integer n and a method in"
    for i, (header_obj, record, message) in enumerate([
        (head, no_label, r"bad record on line 2 \('label'\)"),
        ({**head, "n": True}, one, f"{header_fault} .*got n=True"),
        ({**head, "n": 1.0}, one, f"{header_fault} .*got n=1.0"),
        (no_method, one, f"{header_fault} .*method=None"),
        ({**head, "method": 5}, one, f"{header_fault} .*method=5"),
    ]):
        probe = tmp_path / f"required_{i}.jsonl"
        probe.write_text(json.dumps(header_obj) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(FormatError, match=f"required_{i}.jsonl: {message}"):
            read_dump(probe)

    # np.log may differ in the last ulp across numpy builds and CPUs, so
    # stored entropies one ulp off are read back as stored
    stored = json.loads(records[0])
    nudged = {**stored, "entropy_raw": float(np.nextafter(stored["entropy_raw"], 1.0)),
              "entropy_norm": float(np.nextafter(stored["entropy_norm"], -1.0))}
    path = tmp_path / "ulp.jsonl"
    path.write_text("\n".join([header, json.dumps(nudged), *records[1:]]) + "\n")
    _, estimates, _ = read_dump(path)
    assert estimates.entropy_raw[0] == nudged["entropy_raw"]
    assert estimates.entropy_norm[0] == nudged["entropy_norm"]
