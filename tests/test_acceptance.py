"""Acceptance suite: one test per release criterion.

Each test name carries its criterion number, so ``pytest -v`` prints one
pass/fail line per criterion. Tolerances are stated in the docstrings
and frozen in the assertions; they are the release bar, not targets to
tune against.

Criterion 7 (real-data reproduction) needs the non-redistributable
transaction dataset and is skipped unless FRAUDUQ_VESTA_CSV points at a
41,326-row balanced CSV sample (see README for the expected layout).
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

from frauduq.data import (
    CsvSchema,
    apply_preprocessor,
    fit_preprocessor,
    load_csv,
    split_train_test,
    synth_generate,
)
from frauduq.errors import ValidationError
from frauduq.network import (
    AdamState,
    Network,
    NetworkConfig,
    _loss_and_grads,
    cross_entropy,
    forward,
    init_network,
    sample_dropout_mask,
    softmax,
    train,
)
from frauduq.seeding import STREAM_TRAIN, derive_seed
from frauduq.uncertainty import (
    EnsembleSpec,
    Estimates,
    estimates_of,
    predict_table,
    predictive_entropy,
    summarize,
    train_ensemble,
)
from frauduq.evaluation import compute_ece, threshold_sweep
from frauduq import pipeline

DESK_WIDTHS = ((24, 48), (12, 24), (6, 12))


# --- criterion 1: gradient oracle ------------------------------------------------


def batch_loss(net, x, labels, masks):
    return cross_entropy(forward(net, x, [m.copy() for m in masks]), labels)


def central_difference_gradient(net, x, labels, masks, param, h=1e-5):
    grad = np.zeros_like(param)
    flat, out = param.ravel(), grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = batch_loss(net, x, labels, masks)
        flat[k] = orig - h
        down = batch_loss(net, x, labels, masks)
        flat[k] = orig
        out[k] = (up - down) / (2.0 * h)
    return grad


def test_criterion_1_gradients_match_finite_differences():
    """25 random networks (<=10 units/layer): every analytic gradient
    matches central differences (h=1e-5) with relative error < 1e-4.

    Biases are randomized after init: with the stock all-zero biases, a
    hidden layer that a mask (or ReLU) zeroes out puts the next layer's
    pre-activations exactly on the ReLU kink, where no finite-difference
    check is meaningful. Random biases keep every network at a generic,
    differentiable point and exercise the bias gradients besides."""
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(25):
        config = NetworkConfig(
            input_units=int(rng.integers(2, 9)),
            hidden_units=tuple(int(rng.integers(2, 11)) for _ in range(3)),
            dropout_rate=float(rng.choice([0.0, 0.25, 0.5])),
            seed=int(rng.integers(0, 2**31)),
        )
        net = init_network(config)
        for b in net.biases:
            b[:] = rng.normal(scale=0.3, size=b.shape)
        n = int(rng.integers(1, 7))
        x = rng.normal(size=(n, config.input_units))
        labels = rng.integers(0, 2, size=n)
        # at rate 0 the masks are ones and draw nothing, so no mask seed is taken
        mask_seed = int(rng.integers(0, 2**31)) if config.dropout_rate > 0 else 0
        masks = sample_dropout_mask(config, np.random.default_rng(mask_seed), n_rows=n)

        grads, _ = _loss_and_grads(net, x, labels, [m.copy() for m in masks])
        for analytic, param in zip(grads[0] + grads[1],
                                   net.weights + net.biases):
            numeric = central_difference_gradient(net, x, labels, masks, param)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    elapsed = time.time() - start
    assert worst < 1e-4, f"worst relative error {worst:.3e}"
    assert elapsed < 30.0, f"gradient oracle took {elapsed:.1f}s"


# --- criterion 2: softmax/entropy property suite -----------------------------------


def reduce_passes_then_members(probs: np.ndarray) -> Estimates:
    """Estimates of a (rows, members, passes, classes) softmax tensor, reduced
    as predict_table reduces it: each member's passes, then the member means."""
    member_means = np.stack([summarize(probs[:, m].copy()) for m in range(probs.shape[1])],
                            axis=1)
    return estimates_of(summarize(member_means))


def test_criterion_2_softmax_entropy_property_suite():
    """1,000 random cases: softmax rows normalize to 1 +/- 1e-9, every
    summarized row has entropy_norm in [0,1] and mean probabilities
    summing to 1 +/- 1e-9, one-hot -> 0, uniform -> 1."""
    start = time.time()
    rng = np.random.default_rng(512)
    for case in range(1000):
        rows, members, passes = (int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                 int(rng.integers(1, 5)))
        logits = rng.normal(scale=float(rng.uniform(0.1, 30.0)),
                            size=(rows, members, passes, 2))
        probs = softmax(logits)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-9

        base = reduce_passes_then_members(probs)
        assert np.all((0.0 <= base.entropy_norm) & (base.entropy_norm <= 1.0))
        assert np.abs(base.mean_probs.sum(axis=1) - 1.0).max() <= 1e-9

    one_hot = reduce_passes_then_members(np.array([[[[1.0, 0.0]]]]))
    assert one_hot.entropy_norm.tolist() == [0.0]

    uniform = reduce_passes_then_members(np.array([[[[0.5, 0.5]]]]))
    assert uniform.entropy_norm.tolist() == [1.0]

    elapsed = time.time() - start
    assert elapsed < 10.0, f"property suite took {elapsed:.1f}s"


# --- criterion 3: degeneracy equivalences --------------------------------------------


def rate_zero_members(n_members, seed=0):
    rng = np.random.default_rng(seed)
    table = synth_generate(60, 5, 3.0, noise_seed=seed)
    members = []
    for i in range(n_members):
        config = NetworkConfig(input_units=5,
                               hidden_units=tuple(int(rng.integers(4, 9)) for _ in range(3)),
                               dropout_rate=0.0, epochs=3, batch_size=32, seed=100 + i)
        members.append(train(config, table)[0])
    return members, table


def test_criterion_3_rate_zero_degeneracies_are_bitwise():
    """dropout 0: MCD(T=100) == the single forward pass in float32, the
    precision of every MC pass, and EMCD == Ensemble on the same members
    — exact equality, no tolerance."""
    members, table = rate_zero_members(3)
    xs = table.features[:20]

    net = members[0]
    mcd = predict_table("mcd", [net], xs, passes=100, seed=3)
    net32 = Network([w.astype(np.float32) for w in net.weights],
                    [b.astype(np.float32) for b in net.biases], net.config)
    single = forward(net32, xs.astype(np.float32))
    assert np.array_equal(mcd.mean_probs, single), "MCD(rate 0) drifted"
    assert np.array_equal(mcd.entropy_raw, predictive_entropy(single)[0])

    emcd = predict_table("emcd", members, xs, passes=100, seed=4)
    ens = predict_table("ensemble", members, xs, passes=1, seed=5)
    assert np.array_equal(emcd.mean_probs, ens.mean_probs), "EMCD(rate 0) drifted"
    assert np.array_equal(emcd.entropy_raw, ens.entropy_raw)


# --- criterion 4: metric oracle -------------------------------------------------------


def fabricated_estimates(draws) -> Estimates:
    """Columns from (p_fraud, entropy_raw, entropy_norm) rows."""
    p, raw, norm = (np.array(col, dtype=np.float64) for col in zip(*draws))
    return Estimates(mean_probs=np.stack([1.0 - p, p], axis=1),
                     predicted_class=(p > 0.5).astype(np.int64),
                     entropy_raw=raw, entropy_norm=norm)


def test_criterion_4_uq_metric_oracle():
    """1,000 random fixtures: threshold_sweep's row matches a per-sample
    brute-force recount exactly; the worked fixture TC=8,TU=1,FU=1,FC=0
    gives UAcc=0.9, USen=1.0, USpe=0.889 +/- 0.001, UPre=0.5."""
    rng = np.random.default_rng(4096)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        threshold = float(rng.random())
        draws = [(float(rng.uniform()), float(rng.random()) * math.log(2),
                  float(rng.random())) for _ in range(n)]
        labels = [int(rng.integers(0, 2)) for _ in range(n)]

        c = threshold_sweep(fabricated_estimates(draws), labels, (threshold,))[0]
        tc = tu = fu = fc = 0
        for (p, _, entropy_norm), y in zip(draws, labels):
            correct = int(p > 0.5) == y
            certain = entropy_norm <= threshold
            if correct and certain:
                tc += 1
            elif not correct and not certain:
                tu += 1
            elif correct:
                fu += 1
            else:
                fc += 1
        assert (c.tc, c.tu, c.fu, c.fc) == (tc, tu, fu, fc)

        assert c.uacc == ((tu + tc) / n if n else None)
        assert c.usen == (tu / (tu + fc) if tu + fc else None)
        assert c.uspe == (tc / (tc + fu) if tc + fu else None)
        assert c.upre == (tu / (tu + fu) if tu + fu else None)

    # worked fixture
    fixtures = ([(0.2, 1)] * 8      # TC: correct & certain
                + [(0.8, 0)]        # TU: incorrect & uncertain
                + [(0.8, 1)])       # FU: correct & uncertain
    estimates = fabricated_estimates([(0.9, entropy, entropy) for entropy, _ in fixtures])
    labels = [label for _, label in fixtures]
    m = threshold_sweep(estimates, labels, (0.4,))[0]
    assert m.uacc == pytest.approx(0.9, abs=1e-12)
    assert m.usen == pytest.approx(1.0, abs=1e-12)
    assert m.uspe == pytest.approx(0.889, abs=1e-3)
    assert m.upre == pytest.approx(0.5, abs=1e-12)


# --- criterion 5: ECE oracle ------------------------------------------------------------


def test_criterion_5_ece_oracle():
    """A predictor whose correctness probability equals its stated
    confidence (n=10,000, seeded) has ECE < 0.02 with 10 bins; a
    confidence-1.0/accuracy-0.5 fixture has ECE = 0.5 exactly."""
    rng = np.random.default_rng(31337)
    draws, labels = [], []
    for _ in range(10000):
        conf = float(rng.uniform(0.5, 1.0))
        draws.append((conf, 0.0, 0.0))
        labels.append(1 if rng.random() < conf else 0)
    calibrated = compute_ece(fabricated_estimates(draws), labels, m_bins=10)
    assert calibrated.ece < 0.02, f"ECE {calibrated.ece:.4f} on the calibrated oracle"

    overconfident = fabricated_estimates([(1.0, 0.0, 0.0)] * 100)
    half = [1] * 50 + [0] * 50
    assert compute_ece(overconfident, half, m_bins=10).ece == 0.5


# --- criterion 6: misclassified points carry more entropy --------------------------------


def entropy_gap_holds(seed: int) -> dict:
    """One desk-profile run; True per method iff mean entropy_norm of
    misclassified test points exceeds that of the correctly classified."""
    table = synth_generate(500, 8, 2.0, noise_seed=seed)
    train_t, test_t = split_train_test(table, 0.7, seed=seed)

    single_config = NetworkConfig(input_units=8, hidden_units=(32, 16, 8),
                                  epochs=20, batch_size=64,
                                  seed=derive_seed(seed, STREAM_TRAIN))
    net, _ = train(single_config, train_t)
    spec = EnsembleSpec(members=5, width_ranges=DESK_WIDTHS)
    base = NetworkConfig(input_units=8, hidden_units=(1, 1, 1), epochs=20, batch_size=64)
    members = train_ensemble(spec, base, train_t, master_seed=seed)

    results = {}
    for method, models, passes in (("mcd", [net], 100),
                                   ("ensemble", members, 1),
                                   ("emcd", members, 100)):
        estimates = predict_table(method, models, test_t.features,
                                  passes=passes, seed=seed)
        correct = estimates.predicted_class == test_t.labels
        entropy = estimates.entropy_norm
        if correct.all() or not correct.any():
            results[method] = False  # a degenerate split can't show the gap
        else:
            results[method] = float(entropy[~correct].mean()) > float(entropy[correct].mean())
    return results


def test_criterion_6_misclassified_entropy_exceeds_correct():
    """Overlapping 2-Gaussian data (separation 2), desk profile (M=5,
    T=100): per method, the wrong-prediction entropy mean is higher in
    >= 18 of 20 seeds. Runtime < 3 minutes."""
    start = time.time()
    wins = {"mcd": 0, "ensemble": 0, "emcd": 0}
    for seed in range(20):
        for method, held in entropy_gap_holds(seed).items():
            wins[method] += held
    elapsed = time.time() - start
    assert elapsed < 180.0, f"criterion 6 took {elapsed:.1f}s"
    for method, count in wins.items():
        assert count >= 18, f"{method}: entropy gap held in only {count}/20 seeds"


# --- criterion 7: paper-number reproduction (needs the real dataset) ----------------------

VESTA_CSV = os.environ.get("FRAUDUQ_VESTA_CSV", "")
VESTA_SCHEMA = os.environ.get("FRAUDUQ_VESTA_SCHEMA", "")


@pytest.mark.skipif(not VESTA_CSV, reason=(
    "needs the non-redistributable transaction sample: set "
    "FRAUDUQ_VESTA_CSV=/path/to/sample.csv (41,326 rows, balanced labels; "
    "optional FRAUDUQ_VESTA_SCHEMA for a custom schema file) — see README"))
def test_criterion_7_paper_numbers_on_real_data():
    """Real-data reproduction at full scale (hours, by design):
    single-model accuracy mean over 10 seeds within 0.90 +/- 0.02, and
    each Table-level UQ metric at threshold 0.4 within +/- 0.05 of
    MCD .82/.63/.84/.33, Ensemble .85/.67/.86/.32, EMCD .84/.69/.86/.32.
    The ensemble-over-MCD UAcc ranking must hold for 2 of 3 master seeds.
    """
    schema = (CsvSchema.from_file(VESTA_SCHEMA) if VESTA_SCHEMA
              else CsvSchema(label="isFraud"))
    raw = load_csv(VESTA_CSV, schema)
    assert raw.n_rows == 41326, f"expected the 41,326-row balanced sample, got {raw.n_rows}"

    accuracies = []
    for seed in range(10):
        train_raw, test_raw = split_train_test(raw, 0.7, seed=seed)
        state = fit_preprocessor(train_raw)
        train_t, test_t = apply_preprocessor(state, train_raw), apply_preprocessor(state, test_raw)
        config = NetworkConfig(input_units=train_t.features.shape[1],
                               hidden_units=(256, 64, 16), epochs=50, batch_size=128,
                               seed=derive_seed(seed, STREAM_TRAIN))
        net, _ = train(config, train_t)
        probs = forward(net, test_t.features)
        accuracies.append(float((probs.argmax(axis=1) == test_t.labels).mean()))
    mean_acc = float(np.mean(accuracies))
    assert abs(mean_acc - 0.90) <= 0.02, f"single-model accuracy mean {mean_acc:.4f}"

    expected = {"mcd": (0.82, 0.63, 0.84, 0.33),
                "ensemble": (0.85, 0.67, 0.86, 0.32),
                "emcd": (0.84, 0.69, 0.86, 0.32)}
    rankings = []
    for master_seed in range(3):
        train_raw, test_raw = split_train_test(raw, 0.7, seed=master_seed)
        state = fit_preprocessor(train_raw)
        train_t, test_t = apply_preprocessor(state, train_raw), apply_preprocessor(state, test_raw)
        input_units = train_t.features.shape[1]

        net, _ = train(NetworkConfig(input_units=input_units, hidden_units=(256, 64, 16),
                                     epochs=50, batch_size=128,
                                     seed=derive_seed(master_seed, STREAM_TRAIN)), train_t)
        spec = EnsembleSpec(members=30, width_ranges=((256, 385), (64, 256), (16, 32)))
        base = NetworkConfig(input_units=input_units, hidden_units=(1, 1, 1),
                             epochs=50, batch_size=128)
        members = train_ensemble(spec, base, train_t, master_seed=master_seed)

        uacc = {}
        for method, models, passes in (("mcd", [net], 1000),
                                       ("ensemble", members, 1),
                                       ("emcd", members, 1000)):
            estimates = predict_table(method, models, test_t.features,
                                      passes=passes, seed=master_seed)
            metrics = threshold_sweep(estimates, list(test_t.labels), (0.4,))[0]
            uacc[method] = metrics.uacc
            if master_seed == 0:
                got = (metrics.uacc, metrics.usen, metrics.uspe, metrics.upre)
                for value, target in zip(got, expected[method]):
                    assert value is not None and abs(value - target) <= 0.05, (
                        f"{method}: got {got}, expected ~{expected[method]}")
        rankings.append(uacc["ensemble"] >= uacc["mcd"])
    assert sum(rankings) >= 2, f"ensemble>=mcd UAcc ranking held in {sum(rankings)}/3 seeds"


def test_criterion_7_desk_profile_end_to_end_runtime(tmp_path):
    """The unconditional half of criterion 7: the desk profile finishes
    the whole reproduce chain in under 10 minutes."""
    config = pipeline.load_run_config(profile="desk", seed=1,
                                      out=str(tmp_path / "desk"))
    start = time.time()
    pipeline.cmd_reproduce(config, log=lambda *a, **k: None)
    elapsed = time.time() - start
    assert elapsed < 600.0, f"desk reproduce took {elapsed:.1f}s"
    assert (tmp_path / "desk" / "summary" / "summary.csv").is_file()


# --- criterion 8: reproduce determinism ---------------------------------------------------


def test_criterion_8_reproduce_twice_identical_digests(tmp_path):
    """cmd_reproduce in synth mode, same seed, two directories: every
    artifact digest identical."""
    config_file = tmp_path / "repro.json"
    config_file.write_text(json.dumps({
        "data": {"synth": {"n_per_class": 80, "n_features": 6, "separation": 2.0}},
        "network": {"hidden_units": [12, 8, 6], "epochs": 5, "batch_size": 32},
        "ensemble": {"members": 3, "width_ranges": [[8, 16], [6, 10], [4, 7]]},
        "mc_passes": 25,
        "seed": 97,
    }))

    digests = []
    for name in ("first", "second"):
        config = pipeline.load_run_config(config_file, out=str(tmp_path / name))
        pipeline.cmd_reproduce(config, log=lambda *a, **k: None)
        root = tmp_path / name
        digests.append({
            p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()
        })
    assert digests[0].keys() == digests[1].keys()
    mismatched = [rel for rel in digests[0] if digests[0][rel] != digests[1][rel]]
    assert not mismatched, f"artifacts differ between runs: {mismatched}"
    assert len(digests[0]) > 20  # the chain actually produced the full tree
