"""Unit tests for the from-scratch network: forward/backward math,
Adam, dropout masks, training loop behavior, and model file round trips."""

import math
from dataclasses import replace

import numpy as np
import pytest

import frauduq.network as network
from frauduq import container
from frauduq.errors import DataError, FormatError, NumericError, ShapeError
from frauduq.network import (
    AdamState,
    NetworkConfig,
    adam_step,
    cross_entropy,
    first_hidden,
    forward,
    init_network,
    load_network,
    sample_dropout_mask,
    save_network,
    softmax,
    train,
)


def small_config(rng, input_units=None, dropout_rate=0.0):
    """A random <=10-units-per-layer config."""
    return NetworkConfig(
        input_units=input_units or int(rng.integers(2, 9)),
        hidden_units=tuple(int(rng.integers(2, 11)) for _ in range(3)),
        dropout_rate=dropout_rate,
        seed=int(rng.integers(0, 2**31)),
    )


# --- softmax / cross-entropy ----------------------------------------------


def test_softmax_hand_value():
    probs = softmax(np.array([math.log(3.0), 0.0]))
    assert probs == pytest.approx([0.75, 0.25], abs=1e-12)


def test_softmax_rows_normalize_and_shift_invariant():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(40, 2)) * rng.uniform(0.1, 50)

    probs = softmax(logits)
    assert probs.sum(axis=-1) == pytest.approx(np.ones(40), abs=1e-9)
    shifted = softmax(logits + 123.456)
    assert np.allclose(probs, shifted, atol=1e-12)
    # the max-subtraction keeps huge logits finite
    assert np.isfinite(softmax(np.array([1e4, -1e4]))).all()


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        softmax(np.array([np.inf, 0.0]))
    with pytest.raises(NumericError):
        softmax(np.array([np.nan, 0.0]))


def test_cross_entropy_hand_values():
    probs = np.array([[0.75, 0.25]])
    assert cross_entropy(probs, [0]) == pytest.approx(-math.log(0.75), abs=1e-12)
    assert cross_entropy(probs, [1]) == pytest.approx(-math.log(0.25), abs=1e-12)


def test_cross_entropy_clamps_zero_probability():
    loss = cross_entropy(np.array([[1.0, 0.0]]), [1])
    assert math.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-12))


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(DataError):
        cross_entropy(np.array([[0.5, 0.5]]), [2])
    with pytest.raises(DataError):
        cross_entropy(np.array([[0.5, 0.5]]), [-1])


# --- gradients --------------------------------------------------------------


def grads_of(net, x, labels, masks):
    """``(weight_grads, bias_grads)`` of the batch loss, from training's
    ``_loss_and_grads`` on copies of ``masks``, which it consumes."""
    return network._loss_and_grads(net, x, labels, [m.copy() for m in masks])[0]


def batch_loss(net, x, labels, masks):
    """The mean cross-entropy of a pass on copies of ``masks``."""
    return cross_entropy(forward(net, x, [m.copy() for m in masks]), labels)


def numeric_gradient(net, x, labels, masks, param, h=1e-5):
    """Central finite differences of the batch loss w.r.t. one tensor."""
    grad = np.zeros_like(param)
    flat = param.ravel()
    out = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = batch_loss(net, x, labels, masks)
        flat[k] = orig - h
        down = batch_loss(net, x, labels, masks)
        flat[k] = orig
        out[k] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric):
    # the 1e-4 floor keeps exact zeros (dead ReLU paths) from dividing by ~0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_gradient_matches_finite_differences_with_dropout_mask():
    """One thorough case including a fixed stochastic mask; the full
    25-network sweep lives in the acceptance suite."""
    rng = np.random.default_rng(42)
    config = small_config(rng, dropout_rate=0.4)
    net = init_network(config)
    for b in net.biases:  # keep pre-activations off the exact ReLU kink
        b[:] = rng.normal(scale=0.3, size=b.shape)
    x = rng.normal(size=(5, config.input_units))
    labels = rng.integers(0, 2, size=5)
    masks = sample_dropout_mask(config, np.random.default_rng(1), n_rows=5)

    weight_grads, bias_grads = grads_of(net, x, labels, masks)
    worst = 0.0
    for i, w in enumerate(net.weights):
        worst = max(worst, max_relative_error(
            weight_grads[i], numeric_gradient(net, x, labels, masks, w)))
        worst = max(worst, max_relative_error(
            bias_grads[i], numeric_gradient(net, x, labels, masks, net.biases[i])))
    assert worst < 1e-4


def test_gradient_of_duplicated_batch_is_unchanged():
    """Mean cross-entropy: stacking the batch on itself must not change grads."""
    rng = np.random.default_rng(3)
    config = small_config(rng)
    net = init_network(config)
    x = rng.normal(size=(4, config.input_units))
    labels = np.array([0, 1, 1, 0])

    # masks drawn as train draws them: ones at this rate of 0
    single = grads_of(net, x, labels, sample_dropout_mask(config, rng, n_rows=4))
    doubled = grads_of(net, np.vstack([x, x]), np.concatenate([labels, labels]),
                       sample_dropout_mask(config, rng, n_rows=8))
    for a, b in zip(single[0] + single[1], doubled[0] + doubled[1]):
        assert np.allclose(a, b, atol=1e-12)


# --- Adam -------------------------------------------------------------------


def test_adam_first_step_closed_form():
    """At t=1 the bias corrections cancel: p1 = p0 - lr * g/(|g| + eps)."""
    rng = np.random.default_rng(11)
    config = small_config(rng)
    net = init_network(config)
    before = [w.copy() for w in net.weights]
    grads = grads_of(net, rng.normal(size=(3, config.input_units)), np.array([0, 1, 0]),
                     sample_dropout_mask(config, rng, n_rows=3))

    adam_step(net, grads, AdamState.for_network(net))
    for w0, w1, g in zip(before, net.weights, grads[0]):
        expected = w0 - config.learning_rate * g / (np.abs(g) + network.ADAM_EPSILON)
        assert np.allclose(w1, expected, atol=1e-12)


def test_adam_step_matches_one_line_update_bitwise():
    """The in-place update rounds exactly like the textbook expression."""
    rng = np.random.default_rng(13)
    config = small_config(rng)
    net = init_network(config)
    ref = [p.copy() for p in net.weights + net.biases]
    ref_m = [np.zeros_like(p) for p in ref]
    ref_v = [np.zeros_like(p) for p in ref]
    state = AdamState.for_network(net)
    b1, b2, eps = network.ADAM_BETA1, network.ADAM_BETA2, network.ADAM_EPSILON
    for t in range(1, 6):
        x = rng.normal(size=(4, config.input_units))
        masks = sample_dropout_mask(config, rng, n_rows=4)
        grads = grads_of(net, x, np.array([0, 1, 1, 0]), masks)
        lr = config.learning_rate if t % 2 else 0.05
        net.config = replace(config, learning_rate=lr)
        adam_step(net, grads, state)
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for p, m, v, g in zip(ref, ref_m, ref_v, grads[0] + grads[1]):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        for got, want in zip(net.weights + net.biases, ref):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("block", [1, 7, 20])
def test_adam_row_blocks_give_the_bits_of_one_pass(monkeypatch, block):
    """Blocks of one row, of several rows with a short last block, or of
    whole small layers update parameters and moments bitwise as one pass
    over each parameter does."""
    config = NetworkConfig(input_units=9, hidden_units=(6, 5, 3), seed=3)
    runs = []
    for size in (10**9, block):
        monkeypatch.setattr(network, "_ADAM_BLOCK", size)
        net = init_network(config)
        state = AdamState.for_network(net)
        for t in range(4):
            rng = np.random.default_rng(t)
            x = rng.normal(size=(5, 9))
            masks = sample_dropout_mask(config, rng, n_rows=5)
            adam_step(net, grads_of(net, x, np.array([0, 1, 1, 0, 1]), masks), state)
        runs.append(net.weights + net.biases + state.m + state.v)
    assert all(np.array_equal(a, b) for a, b in zip(*runs, strict=True))


def test_adam_rejects_mismatched_shapes():
    """A narrowed gradient, gradients for the first layer only, or a bad
    last gradient after good ones raise ShapeError with every parameter
    and the whole optimizer state left as they were."""
    rng = np.random.default_rng(5)
    net = init_network(NetworkConfig(input_units=3, hidden_units=(8, 8, 8)))
    masks = sample_dropout_mask(net.config, rng, n_rows=4)
    gw, gb = grads_of(net, rng.normal(size=(4, 3)), np.array([0, 1, 1, 0]), masks)
    state = AdamState.for_network(net)
    adam_step(net, (gw, gb), state)  # non-zero moments, so a touched one would show
    for grads in (([gw[0][:, :-1], *gw[1:]], gb), ([gw[0]], [gb[0]]),
                  (gw, [*gb[:-1], gb[-1][:-1]])):
        before = [a.copy() for a in net.weights + net.biases + state.m + state.v]
        with pytest.raises(ShapeError):
            adam_step(net, grads, state)
        after = net.weights + net.biases + state.m + state.v
        assert all(np.array_equal(a, b) for a, b in zip(after, before, strict=True))
        assert state.t == 1


# --- training ----------------------------------------------------------------


def blob_table(rng, n=80, d=4, sep=3.0):
    from frauduq.data import FeatureTable

    x0 = rng.normal(size=(n // 2, d)) - sep / 2
    x1 = rng.normal(size=(n - n // 2, d)) + sep / 2
    return FeatureTable(
        features=np.vstack([x0, x1]),
        labels=np.concatenate([np.zeros(n // 2, dtype=np.int64),
                               np.ones(n - n // 2, dtype=np.int64)]),
    )


def test_full_batch_loss_nonincreasing():
    """5 full-batch epochs without dropout: at most one uphill step."""
    rng = np.random.default_rng(19)
    data = blob_table(rng)
    config = NetworkConfig(input_units=4, hidden_units=(8, 6, 4), dropout_rate=0.0,
                           epochs=5, batch_size=len(data.labels), seed=2)
    _, history = train(config, data)
    violations = sum(b > a + 1e-12 for a, b in zip(history, history[1:]))
    assert len(history) == 5
    assert violations <= 1


def test_train_is_seed_deterministic():
    rng = np.random.default_rng(23)
    data = blob_table(rng, n=40)
    config = NetworkConfig(input_units=4, hidden_units=(6, 5, 4), dropout_rate=0.3,
                           epochs=3, batch_size=16, seed=77)
    net_a, hist_a = train(config, data)
    net_b, hist_b = train(config, data)
    assert hist_a == hist_b
    for wa, wb in zip(net_a.weights, net_b.weights):
        assert np.array_equal(wa, wb)

    net_c, _ = train(replace(config, seed=78), data)
    assert net_c.config.seed == 78  # the stored config names the seed it was trained with
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(net_a.weights, net_c.weights))


def test_train_rejects_wrong_width_and_bad_labels():
    rng = np.random.default_rng(29)
    data = blob_table(rng, n=20)
    config = NetworkConfig(input_units=7, hidden_units=(4, 3, 2), seed=1, epochs=1)
    with pytest.raises(ShapeError):
        train(config, data)

    bad = blob_table(rng, n=20)
    bad.labels[0] = 3
    floats = replace(blob_table(rng, n=20), labels=bad.labels.clip(0, 1).astype(np.float64))
    for table in (bad, floats):  # float labels cannot index the class probabilities
        with pytest.raises(DataError, match="integers 0 or 1"):
            train(NetworkConfig(input_units=4, hidden_units=(4, 3, 2), seed=1, epochs=1), table)


# --- init / dropout ----------------------------------------------------------


def test_init_he_uniform_bounds_and_zero_biases():
    config = NetworkConfig(input_units=6, hidden_units=(10, 8, 4), seed=123)
    net = init_network(config)
    fans = [6, 10, 8, 4]
    for w, b, fan_in in zip(net.weights, net.biases, fans):
        assert np.abs(w).max() <= math.sqrt(6.0 / fan_in)
        assert np.count_nonzero(b) == 0
    # per-seed deterministic
    again = init_network(config)
    assert all(np.array_equal(a, b) for a, b in zip(net.weights, again.weights))


def test_dropout_mask_values_and_mean():
    config = NetworkConfig(input_units=4, hidden_units=(50, 40, 30), dropout_rate=0.3)
    mask = sample_dropout_mask(config, np.random.default_rng(0), n_rows=200)
    scale = 1.0 / 0.7
    for layer in mask:
        assert set(np.unique(layer)) <= {0.0, scale}
        assert layer.mean() == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5])
def test_dropout_mask_matches_reference_expression_bitwise(rate):
    """Masks are (u >= rate) / (1 - rate) on the stream's uniforms, layer by layer."""
    config = NetworkConfig(input_units=4, hidden_units=(7, 5, 3), dropout_rate=rate)
    for n_rows in (1, 9):
        mask = sample_dropout_mask(config, np.random.default_rng(21), n_rows=n_rows)
        twin = np.random.default_rng(21)
        for width, layer in zip(config.hidden_units, mask):
            shape = (n_rows, width)
            want = (twin.random(shape) >= rate) / (1 - rate)
            assert layer.shape == shape and np.array_equal(layer, want)


def cached_pass(net, x, masks):
    """The forward pass written out, caching each hidden layer's ReLU output
    and its masked activation: ``(probs, relus, acts)``, acts led by x."""
    relus, acts = [], [x]
    for i in range(3):
        z = acts[-1] @ net.weights[i].T + net.biases[i]
        relus.append(np.maximum(z, 0.0))
        acts.append(relus[-1] if masks is None else relus[-1] * masks[i])
    return softmax(acts[-1] @ net.weights[-1].T + net.biases[-1]), relus, acts


def reference_backward(net, x, labels, masks):
    """Backprop written out, gating each layer by its mask and by ReLU > 0."""
    probs, relus, acts = cached_pass(net, x, masks)
    n = len(x)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), labels] = 1.0
    delta = (probs - one_hot) / n
    d_weights, d_biases = [None] * 4, [None] * 4
    for i in range(3, -1, -1):
        d_weights[i] = delta.T @ acts[i]
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = ((delta @ net.weights[i]) * masks[i - 1]) * (relus[i - 1] > 0)
    return d_weights, d_biases


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5])
def test_forward_matches_the_cached_pass_and_consumes_its_masks(rate):
    """forward gives the written-out pass's probabilities bitwise. Each mask
    is overwritten with its layer's masked activation, and hidden1 is kept."""
    config = NetworkConfig(input_units=5, hidden_units=(9, 7, 4), dropout_rate=rate, seed=3)
    net = init_network(config)
    x = np.random.default_rng(8).normal(size=(6, 5))
    mask = sample_dropout_mask(config, np.random.default_rng(4), n_rows=6)
    want, _, acts = cached_pass(net, x, mask)

    assert np.array_equal(forward(net, x), cached_pass(net, x, None)[0])
    hidden1 = first_hidden(net, x)
    kept = hidden1.copy()
    given = [m.copy() for m in mask]
    assert np.array_equal(forward(net, x, given, hidden1), want)
    assert np.array_equal(hidden1, kept)
    assert all(np.array_equal(g, a) for g, a in zip(given, acts[1:]))
    assert np.array_equal(forward(net, x, [m.copy() for m in mask]), want)


def test_forward_refuses_masks_not_drawn_for_its_rows():
    """A 1-D mask shared over the batch cannot hold the batch's activations,
    and an integer mask cannot hold floats: both raise, neither broadcasts."""
    config = NetworkConfig(input_units=5, hidden_units=(9, 7, 4), dropout_rate=0.3, seed=3)
    net = init_network(config)
    x = np.random.default_rng(8).normal(size=(6, 5))
    shared = [np.full(width, 1 / 0.7) for width in config.hidden_units]
    ints = [(m > 0).astype(np.int64) for m in sample_dropout_mask(config, np.random.default_rng(5),
                                                                  n_rows=6)]
    for mask in (shared, ints):
        with pytest.raises((ValueError, TypeError)):
            forward(net, x, mask)


@pytest.mark.parametrize("rate", [0.0, 0.1, 0.3, 0.5])
def test_backward_equals_the_mask_and_relu_gated_reference_bitwise(rate):
    """Gating by (d_act * s) * (masked activation > 0) gives the bits of the
    written-out (d_act * mask) * (ReLU > 0), signed zeros included; the loss
    is the written-out pass's, and the masks are consumed as forward does."""
    rng = np.random.default_rng(61)
    for batch in range(6):
        config = small_config(rng, dropout_rate=rate)
        net = init_network(config)
        n = int(rng.integers(1, 40))
        x = rng.normal(size=(n, config.input_units))
        labels = rng.integers(0, 2, size=n)
        masks = sample_dropout_mask(config, rng, n_rows=n)
        given = [m.copy() for m in masks]
        got, loss = network._loss_and_grads(net, x, labels, given)
        want = reference_backward(net, x, labels, masks)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert g.tobytes() == w.tobytes(), (rate, batch)
        probs, _, acts = cached_pass(net, x, masks)
        assert loss == cross_entropy(probs, labels)
        assert all(g.tobytes() == a.tobytes() for g, a in zip(given, acts[1:]))


def test_rate_zero_mask_is_identity():
    config = NetworkConfig(input_units=3, hidden_units=(4, 3, 2), dropout_rate=0.0, seed=4)
    net = init_network(config)
    x = np.random.default_rng(1).normal(size=(6, 3))
    mask = sample_dropout_mask(config, np.random.default_rng(2), n_rows=6)
    assert np.array_equal(forward(net, x), forward(net, x, mask))


# --- serialization -------------------------------------------------------------


def test_save_load_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(31)
    data = blob_table(rng, n=30)
    config = NetworkConfig(input_units=4, hidden_units=(5, 4, 3), epochs=2, seed=9)
    net, _ = train(config, data)

    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.config == net.config
    for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)

    x = rng.normal(size=(5, 4))
    assert np.array_equal(forward(net, x), forward(loaded, x))


def test_array_records_hold_row_major_little_endian_bytes_whatever_the_layout():
    """A Fortran-ordered float array and an int32 one are written as the
    row-major float64 and int64 bytes that decode_array reads back."""
    fortran = np.asfortranarray([[1.0, -2.5, 0.125], [3.0, 1e-300, -0.0]])
    narrow = np.array([[0, 1], [-3, 2**31 - 1]], dtype=np.int32)
    records = [container.encode_array(fortran), container.encode_array(narrow)]
    assert records == [
        {"shape": [2, 3], "dtype": "float64",
         "data": "AAAAAAAA8D8AAAAAAAAEwAAAAAAAAMA/AAAAAAAACEBZ8/jCH26lAQAAAAAAAACA"},
        {"shape": [2, 2], "dtype": "int64",
         "data": "AAAAAAAAAAABAAAAAAAAAP3/////////////fwAAAAA="},
    ]
    for array, record in zip((fortran, narrow), records):
        back = container.decode_array(record)
        assert back.flags.c_contiguous and np.array_equal(back, array)


def test_load_rejects_truncated_and_mismatched_files(tmp_path):
    net = init_network(NetworkConfig(input_units=3, hidden_units=(4, 3, 2), seed=8))
    path = tmp_path / "net.json"
    save_network(net, path)

    clipped = tmp_path / "clipped.json"
    clipped.write_text(path.read_text()[:200])
    with pytest.raises(FormatError):
        load_network(clipped)

    import json

    obj = json.loads(path.read_text())
    obj["config"]["hidden_units"] = [9, 3, 2]  # no longer matches the arrays
    twisted = tmp_path / "twisted.json"
    twisted.write_text(json.dumps(obj))
    with pytest.raises(FormatError):
        load_network(twisted)

    # a stored config that is malformed or out of range fails as the file's fault
    for key, value in [("dropout_rate", -0.5), ("dropout_rate", 1.0),
                       ("learning_rate", -1), ("hidden_units", "ab")]:
        obj = json.loads(path.read_text())
        obj["config"][key] = value
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=f"doctored.json: .*{key}"):
            load_network(doctored)

    # the version must be the int 1, not a value that merely compares equal
    for i, version in enumerate([True, 1.0]):
        obj = json.loads(path.read_text())
        obj["version"] = version
        loose = tmp_path / f"loose{i}.json"
        loose.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=f"loose{i}.json: not a frauduq-network v1"):
            load_network(loose)
