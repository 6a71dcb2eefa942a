"""Feedforward classifier engine.

A fixed four-affine-layer stack (three ReLU hidden layers, softmax output)
with inverted dropout on hidden activations, cross-entropy loss, Adam
updates, and a bitwise-lossless JSON model format. Everything is plain
numpy and deterministic given a seed.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import container
from .errors import DataError, FormatError, NumericError, ShapeError, ValidationError
from .seeding import STREAM_INIT, STREAM_TRAIN, substream

N_HIDDEN_LAYERS = 3
PROB_FLOOR = 1e-12  # clamp before log so saturated outputs cannot yield -inf

MODEL_FORMAT = "frauduq-network"
MODEL_VERSION = 1


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and training hyperparameters for one classifier."""

    input_units: int
    hidden_units: tuple[int, int, int]
    output_units: int = 2
    dropout_rate: float = 0.3
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_units", tuple(int(h) for h in self.hidden_units))

    def validate(self) -> "NetworkConfig":
        if self.input_units < 1:
            raise ValidationError(f"input_units must be >= 1, got {self.input_units}")
        if len(self.hidden_units) != N_HIDDEN_LAYERS:
            raise ValidationError(
                f"hidden_units must have exactly {N_HIDDEN_LAYERS} entries, got {list(self.hidden_units)}"
            )
        if any(h < 1 for h in self.hidden_units):
            raise ValidationError(f"hidden layer widths must be >= 1, got {list(self.hidden_units)}")
        if self.output_units != 2:
            raise ValidationError(f"output_units must be 2, got {self.output_units}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        return self

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(rows, cols) of each weight matrix, input to output."""
        sizes = [self.input_units, *self.hidden_units, self.output_units]
        return [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]


@dataclass
class Network:
    """Weights and biases of the four affine layers plus their config.

    Weight matrices are (out_units, in_units); a forward pass computes
    ``x @ W.T + b`` per layer. Treat instances as immutable once trained.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: NetworkConfig

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.config.hidden_units


@dataclass
class DropoutMask:
    """Inverted-dropout masks, one per hidden layer.

    Entries are 0 (dropped) or 1/(1-rate) (kept, rescaled), so a masked
    forward pass has the same expected activations as an unmasked one.
    Each mask is either a vector (single input) or an (n, width) matrix
    with an independent mask row per input.
    """

    layer_masks: list[np.ndarray]
    rate: float


@dataclass
class Gradients:
    """Loss gradients, same shapes as the network parameters."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    m_weights: list[np.ndarray]
    v_weights: list[np.ndarray]
    m_biases: list[np.ndarray]
    v_biases: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_network(cls, net: Network) -> "AdamState":
        return cls(
            m_weights=[np.zeros_like(w) for w in net.weights],
            v_weights=[np.zeros_like(w) for w in net.weights],
            m_biases=[np.zeros_like(b) for b in net.biases],
            v_biases=[np.zeros_like(b) for b in net.biases],
        )


def init_network(config: NetworkConfig, seed: int | None = None) -> Network:
    """He-uniform weights (limit sqrt(6/fan_in)), zero biases, per-seed deterministic."""
    config.validate()
    rng = substream(config.seed if seed is None else seed, STREAM_INIT)
    weights, biases = [], []
    for out_units, in_units in config.layer_dims:
        limit = math.sqrt(6.0 / in_units)
        weights.append(rng.uniform(-limit, limit, size=(out_units, in_units)))
        biases.append(np.zeros(out_units))
    return Network(weights=weights, biases=biases, config=config)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis; rejects non-finite input."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise NumericError("softmax input contains non-finite values")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def sample_dropout_mask(
    config: NetworkConfig, rng: np.random.Generator, n_rows: int | None = None
) -> DropoutMask:
    """Draw a fresh inverted-dropout mask for each hidden layer.

    With ``n_rows`` set, each mask is (n_rows, width) with independent
    rows, i.e. every sample in a batch gets its own mask.
    """
    rate = config.dropout_rate
    scale = 1.0 / (1.0 - rate)
    masks = []
    for width in config.hidden_units:
        shape = (width,) if n_rows is None else (n_rows, width)
        if rate == 0.0:
            masks.append(np.ones(shape))
        else:
            u = rng.random(shape)
            np.greater_equal(u, rate, out=u)  # 1.0 kept, 0.0 dropped
            u *= scale  # 1.0 * scale is exactly 1.0 / (1 - rate), and cheaper than dividing
            masks.append(u)
    return DropoutMask(layer_masks=masks, rate=rate)


def _check_input_width(net: Network, x: np.ndarray) -> None:
    if x.shape[-1] != net.config.input_units:
        raise ShapeError(
            f"input has {x.shape[-1]} features but the network expects {net.config.input_units}"
        )


def _hidden(net: Network, i: int, a: np.ndarray) -> np.ndarray:
    """ReLU output of hidden layer ``i`` for input activations ``a``, before its mask."""
    return np.maximum(a @ net.weights[i].T + net.biases[i], 0.0)


def first_hidden(net: Network, x: np.ndarray) -> np.ndarray:
    """Layer 1's activation ``ReLU(x W1^T + b1)``, before its dropout mask.

    Dropout acts only after each hidden ReLU, so this is the same on every
    stochastic pass over ``x``: compute it once and hand it to
    :func:`forward` for each pass.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input_width(net, x)
    return _hidden(net, 0, x)


def _forward_cached(net: Network, x: np.ndarray, mask: DropoutMask | None,
                    hidden1: np.ndarray | None = None):
    """Forward pass keeping the unmasked ReLU outputs (the backprop gates)
    and the masked activations. ``hidden1``, if given, must be
    ``first_hidden(net, x)``; layer 1 is then not recomputed."""
    _check_input_width(net, x)
    h = first_hidden(net, x) if hidden1 is None else hidden1
    relus, acts = [], [x]
    for i in range(N_HIDDEN_LAYERS):
        if i > 0:
            h = _hidden(net, i, acts[-1])
        relus.append(h)
        acts.append(h if mask is None else h * mask.layer_masks[i])
    logits = acts[-1] @ net.weights[-1].T + net.biases[-1]
    return softmax(logits), relus, acts


def forward(net: Network, x: np.ndarray, mask: DropoutMask | None = None,
            hidden1: np.ndarray | None = None) -> np.ndarray:
    """Class probabilities for one input vector or an (n, d) batch.

    ``hidden1`` is an optional precomputed ``first_hidden(net, x)``.
    """
    probs, _, _ = _forward_cached(net, np.asarray(x, dtype=np.float64), mask, hidden1)
    return probs


def cross_entropy(probs: np.ndarray, label: int) -> float:
    """-log p(label), with the probability clamped to PROB_FLOOR."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < probs.shape[-1]:
        raise DataError(f"label {label} out of range for {probs.shape[-1]} classes")
    return float(-np.log(max(probs[label], PROB_FLOOR)))


def _mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def loss_on_batch(
    net: Network, x: np.ndarray, labels: np.ndarray, masks: DropoutMask | None = None
) -> float:
    """Mean cross-entropy over a batch; the quantity backward differentiates."""
    probs, _, _ = _forward_cached(net, np.atleast_2d(np.asarray(x, dtype=np.float64)), masks)
    return _mean_cross_entropy(probs, np.asarray(labels))


def backward(
    net: Network, x: np.ndarray, labels: np.ndarray, masks: DropoutMask | None = None
) -> Gradients:
    """Gradients of the mean cross-entropy w.r.t. every weight and bias."""
    grads, _ = _loss_and_grads(net, np.atleast_2d(np.asarray(x, dtype=np.float64)),
                               np.asarray(labels), masks)
    return grads


def _loss_and_grads(net, x, labels, masks):
    n = x.shape[0]
    if n == 0:
        raise DataError("cannot compute gradients on an empty batch")
    probs, relus, acts = _forward_cached(net, x, masks)
    loss = _mean_cross_entropy(probs, labels)

    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), labels] = 1.0
    delta = (probs - one_hot) / n  # d(mean CE)/d(logits)

    d_weights = [None] * len(net.weights)
    d_biases = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        d_weights[i] = delta.T @ acts[i]
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            d_act = delta @ net.weights[i]
            if masks is not None:
                d_act = d_act * masks.layer_masks[i - 1]
            delta = d_act * (relus[i - 1] > 0)  # ReLU(z) > 0 exactly where z > 0
    return Gradients(weights=d_weights, biases=d_biases), loss


def adam_step(
    net: Network, grads: Gradients, state: AdamState, lr: float | None = None
) -> tuple[Network, AdamState]:
    """One bias-corrected Adam update, in place; returns the pair for chaining."""
    cfg = net.config
    lr = cfg.learning_rate if lr is None else lr
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for params, gs, ms, vs in (
        (net.weights, grads.weights, state.m_weights, state.v_weights),
        (net.biases, grads.biases, state.m_biases, state.v_biases),
    ):
        for p, g, m, v in zip(params, gs, ms, vs):
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
            # Rounds exactly as p -= lr * (m / c1) / (sqrt(v / c2) + eps),
            # with two scratch arrays per parameter.
            step = np.multiply(g, 1.0 - b1)
            m *= b1
            m += step
            np.square(g, out=step)
            step *= 1.0 - b2
            v *= b2
            v += step
            np.divide(m, c1, out=step)
            step *= lr
            denom = np.divide(v, c2)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
            p -= step
    return net, state


def train(config: NetworkConfig, data, seed: int | None = None) -> tuple[Network, list[float]]:
    """Train a fresh network on a FeatureTable; returns it with per-epoch mean loss.

    Runs epochs x ceil(n / batch_size) Adam steps over per-epoch shuffles,
    drawing a fresh per-sample dropout mask for every batch. Fully
    deterministic for a fixed seed.
    """
    config.validate()
    seed = config.seed if seed is None else seed
    x, labels = np.asarray(data.features, dtype=np.float64), np.asarray(data.labels)
    n = x.shape[0]
    if n == 0:
        raise DataError("training data is empty")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("training labels must all be 0 or 1")
    if x.shape[1] != config.input_units:
        raise ShapeError(
            f"data has {x.shape[1]} features but the config expects {config.input_units}"
        )

    net = init_network(config, seed)
    state = AdamState.for_network(net)
    rng = substream(seed, STREAM_TRAIN)
    use_masks = config.dropout_rate > 0.0

    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            masks = sample_dropout_mask(config, rng, n_rows=len(idx)) if use_masks else None
            grads, loss = _loss_and_grads(net, x[idx], labels[idx], masks)
            adam_step(net, grads, state)
            loss_sum += loss * len(idx)
        history.append(loss_sum / n)
        if not all(np.isfinite(w).all() for w in net.weights):
            raise NumericError("training diverged: non-finite weights")
    return net, history


def save_network(net: Network, path) -> None:
    """Write the self-describing JSON model file (bitwise round-trip safe)."""
    obj = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": container.to_plain(net.config),
        "weights": [container.encode_array(w) for w in net.weights],
        "biases": [container.encode_array(b) for b in net.biases],
    }
    container.write_json(obj, path)


def load_network(path) -> Network:
    obj = container.read_json(path)
    container.expect_format(obj, MODEL_FORMAT, MODEL_VERSION, path)
    try:
        config = container.from_plain(NetworkConfig, obj.get("config")).validate()
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    try:
        weights = [container.decode_array(w, f"{path}: weights[{i}]")
                   for i, w in enumerate(obj["weights"])]
        biases = [container.decode_array(b, f"{path}: biases[{i}]")
                  for i, b in enumerate(obj["biases"])]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: missing parameter arrays ({exc})") from exc

    dims = config.layer_dims
    if len(weights) != len(dims) or len(biases) != len(dims):
        raise FormatError(f"{path}: expected {len(dims)} layers")
    for i, (out_units, in_units) in enumerate(dims):
        if weights[i].shape != (out_units, in_units):
            raise FormatError(
                f"{path}: weights[{i}] shape {weights[i].shape} does not match "
                f"declared dims ({out_units}, {in_units})"
            )
        if biases[i].shape != (out_units,):
            raise FormatError(
                f"{path}: biases[{i}] shape {biases[i].shape} does not match ({out_units},)"
            )
    return Network(weights=weights, biases=biases, config=config)
