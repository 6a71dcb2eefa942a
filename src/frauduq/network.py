"""Feedforward classifier engine.

A fixed four-affine-layer stack (three ReLU hidden layers, softmax output)
with inverted dropout on hidden activations, cross-entropy loss, Adam
updates, and a bitwise-lossless JSON model format. Everything is plain
numpy and deterministic given a seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import container
from .data import MAX_FLOATS, check_labels
from .errors import DataError, NumericError, ShapeError, ValidationError
from .seeding import STREAM_INIT, STREAM_TRAIN, substream

N_HIDDEN_LAYERS = 3
N_CLASSES = 2  # genuine (0) and fraud (1)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # stock Adam
PROB_FLOOR = 1e-12  # clamp before log so saturated outputs cannot yield -inf

MODEL_FORMAT = "frauduq-network"


@dataclass(frozen=True)
class NetworkParams:
    """The hyperparameters a run sets: the config's ``network`` section."""

    hidden_units: tuple[int, int, int] = (32, 16, 8)
    dropout_rate: float = 0.3
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "hidden_units", tuple(int(h) for h in self.hidden_units))

    def validate(self) -> "NetworkParams":
        if len(self.hidden_units) != N_HIDDEN_LAYERS:
            raise ValidationError(
                f"hidden_units must have exactly {N_HIDDEN_LAYERS} entries, got {list(self.hidden_units)}"
            )
        if any(h < 1 for h in self.hidden_units):
            raise ValidationError(f"hidden layer widths must be >= 1, got {list(self.hidden_units)}")
        check_allocatable("hidden_units", list(self.hidden_units), self.hidden_units)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        return self


def check_allocatable(key: str, value, widths) -> None:
    """Refuse hidden ``widths`` (what ``key`` holds: ``value``) that give a
    weight matrix more float64 values than numpy can allocate, whatever
    the input width."""
    sizes = [1, *widths, N_CLASSES]
    for cols, rows in zip(sizes, sizes[1:]):
        if rows * cols > MAX_FLOATS:
            raise ValidationError(f"{key} {value} makes a weight matrix of at least "
                                  f"{rows * cols} values, more than numpy can allocate")


@dataclass(frozen=True, kw_only=True)
class NetworkConfig(NetworkParams):
    """One classifier's architecture and training: the run's
    :class:`NetworkParams` plus what the data and the seed fix."""

    input_units: int
    seed: int = 0

    def validate(self) -> "NetworkConfig":
        if self.input_units < 1:
            raise ValidationError(f"input_units must be >= 1, got {self.input_units}")
        return super().validate()

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        """(rows, cols) of each weight matrix, input to output."""
        sizes = [self.input_units, *self.hidden_units, N_CLASSES]
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

    def validate(self) -> "Network":
        """Check the config and that every array is float64 with its layer's shape."""
        dims = self.config.validate().layer_dims
        for key in ("weights", "biases"):
            for i, array in enumerate(getattr(self, key)):
                if array.dtype != np.float64:
                    raise DataError(f"{key}[{i}] must be a float64 array, got {array.dtype}")
        shapes = [w.shape for w in self.weights] + [b.shape for b in self.biases]
        declared = dims + [(out_units,) for out_units, _ in dims]
        if shapes != declared:
            raise ShapeError(f"array shapes {shapes} do not match the config's {declared}")
        return self


@dataclass
class AdamState:
    """First/second moment accumulators, one array per parameter in
    ``weights + biases`` order, and the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_network(cls, net: Network) -> "AdamState":
        params = net.weights + net.biases
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def init_network(config: NetworkConfig) -> Network:
    """He-uniform weights (limit sqrt(6/fan_in)), zero biases, per-seed deterministic."""
    config.validate()
    rng = substream(config.seed, STREAM_INIT)
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


def sample_dropout_mask(config: NetworkConfig, rng: np.random.Generator,
                        n_rows: int) -> list[np.ndarray]:
    """Draw a fresh inverted-dropout mask for each hidden layer.

    Entries are 0 (dropped) or 1/(1-rate) (kept, rescaled), so a masked
    forward pass has the same expected activations as an unmasked one.
    Each mask is (n_rows, width) with independent rows, i.e. every
    sample in a batch gets its own mask.
    """
    rate = config.dropout_rate
    scale = 1.0 / (1.0 - rate)
    masks = []
    for width in config.hidden_units:
        shape = (n_rows, width)
        if rate == 0.0:
            masks.append(np.ones(shape))
        else:
            u = rng.random(shape)
            np.greater_equal(u, rate, out=u)  # 1.0 kept, 0.0 dropped
            u *= scale  # 1.0 * scale is exactly 1.0 / (1 - rate), and cheaper than dividing
            masks.append(u)
    return masks


def _hidden(net: Network, i: int, a: np.ndarray) -> np.ndarray:
    """ReLU output of hidden layer ``i`` for input activations ``a``, before its mask."""
    z = a @ net.weights[i].T
    z += net.biases[i]
    return np.maximum(z, 0.0, out=z)


def first_hidden(net: Network, x: np.ndarray) -> np.ndarray:
    """Layer 1's activation ``ReLU(x W1^T + b1)``, before its dropout mask,
    in the dtype of ``net``'s weights: ``x`` is cast to it.

    Dropout acts only after each hidden ReLU, so this is the same on every
    stochastic pass over ``x``: compute it once and hand it to
    :func:`forward` for each pass.
    """
    x = np.asarray(x, dtype=net.weights[0].dtype)
    if x.shape[-1] != net.config.input_units:
        raise ShapeError(
            f"input has {x.shape[-1]} features but the network expects {net.config.input_units}"
        )
    return _hidden(net, 0, x)


def forward(net: Network, x: np.ndarray, mask: list[np.ndarray] | None = None,
            hidden1: np.ndarray | None = None) -> np.ndarray:
    """Class probabilities for one input vector or an (n, d) batch.

    The layers run in the dtype of ``net``'s weights: float64 in training,
    float32 in prediction's MC passes. The logits are cast to float64 for
    the softmax, so the probabilities are float64 either way.
    ``hidden1`` is an optional precomputed ``first_hidden(net, x)``, left
    intact. The pass consumes its masks: each, drawn for ``x``'s rows in
    the layers' dtype (:func:`sample_dropout_mask` in training), is
    overwritten with its layer's masked activation (``mask * h``, bitwise
    ``h * mask``).
    """
    h = first_hidden(net, x) if hidden1 is None else hidden1
    for i in range(N_HIDDEN_LAYERS):
        if i > 0:
            h = _hidden(net, i, h)
        if mask is not None:
            h = np.multiply(mask[i], h, out=mask[i])
    return softmax(h @ net.weights[-1].T + net.biases[-1])


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean -log p(label) over (n, C) rows, each probability clamped to PROB_FLOOR."""
    labels = np.asarray(labels)
    bad = labels[(labels < 0) | (labels >= probs.shape[-1])]
    if bad.size:
        raise DataError(f"label {bad[0]} out of range for {probs.shape[-1]} classes")
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def _loss_and_grads(net, x, labels, masks):
    """Loss and ``(weight_grads, bias_grads)`` of one non-empty batch's mean
    cross-entropy; consumes ``masks`` as :func:`forward` does."""
    n = x.shape[0]
    scale = 1.0 / (1.0 - net.config.dropout_rate)
    probs = forward(net, x, masks)
    acts = [x, *masks]  # forward overwrote each mask with its masked activation
    loss = cross_entropy(probs, labels)

    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), labels] = 1.0
    delta = (probs - one_hot) / n  # d(mean CE)/d(logits)

    d_weights = [None] * len(net.weights)
    d_biases = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        d_weights[i] = delta.T @ acts[i]
        d_biases[i] = delta.sum(axis=0)
        if i > 0:  # masks hold only 0 and scale, so acts > 0 where kept and the ReLU fired:
            # bit for bit the gate (d_act * mask) * (ReLU > 0), each zero keeping d_act's sign
            delta = ((delta @ net.weights[i]) * scale) * (acts[i] > 0)
    return (d_weights, d_biases), loss


# adam_step updates each parameter in row blocks of about this many entries,
# so its two scratch arrays stay small and in cache instead of each as large
# as the largest weight matrix, which made paper-size steps 30-35% faster.
# The update is elementwise, so the blocks give the same bits as one pass.
_ADAM_BLOCK = 8192


def adam_step(net: Network, grads: tuple[list, list],
              state: AdamState) -> tuple[Network, AdamState]:
    """One bias-corrected Adam update from :func:`_loss_and_grads`'s
    ``(weight_grads, bias_grads)``, in place; returns the pair for chaining.
    Gradients that do not match the parameters one for one raise ShapeError
    before anything changes."""
    lr, b1, b2, eps = net.config.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    params, grads = net.weights + net.biases, [*grads[0], *grads[1]]
    got, want = [np.shape(g) for g in grads], [p.shape for p in params]
    if got != want:
        raise ShapeError(f"gradient shapes {got} do not match the parameters' {want}")
    state.t += 1
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t

    def update(p, g, m, v):
        # Rounds exactly as p -= lr * (m / c1) / (sqrt(v / c2) + eps),
        # with two scratch arrays per call.
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

    for p, g, m, v in zip(params, grads, state.m, state.v):
        rows = max(1, _ADAM_BLOCK // (p.size // len(p)))
        for r in range(0, len(p), rows):
            update(p[r : r + rows], g[r : r + rows], m[r : r + rows], v[r : r + rows])
    return net, state


def train(config: NetworkConfig, data) -> tuple[Network, list[float]]:
    """Train a fresh network on a FeatureTable; returns it with per-epoch mean loss.

    Runs epochs x ceil(n / batch_size) Adam steps over per-epoch shuffles,
    drawing a fresh per-sample dropout mask for every batch. Fully
    deterministic for a fixed ``config.seed``.
    """
    config.validate()
    x, labels = np.asarray(data.features, dtype=np.float64), data.labels
    n = x.shape[0]
    if n == 0:
        raise DataError("training data is empty")
    check_labels(labels, n)

    net = init_network(config)
    state = AdamState.for_network(net)
    rng = substream(config.seed, STREAM_TRAIN)

    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            masks = sample_dropout_mask(config, rng, n_rows=len(idx))  # ones at rate 0
            grads, loss = _loss_and_grads(net, x[idx], labels[idx], masks)
            adam_step(net, grads, state)
            del grads  # else they live on through the next batch's backward pass
            loss_sum += loss * len(idx)
        history.append(loss_sum / n)
        if not all(np.isfinite(w).all() for w in net.weights):
            raise NumericError("training diverged: non-finite weights")
    return net, history


def save_network(net: Network, path) -> None:
    """Write the self-describing JSON model file (bitwise round-trip safe)."""
    container.write_artifact(net, MODEL_FORMAT, path)


def load_network(path) -> Network:
    return container.read_artifact(path, MODEL_FORMAT, Network)
