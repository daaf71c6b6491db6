"""Encoders, classifier heads, the SGD optimizer, and checkpoint IO.

Both branches are plain MLPs (affine layers with relu between, none after
the last), and a classifier head is a one-layer MLP. The vision branch is
trained supervised on its own data slice and then frozen; it only ever
serves as a fixed key encoder afterwards.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import autodiff as ad
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    UsageError,
)
from .seeding import derive_seed, rng_for

CHECKPOINT_MAGIC = b"XMCK"
CHECKPOINT_VERSION = 2
SGD_BLOCK = 1 << 15  # elements per sgd_step pass: whole-vector temporaries cost 2 MB of RSS


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _n_params(dims: list[int]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _views(dims: list[int], vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The per-layer weights and biases of an MLP as views into one flat
    vector, laid out as the checkpoint body: each layer's (fan_in, fan_out)
    weight, then its bias."""
    if vec.shape != (_n_params(dims),):
        raise DimensionError(f"dims {dims} take {_n_params(dims)} parameters, got {vec.shape}")
    ws, bs, off = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = off + fan_in * fan_out
        ws.append(vec[off:end].reshape(fan_in, fan_out))
        bs.append(vec[end:end + fan_out])
        off = end + fan_out
    return ws, bs


@dataclass(eq=False)
class EncoderModel:
    """An MLP encoder: dims[0] -> ... -> dims[-1], relu between layers. Its
    parameters are one float64 vector ``data``, with ``weights`` and
    ``biases`` as views; ``grad``, laid out alike, is what
    ``autodiff.backward`` assigns and ``sgd_step`` uses once."""

    dims: list[int]
    data: np.ndarray
    frozen: bool = False
    grad: np.ndarray | None = field(default=None, init=False, repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = _views(self.dims, self.data)

    @property
    def embed_dim(self) -> int:
        return self.dims[-1]

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Embed a (B, input_dim) batch. Also returns each layer's input,
        which ``autodiff.backward`` needs."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.input_dim:
            raise DimensionError(
                f"encoder expects (B, {self.input_dim}), got {h.shape}")
        acts = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            acts.append(h)
            h = h @ w + b[None, :]
            if i != last:
                h = np.maximum(h, 0.0)
        return h, acts

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """The embedding alone, for feature extraction and metrics."""
        return self.forward(x)[0]

    def freeze(self) -> None:
        self.frozen = True
        self.grad = None

    def copy(self, trainable: bool = True) -> "EncoderModel":
        """Independent deep copy; by default the copy is trainable."""
        return EncoderModel(list(self.dims), self.data.copy(), frozen=not trainable)

    def param_bytes(self) -> bytes:
        """Raw little-endian parameter bytes, for freeze-contract checks."""
        return self.data.astype("<f8").tobytes()


def init_encoder(dims: list[int], seed: int, trainable: bool = True) -> EncoderModel:
    """Build an MLP with Xavier-uniform weights and zero biases."""
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ConfigError(f"encoder dims must be >=2 positive ints, got {dims}")
    rng = rng_for(seed, "encoder-init")
    model = EncoderModel(list(dims), np.zeros(_n_params(dims)), frozen=not trainable)
    for w in model.weights:
        w[:] = xavier_uniform(rng, *w.shape)
    return model


def init_head(embed_dim: int, n_classes: int) -> EncoderModel:
    """A one-layer model from embeddings to class logits. Heads start at
    zero: at the small head learning rates the learned update direction, not
    a random init, must decide the argmax."""
    dims = [embed_dim, n_classes]
    return EncoderModel(dims, np.zeros(_n_params(dims)))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of (B, C) logits against integer labels,
    and its gradient (softmax - one-hot(labels)) / B."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise DimensionError(f"cross_entropy: logits {logits.shape} vs labels {labels.shape}")
    rows = np.arange(len(labels))
    lse, d = ad.logsumexp_row(logits)
    c = 1.0 / len(rows)
    d *= c
    d[rows, labels] -= c
    return float((lse - logits[rows, labels]).mean()), d


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """SGD with momentum and decoupled-from-nothing classic weight decay."""

    lr: float
    momentum: float
    weight_decay: float
    velocities: list[np.ndarray] = field(default_factory=list)


def make_optimizer(params: list[EncoderModel], lr: float, momentum: float,
                   weight_decay: float) -> OptimizerState:
    return OptimizerState(
        lr=lr, momentum=momentum, weight_decay=weight_decay,
        velocities=[np.zeros_like(p.data) for p in params])


def sgd_step(params: list[EncoderModel], state: OptimizerState,
             lr: float | None = None) -> None:
    """v <- momentum*v + (g + wd*p); p <- p - lr*v on each model's parameter
    vector, ``SGD_BLOCK`` elements at a time. Each gradient is used once: it
    is cleared after the step."""
    if len(state.velocities) != len(params):
        raise UsageError("optimizer state does not match the parameter list")
    if lr is not None:
        state.lr = float(lr)
    for p, v in zip(params, state.velocities):
        if p.grad is None:
            raise UsageError("sgd_step: a trainable model has no gradient")
        for start in range(0, v.size, SGD_BLOCK):
            b = slice(start, start + SGD_BLOCK)
            v[b] *= state.momentum
            v[b] += p.grad[b] + state.weight_decay * p.data[b]
            p.data[b] -= state.lr * v[b]
        p.grad = None


def cosine_lr(t: int, total: int, base: float) -> float:
    """base * 0.5 * (1 + cos(pi * t / total)) for 0 <= t <= total."""
    if total < 1:
        raise DomainError(f"cosine_lr: total steps must be >= 1, got {total}")
    if t < 0 or t > total:
        raise DomainError(f"cosine_lr: step {t} outside [0, {total}]")
    return base * 0.5 * (1.0 + math.cos(math.pi * t / total))


# ---------------------------------------------------------------------------
# the training loop and its supervised use (vision teacher, probes, baselines)
# ---------------------------------------------------------------------------

def fit(chain: list[EncoderModel], inputs: np.ndarray,
        loss: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]], *,
        epochs: int, batch_size: int, lr: float, momentum: float,
        weight_decay: float, order_rng: np.random.Generator, cosine: bool,
        first_order: np.ndarray | None = None
        ) -> Iterator[tuple[int, float, float]]:
    """Minibatch SGD through a chain of models, the first fed ``inputs``;
    yields ``(epoch, lr, mean loss)`` after each epoch.

    ``loss(out, sel)`` gets the chain's output for the samples ``sel`` and
    returns the mean loss and its gradient with respect to ``out``. Each
    epoch visits the samples in a fresh ``order_rng`` permutation, except
    that epoch 0 uses ``first_order`` when it is given. The lr is constant,
    or follows :func:`cosine_lr` over the epochs when ``cosine``.
    """
    if any(model.frozen for model in chain):
        raise ContractError("cannot train a frozen model")
    opt = make_optimizer(chain, lr, momentum, weight_decay)
    n = len(inputs)
    for epoch in range(epochs):
        order = (first_order if epoch == 0 and first_order is not None
                 else order_rng.permutation(n))
        epoch_lr = cosine_lr(epoch, epochs, lr) if cosine else lr
        total = 0.0
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            h, acts = inputs[sel], []
            for model in chain:
                h, a = model.forward(h)
                acts.append(a)
            value, g = loss(h, sel)
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}, sample {start}")
            for i in reversed(range(len(chain))):
                g = ad.backward(chain[i], acts[i], g, input_grad=i > 0)
            sgd_step(chain, opt, lr=epoch_lr)
            total += value * len(sel)
        yield epoch, epoch_lr, total / n


@dataclass
class ClassifierRun:
    """Per-epoch train losses and test losses of one supervised run."""

    train_loss: list[float]
    test_loss: list[float]


def train_classifier(encoder: EncoderModel | None, head: EncoderModel,
                     inputs: np.ndarray, labels: np.ndarray, *,
                     epochs: int, lr: float, momentum: float,
                     weight_decay: float, batch_size: int, seed: int,
                     test_inputs: np.ndarray | None = None,
                     test_labels: np.ndarray | None = None) -> ClassifierRun:
    """Minibatch SGD on softmax cross-entropy, training the encoder and the
    head together.

    ``encoder=None`` treats the inputs as ready-made features and trains the
    head alone (linear probing). The per-epoch test loss, when test data is
    given, is never backpropagated, so no gradients ever touch the test
    split.
    """
    chain = [head] if encoder is None else [encoder, head]
    run = ClassifierRun(train_loss=[], test_loss=[])
    epochs_run = fit(chain, inputs, lambda logits, sel: cross_entropy(logits, labels[sel]),
                     epochs=epochs, batch_size=batch_size, lr=lr, momentum=momentum,
                     weight_decay=weight_decay,
                     order_rng=rng_for(seed, "classifier-order"), cosine=False)
    for _, _, train_loss in epochs_run:
        run.train_loss.append(train_loss)
        if test_inputs is not None and test_labels is not None:
            h = test_inputs
            for model in chain:
                h = model.forward_numpy(h)
            run.test_loss.append(cross_entropy(h, test_labels)[0])
    return run


@dataclass
class VisionPretrainOutcome:
    """A frozen vision encoder plus the accuracy gate on its own holdout."""

    model: EncoderModel
    holdout_accuracy: float
    train_loss: list[float]


def pretrain_vision(images: np.ndarray, labels: np.ndarray, *,
                    hidden: list[int], embed_dim: int, n_classes: int,
                    epochs: int, lr: float, momentum: float,
                    weight_decay: float, batch_size: int,
                    holdout_fraction: float, seed: int,
                    mode: str = "supervised") -> VisionPretrainOutcome:
    """Train the vision teacher on image->class, then freeze it.

    ``mode="random-frozen"`` skips training and freezes the fresh init, as a
    no-signal ablation teacher. The holdout is carved from the given slice
    itself; downstream splits never see these samples.
    """
    dims = [images.shape[1], *hidden, embed_dim]
    model = init_encoder(dims, derive_seed(seed, "vision-encoder"))
    if mode == "random-frozen":
        model.freeze()
        return VisionPretrainOutcome(model=model, holdout_accuracy=0.0, train_loss=[])
    if mode != "supervised":
        raise ConfigError(f"unknown vision pretrain mode: {mode!r}")

    n = len(labels)
    if n == 0:
        raise ConfigError("the vision split is empty; there is nothing to train "
                          "the teacher on")
    n_hold = max(1, int(round(holdout_fraction * n)))
    order = rng_for(seed, "vision-holdout").permutation(n)
    hold, train = order[:n_hold], order[n_hold:]
    if len(train) == 0:
        raise ConfigError(f"the vision holdout takes all {n} samples of the "
                          f"vision split; none are left to fit")

    head = init_head(embed_dim, n_classes)
    run = train_classifier(
        model, head, images[train], labels[train],
        epochs=epochs, lr=lr, momentum=momentum, weight_decay=weight_decay,
        batch_size=batch_size, seed=derive_seed(seed, "vision-train"))

    logits = head.forward_numpy(model.forward_numpy(images[hold]))
    acc = float((logits.argmax(axis=1) == labels[hold]).mean())
    model.freeze()
    return VisionPretrainOutcome(model=model, holdout_accuracy=acc,
                                 train_loss=run.train_loss)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint_bytes(model: EncoderModel) -> bytes:
    """Serialize a model to bytes.

    Layout: magic, version u16, frozen u8, layer count u16, dims u32 each,
    then the parameter vector (per layer, weight then bias) as little-endian
    f64. Round-trips bit-exactly.
    """
    return b"".join([CHECKPOINT_MAGIC,
                     struct.pack("<HBH", CHECKPOINT_VERSION, int(model.frozen),
                                 len(model.weights)),
                     struct.pack(f"<{len(model.dims)}I", *model.dims),
                     model.data.astype("<f8").tobytes()])


def load_checkpoint_bytes(blob: bytes) -> EncoderModel:
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise FormatError("checkpoint truncated")
        out = blob[off:off + n]
        off += n
        return out

    if take(4) != CHECKPOINT_MAGIC:
        raise FormatError("not a checkpoint file (bad magic)")
    version, frozen, n_layers = struct.unpack("<HBH", take(5))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if frozen > 1 or n_layers < 1:
        raise FormatError(f"bad checkpoint header (frozen {frozen}, {n_layers} layers)")
    dims = list(struct.unpack(f"<{n_layers + 1}I", take(4 * (n_layers + 1))))
    if min(dims) < 1:
        raise FormatError(f"checkpoint layer dims must be positive, got {dims}")
    count, body = _n_params(dims), len(blob) - off
    if body != 8 * count:
        raise FormatError("checkpoint truncated" if body < 8 * count
                          else "checkpoint has trailing bytes")
    # read straight from the blob: slicing the body out first would copy it
    data = np.frombuffer(blob, "<f8", count, off).astype(np.float64)
    return EncoderModel(dims, data, frozen=bool(frozen))


def save_checkpoint(path, model: EncoderModel) -> None:
    from .runio import atomic_write_bytes
    atomic_write_bytes(path, save_checkpoint_bytes(model))


def load_checkpoint(path) -> EncoderModel:
    with open(path, "rb") as f:
        return load_checkpoint_bytes(f.read())
