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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class EncoderModel:
    """An MLP encoder: dims[0] -> ... -> dims[-1], relu between layers."""

    dims: list[int]
    weights: list[Tensor]
    biases: list[Tensor]
    frozen: bool = False

    @property
    def embed_dim(self) -> int:
        return self.dims[-1]

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

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
            h = h @ w.data + b.data[None, :]
            if i != last:
                h = np.maximum(h, 0.0)
        return h, acts

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """The embedding alone, for feature extraction and metrics."""
        return self.forward(x)[0]

    def freeze(self) -> None:
        self.frozen = True
        for p in self.parameters():
            p.grad = None

    def copy(self, trainable: bool = True) -> "EncoderModel":
        """Independent deep copy; by default the copy is trainable."""
        ws = [Tensor(w.data.copy()) for w in self.weights]
        bs = [Tensor(b.data.copy()) for b in self.biases]
        return EncoderModel(list(self.dims), ws, bs, frozen=not trainable)

    def param_bytes(self) -> bytes:
        """Raw little-endian parameter bytes, for freeze-contract checks."""
        return b"".join(p.data.astype("<f8").tobytes() for p in self.parameters())


def init_encoder(dims: list[int], seed: int, trainable: bool = True) -> EncoderModel:
    """Build an MLP with Xavier-uniform weights and zero biases."""
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ConfigError(f"encoder dims must be >=2 positive ints, got {dims}")
    rng = rng_for(seed, "encoder-init")
    ws, bs = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        ws.append(Tensor(xavier_uniform(rng, fan_in, fan_out)))
        bs.append(Tensor(np.zeros(fan_out)))
    return EncoderModel(list(dims), ws, bs, frozen=not trainable)


def init_head(embed_dim: int, n_classes: int) -> EncoderModel:
    """A one-layer model from embeddings to class logits. Heads start at
    zero: at the small head learning rates the learned update direction, not
    a random init, must decide the argmax."""
    return EncoderModel([embed_dim, n_classes],
                        [Tensor(np.zeros((embed_dim, n_classes)))],
                        [Tensor(np.zeros(n_classes))])


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


def make_optimizer(params: list[Tensor], lr: float, momentum: float,
                   weight_decay: float) -> OptimizerState:
    return OptimizerState(
        lr=lr, momentum=momentum, weight_decay=weight_decay,
        velocities=[np.zeros_like(p.data) for p in params])


def sgd_step(params: list[Tensor], state: OptimizerState,
             lr: float | None = None) -> None:
    """v <- momentum*v + (g + wd*p); p <- p - lr*v. Each gradient is used
    once: it is cleared after the step."""
    if len(state.velocities) != len(params):
        raise UsageError("optimizer state does not match the parameter list")
    if lr is not None:
        state.lr = float(lr)
    for p, v in zip(params, state.velocities):
        if p.grad is None:
            raise UsageError("sgd_step: a trainable parameter has no gradient")
        v *= state.momentum
        v += p.grad + state.weight_decay * p.data
        p.data -= state.lr * v
        p.grad = None


def cosine_lr(t: int, total: int, base: float) -> float:
    """base * 0.5 * (1 + cos(pi * t / total)) for 0 <= t <= total."""
    if total < 1:
        raise DomainError(f"cosine_lr: total steps must be >= 1, got {total}")
    if t < 0 or t > total:
        raise DomainError(f"cosine_lr: step {t} outside [0, {total}]")
    return base * 0.5 * (1.0 + math.cos(math.pi * t / total))


# ---------------------------------------------------------------------------
# supervised training loop (vision teacher, probes, baselines)
# ---------------------------------------------------------------------------

@dataclass
class ClassifierRun:
    """Per-epoch train losses and test losses of one supervised run."""

    train_loss: list[float]
    test_loss: list[float]


def train_classifier(encoder: EncoderModel | None, head: EncoderModel,
                     inputs: np.ndarray, labels: np.ndarray, *,
                     epochs: int, lr: float, momentum: float,
                     weight_decay: float, batch_size: int, seed: int,
                     train_encoder: bool,
                     test_inputs: np.ndarray | None = None,
                     test_labels: np.ndarray | None = None) -> ClassifierRun:
    """Minibatch SGD on softmax cross-entropy.

    ``encoder=None`` treats the inputs as ready-made features and trains the
    head alone (linear probing). The per-epoch test loss, when test data is
    given, is never backpropagated, so no gradients ever touch the test
    split.
    """
    if encoder is None and train_encoder:
        raise UsageError("train_encoder=True needs an encoder")
    if train_encoder and encoder.frozen:
        raise ContractError("cannot train a frozen encoder")
    params = head.parameters() + (encoder.parameters() if train_encoder else [])
    opt = make_optimizer(params, lr, momentum, weight_decay)
    order_rng = rng_for(seed, "classifier-order")
    n = len(labels)
    run = ClassifierRun(train_loss=[], test_loss=[])

    def embed(x: np.ndarray) -> np.ndarray:
        return x if encoder is None else encoder.forward_numpy(x)

    for epoch in range(epochs):
        order = order_rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            if train_encoder:
                feats, encoder_acts = encoder.forward(inputs[sel])
            else:
                feats = embed(inputs[sel])
            logits, head_acts = head.forward(feats)
            value, g = cross_entropy(logits, labels[sel])
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}, sample {start}")
            g = ad.backward(head, head_acts, g, input_grad=train_encoder)
            if train_encoder:
                ad.backward(encoder, encoder_acts, g)
            sgd_step(params, opt)
            total += value * len(sel)
        run.train_loss.append(total / n)
        if test_inputs is not None and test_labels is not None:
            test_logits = head.forward_numpy(embed(test_inputs))
            run.test_loss.append(cross_entropy(test_logits, test_labels)[0])
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
    hold, fit = order[:n_hold], order[n_hold:]
    if len(fit) == 0:
        raise ConfigError(f"the vision holdout takes all {n} samples of the "
                          f"vision split; none are left to fit")

    head = init_head(embed_dim, n_classes)
    run = train_classifier(
        model, head, images[fit], labels[fit],
        epochs=epochs, lr=lr, momentum=momentum, weight_decay=weight_decay,
        batch_size=batch_size, seed=derive_seed(seed, "vision-train"),
        train_encoder=True)

    logits = head.forward_numpy(model.forward_numpy(images[hold]))
    acc = float((logits.argmax(axis=1) == labels[hold]).mean())
    model.freeze()
    return VisionPretrainOutcome(model=model, holdout_accuracy=acc,
                                 train_loss=run.train_loss)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _pack_array(a: np.ndarray) -> bytes:
    return a.astype("<f8").tobytes()


def save_checkpoint_bytes(model: EncoderModel) -> bytes:
    """Serialize a model to bytes.

    Layout: magic, version u16, frozen u8, layer count u16, dims u32 each,
    then per-layer weight and bias as little-endian f64. Round-trips
    bit-exactly.
    """
    n_layers = len(model.weights)
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<HBH", CHECKPOINT_VERSION, int(model.frozen), n_layers)]
    parts.append(struct.pack(f"<{len(model.dims)}I", *model.dims))
    for w, b in zip(model.weights, model.biases):
        parts.append(_pack_array(w.data))
        parts.append(_pack_array(b.data))
    return b"".join(parts)


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

    def read_array(shape: tuple[int, ...]) -> np.ndarray:
        count = math.prod(shape)
        return np.frombuffer(take(8 * count), dtype="<f8").reshape(shape).copy()

    ws, bs = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        ws.append(Tensor(read_array((fan_in, fan_out))))
        bs.append(Tensor(read_array((fan_out,))))
    if off != len(blob):
        raise FormatError("checkpoint has trailing bytes")
    return EncoderModel(dims, ws, bs, frozen=bool(frozen))


def save_checkpoint(path, model: EncoderModel) -> None:
    from .runio import atomic_write_bytes
    atomic_write_bytes(path, save_checkpoint_bytes(model))


def load_checkpoint(path) -> EncoderModel:
    with open(path, "rb") as f:
        return load_checkpoint_bytes(f.read())
