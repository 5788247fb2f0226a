"""Training and evaluation: L1 objective, Adam, decayed LR, early stopping,
deterministic seeding, and the named-tensor checkpoint format.

Seeding scheme: parameter init draws from rng((seed, 0)), the dropout
stream from rng((seed, 1)), and epoch e's batch shuffle from
rng((seed, 1 + e)). Same seed and config therefore reproduce every draw.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import revin, tensor as T
from .config import ConfigError, RunConfig
from .data import DataError, open_output, split_ranges, window_iter
from .model import PRformer
from .tensor import Tensor


class DivergenceError(RuntimeError):
    """Loss or gradient left the reals; carries enough context to locate the
    step."""


class CheckpointError(DataError):
    pass


def mae_loss(y_hat, y):
    """Mean absolute error over every (horizon, channel[, batch]) element."""
    return T.mean(T.abs_(T.sub(y_hat, y)))


@dataclass
class Metrics:
    mse: float
    mae: float
    per_horizon: list  # (mse, mae) per step ahead


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


class Adam:
    """Standard Adam with bias correction; lr is mutable between epochs. The
    moments `m` and `v` are lists beside `named_params`, updated in place."""

    def __init__(self, named_params, lr):
        self.named_params = list(named_params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named_params]
        self.v = [np.zeros_like(p.data) for _, p in self.named_params]

    def step(self):
        self.t += 1
        for (_, p), m, v in zip(self.named_params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad.astype(p.data.dtype, copy=False)
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * (g * g)
            m_hat = m / (1 - BETA1 ** self.t)
            v_hat = v / (1 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None


def lr_for_epoch(base_lr, decay, epoch):
    """Flat for the first three epochs, then exponential decay (1-based)."""
    return base_lr * decay ** max(0, epoch - 3)


@dataclass
class TrainResult:
    model: PRformer
    history: list = field(default_factory=list)  # per-epoch dicts
    best_val_mae: float = float("inf")
    epochs_run: int = 0
    stopped_early: bool = False


def train_step(model, optimizer, inputs, targets, dropout_rng, epoch=1,
               batch=0):
    """One optimizer step on windows (B, L, C) -> targets (B, H, C).

    Training-mode forward, raw-scale L1 loss, backward, Adam, then RevIN's
    gamma clamp. Every gradient is cleared on return. A non-finite loss, or a
    non-finite gradient, raises DivergenceError naming `epoch` and `batch`
    (and the first parameter whose gradient is not finite) before any
    parameter changes. Returns the loss value.
    """
    loss = mae_loss(model.forward(Tensor(inputs), training=True,
                                  dropout_rng=dropout_rng), Tensor(targets))
    value = float(loss.data)
    if not np.isfinite(value):
        raise DivergenceError(f"non-finite loss {value} at epoch {epoch}, "
                              f"batch {batch}, lr {optimizer.lr:.3e}")
    T.backward(loss)
    name = next((n for n, p in optimizer.named_params
                 if p.grad is not None and not np.isfinite(p.grad).all()), None)
    if name is not None:
        optimizer.zero_grad()
        raise DivergenceError(f"non-finite gradient in {name} at epoch {epoch}, "
                              f"batch {batch}, lr {optimizer.lr:.3e}")
    optimizer.step()
    optimizer.zero_grad()
    revin.clamp_gamma(model.params.revin)
    return value


def train(config: RunConfig, table, progress=None) -> TrainResult:
    """Fit a model on `table` under `config`; returns the best-val model.

    Per epoch: shuffled train pass with Adam at the decayed LR, then an
    ordered validation pass on raw-scale MAE. Stops when validation fails to
    improve for `patience` epochs; the best-validation parameters are
    restored before returning. A non-finite validation MAE or MSE raises
    DivergenceError naming the epoch.
    """
    model = PRformer(config, table.n_channels)
    train_range, val_range, _ = split_ranges(table.length, config.split_scheme,
                                             config.lookback, config.pred_len)
    optimizer = Adam(model.named_parameters(), config.lr)
    dropout_rng = np.random.default_rng((config.seed, 1))
    result = TrainResult(model=model)

    for epoch in range(1, config.max_epochs + 1):
        started = time.monotonic()
        optimizer.lr = lr_for_epoch(config.lr, config.lr_decay, epoch)
        batches = window_iter(table.values, train_range, config.lookback,
                              config.pred_len, config.batch_size,
                              shuffle_seed=(config.seed, 1 + epoch))
        losses = [train_step(model, optimizer, b.inputs, b.targets, dropout_rng,
                             epoch, i) for i, b in enumerate(batches)]

        val = evaluate(model, table.values, val_range, config)
        if not np.isfinite([val.mae, val.mse]).all():
            raise DivergenceError(f"non-finite validation metric (mae {val.mae}, "
                                  f"mse {val.mse}) at epoch {epoch}")
        row = {"epoch": epoch, "lr": optimizer.lr,
               "train_mae": sum(losses) / len(losses),
               "val_mae": val.mae, "val_mse": val.mse,
               "seconds": time.monotonic() - started}
        result.history.append(row)
        result.epochs_run = epoch
        if progress is not None:
            progress(row)

        # epoch 1 always improves: its MAE is finite, the initial best is inf
        if val.mae < result.best_val_mae:
            result.best_val_mae = val.mae
            best = [p.data.copy() for _, p in model.named_parameters()]
            best_epoch = epoch
        elif epoch - best_epoch == config.patience:
            result.stopped_early = True
            break

    for (_, p), saved in zip(model.named_parameters(), best):
        p.data[:] = saved
    return result


def evaluate(model, values, row_range, config) -> Metrics:
    """Raw-scale MSE/MAE of the model over every window of `row_range`."""
    batches = predict_over_range(model, values, row_range, config)
    return score(((targets, pred) for _, targets, pred in batches),
                 config.pred_len)


def score(batches, horizon) -> Metrics:
    """MSE/MAE, overall and per step ahead, of (y_true, y_pred) batches
    shaped (b, H, C); the scoring of the model and of the baselines alike."""
    sq_sum = np.zeros(horizon)
    abs_sum = np.zeros(horizon)
    count = 0
    for targets, pred in batches:
        err = (pred - targets).astype(np.float64)
        sq_sum += (err ** 2).mean(axis=2).sum(axis=0)
        abs_sum += np.abs(err).mean(axis=2).sum(axis=0)
        count += len(targets)
    return Metrics(mse=float(sq_sum.sum() / (horizon * count)),
                   mae=float(abs_sum.sum() / (horizon * count)),
                   per_horizon=[(float(s / count), float(a / count))
                                for s, a in zip(sq_sum, abs_sum)])


def predict_over_range(model, values, row_range, config):
    """Yield (starts, y_true, y_pred) per ordered batch, for `evaluate` and the
    CSV writer. Only the forward runs without a graph, so the caller's code
    between batches records as usual."""
    for batch in window_iter(values, row_range, config.lookback,
                             config.pred_len, config.batch_size):
        with T.no_grad():
            pred = model.forward(Tensor(batch.inputs)).data
        yield batch.starts, batch.targets, pred


# ---------------------------------------------------------------------------
# checkpoint archive: 4-byte little-endian manifest length, JSON manifest,
# then each parameter's raw little-endian buffer in manifest order

CHECKPOINT_VERSION = 5


def _layout(model):
    """The manifest's `params`: each parameter's name, shape and dtype, in order."""
    return [{"name": name, "shape": list(p.data.shape), "dtype": p.data.dtype.name}
            for name, p in model.named_parameters()]


def save_checkpoint(path, model):
    manifest = {"format_version": CHECKPOINT_VERSION,
                "config": asdict(model.config),
                "channels": model.channels,
                "params": _layout(model)}
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open_output(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, p in model.named_parameters():
            fh.write(p.data.astype(p.data.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path):
    """Rebuild a model from an archive.

    Version, config and channels are checked before the model is built; then
    its parameter list must equal `_layout(model)`, the payload must be
    exactly the parameters' size, and every value must be finite.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e.strerror}") from None
    if len(raw) < 4:
        raise CheckpointError(f"{path}: truncated header")
    (length,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + length:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[4:4 + length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointError(f"{path}: manifest is not valid JSON") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version "
                              f"{manifest.get('format_version')!r}")
    if not isinstance(manifest.get("config"), dict):
        raise CheckpointError(f"{path}: manifest config is missing or not an object")
    channels = manifest.get("channels")
    if type(channels) is not int or channels < 1:
        raise CheckpointError(f"{path}: manifest channels must be a positive "
                              f"integer, got {channels!r}")
    if not isinstance(manifest.get("params"), list):
        raise CheckpointError(f"{path}: manifest params must be a list")
    try:
        model = PRformer(RunConfig.from_dict(manifest["config"]), channels)
    except ConfigError as e:
        raise CheckpointError(f"{path}: invalid embedded config: {e}") from None

    params, layout = manifest["params"], _layout(model)
    if params != layout:
        # slices keep a stored null apart from an entry one side lacks
        i = next(i for i in range(max(len(params), len(layout)))
                 if params[i:i + 1] != layout[i:i + 1])
        stored, expected = (json.dumps(side[i], sort_keys=True) if i < len(side)
                            else "(missing)" for side in (params, layout))
        raise CheckpointError(f"{path}: params entry {i} does not match the model: "
                              f"archive {stored}, model {expected}")
    offset = 4 + length
    size = sum(p.data.nbytes for _, p in model.named_parameters())
    if len(raw) - offset != size:
        raise CheckpointError(f"{path}: payload is {len(raw) - offset} bytes, "
                              f"the parameters take {size}")
    for name, p in model.named_parameters():
        p.data[:] = np.frombuffer(raw, p.data.dtype.newbyteorder("<"), p.data.size,
                                  offset).reshape(p.data.shape)
        if not np.isfinite(p.data).all():
            raise CheckpointError(f"{path}: non-finite value in parameter {name!r}")
        offset += p.data.nbytes
    return model


HISTORY_COLUMNS = ["epoch", "lr", "train_mae", "val_mae", "val_mse", "seconds"]
