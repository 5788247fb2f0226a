"""Shared test helpers: walking and perturbing parameter trees, the
single-batch overfit harness, and small synthetic series with known
structure."""

import dataclasses

import numpy as np
import pytest

from oracles import grad_check
from prformer import nn
from prformer.data import SeriesTable
from prformer.model import PRformer
from prformer.synthetic import _hourly_timestamps
from prformer.tensor import Tensor
from prformer.training import Adam, train_step


def cast_tree(obj, dtype=np.float64):
    """Deep-copy a parameter tree with every Tensor cast to `dtype`."""
    if isinstance(obj, Tensor):
        return Tensor(obj.data.astype(dtype), requires_grad=obj.requires_grad)
    if dataclasses.is_dataclass(obj):
        return type(obj)(**{f.name: cast_tree(getattr(obj, f.name), dtype)
                            for f in dataclasses.fields(obj)})
    if isinstance(obj, list):
        return [cast_tree(v, dtype) for v in obj]
    if isinstance(obj, tuple):
        return tuple(cast_tree(v, dtype) for v in obj)
    return obj


@pytest.fixture
def softmax_outputs(monkeypatch):
    """Every output of `nn.softmax` during the test, in call order: the
    attention probabilities, which `nn.multi_head_attention` does not return."""
    outputs = []
    softmax = nn.softmax

    def recording(x):
        outputs.append(softmax(x))
        return outputs[-1]

    monkeypatch.setattr(nn, "softmax", recording)
    return outputs


def set_by_path(tree, path, value):
    """Replace the leaf at dotted `path` (as produced by nn.iter_params)."""
    parts = path.split(".")
    node = tree
    for part in parts[:-1]:
        if isinstance(node, (list, tuple)):
            node = node[int(part)]
        else:
            node = getattr(node, part)
    last = parts[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        setattr(node, last, value)


def grad_check_all_params(make_loss, params, eps=1e-5):
    """Finite-difference check every coordinate of every parameter leaf, in float64.

    `make_loss(tree)` must return a scalar Tensor. Returns the worst
    (name, relative error) pair.
    """
    worst = ("", 0.0)
    for name, leaf in nn.iter_params(params):
        tree = cast_tree(params)

        def f(t, name=name, tree=tree):
            set_by_path(tree, name, t)
            return make_loss(tree)

        err = grad_check(f, Tensor(leaf.data.astype(np.float64)), eps=eps)
        if err > worst[1]:
            worst = (name, err)
    return worst


def single_batch_overfit(config, inputs, targets, steps=500):
    """Drive one fixed batch to near-zero MAE; returns the loss trace.

    Each step is one epoch of that single batch.
    """
    model = PRformer(config, inputs.shape[2])
    optimizer = Adam(model.named_parameters(), config.lr)
    dropout_rng = np.random.default_rng((config.seed, 1))
    losses = []
    for step in range(steps):
        losses.append(train_step(model, optimizer, inputs, targets, dropout_rng,
                                 epoch=step + 1))
    return losses


def periodic_table(n=960, period=24, channels=2, amplitude=1.0):
    """Bitwise-periodic sinusoids: one period sampled once, then tiled.

    Tiling makes values at t and t + period identical to the last bit, so a
    seasonal persistence forecast is exact.
    """
    one = amplitude * np.sin(2 * np.pi * np.arange(period) / period)
    reps = -(-n // period)  # ceil
    base = np.tile(one, reps)[:n]
    cols = [np.roll(base, c * 3) for c in range(channels)]
    values = np.stack(cols, axis=1).astype(np.float32)
    return SeriesTable(timestamps=_hourly_timestamps(n),
                       channels=[f"s{c}" for c in range(channels)],
                       values=values)


def sine_pair_table(n=400, seed=0):
    """Two clean incommensurate sinusoids; easy to overfit, no noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    phase = rng.uniform(0, 2 * np.pi, size=2)
    values = np.stack([np.sin(2 * np.pi * t / 24.0 + phase[0]),
                       0.7 * np.sin(2 * np.pi * t / 36.0 + phase[1])],
                      axis=1).astype(np.float32)
    return SeriesTable(timestamps=_hourly_timestamps(n),
                       channels=["a", "b"], values=values)
