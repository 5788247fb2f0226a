"""Run configuration: one dataclass, JSON in, JSON out.

The JSON file uses exactly these field names; CLI flags override file
values. `d_ff` left unset resolves to twice the model width. Each field's
metadata holds extra keyword arguments for its command-line flag; `choices`
there is also the set of values it accepts when a RunConfig is built. The
pyramid a config builds, per-level kernels and GRU widths, is derived here.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field

from .data import SPLIT_SCHEMES, read_input


class ConfigError(ValueError):
    pass


class PyramidConfigWarning(UserWarning):
    """A level's kernel degenerates to 1 (no temporal downsampling)."""


def pyramid_kernels(windows, lookback):
    """Per-level conv kernels (== strides) derived from period windows.

    Each kernel is the floor ratio of consecutive windows (the base window is
    1 sample). The kernels up to level i multiply to at most w_i, and a floor
    of a floor is the floor of the product, so level i keeps at least
    floor(L / w_top) >= 1 steps once the lookback covers the top window.
    """
    if not windows:
        raise ConfigError("windows must be nonempty")
    if any(w <= 0 for w in windows):
        raise ConfigError(f"windows must be positive, got {list(windows)}")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ConfigError(f"windows must be strictly ascending, got {list(windows)}")
    if lookback < windows[-1]:
        raise ConfigError(
            f"lookback {lookback} shorter than top window {windows[-1]}")

    kernels = tuple(w // prev for prev, w in zip((1, *windows), windows))
    degenerate = [windows[i] for i, k in enumerate(kernels) if k == 1]
    if degenerate:
        warnings.warn(
            f"windows {degenerate} give kernel 1 (no downsampling at that level)",
            PyramidConfigWarning, stacklevel=2)
    return kernels


def level_hidden_sizes(d_model, levels):
    """Split D across per-level GRUs; the last level absorbs any remainder."""
    if d_model < levels:
        raise ConfigError(f"d_model {d_model} smaller than level count {levels}")
    base = d_model // levels
    sizes = [base] * levels
    sizes[-1] = d_model - base * (levels - 1)
    return sizes


# JSON value kinds allowed by each annotation name in RunConfig
_KINDS = {"int": int, "float": (int, float), "str": str, "tuple": tuple,
          "None": type(None)}


def read_config_file(path):
    """The JSON object held in config file `path`, as a dict."""
    try:
        data = json.loads(read_input(path, "config file", ConfigError).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


@dataclass
class RunConfig:
    lookback: int
    pred_len: int
    pyramidal_windows: tuple = field(default=(24,), metadata={"metavar": "W"})
    e_layers: int = 1
    d_model: int = 128
    d_ff: int | None = None
    heads: int = 8
    conv_channels: int = 16
    dropout: float = 0.1
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    variant: str = field(default="full",
                         metadata={"choices": ("full", "V1", "V2", "V3")})
    dataset: str | None = field(default=None,
                                metadata={"help": "benchmark-format CSV path"})
    split_scheme: str = field(default="6:2:2",
                              metadata={"choices": tuple(SPLIT_SCHEMES)})
    max_epochs: int = 30
    patience: int = 10
    lr_decay: float = 0.9

    def __post_init__(self):
        if isinstance(self.pyramidal_windows, list):
            self.pyramidal_windows = tuple(self.pyramidal_windows)
        if self.d_ff is None and isinstance(self.d_model, int):
            self.d_ff = 2 * self.d_model
        # every rule of the run is checked once, here, however the config is
        # built (directly, `from_dict`, `dataclasses.replace`): the layers
        # below trust a built config and do not re-check it
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = f.type.split(" | ")
            if (not isinstance(value, tuple(_KINDS[k] for k in kinds))
                    or isinstance(value, bool)  # no field takes true/false
                    or isinstance(value, float) and not math.isfinite(value)):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ConfigError(f"unknown {f.name.replace('_', ' ')} {value!r}; "
                                  f"one of {choices}")
        if not all(type(w) is int for w in self.pyramidal_windows):
            raise ConfigError(f"pyramidal_windows must hold integers, got "
                              f"{list(self.pyramidal_windows)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for f in dataclasses.fields(self):  # every count but the seed
            value = getattr(self, f.name)
            if f.type in ("int", "int | None") and f.name != "seed" and value < 1:
                raise ConfigError(f"{f.name} must be a positive integer, got {value!r}")
        if self.lookback < 2:  # RevIN needs two steps to measure a spread
            raise ConfigError(f"lookback must be at least 2, got {self.lookback}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"heads ({self.heads}) must divide d_model ({self.d_model})")
        self.pyramid()

    def pyramid(self):
        """(per-level conv kernels, per-level GRU widths) of the variant's
        embedding, or None for V2, which has no pyramid.

        V3 keeps only the bottom level, at the full model's per-level width,
        so the ablation stays a strict submodel. Raises ConfigError when the
        windows do not fit the lookback or D cannot be split across them.
        """
        if self.variant == "V2":
            return None
        levels = len(self.pyramidal_windows)
        keep = 1 if self.variant == "V3" else levels
        kernels = pyramid_kernels(self.pyramidal_windows[:keep], self.lookback)
        return kernels, level_hidden_sizes(self.d_model, levels)[:keep]

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"lookback", "pred_len"} - set(data)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        return cls(**data)
