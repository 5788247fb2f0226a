"""Run configuration: one dataclass, JSON in, JSON out.

The JSON file uses exactly these field names; CLI flags override file
values. `d_ff` left unset resolves to twice the model width.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .pre import build_pyramid_config, level_hidden_sizes

VARIANTS = ("full", "V1", "V2", "V3")
SPLIT_SCHEMES = ("6:2:2", "7:1:2")


class ConfigError(ValueError):
    pass


# JSON value kinds allowed by each annotation name in RunConfig
_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str,
          "tuple": tuple, "None": type(None)}


def read_config_file(path):
    """The JSON object held in config file `path`, as a dict."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


@dataclass
class RunConfig:
    lookback: int
    pred_len: int
    pyramidal_windows: tuple = (24,)
    e_layers: int = 1
    d_model: int = 128
    d_ff: int | None = None
    heads: int = 8
    conv_channels: int = 16
    dropout: float = 0.1
    batch_size: int = 32
    lr: float = 1e-3
    temperature: float = 1.0
    seed: int = 0
    variant: str = "full"
    dataset: str | None = None
    split_scheme: str = "6:2:2"
    strict_split: bool = False
    max_epochs: int = 30
    patience: int = 10
    lr_decay: float = 0.9
    normalized_loss: bool = False
    grad_clip: float | None = None

    def __post_init__(self):
        if isinstance(self.pyramidal_windows, list):
            self.pyramidal_windows = tuple(self.pyramidal_windows)
        if self.d_ff is None and isinstance(self.d_model, int):
            self.d_ff = 2 * self.d_model

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = f.type.split(" | ")
            if (not isinstance(value, tuple(_KINDS[k] for k in kinds))
                    or isinstance(value, bool) and "bool" not in kinds
                    or isinstance(value, float) and not math.isfinite(value)):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not all(type(w) is int for w in self.pyramidal_windows):
            raise ConfigError(f"pyramidal_windows must hold integers, got "
                              f"{list(self.pyramidal_windows)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        positive = {"lookback": self.lookback, "pred_len": self.pred_len,
                    "e_layers": self.e_layers, "d_model": self.d_model,
                    "d_ff": self.d_ff, "heads": self.heads,
                    "conv_channels": self.conv_channels,
                    "batch_size": self.batch_size, "max_epochs": self.max_epochs,
                    "patience": self.patience}
        for name, value in positive.items():
            if value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be positive, got {self.grad_clip}")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"heads ({self.heads}) must divide d_model ({self.d_model})")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        if self.split_scheme not in SPLIT_SCHEMES:
            raise ConfigError(
                f"unknown split scheme {self.split_scheme!r}; one of {SPLIT_SCHEMES}")
        if self.variant != "V2":
            windows = self.pyramidal_windows
            if self.variant == "V3":
                windows = windows[:1]
            try:
                cfg = build_pyramid_config(windows, self.lookback)
                level_hidden_sizes(self.d_model, cfg.levels)
            except ValueError as e:
                raise ConfigError(str(e)) from None
        return self

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["pyramidal_windows"] = list(self.pyramidal_windows)
        return d

    @classmethod
    def field_names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - set(cls.field_names())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"lookback", "pred_len"} - set(data)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        return cls.from_dict(read_config_file(path))

    def to_file(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
