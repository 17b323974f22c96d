"""Experiment configuration: flat JSON keys, validation, stable digest."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METHODS = ("dense", "fastglt", "imp", "random", "oneshot")
PRECISIONS = {"f32": "float32", "f64": "float64"}


@dataclass
class ExperimentConfig:
    """One method arm, as every ``run_*`` arm reads it. ``epochs`` is the
    mask co-training budget, and ``denoise_epochs`` the denoising budget;
    their sum is the full training budget used for the dense arm,
    verification retrains, and (by default) each iterative-pruning round."""

    dataset: str = "sbm:blocks=3,nodes_per_block=50,p_in=0.25,p_out=0.05,feature_dim=12,seed=0"
    method: str = "fastglt"
    s_g: float = 0.0
    s_theta: float = 0.0
    epochs: int = 30
    denoise_epochs: int = 400
    interval: int = 10
    tau: float = 0.1
    kappa: float = 1.0
    alpha: float = 0.01
    beta: float = 1.2
    lr: float = 0.001
    hidden: int = 512
    seed: int = 0
    precision: str = "f32"
    retrain_epochs: int | None = None
    imp_p_g: float = 0.05
    imp_p_theta: float = 0.2
    imp_epochs_per_round: int | None = None

    @property
    def dtype(self):
        return np.dtype(PRECISIONS[self.precision])

    @property
    def budget(self) -> int:
        """Full training budget: one-shot plus denoising epochs."""
        return self.epochs + self.denoise_epochs

    @property
    def retrain_budget(self) -> int:
        return self.retrain_epochs if self.retrain_epochs is not None \
            else self.budget

    @property
    def round_budget(self) -> int:
        """Training epochs of one iterative-pruning round."""
        return self.imp_epochs_per_round \
            if self.imp_epochs_per_round is not None else self.budget

    def validate(self) -> "ExperimentConfig":
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, "
                             f"got {self.method!r}")
        for name in ("s_g", "s_theta"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name}={v} outside [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.method == "fastglt":
            if self.denoise_epochs < 1:
                raise ValueError("denoise_epochs must be >= 1 for fastglt")
            if self.interval < 1:
                raise ValueError("interval must be >= 1")
        if self.denoise_epochs < 0:
            raise ValueError("denoise_epochs must be >= 0")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.kappa <= 0 or self.alpha <= 0 or self.beta <= 0:
            raise ValueError("kappa, alpha, beta must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of "
                             f"{sorted(PRECISIONS)}, got {self.precision!r}")
        if self.retrain_epochs is not None and self.retrain_epochs < 1:
            raise ValueError("retrain_epochs must be >= 1 when given")
        for name in ("imp_p_g", "imp_p_theta"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name}={v} outside [0, 1)")
        if self.method == "imp":
            if self.imp_p_g == self.imp_p_theta == 0.0:
                raise ValueError("at least one prune fraction must be > 0")
            if self.round_budget < 1:
                raise ValueError("imp_epochs_per_round must be >= 1")
        return self

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        """Stable hash of the canonical config form."""
        blob = json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)


_TYPES = typing.get_type_hints(ExperimentConfig)


def _coerce(name: str, value):
    """Parse a string override by its field's annotation (``str``,
    ``float``, ``int``, or ``int | None``, which alone takes none/null)."""
    if name not in _TYPES:
        raise ValueError(f"unknown config key {name!r}")
    if not isinstance(value, str):
        return value
    kind = _TYPES[name]
    optional = typing.get_args(kind)
    if optional:
        if value.lower() in ("none", "null"):
            return None
        kind, = (t for t in optional if t is not type(None))
    return kind(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    clean = {k: _coerce(k, v) for k, v in data.items()}
    return ExperimentConfig(**clean).validate()


def load_config(path: str | Path, overrides: dict | None = None
                ) -> ExperimentConfig:
    """Read a flat-key JSON config; explicit overrides win over the file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object of flat keys")
    if overrides:
        data.update(overrides)
    return config_from_dict(data)
