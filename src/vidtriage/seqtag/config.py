"""Shared training configuration, architecture names and training error
of both taggers. numpy-free, so the command line loads no tagger for them."""

from __future__ import annotations

import math
from dataclasses import dataclass

ARCH_CRF = "crf"
ARCH_BLSTM = "blstm"


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss turns non-finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for tagger training.

    The seed is mandatory: every training run must be reproducible. The
    remaining defaults are sized for desk-scale corpora (hundreds of
    sentences) and are recorded in every saved model file.
    """

    seed: int
    epochs: int = 50
    lr: float = 0.5
    l2: float = 1e-4
    batch_size: int = 16
    d_emb: int = 50
    d_hid: int = 64
    clip_norm: float = 5.0
    patience: int = 5
    dev_fraction: float = 0.1

    def __post_init__(self):
        for name in ("lr", "l2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"TrainConfig.{name} must be finite")
        for name in ("epochs", "lr", "batch_size", "d_emb", "d_hid", "clip_norm", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"TrainConfig.{name} must be positive")
        if self.l2 < 0:
            raise ValueError("TrainConfig.l2 must be non-negative")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValueError("TrainConfig.dev_fraction must lie in [0, 1)")
