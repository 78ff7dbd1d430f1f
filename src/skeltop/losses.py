"""Voxel-wise overlap losses and the deep-supervision combination.

All reductions run in float64 over the flat voxel order, so results are
bit-reproducible across runs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_positive_finite
from .volume import BINARY, Volume3D, check_same_dims

CE_CLAMP = 1e-7
DICE_EPSILON = 1e-8


def dice_loss(p: Volume3D, g: Volume3D, epsilon: float = DICE_EPSILON) -> float:
    """1 - 2*sum(p*g) / (sum(p^2) + sum(g^2) + epsilon)."""
    check_same_dims(p, g)
    check_positive_finite("epsilon", epsilon)
    pv = p.data.ravel()
    if g.kind == BINARY:  # no float copy of g; sum(g^2) over 0.0/1.0 is exactly its count
        prod = np.multiply(pv, g.data.ravel(), dtype=np.float64)
        pg, gg = float(np.sum(prod)), float(np.count_nonzero(g.data))
        pp = float(np.sum(np.multiply(pv, pv, out=prod, dtype=np.float64)))
    else:
        pv, gv = pv.astype(np.float64), g.data.ravel().astype(np.float64)
        pg, pp, gg = (float(np.sum(a * b)) for a, b in ((pv, gv), (pv, pv), (gv, gv)))
    return 1.0 - 2.0 * pg / (pp + gg + epsilon)


def ce_loss(p: Volume3D, g: Volume3D, clamp: float = CE_CLAMP) -> float:
    """Summed binary cross-entropy, with p clamped to [clamp, 1-clamp]
    because the formula is undefined at exactly 0 or 1.

    A binary g needs one logarithm per voxel: log(p) where g = 1 and
    log1p(-p) where g = 0. That is exactly the general formula's value,
    whose other product is a signed zero.
    """
    check_same_dims(p, g)
    pv = np.clip(p.data.ravel().astype(np.float64), clamp, 1.0 - clamp)
    if g.kind == BINARY:
        fg = g.bool_data().ravel()
        terms = np.log(pv, out=np.empty_like(pv), where=fg)
        np.log1p(np.negative(pv, out=pv), out=terms, where=~fg)
        return float(-np.sum(terms))
    gv = g.data.ravel().astype(np.float64)
    return float(-np.sum(gv * np.log(pv) + (1.0 - gv) * np.log1p(-pv)))


@dataclass(frozen=True)
class ScaleLoss:
    """Precomputed per-scale loss values entering the combined objective."""

    dice: float
    ce: float
    tasl: float

    def __post_init__(self):
        for name in ("dice", "ce", "tasl"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")
        if not (0.0 <= self.dice <= 1.0):
            raise ValidationError(f"dice must lie in [0, 1], got {self.dice}")
        if self.ce < 0:
            raise ValidationError(f"ce must be non-negative, got {self.ce}")
        if self.tasl < 0:
            raise ValidationError(f"tasl must be non-negative, got {self.tasl}")


@dataclass(frozen=True)
class DeepSupervisionConfig:
    """Per-scale weights plus the topology-term strength beta."""

    scale_weights: tuple
    beta: float = 1.0

    def __post_init__(self):
        weights = tuple(float(w) for w in self.scale_weights)
        if not all(math.isfinite(v) for v in (*weights, self.beta)):
            raise ValidationError("scale weights and beta must be finite")
        if not weights or any(w < 0 for w in weights):
            raise ValidationError("scale weights must be non-negative and non-empty")
        if all(w == 0 for w in weights):
            raise ValidationError("at least one scale weight must be positive")
        if self.beta < 0:
            raise ValidationError(f"beta must be non-negative, got {self.beta}")
        object.__setattr__(self, "scale_weights", weights)


def default_scale_weights(n_scales: int) -> tuple:
    """Halving schedule, normalized to sum 1: full resolution dominates."""
    if n_scales < 1:
        raise ValidationError(f"need at least one scale, got {n_scales}")
    raw = [2.0 ** -s for s in range(n_scales)]
    total = sum(raw)
    return tuple(w / total for w in raw)


def total_loss(scales, cfg: DeepSupervisionConfig) -> float:
    """sum_s w_s * (1 + beta * tasl_s) * (dice_s + ce_s)."""
    scales = list(scales)
    if len(scales) != len(cfg.scale_weights):
        raise ValidationError(
            f"got {len(scales)} per-scale inputs but {len(cfg.scale_weights)} scale weights")
    total = 0.0
    for w, s in zip(cfg.scale_weights, scales):
        total += w * (1.0 + cfg.beta * s.tasl) * (s.dice + s.ce)
    return total
