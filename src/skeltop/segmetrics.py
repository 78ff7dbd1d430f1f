"""Voxel-wise segmentation metrics: precision, recall, F1, HD95.

HD95 follows the directed definition (95th percentile, nearest rank, of
nearest-surface distances from prediction surface to ground-truth
surface). The symmetric variant, max of the two directed values, is also
reported since much published tooling uses it; reports label both.
"""

from dataclasses import dataclass
from math import ceil, isfinite

import numpy as np

from . import spatial
from .errors import UndefinedMetricError, ValidationError
from .volume import BINARY, Volume3D, check_same_dims, surface_voxel_array

DIRECTED = "directed"
SYMMETRIC = "symmetric"


def _check_binary_pair(pred: Volume3D, gt: Volume3D):
    for name, vol in (("prediction", pred), ("ground truth", gt)):
        if vol.kind != BINARY:
            raise ValidationError(f"{name} must be a binary volume, got kind '{vol.kind}'")
    check_same_dims(pred, gt)


def precision_recall_f1(pred: Volume3D, gt: Volume3D):
    """Fractions in [0, 1]; any 0/0 collapses to 0 by convention."""
    _check_binary_pair(pred, gt)
    tp = int(np.count_nonzero(pred.data & gt.data))  # binary data is uint8 0 or 1
    fp = int(np.count_nonzero(pred.data)) - tp
    fn = int(np.count_nonzero(gt.data)) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1, (tp, fp, fn)


def nearest_rank_percentile(values: np.ndarray, q: float) -> float:
    """ceil(q * n)-th smallest element of the sample; q must be a finite number in [0, 1]."""
    if not (isfinite(q) and 0 <= q <= 1):
        raise ValidationError(f"percentile q must be finite and >= 0 and <= 1, got {q!r}")
    values = np.asarray(values, dtype=np.float64).ravel()
    if len(values) == 0:
        raise UndefinedMetricError("percentile of an empty sample is undefined")
    k = max(1, ceil(q * len(values)))  # q * n <= n exactly, so k is a rank of the sample
    return float(np.partition(values, k - 1)[k - 1])


def _surface_points(vol: Volume3D, use_spacing: bool) -> np.ndarray:
    """Integer voxel coordinates, which take the exact lattice stage of the NN
    search, or float64 coordinates scaled by the volume's spacing."""
    pts = surface_voxel_array(vol)
    return pts * np.asarray(vol.spacing, dtype=np.float64) if use_spacing else pts


def _hd95_values(pred: Volume3D, gt: Volume3D, use_spacing: bool, symmetric: bool):
    """(directed HD95, symmetric HD95 or None), each surface in its own
    volume's spacing when `use_spacing`; one two-way NN query if `symmetric`."""
    surfaces = _surface_points(pred, use_spacing), _surface_points(gt, use_spacing)
    if not symmetric:
        return nearest_rank_percentile(spatial.min_dists_to_set(*surfaces), 0.95), None
    fwd, bwd = (nearest_rank_percentile(d, 0.95) for d in spatial._min_dists_both(*surfaces))
    return fwd, max(fwd, bwd)


def hd95(pred: Volume3D, gt: Volume3D, mode: str = DIRECTED,
         use_spacing: bool = False) -> float:
    """95th-percentile surface distance; voxel units unless use_spacing."""
    if mode not in (DIRECTED, SYMMETRIC):
        raise ValidationError(f"mode must be '{DIRECTED}' or '{SYMMETRIC}', got {mode!r}")
    _check_binary_pair(pred, gt)
    if pred.foreground_count() == 0 or gt.foreground_count() == 0:
        raise UndefinedMetricError("hd95 is undefined when either mask is empty")
    directed, symmetric = _hd95_values(pred, gt, use_spacing, mode == SYMMETRIC)
    return directed if mode == DIRECTED else symmetric


@dataclass(frozen=True)
class SegReport:
    """Percentages for precision/recall/F1 plus HD95 in both conventions.

    hd95 values are None when either mask is empty (undefined metric)."""

    precision: float
    recall: float
    f1: float
    hd95_directed: float | None
    hd95_symmetric: float | None
    counts: tuple

    def to_json_obj(self):
        return {
            "precision_pct": self.precision,
            "recall_pct": self.recall,
            "f1_pct": self.f1,
            "hd95_directed": self.hd95_directed,
            "hd95_symmetric": self.hd95_symmetric,
            "counts": {"tp": self.counts[0], "fp": self.counts[1], "fn": self.counts[2]},
        }


def evaluate_segmentation(pred: Volume3D, gt: Volume3D,
                          use_spacing: bool = False) -> SegReport:
    precision, recall, f1, (tp, fp, fn) = precision_recall_f1(pred, gt)
    if tp + fp and tp + fn:  # foreground counts of pred and gt
        directed, symmetric = _hd95_values(pred, gt, use_spacing, True)
    else:
        directed = symmetric = None
    return SegReport(100.0 * precision, 100.0 * recall, 100.0 * f1,
                     directed, symmetric, (tp, fp, fn))
