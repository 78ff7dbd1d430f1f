"""Trace-to-trace reconstruction metrics over SWC node sets.

Three distances between a predicted and a reference trace, computed on
node coordinates after optional uniform resampling (which makes node
counts proportional to arc length):

* esa: mean nearest-neighbor distance, prediction nodes to reference
  nodes (one-directional).
* dsa: mean nearest-reference distance over the mismatched prediction
  nodes only (those farther than the match threshold); 0 when every
  node matches.
* pds: mismatched node fraction counted over both traces together.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import spatial
from .errors import UndefinedMetricError, check_positive_finite
from .swc import Morphology, resample_arrays

DEFAULT_MATCH_THRESHOLD = 2.0


def _dsa(d_pred, theta):
    mism = d_pred[d_pred > theta]
    return float(mism.mean()) if len(mism) else 0.0


def _pds(d_pred, d_gt, theta):
    mismatched = int(np.count_nonzero(d_pred > theta)) + int(np.count_nonzero(d_gt > theta))
    return mismatched / (len(d_pred) + len(d_gt))


def esa(pred: Morphology, gt: Morphology) -> float:
    """Mean distance from each prediction node to its nearest reference node."""
    if pred.is_empty() or gt.is_empty():
        raise UndefinedMetricError("esa is undefined for empty traces")
    return float(spatial.min_dists_to_set(pred.node_positions(), gt.node_positions()).mean())


def dsa(pred: Morphology, gt: Morphology,
        theta: float = DEFAULT_MATCH_THRESHOLD) -> float:
    """Mean nearest-reference distance over prediction nodes farther than
    theta from the reference; 0 when no such node exists."""
    check_positive_finite("match threshold", theta)
    if gt.is_empty():
        raise UndefinedMetricError("dsa is undefined for an empty reference trace")
    return _dsa(spatial.min_dists_to_set(pred.node_positions(), gt.node_positions()), theta)


def pds(pred: Morphology, gt: Morphology,
        theta: float = DEFAULT_MATCH_THRESHOLD) -> float:
    """Fraction of mismatched nodes over both traces: nodes whose nearest
    neighbor in the other trace is farther than theta. A trace facing an
    empty counterpart counts as fully mismatched."""
    check_positive_finite("match threshold", theta)
    n_pred, n_gt = len(pred), len(gt)
    if n_pred == 0 and n_gt == 0:
        raise UndefinedMetricError("pds is undefined when both traces are empty")
    if n_pred == 0 or n_gt == 0:
        return 1.0
    return _pds(*spatial._min_dists_both(pred.node_positions(), gt.node_positions()), theta)


@dataclass(frozen=True)
class TraceReport:
    esa: float
    dsa: float
    pds: float
    match_threshold: float
    n_pred: int
    n_gt: int
    resample_step: float | None = None

    def to_json_obj(self):
        return asdict(self)


def evaluate_trace(pred: Morphology, gt: Morphology,
                   theta: float = DEFAULT_MATCH_THRESHOLD,
                   resample_step: float | None = None) -> TraceReport:
    """esa/dsa/pds from one pass for both directions; node counts after any resampling."""
    check_positive_finite("match threshold", theta)
    if resample_step is None:
        p_xyz, g_xyz = pred.node_positions(), gt.node_positions()
    else:
        p_xyz = resample_arrays(pred, resample_step)[0]
        g_xyz = resample_arrays(gt, resample_step)[0]
    if not (len(p_xyz) and len(g_xyz)):
        raise UndefinedMetricError("esa is undefined for empty traces")
    d_pred, d_gt = spatial._min_dists_both(p_xyz, g_xyz)
    return TraceReport(
        esa=float(d_pred.mean()),
        dsa=_dsa(d_pred, theta),
        pds=_pds(d_pred, d_gt, theta),
        match_threshold=theta,
        n_pred=len(p_xyz),
        n_gt=len(g_xyz),
        resample_step=resample_step,
    )
