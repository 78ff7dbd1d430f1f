"""Topology loss on skeleton graphs (node / edge / path discrepancies).

The pipeline binarizes a prediction, thins it and the ground truth in
one stacked thinning pass that yields each side's skeleton voxel list
(no skeleton volume is built), turns the lists into proximity graphs,
and scores three structural terms:

* node: symmetric mean nearest-neighbor distance between node sets,
* edge: relative difference of edge counts,
* path: relative difference of mean connected-component sizes.

The weighted sum is a scalar regularizer computed on hard-thresholded
volumes; there is no gradient path. Distances are in voxel units.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import spatial, thinning
from .errors import EmptyGraphError, ValidationError, check_positive_finite
from .skeleton import DEFAULT_RADIUS, SkeletonGraph, _graph_from_nodes, mean_component_size
from .volume import BINARY, PROBABILITY, Volume3D, check_same_dims

DEFAULT_EPSILON = 1e-8


@dataclass(frozen=True)
class SkeletonLossWeights:
    """Term weights and pipeline parameters (defaults: 1.0 / 0.5 / 0.5)."""

    lambda_node: float = 1.0
    lambda_edge: float = 0.5
    lambda_path: float = 0.5
    epsilon: float = DEFAULT_EPSILON
    tau: float = 0.5
    r: float = DEFAULT_RADIUS

    def __post_init__(self):
        for name in ("lambda_node", "lambda_edge", "lambda_path", "epsilon", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lambda_node", "lambda_edge", "lambda_path"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        if self.lambda_node == 0 and self.lambda_edge == 0 and self.lambda_path == 0:
            raise ValidationError("at least one term weight must be positive")
        check_positive_finite("epsilon", self.epsilon)
        if not (0.0 < self.tau < 1.0):
            raise ValidationError(f"tau must lie in (0, 1), got {self.tau}")
        check_positive_finite("r", self.r)


@dataclass(frozen=True)
class SkeletonLossBreakdown:
    """The three discrepancy terms, their weighted total, and the
    degenerate flag (set when the ground-truth graph was empty)."""

    l_node: float
    l_edge: float
    l_path: float
    total: float
    degenerate: bool = False


def node_discrepancy(g_pred: SkeletonGraph, g_gt: SkeletonGraph) -> float:
    """Symmetric mean nearest-neighbor distance between the node sets."""
    if g_pred.is_empty() or g_gt.is_empty():
        raise EmptyGraphError("node discrepancy is undefined for empty graphs")
    fwd, bwd = spatial._min_dists_both(g_pred.nodes, g_gt.nodes)
    return 0.5 * (float(fwd.mean()) + float(bwd.mean()))


def edge_discrepancy(g_pred: SkeletonGraph, g_gt: SkeletonGraph,
                     epsilon: float = DEFAULT_EPSILON) -> float:
    """|#edges_pred - #edges_gt| / (#edges_gt + epsilon)."""
    check_positive_finite("epsilon", epsilon)
    return abs(g_pred.n_edges - g_gt.n_edges) / (g_gt.n_edges + epsilon)


def path_discrepancy(g_pred: SkeletonGraph, g_gt: SkeletonGraph,
                     epsilon: float = DEFAULT_EPSILON) -> float:
    """Relative difference of mean connected-component node counts."""
    check_positive_finite("epsilon", epsilon)
    mean_pred = mean_component_size(g_pred)
    mean_gt = mean_component_size(g_gt)
    return abs(mean_pred - mean_gt) / (mean_gt + epsilon)


def _bbox_diameter(nodes: np.ndarray) -> float:
    span = (nodes.max(axis=0) - nodes.min(axis=0)).astype(np.float64)
    return float(np.sqrt((span ** 2).sum()))


def skeleton_loss(pred: Volume3D, gt: Volume3D,
                  weights: SkeletonLossWeights | None = None) -> SkeletonLossBreakdown:
    """Full pipeline: threshold (if needed), skeletonize, build graphs,
    combine the three discrepancy terms.

    Degenerate cases: an empty ground-truth graph yields an all-zero
    breakdown with the degenerate flag set; an empty prediction graph
    saturates the node term at the diameter of the ground-truth bounding
    box while the edge and path terms keep their formula values.
    """
    w = weights if weights is not None else SkeletonLossWeights()
    check_same_dims(pred, gt)
    if gt.kind != BINARY:
        raise ValidationError(f"ground truth must be binary, got kind '{gt.kind}'")
    # binary data is 0/1 bytes, so its bool view is the mask itself
    pred_mask = pred.data > w.tau if pred.kind == PROBABILITY else pred.data.view(bool)
    # one stacked thinning pass: the skeleton voxels skeletonize gives each side
    g_pred, g_gt = (_graph_from_nodes(nodes, w.r)
                    for nodes in thinning._skeleton_nodes((pred_mask, gt.data.view(bool))))
    if g_gt.is_empty():
        return SkeletonLossBreakdown(0.0, 0.0, 0.0, 0.0, degenerate=True)
    if g_pred.is_empty():
        l_node = _bbox_diameter(g_gt.nodes)
    else:
        l_node = node_discrepancy(g_pred, g_gt)
    l_edge = edge_discrepancy(g_pred, g_gt, w.epsilon)
    l_path = path_discrepancy(g_pred, g_gt, w.epsilon)
    total = w.lambda_node * l_node + w.lambda_edge * l_edge + w.lambda_path * l_path
    return SkeletonLossBreakdown(l_node, l_edge, l_path, total)
