"""Reference skeleton-loss pipeline kept only as a differential-test oracle.

This is the volume-based formulation that ``skeltop.skeleton_loss`` must
reproduce exactly: threshold the prediction into a binary ``Volume3D``,
thin both volumes to skeleton volumes (one stacked ``thin`` call, which
equals ``skeletonize`` on each side), build each graph with
``graph_from_skeleton`` (a ``flatnonzero`` scan of the skeleton volume),
then score the node, edge and path terms.
"""

import numpy as np

from skeltop import (BINARY, PROBABILITY, SkeletonLossWeights, Volume3D, edge_discrepancy,
                     graph_from_skeleton, node_discrepancy, path_discrepancy, thinning,
                     threshold)
from skeltop.skeleton_loss import SkeletonLossBreakdown


def skeleton_loss(pred, gt, weights=None):
    w = weights if weights is not None else SkeletonLossWeights()
    pred_bin = threshold(pred, w.tau) if pred.kind == PROBABILITY else pred
    skel_pred, skel_gt = thinning.thin(np.stack((pred_bin.data, gt.data)))
    g_pred = graph_from_skeleton(Volume3D(skel_pred, BINARY, pred_bin.spacing), w.r)
    g_gt = graph_from_skeleton(Volume3D(skel_gt, BINARY, gt.spacing), w.r)
    if g_gt.is_empty():
        return SkeletonLossBreakdown(0.0, 0.0, 0.0, 0.0, degenerate=True)
    if g_pred.is_empty():
        span = (g_gt.nodes.max(axis=0) - g_gt.nodes.min(axis=0)).astype(np.float64)
        l_node = float(np.sqrt((span ** 2).sum()))
    else:
        l_node = node_discrepancy(g_pred, g_gt)
    l_edge = edge_discrepancy(g_pred, g_gt, w.epsilon)
    l_path = path_discrepancy(g_pred, g_gt, w.epsilon)
    total = w.lambda_node * l_node + w.lambda_edge * l_edge + w.lambda_path * l_path
    return SkeletonLossBreakdown(l_node, l_edge, l_path, total)
