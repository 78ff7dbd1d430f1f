"""Independent checks the benchmark owns, applied outside the timed region.

Each function returns a list of problem strings; an empty list means the
output passed. None of them calls the skeltop code path it checks:
nearest neighbours are all-pairs scans, surfaces come from
`scipy.ndimage` erosion, component counts from `scipy.ndimage.label`
and `scipy.sparse.csgraph`. The graph check compares against the
library's exhaustive `graph_from_skeleton_bruteforce` twin.
"""

import math

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

_CHUNK = 128  # query rows per all-pairs block (~128 x 4k x 3 doubles)
_FACE6 = ndimage.generate_binary_structure(3, 1)
_FULL26 = np.ones((3, 3, 3), dtype=bool)


def brute_min_dists(queries, targets):
    """Distance from every query to its nearest target, by exhaustive scan."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    out = np.empty(len(q), dtype=np.float64)
    for lo in range(0, len(q), _CHUNK):
        d2 = ((q[lo:lo + _CHUNK, None, :] - t[None, :, :]) ** 2).sum(axis=2)
        out[lo:lo + _CHUNK] = np.sqrt(d2.min(axis=1))
    return out


def surface_points(mask_bool):
    """Foreground voxels with a 6-neighbour that is background or outside."""
    m = np.asarray(mask_bool, dtype=bool)
    inner = ndimage.binary_erosion(m, structure=_FACE6, border_value=0)
    return np.argwhere(m & ~inner).astype(np.float64)


def nearest_rank(values, q):
    xs = np.sort(np.asarray(values, dtype=np.float64))
    return float(xs[max(1, math.ceil(q * len(xs))) - 1])


def count_26_components(mask_bool):
    return int(ndimage.label(mask_bool, structure=_FULL26)[1])


def has_2x2x2_block(s):
    return bool((s[:-1, :-1, :-1] & s[1:, :-1, :-1] & s[:-1, 1:, :-1] & s[:-1, :-1, 1:]
                 & s[1:, 1:, :-1] & s[1:, :-1, 1:] & s[:-1, 1:, 1:] & s[1:, 1:, 1:]).any())


def thinning_problems(mask_bool, skel_bool, label):
    """The skeletonization contract: subset, 26-components kept, no 2x2x2."""
    m = np.asarray(mask_bool, dtype=bool)
    s = np.asarray(skel_bool, dtype=bool)
    problems = []
    if (s & ~m).any():
        problems.append(f"{label}: skeleton is not a subset of the foreground")
    n_mask, n_skel = count_26_components(m), count_26_components(s)
    if n_mask != n_skel:
        problems.append(f"{label}: 26-components {n_skel} != foreground's {n_mask}")
    if has_2x2x2_block(s):
        problems.append(f"{label}: skeleton holds a 2x2x2 block")
    return problems


def graph_problems(graph, brute_graph, label):
    if (graph.radius_r != brute_graph.radius_r
            or not np.array_equal(graph.nodes, brute_graph.nodes)
            or not np.array_equal(graph.edges, brute_graph.edges)):
        return [f"{label}: graph differs from the brute-force construction"]
    return []


def mean_component_size(graph):
    n = graph.n_nodes
    if n == 0:
        return 0.0
    e = np.asarray(graph.edges)
    adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
    m = connected_components(adj, directed=False)[0]
    return n / m


def node_term(g_pred, g_gt):
    p = g_pred.nodes.astype(np.float64)
    g = g_gt.nodes.astype(np.float64)
    return 0.5 * (float(brute_min_dists(p, g).mean()) + float(brute_min_dists(g, p).mean()))


def path_term(g_pred, g_gt, epsilon):
    mean_pred, mean_gt = mean_component_size(g_pred), mean_component_size(g_gt)
    return abs(mean_pred - mean_gt) / (mean_gt + epsilon)


def segmentation_problems(pred_bool, gt_bool, report, label):
    """Counts and both HD95 conventions of an evaluate_segmentation report."""
    p = np.asarray(pred_bool, dtype=bool)
    g = np.asarray(gt_bool, dtype=bool)
    problems = []
    counts = {"tp": int((p & g).sum()), "fp": int((p & ~g).sum()), "fn": int((~p & g).sum())}
    if report["counts"] != counts:
        problems.append(f"{label}: counts {report['counts']} != {counts}")
    ps, gs = surface_points(p), surface_points(g)
    fwd = nearest_rank(brute_min_dists(ps, gs), 0.95)
    sym = max(fwd, nearest_rank(brute_min_dists(gs, ps), 0.95))
    if report["hd95_directed"] != fwd:
        problems.append(f"{label}: hd95_directed {report['hd95_directed']!r} != {fwd!r}")
    if report["hd95_symmetric"] != sym:
        problems.append(f"{label}: hd95_symmetric {report['hd95_symmetric']!r} != {sym!r}")
    return problems


def trace_problems(pred_xyz, gt_xyz, report, theta, label):
    """esa / dsa / pds of an evaluate_trace report from resampled nodes."""
    d_pred = brute_min_dists(pred_xyz, gt_xyz)
    d_gt = brute_min_dists(gt_xyz, pred_xyz)
    mism = d_pred[d_pred > theta]
    expected = {
        "esa": float(d_pred.mean()),
        "dsa": float(mism.mean()) if len(mism) else 0.0,
        "pds": (int((d_pred > theta).sum()) + int((d_gt > theta).sum()))
        / (len(pred_xyz) + len(gt_xyz)),
        "n_pred": len(pred_xyz),
        "n_gt": len(gt_xyz),
    }
    return [f"{label}: {k} {report[k]!r} != {v!r}" for k, v in expected.items()
            if report[k] != v]
