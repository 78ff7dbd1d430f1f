"""Skeletonization of binary volumes and conversion to proximity graphs.

A skeleton graph has one node per skeleton voxel (node id = position in
the lexicographically sorted voxel list) and an undirected edge between
every pair of voxels whose Euclidean distance is at most the adjacency
radius r (default 2.0 voxel units, which connects axial distance 2 and
the sqrt(2)/sqrt(3) diagonals but not distance sqrt(5)).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import thinning
from .errors import ValidationError, check_positive_finite
from .volume import BINARY, Volume3D, check_binary

DEFAULT_RADIUS = 2.0
_LOOKUP_BUDGET = 1 << 16  # node-run lookups per block; bounds peak memory for large r


def skeletonize(mask: Volume3D) -> Volume3D:
    """Medial-axis thinning of a binary mask.

    The result is a subset of the input foreground, preserves the number
    of 26-connected components, contains no 2x2x2 solid block, and is a
    fixpoint (skeletonizing again changes nothing).
    """
    check_binary(mask, "skeletonize")
    return Volume3D(thinning.thin(mask.bool_data()), BINARY, mask.spacing)


def _has_adjacent_duplicates(rows):
    return bool((rows[1:] == rows[:-1]).all(axis=1).any())


@dataclass(frozen=True)
class SkeletonGraph:
    """Voxel-proximity graph: nodes (n, 3) int (z, y, x), edges (m, 2) int."""

    nodes: np.ndarray
    edges: np.ndarray
    radius_r: float

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.int64, order="C").reshape(-1, 3)
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        check_positive_finite("adjacency radius", self.radius_r)
        if _has_adjacent_duplicates(nodes[np.lexsort(nodes.T[::-1])]):
            raise ValidationError("skeleton graph nodes must have distinct coordinates")
        if len(edges) and (edges.min() < 0 or edges.max() >= len(nodes)):
            raise ValidationError("edge endpoint id out of range")
        if (edges[:, 0] == edges[:, 1]).any():
            raise ValidationError("self-loop edge")
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        order = np.lexsort((hi, lo))
        edges = np.stack((lo[order], hi[order]), axis=1)
        if _has_adjacent_duplicates(edges):
            raise ValidationError("duplicate edge")
        delta = (nodes[edges[:, 0]] - nodes[edges[:, 1]]).astype(np.float64)
        if (np.sqrt((delta ** 2).sum(axis=1)) > self.radius_r + 1e-12).any():
            raise ValidationError("edge longer than the adjacency radius")
        nodes.flags.writeable = False
        edges.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return len(self.edges)

    def is_empty(self):
        return len(self.nodes) == 0

    def to_json_obj(self):
        return {
            "nodes": [[int(c) for c in row] for row in self.nodes],
            "edges": [[int(i), int(j)] for i, j in self.edges],
            "r": float(self.radius_r),
        }


def _skeleton_nodes(skel: Volume3D) -> np.ndarray:
    check_binary(skel, "graph construction")
    return np.argwhere(skel.data)


def graph_from_skeleton(skel: Volume3D, r: float = DEFAULT_RADIUS) -> SkeletonGraph:
    """Build the proximity graph by run lookups on linear voxel ids.

    Node ids are linear in the nodes' bounding box padded by its extent e,
    so they ascend in node order and id + offset is exact for every offset
    within e. The forward half-ball |o| <= r, clipped to e, is cut into
    (dz, dy) rows; in each row the allowed dx form one run, and each node's
    partners in it are one slice of the ids, found by two searchsorted
    calls. Nodes are looked up in blocks, so memory stays bounded however
    large r is.
    """
    check_positive_finite("adjacency radius", r)
    return _graph_from_nodes(_skeleton_nodes(skel), r)


def _graph_from_nodes(nodes: np.ndarray, r: float) -> SkeletonGraph:
    """``graph_from_skeleton`` on skeleton voxels listed in ``argwhere`` order."""
    if len(nodes) == 0:
        return SkeletonGraph(nodes, np.empty((0, 2), dtype=np.int64), r)
    ez, ey, ex = (nodes.max(axis=0) - nodes.min(axis=0)).tolist()
    sy, sz = 2 * ex + 1, (2 * ey + 1) * (2 * ex + 1)
    ids = (nodes - nodes.min(axis=0)) @ np.array([sz, sy, 1])
    reach = math.floor(r) + 1  # past r on one axis, so no offset is missed
    dz, dy = np.mgrid[0:min(ez, reach) + 1, -min(ey, reach):min(ey, reach) + 1].reshape(2, -1)
    dx = np.arange(min(ex, reach) + 1)
    # run half-width: the largest dx passing the brute force's test, -1 if none
    w = ((dz * dz + dy * dy)[:, None] + dx * dx <= r * r).sum(axis=1) - 1
    lo = np.where((dz == 0) & (dy == 0), 1, -w)  # the forward half of the node's own row
    row = ((dz > 0) | (dy >= 0)) & (lo <= w)
    first = dz[row] * sz + dy[row] * sy + lo[row]
    last = first + (w - lo)[row]
    # full rows end where the next row starts: join them, so r past the
    # extent is one run
    gap = np.flatnonzero(first[1:] != last[:-1] + 1)
    first, last = np.r_[first[:1], first[gap + 1]], np.r_[last[gap], last[-1:]]
    step = max(1, _LOOKUP_BUDGET // max(1, len(first)))
    pairs = []
    for b in range(0, len(ids), step):
        q = ids[b:b + step, None]
        start = np.searchsorted(ids, q + first)
        count = np.searchsorted(ids, q + last, "right") - start
        i = np.repeat(np.arange(b, b + len(q)), count.sum(axis=1))
        count = count.ravel()
        j = np.repeat(start.ravel() - np.cumsum(count) + count, count) + np.arange(len(i))
        pairs.append(np.stack((i, j), axis=1))
    return SkeletonGraph(nodes, np.concatenate(pairs), r)


def graph_from_skeleton_bruteforce(skel: Volume3D, r: float = DEFAULT_RADIUS) -> SkeletonGraph:
    """Reference construction by exhaustive pairwise scan (oracle for the
    accelerated builder; identical output required)."""
    check_positive_finite("adjacency radius", r)
    nodes = _skeleton_nodes(skel)
    n = len(nodes)
    if n < 2:
        return SkeletonGraph(nodes, np.empty((0, 2), dtype=np.int64), r)
    pts = nodes.astype(np.float64)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    iu, ju = np.triu_indices(n, k=1)
    hit = d2[iu, ju] <= r * r
    edges = np.stack((iu[hit], ju[hit]), axis=1).astype(np.int64)
    return SkeletonGraph(nodes, edges, r)


@dataclass(frozen=True)
class ComponentPartition:
    """Disjoint node-id sets covering the graph, ordered by smallest member."""

    components: tuple
    m: int
    mean_size: float


def connected_components(g: SkeletonGraph) -> ComponentPartition:
    """Maximal connected node sets under the edge relation.

    Min-label propagation with pointer jumping: every node points at a
    root, and each round hooks the larger root of every edge onto the
    smaller one, then jumps every node to its root. Labels never grow and
    stay inside their component, so at the fixpoint each node is labelled
    with its component's smallest member.
    """
    label = np.arange(g.n_nodes)
    i, j = g.edges.T
    while (label[i] != label[j]).any():
        a, b = label[i], label[j]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while (label[label] != label).any():
            label = label[label]
    members = np.argsort(label, kind="stable").tolist()
    sizes = np.bincount(label)  # nonzero exactly at the roots
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    components = tuple(tuple(members[s:e]) for s, e in zip([0] + ends, ends))
    m = len(components)
    return ComponentPartition(components, m, g.n_nodes / m if m else 0.0)


def mean_component_size(g: SkeletonGraph) -> float:
    """Mean node count over connected components; 0 for an empty graph."""
    return connected_components(g).mean_size
