"""Skeletonization of binary volumes and conversion to proximity graphs.

A skeleton graph has one node per skeleton voxel (node id = position in
the lexicographically sorted voxel list) and an undirected edge between
every pair of voxels whose Euclidean distance is at most the adjacency
radius r (default 2.0 voxel units, which connects axial distance 2 and
the sqrt(2)/sqrt(3) diagonals but not distance sqrt(5)).
"""

from dataclasses import dataclass

import numpy as np

from . import spatial, thinning
from .errors import ValidationError, check_positive_finite
from .volume import BINARY, Volume3D

DEFAULT_RADIUS = 2.0


def skeletonize(mask: Volume3D) -> Volume3D:
    """Medial-axis thinning of a binary mask.

    The result is a subset of the input foreground, preserves the number
    of 26-connected components, contains no 2x2x2 solid block, and is a
    fixpoint (skeletonizing again changes nothing).
    """
    if mask.kind != BINARY:
        raise ValidationError(f"skeletonize requires a binary volume, got kind '{mask.kind}'")
    skel = thinning.thin(mask.bool_data())
    return Volume3D(skel.astype("u1"), BINARY, mask.spacing)


@dataclass(frozen=True)
class SkeletonGraph:
    """Voxel-proximity graph: nodes (n, 3) int (z, y, x), edges (m, 2) int."""

    nodes: np.ndarray
    edges: np.ndarray
    radius_r: float

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.int64).reshape(-1, 3))
        edges = np.ascontiguousarray(np.asarray(self.edges, dtype=np.int64).reshape(-1, 2))
        check_positive_finite("adjacency radius", self.radius_r)
        if len(nodes) and len(np.unique(nodes, axis=0)) != len(nodes):
            raise ValidationError("skeleton graph nodes must have distinct coordinates")
        if len(edges):
            if edges.min() < 0 or edges.max() >= len(nodes):
                raise ValidationError("edge endpoint id out of range")
            if (edges[:, 0] == edges[:, 1]).any():
                raise ValidationError("self-loop edge")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            edges = np.stack((lo, hi), axis=1)
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
            if len(np.unique(edges, axis=0)) != len(edges):
                raise ValidationError("duplicate edge")
            delta = nodes[edges[:, 0]] - nodes[edges[:, 1]]
            dist = np.sqrt((delta.astype(np.float64) ** 2).sum(axis=1))
            if (dist > self.radius_r + 1e-12).any():
                raise ValidationError("edge longer than the adjacency radius")
        nodes = nodes.copy()
        edges = edges.copy()
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

    def edge_set(self):
        return {(int(i), int(j)) for i, j in self.edges}

    def to_json_obj(self):
        return {
            "nodes": [[int(c) for c in row] for row in self.nodes],
            "edges": [[int(i), int(j)] for i, j in self.edges],
            "r": float(self.radius_r),
        }

    @classmethod
    def from_json_obj(cls, obj):
        return cls(np.array(obj["nodes"], dtype=np.int64).reshape(-1, 3),
                   np.array(obj["edges"], dtype=np.int64).reshape(-1, 2),
                   float(obj["r"]))


def _skeleton_nodes(skel: Volume3D) -> np.ndarray:
    if skel.kind != BINARY:
        raise ValidationError(f"graph construction requires a binary volume, got '{skel.kind}'")
    return np.argwhere(skel.bool_data()).astype(np.int64)


def graph_from_skeleton(skel: Volume3D, r: float = DEFAULT_RADIUS) -> SkeletonGraph:
    """Build the proximity graph using the bucket-grid pair search."""
    nodes = _skeleton_nodes(skel)
    if len(nodes) == 0:
        return SkeletonGraph(nodes, np.empty((0, 2), dtype=np.int64), r)
    edges = spatial.pairs_within_radius(nodes.astype(np.float64), r)
    return SkeletonGraph(nodes, edges, r)


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
    """Maximal connected node sets under the edge relation (BFS)."""
    n = g.n_nodes
    adjacency = [[] for _ in range(n)]
    for i, j in g.edges:
        adjacency[i].append(int(j))
        adjacency[j].append(int(i))
    seen = np.zeros(n, dtype=bool)
    components = []
    for seed in range(n):
        if seen[seed]:
            continue
        queue = [seed]
        seen[seed] = True
        members = []
        while queue:
            node = queue.pop()
            members.append(node)
            for nb in adjacency[node]:
                if not seen[nb]:
                    seen[nb] = True
                    queue.append(nb)
        components.append(tuple(sorted(members)))
    m = len(components)
    mean_size = (sum(len(c) for c in components) / m) if m else 0.0
    return ComponentPartition(tuple(components), m, mean_size)


def mean_component_size(g: SkeletonGraph) -> float:
    """Mean node count over connected components; 0 for an empty graph."""
    return connected_components(g).mean_size
