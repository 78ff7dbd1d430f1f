"""Uniform bucket-grid acceleration for point-set queries.

Two query kinds are served: enumeration of all point pairs within a
fixed radius (skeleton-graph edges) and nearest-neighbor distances from
query points to a target set (surface and trace metrics). Results are
deterministic: pair lists are returned in sorted order and distance
queries are order-independent minima.
"""

import math

import numpy as np

from .errors import ValidationError

_FORWARD = [(dz, dy, dx)
            for dz in (0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
            if (dz, dy, dx) > (0, 0, 0)]

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)


def _bucketize(points, cell):
    keys = np.floor(points / cell).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    boundaries = np.nonzero(np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(points)]))
    cells = {}
    for s, e in zip(starts, ends):
        idx = np.sort(order[s:e])
        cells[tuple(sorted_keys[s])] = idx
    return cells


def pairs_within_radius(points, r: float) -> np.ndarray:
    """All unordered index pairs (i, j), i < j, with ||p_i - p_j|| <= r.

    Bucket grid with cell size r: points within r of each other always
    fall in the same or 26-adjacent cells, so each unordered pair is
    examined exactly once (own cell plus 13 forward neighbors). Output is
    lexicographically sorted.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValidationError(f"radius must be positive and finite, got {r}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n < 2:
        return _EMPTY_PAIRS.copy()
    r2 = r * r
    cells = _bucketize(pts, r)
    chunks = []
    for key in sorted(cells):
        own = cells[key]
        own_pts = pts[own]
        if len(own) > 1:
            d2 = ((own_pts[:, None, :] - own_pts[None, :, :]) ** 2).sum(axis=2)
            iu, ju = np.triu_indices(len(own), k=1)
            hit = d2[iu, ju] <= r2
            if hit.any():
                chunks.append(np.stack((own[iu[hit]], own[ju[hit]]), axis=1))
        for off in _FORWARD:
            other = cells.get((key[0] + off[0], key[1] + off[1], key[2] + off[2]))
            if other is None:
                continue
            d2 = ((own_pts[:, None, :] - pts[other][None, :, :]) ** 2).sum(axis=2)
            ai, bi = np.nonzero(d2 <= r2)
            if len(ai):
                a = own[ai]
                b = other[bi]
                chunks.append(np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1))
    if not chunks:
        return _EMPTY_PAIRS.copy()
    pairs = np.concatenate(chunks, axis=0)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


class PointGrid:
    """Bucket grid over a fixed target point set answering exact
    nearest-neighbor distance queries via expanding shell search."""

    def __init__(self, points, cell: float | None = None):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if len(pts) == 0:
            raise ValidationError("cannot build a point grid over an empty set")
        if cell is None:
            extent = float((pts.max(axis=0) - pts.min(axis=0)).max()) if len(pts) > 1 else 0.0
            cell = extent / max(1.0, len(pts) ** (1.0 / 3.0)) if extent > 0 else 1.0
        if cell <= 0:
            raise ValidationError(f"cell size must be positive, got {cell}")
        self.cell = float(cell)
        index = _bucketize(pts, self.cell)
        self._cells = {key: pts[idx] for key, idx in index.items()}
        keys = np.array(list(index.keys()), dtype=np.int64)
        self._key_min = keys.min(axis=0)
        self._key_max = keys.max(axis=0)

    def _shell_points(self, center, k):
        cz, cy, cx = center
        found = []
        if k == 0:
            cell = self._cells.get((cz, cy, cx))
            return [cell] if cell is not None else found
        get = self._cells.get
        for dz in (-k, k):
            for dy in range(-k, k + 1):
                for dx in range(-k, k + 1):
                    cell = get((cz + dz, cy + dy, cx + dx))
                    if cell is not None:
                        found.append(cell)
        for dz in range(-k + 1, k):
            for dy in (-k, k):
                for dx in range(-k, k + 1):
                    cell = get((cz + dz, cy + dy, cx + dx))
                    if cell is not None:
                        found.append(cell)
            for dy in range(-k + 1, k):
                for dx in (-k, k):
                    cell = get((cz + dz, cy + dy, cx + dx))
                    if cell is not None:
                        found.append(cell)
        return found

    def min_distance(self, q) -> float:
        """Exact Euclidean distance from q to the nearest target point."""
        q = np.asarray(q, dtype=np.float64)
        key = np.floor(q / self.cell).astype(np.int64)
        # shells closer than the occupied bounding box hold no cells
        k = int(np.maximum(0, np.maximum(self._key_min - key, key - self._key_max)).max())
        k_last = int(np.maximum(np.abs(key - self._key_min), np.abs(key - self._key_max)).max())
        best = np.inf
        center = (int(key[0]), int(key[1]), int(key[2]))
        while k <= k_last:
            if best < np.inf and (k - 1) * self.cell > best:
                break
            for block in self._shell_points(center, k):
                d2 = ((block - q) ** 2).sum(axis=1)
                cand = float(np.sqrt(d2.min()))
                if cand < best:
                    best = cand
            k += 1
        return best


def min_dists_to_set(queries, targets) -> np.ndarray:
    """Distance from each query point to its nearest point in `targets`."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    if len(q) == 0:
        return np.empty(0, dtype=np.float64)
    grid = PointGrid(targets)
    return np.array([grid.min_distance(row) for row in q], dtype=np.float64)
