"""Uniform-grid nearest-neighbor queries, in numpy alone.

Serves nearest-neighbor distances from query points to a target set
(surface and trace metrics, skeleton node terms). The distances equal
the brute-force minimum over all targets bit for bit.
"""

import math

import numpy as np

from .errors import ValidationError

# (dz, dy) of the nine runs of three x-adjacent cells tiling a 27-neighborhood
_RUNS = np.array([(dz, dy) for dz in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64)
_PAIR_BUDGET = 1 << 16  # query-target pairs per distance chunk; bounds peak memory


def _scan(best, q_cols, t_cols, owner, start, count):
    """Lower best[owner[i]] to the squared distances from that query to
    targets start[i]:start[i] + count[i], _PAIR_BUDGET pairs at a time."""
    ends = np.cumsum(count)
    shift = start - (ends - count)  # target index minus pair index, per range
    for p0 in range(0, int(ends[-1]) if len(ends) else 0, _PAIR_BUDGET):
        p1 = min(int(ends[-1]), p0 + _PAIR_BUDGET)
        # ranges r0 .. r1 - 1 hold pairs p0 .. p1 - 1; the first and last are clipped
        r0, r1 = np.searchsorted(ends, [p0, p1 - 1], "right") + (0, 1)
        clipped = np.minimum(ends[r0:r1], p1) - np.maximum(ends[r0:r1] - count[r0:r1], p0)
        r = np.repeat(np.arange(r0, r1), clipped)
        pos, who = shift[r] + np.arange(p0, p1), owner[r]
        d = [tc[pos] - qc[who] for tc, qc in zip(t_cols, q_cols)]
        # ((t - q) ** 2).sum(axis=1) term by term, in the same order
        np.minimum.at(best, who, d[0] * d[0] + d[1] * d[1] + d[2] * d[2])


@np.errstate(over="ignore")  # separations beyond the float range are inf
def min_dists_to_set(queries, targets) -> np.ndarray:
    """Exact Euclidean distance from each query point to its nearest point
    in `targets`, equal bit for bit to the brute-force minimum.

    Level-wise grid search: targets are sorted by cell id and each open
    query scans its 27 neighboring cells. Targets outside them are farther
    than the cell size, so a query whose best distance is within it is
    final; the rest retry with the cell doubled. The first cell is at least
    span / 2**20 (span: largest coordinate range of both sets), so cell ids
    stay below 2**61; once the cell reaches the span, queries scan all.
    """
    q, t = (np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in (queries, targets))
    if not (np.isfinite(q).all() and np.isfinite(t).all()):
        raise ValidationError("query and target points must be finite")
    if len(t) == 0:
        raise ValidationError("nearest distances need a non-empty target set")
    best = np.full(len(q), np.inf)
    if len(q) == 0:
        return best
    lo = np.minimum(q.min(axis=0), t.min(axis=0))
    span = float((np.maximum(q.max(axis=0), t.max(axis=0)) - lo).max())
    extent = float((t.max(axis=0) - t.min(axis=0)).max())
    cell = max(extent / math.sqrt(len(t)), span / 2.0 ** 20)
    q_cols = q.T.copy()
    todo = np.arange(len(q))
    while len(todo) and 0 < cell < span:
        side = math.floor(span / cell) + 3  # keys 1 .. side - 2, so neighbor ids stay in range
        steps = np.array([side * side, side, 1], dtype=np.int64)
        tid = (np.floor((t - lo) / cell).astype(np.int64) + 1) @ steps
        order = np.argsort(tid)
        ids, t_cols = tid[order], t[order].T.copy()
        for i in range(0, len(todo), _PAIR_BUDGET // len(_RUNS)):
            block = todo[i:i + _PAIR_BUDGET // len(_RUNS)]
            qid = (np.floor((q[block] - lo) / cell).astype(np.int64) + 1) @ steps
            runs = (qid[:, None] + _RUNS @ steps[:2]).ravel()
            start = np.searchsorted(ids, runs - 1, "left")
            count = np.searchsorted(ids, runs + 1, "right") - start
            _scan(best, q_cols, t_cols, np.repeat(block, len(_RUNS)), start, count)
        limit = cell * (1.0 - 2.0 ** -20)  # margin for rounding in keys and distances
        todo = todo[~(best[todo] <= limit * limit)]
        cell *= 2.0
    if len(todo):
        _scan(best, q_cols, t.T.copy(), todo, np.zeros_like(todo), np.full_like(todo, len(t)))
    return np.sqrt(best)
