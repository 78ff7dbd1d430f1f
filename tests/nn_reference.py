"""Reference level-doubling nearest-neighbor search kept only as a
differential-test oracle.

This is the grid search that ``skeltop.spatial.min_dists_to_set`` must
reproduce bit for bit on inputs too large for brute force: targets are
sorted by cell id, each open query scans its 27 neighboring cells, a
query whose best squared distance is within the (rounding-margined) cell
size is final, and the rest retry with the cell doubled until the cell
reaches the span, where the remaining queries scan every target.
Per-query minima are taken with ``np.minimum.at``.
"""

import math

import numpy as np

_RUNS = np.array([(dz, dy) for dz in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64)
_PAIR_BUDGET = 1 << 16


def _scan(best, q_cols, t_cols, owner, start, count):
    ends = np.cumsum(count)
    shift = start - (ends - count)
    for p0 in range(0, int(ends[-1]) if len(ends) else 0, _PAIR_BUDGET):
        p1 = min(int(ends[-1]), p0 + _PAIR_BUDGET)
        r0, r1 = np.searchsorted(ends, [p0, p1 - 1], "right") + (0, 1)
        clipped = np.minimum(ends[r0:r1], p1) - np.maximum(ends[r0:r1] - count[r0:r1], p0)
        r = np.repeat(np.arange(r0, r1), clipped)
        pos, who = shift[r] + np.arange(p0, p1), owner[r]
        d = [tc[pos] - qc[who] for tc, qc in zip(t_cols, q_cols)]
        np.minimum.at(best, who, d[0] * d[0] + d[1] * d[1] + d[2] * d[2])


@np.errstate(over="ignore")
def min_dists_to_set(queries, targets):
    q, t = (np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in (queries, targets))
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
        side = math.floor(span / cell) + 3
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
        limit = cell * (1.0 - 2.0 ** -20)
        todo = todo[~(best[todo] <= limit * limit)]
        cell *= 2.0
    if len(todo):
        _scan(best, q_cols, t.T.copy(), todo, np.zeros_like(todo), np.full_like(todo, len(t)))
    return np.sqrt(best)
