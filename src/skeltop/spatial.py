"""Exact grid nearest-neighbor queries in numpy alone, for the surface and trace
metrics and the skeleton node terms. Each distance equals the brute-force minimum
bit for bit: a pair is skipped only when rounded arithmetic shows it no nearer.
Integer inputs first settle each point with a target in its 3x3x3 lattice cube by
gathers from a z-slab occupancy box. Two sets queried both ways share that stage, or
one pass over their nearby pairs; a level's leftovers go on at the next doubled cell.
"""

import itertools
import math

import numpy as np

from .errors import ValidationError

# (dz, dy) of the nine runs of three x-adjacent cells tiling a 27-neighborhood
_RUNS = np.array([(dz, dy) for dz in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64)
_PAIR_BUDGET = 1 << 14  # elements per chunk of pairs or bounds; keeps temporaries in cache
_CUBE = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.int64)
_SHELLS = [_CUBE[(_CUBE * _CUBE).sum(1) == d2] for d2 in range(4)]  # offsets by squared length
_SLAB = 1 << 24  # cells of one occupancy slab of the lattice stage, its two halo planes included


def _scan(best, q_cols, t_cols, owner, start, count, t_best=None):
    """Lower best[owner[i]] to the squared distances from that query to targets
    start[i]:start[i] + count[i], and t_best[j] to target j's if given; owner is sorted."""
    owner, start, count = (a[count > 0] for a in (owner, start, count))
    ends = np.cumsum(count)
    shift = start - (ends - count)  # target index minus pair index, per range
    for p0 in range(0, int(ends[-1]) if len(ends) else 0, _PAIR_BUDGET):
        p1 = min(int(ends[-1]), p0 + _PAIR_BUDGET)
        r0, r1 = np.searchsorted(ends, [p0, p1 - 1], "right") + (0, 1)  # ranges holding the chunk
        first = np.maximum(ends[r0:r1] - count[r0:r1], p0) - p0
        n, who = np.minimum(ends[r0:r1], p1) - p0 - first, owner[r0:r1]
        pos, d2 = np.repeat(shift[r0:r1], n) + np.arange(p0, p1), np.zeros(p1 - p0)
        for tc, qc in zip(t_cols, q_cols):  # ((t - q) ** 2).sum(axis=1), in the same order
            d = tc[pos] - np.repeat(qc[who], n)
            d2 += np.square(d, out=d)
        new = np.concatenate(([True], who[1:] != who[:-1]))  # a query's pairs are one run
        best[who[new]] = np.minimum(best[who[new]], np.minimum.reduceat(d2, first[new]))
        if t_best is not None:
            np.minimum.at(t_best, pos, d2)


def _sorted_cells(t_cols, lo, cell, span):
    """Id steps of a grid of side cell >= span / 2**20 (ids < 2**61), targets by id, their order."""
    side = math.floor(span / cell) + 3  # keys 1 .. side - 2, so neighbor ids stay in range
    steps = np.array([side * side, side, 1], dtype=np.int64)
    tid = steps @ (np.floor((t_cols - lo) / cell).astype(np.int64) + 1)
    order = np.argsort(tid)
    return steps, tid[order], t_cols[:, order], order


def _level(best, q_cols, t_cols, todo, lo, cell, span, t_best=None):
    """Scan todo's 27 cells of side cell, t_best as in _scan; return the unsettled, the bound."""
    steps, ids, sorted_cols, order = _sorted_cells(t_cols, lo, cell, span)
    by_rank = None if t_best is None else t_best[order]
    for i in range(0, len(todo), _PAIR_BUDGET // len(_RUNS)):
        block = todo[i:i + _PAIR_BUDGET // len(_RUNS)]
        qid = steps @ (np.floor((q_cols[:, block] - lo) / cell).astype(np.int64) + 1)
        runs = (qid[:, None] + _RUNS @ steps[:2]).ravel()
        start, stop = np.searchsorted(ids, (runs - 1, runs + 2))  # integer ids
        _scan(best, q_cols, sorted_cols, np.repeat(block, len(_RUNS)), start, stop - start, by_rank)
    if t_best is not None:
        t_best[order] = by_rank
    limit = cell * (1.0 - 2.0 ** -20)  # margin for rounding in keys and distances
    return todo[~(best[todo] <= limit * limit)], limit * limit


def _bounded_pass(best, q_cols, t_cols, todo, lo, cell, span):
    """Lower best[todo] to exact minima: scan each query's occupied cell of nearest
    tight box, then the other cells whose box lies within its best so far."""
    _, ids, t_cols, _ = _sorted_cells(t_cols, lo, cell, span)
    _, first, count = np.unique(ids, return_index=True, return_counts=True)
    box_lo, box_hi = np.minimum.reduceat(t_cols, first, 1), np.maximum.reduceat(t_cols, first, 1)
    rows = max(1, _PAIR_BUDGET // len(first))
    for block in (todo[i:i + rows] for i in range(0, len(todo), rows)):
        # rounding is monotone: no computed |t - q| in a box is below its gap
        gap = sum(np.maximum(np.maximum(a - c[block, None], c[block, None] - b), 0.0) ** 2
                  for a, b, c in zip(box_lo, box_hi, q_cols))
        near = gap.argmin(axis=1)
        _scan(best, q_cols, t_cols, block, first[near], count[near])
        gap[np.arange(len(block)), near] = np.inf  # scanned
        row, col = np.nonzero(gap <= best[block, None])
        _scan(best, q_cols, t_cols, block[row], first[col], count[col])


def _lattice(best, q_cols, t_cols, lo, hi, t_best=None):
    """Set best[i] (inf on entry) to the exact squared distance of each query with a
    target in its 3x3x3 cube, and t_best likewise for targets onto queries if given;
    the others stay inf. Coordinates are integers in [lo, hi] per axis, each below
    2**53 in magnitude, and the padded box is walked in z-slabs (see min_dists_to_set)."""
    base = np.array([int(v) - 1 for v in lo.ravel()], dtype=np.int64)[:, None]
    side = [int(h) - int(v) + 2 for h, v in zip(hi.ravel(), base.ravel())]  # Python ints
    depth = min(_SLAB // (plane := side[1] * side[2]), side[0])  # planes per slab
    if depth < 3:
        return
    offsets = [shell @ np.array([plane, side[2], 1]) for shell in _SHELLS]
    pts = []  # per side: plane and in-plane id of each point, sorted by plane, and the order
    for cols in (q_cols, t_cols):
        z, y, x = cols.astype(np.int64) - base
        order = np.argsort(z, kind="stable")
        pts.append((z[order], (y * side[2] + x)[order], order))
    probing = list(zip(pts, (best, t_best), (2, 1)))[:1 if t_best is None else 2]
    done = [0] * len(probing)  # points of each probing side settled or left so far
    while starts := [int(z[k]) for ((z, _, _), _, _), k in zip(probing, done) if k < len(z)]:
        p0 = min(starts) - 1
        box = np.zeros(depth * plane, np.uint8)  # planes p0 .. p0 + depth - 1: bit 1 q, bit 2 t
        for (z, yx, _), bit in zip(pts, (1, 2)):
            i, j = np.searchsorted(z, (p0, p0 + depth))
            box[(z[i:j] - p0) * plane + yx[i:j]] |= bit
        for n, ((z, yx, order), d, bit) in enumerate(probing):
            j = np.searchsorted(z, p0 + depth - 1)  # points off the slab's outer planes
            ids, todo = (z[done[n]:j] - p0) * plane + yx[done[n]:j], np.arange(j - done[n])
            for d2, off in enumerate(offsets):  # a point outside the cube is at d2 >= 4
                hit = (box[ids[todo, None] + off] & bit).any(1)
                d[order[done[n] + todo[hit]]], todo = d2, todo[~hit]
            done[n] = j


def _points(p, what):
    """p as an (n, 3) array of bool, integer or float, or ValidationError."""
    a = np.asarray(p)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValidationError(f"{what} points must be an (n, 3) array, got shape {a.shape}")
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{what} points must be bool, integer or float, got {a.dtype}")
    return a


def _setup(queries, targets, both):
    """Validated inputs' float64 columns, the low and high corners of their box, the span,
    and whether both are integer arrays below 2**53 in magnitude (exact in float64)."""
    queries, targets = _points(queries, "query"), _points(targets, "target")
    q_cols, t_cols = (p.astype(np.float64).T.copy() for p in (queries, targets))
    if not (np.isfinite(q_cols).all() and np.isfinite(t_cols).all()):
        raise ValidationError("query and target points must be finite")
    if len(targets) == 0 or both and len(queries) == 0:  # as the reverse call would fail
        raise ValidationError("nearest distances need a non-empty target set")
    cols = np.concatenate((q_cols, t_cols), axis=1)  # reductions are fast on (3, n)
    lo, hi = cols.min(1, keepdims=True), cols.max(1, keepdims=True)
    lattice = (queries.dtype.kind in "iu" and targets.dtype.kind in "iu"
               and -2.0 ** 53 < lo.min() and hi.max() < 2.0 ** 53)
    return q_cols, t_cols, lo, hi, float((hi - lo).max()), lattice


def _grid(best, q_cols, t_cols, todo, lo, span, lattice, t_best=None):
    """Lower best[todo] to exact minima by the grid levels, then the bounded pass; return the
    first level's bound, where t_best if given is lowered too (see _scan). After a lattice
    stage the levels start at the first that can settle d2 = 4."""
    extent = float(np.ptp(t_cols, 1).max())
    cell, first = max(extent / math.sqrt(t_cols.shape[1]), span / 2.0 ** 20), None
    while lattice and cell * (1.0 - 2.0 ** -20) < 2.0:  # the rest are at d2 >= 4
        cell *= 2.0
    far = max(extent / t_cols.shape[1] ** 0.25, cell)
    while len(todo) and cell <= far:  # coarser levels would span most of a surface
        todo, bound = _level(best, q_cols, t_cols, todo, lo, cell, span, t_best)
        first, t_best, cell = bound if first is None else first, None, cell * 2.0
    if len(todo):
        _bounded_pass(best, q_cols, t_cols, todo, lo, far, span)
    return first


@np.errstate(over="ignore")  # separations beyond the float range are inf
def _nearest(queries, targets, both):
    """min_dists_to_set(queries, targets), and when both, its reverse from the same stages."""
    q_cols, t_cols, lo, hi, span, lattice = _setup(queries, targets, both)
    n_q, n_t = q_cols.shape[1], t_cols.shape[1]
    best, t_best = np.full(n_q, np.inf), np.full(n_t, np.inf) if both else None
    if n_q * n_t <= _PAIR_BUDGET or not 0 < span / 2.0 ** 20 < math.inf:  # degenerate span
        _scan(best, q_cols, t_cols, np.arange(n_q), np.zeros(n_q, np.int64), np.full(n_q, n_t),
              t_best)
    elif lattice:  # leftovers are at d2 >= 4, with best inf
        _lattice(best, q_cols, t_cols, lo, hi, t_best)
        for d, q, t in ((best, q_cols, t_cols), (t_best, t_cols, q_cols))[:1 + both]:
            _grid(d, q, t, np.flatnonzero(d > 3), lo, span, True)
    else:
        bound = _grid(best, q_cols, t_cols, np.arange(n_q), lo, span, False, t_best)
        if both:
            _grid(t_best, t_cols, q_cols, np.flatnonzero(~(t_best <= bound)), lo, span, False)
    return (np.sqrt(best), np.sqrt(t_best)) if both else np.sqrt(best)


def min_dists_to_set(queries, targets) -> np.ndarray:
    """Exact Euclidean distance from each query point to its nearest point in
    `targets`, equal bit for bit to the brute-force minimum. Up to _PAIR_BUDGET pairs,
    or when span / 2**20 is 0 or inf, all pairs are scanned. Otherwise a query scans its
    27 cells of side extent / sqrt(n_t) (at least span / 2**20), doubled up to
    `far` = extent / n_t**0.25, until its best is within the cell. The rest take one
    bounded pass over cells of side `far`, about sqrt(n_t) cells on a surface: each
    scans the cell of its nearest tight box, then those within its best so far.

    When both inputs are integer arrays below 2**53 in magnitude (exact in float64),
    a lattice stage runs first. The padded bounding box is walked in z-slabs of at most
    _SLAB cells, each a uint8 occupancy box; each query tests the shells of squared
    distance 0, 1, 2 and 3 of its 3x3x3 cube, one gather each, and settles at its first
    hit: any target outside the cube is at d2 >= 4, and the square root of that hit is
    what brute force computes. The rest search the grid from the first doubled cell that
    can settle d2 = 4 (`far` is at least that cell). A box whose plane is more than a
    third of a slab skips the stage. Inputs must be (n, 3) arrays of bool, integer or float."""
    return _nearest(queries, targets, False)


def _min_dists_both(a, b):
    """(min_dists_to_set(a, b), min_dists_to_set(b, a)) bit for bit. The all-pairs scan
    and the integer lattice stage serve both directions in one pass, and so does the first
    grid level of a onto b for other sets. The 27-cell relation is symmetric, so a b point
    whose best is within that cell is exact too, as (t - q)**2 == (q - t)**2, summed in the
    same axis order. Each side's leftovers then search the grid in their own direction:
    a's from the next doubled cell, b's from the first cell onto a."""
    return _nearest(a, b, True)
