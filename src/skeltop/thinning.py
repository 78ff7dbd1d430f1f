"""Sequential 3D medial-axis thinning on binary voxel grids.

Border voxels are peeled from the six axis directions in turn. A voxel is
deleted only when it is a simple point for (26, 6) connectivity, i.e. its
removal provably preserves foreground topology: the foreground of its
punctured 3x3x3 neighborhood must form exactly one 26-connected
component, and the background of its 18-neighborhood exactly one
6-connected component touching a face neighbor (T26 = T6 = 1, Bertrand &
Malandain 1994). Endpoints (exactly one foreground neighbor) are kept so
that curve ends survive.

Each neighborhood is packed into a 27-bit integer code (bit k is the k-th
cell in (dz, dy, dx) lexicographic order). A component is grown from its
lowest set bit by OR-ing per-byte adjacency tables until it stops
changing, so the simple-point test is a handful of table lookups per
voxel. The image is visited through its ascending list of foreground flat
indices, which is exactly ``argwhere`` order; the list left at the fixpoint
gives the skeleton's voxel coordinates without a skeleton volume.

Within a sub-iteration, simplicity is evaluated in bulk against the
current image. Candidates are then resolved as if scanned in that order,
deleting one only if no earlier deletion touched its 26-neighborhood:
that is the lexicographically first maximal independent set of the
candidates under 26-adjacency, computed in one ordered scan over the
pairs of 26-adjacent candidates. Conflicting candidates wait for the
next pass. Every deletion is therefore valid at the moment it happens,
which makes the component count (and all other topology) invariant,
and the fixpoint loop makes the operator idempotent.
"""

import numpy as np

_OFFSETS = np.array([(dz, dy, dx)
                     for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
_CENTER = 13
_BITS = np.left_shift(1, np.arange(27, dtype=np.int64))

_dist = np.abs(_OFFSETS[:, None, :] - _OFFSETS[None, :, :])
_norm1 = np.abs(_OFFSETS).sum(axis=1)
_PUNCTURED = int(_BITS.sum()) & ~(1 << _CENTER)
_N18 = int(_BITS[_norm1 <= 2].sum()) & ~(1 << _CENTER)
_FACES = int(_BITS[_norm1 == 1].sum())


def _byte_tables(adj):
    """tables[j, v]: union of the adjacency rows of the set bits of byte j = v."""
    rows = np.concatenate((np.where(adj, _BITS, 0).sum(axis=1), np.zeros(5, np.int64)))
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    return np.bitwise_or.reduce(np.where(bits[None], rows.reshape(4, 1, 8), 0), axis=2)


# Four 256-entry tables per adjacency, flattened: 26-adjacency, then 6-adjacency.
_TABLES = np.concatenate((_byte_tables(_dist.max(axis=2) == 1),
                          _byte_tables(_dist.sum(axis=2) == 1))).ravel()
_SHIFTS = np.arange(0, 32, 8)[:, None]


def _reach(seed, allowed, base):
    """Bits of `allowed` connected to `seed`, per row; column i of `base`
    points row i at its adjacency's four tables in `_TABLES`."""
    while True:
        lookup = _TABLES[base + ((seed >> _SHIFTS) & 255)]
        grown = (np.bitwise_or.reduce(lookup, axis=0) | seed) & allowed
        if (grown == seed).all():
            return seed
        seed = grown


def _simple(codes):
    """(26, 6) simple-point test for an int64 array of 27-bit neighborhood codes."""
    n = len(codes)
    fg = codes & _PUNCTURED
    bg = ~codes & _N18
    face_bg = bg & _FACES
    base = _SHIFTS * 32 + np.repeat((0, 1024), n)  # both tests share one growth loop
    reach = _reach(np.concatenate((fg & -fg, face_bg & -face_bg)),
                   np.concatenate((fg, bg)), base)
    one_fg = (fg != 0) & (reach[:n] == fg)
    one_bg = (face_bg != 0) & (reach[n:] & face_bg == face_bg)
    return one_fg & one_bg


def _first_independent(idx, earlier):
    """Lexicographically first maximal independent subset of ascending `idx`,
    where `earlier` holds the flat offsets of the 13 preceding 26-neighbors."""
    nbr_flat = idx[:, None] + earlier
    nbr = np.searchsorted(idx, nbr_flat)
    hit = idx[np.minimum(nbr, len(idx) - 1)] == nbr_flat
    # (candidate, earlier candidate) pairs, ascending by candidate: every
    # earlier candidate's fate is final before it is read
    keep = [True] * len(idx)
    for c, p in zip(np.nonzero(hit)[0].tolist(), nbr[hit].tolist()):
        if keep[p]:
            keep[c] = False
    return idx[np.array(keep, dtype=bool)]


def _thin_stack(masks, shape):
    """Thin `shape`d 3D masks as one zero-padded flat image, placed along z
    one background plane apart: the ascending flat ids of the skeleton
    voxels, the z/y strides, and each mask's view of the image."""
    (d, h, w), sz, sy = shape, (shape[1] + 2) * (shape[2] + 2), shape[2] + 2
    flat = np.zeros((len(masks) * (d + 1) + 1) * sz, dtype=bool)
    vols = flat[sz:].reshape(len(masks), d + 1, h + 2, w + 2)[:, :d, 1:-1, 1:-1]
    for vol, mask in zip(vols, masks):
        vol[...] = mask
    offs = _OFFSETS @ np.array([sz, sy, 1])
    fg = np.flatnonzero(flat)
    changed = True
    while changed:
        changed = False
        for step in (-sz, sz, -sy, sy, -1, 1):
            idx = fg[~flat[fg + step]]
            nb = flat[idx[:, None] + offs]
            codes = np.packbits(nb, axis=1, bitorder="little").view("<u4")[:, 0].astype(np.int64)
            others = codes & _PUNCTURED
            keep = (others & (others - 1)) != 0  # 2+ neighbors: endpoints and isolated stay
            idx, codes = idx[keep], codes[keep]
            idx = idx[_simple(codes)]
            if len(idx) == 0:
                continue
            flat[_first_independent(idx, offs[:_CENTER])] = False
            fg = fg[flat[fg]]
            changed = True
    return fg, sz, sy, vols


def thin(mask: np.ndarray) -> np.ndarray:
    """Thin a boolean 3D array to its medial-axis skeleton; a 4D array is a
    stack of same-shape 3D masks on its leading axis, each thinned alone.

    The stack's volumes share one zero-padded image, one background z-plane
    apart, and one fixpoint loop. That is exact: no 3x3x3 neighborhood and
    no pair of 26-adjacent candidates spans two volumes, ascending flat
    index within a volume is still its ``argwhere`` order, and a volume
    that has converged does not change in later rounds.
    """
    masks = np.asarray(mask, dtype=bool)
    stack = masks if masks.ndim == 4 else masks[None]
    skel = _thin_stack(stack, stack.shape[1:])[3].copy()
    return skel if masks.ndim == 4 else skel[0]


def _skeleton_nodes(masks):
    """Per same-shape 3D bool mask, thinned as one stack like ``thin``, its
    skeleton voxels as (n, 3) int64 rows in ``argwhere`` order, read off
    the surviving flat ids with no skeleton volume built."""
    d = masks[0].shape[0]
    fg, sz, sy, _ = _thin_stack(masks, masks[0].shape)
    z, rest = np.divmod(fg, sz)
    y, x = np.divmod(rest, sy)
    nodes = np.stack(((z - 1) % (d + 1), y - 1, x - 1), axis=1)
    return np.split(nodes, np.searchsorted(fg, (np.arange(1, len(masks)) * (d + 1) + 1) * sz))
