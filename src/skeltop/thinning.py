"""Sequential 3D medial-axis thinning on binary voxel grids.

Border voxels are peeled from the six axis directions in turn. A voxel is
deleted only when it is a simple point for (26, 6) connectivity, i.e. its
removal provably preserves foreground topology: the foreground of its
punctured 3x3x3 neighborhood must form exactly one 26-connected
component, and the background of its 18-neighborhood exactly one
6-connected component touching a face neighbor (T26 = T6 = 1, Bertrand &
Malandain 1994). Endpoints (exactly one foreground neighbor) are kept so
that curve ends survive.

Each test counts the components of an 8-node graph held as an 8x8 bit
matrix, row i in byte i of a uint64. Two punctured cells are 26-adjacent
iff one of the eight 2x2x2 octants at the centre holds both, so the
foreground's components are those of the octants, each foreground cell
linking the octants it lies in. The background's face-holding components
are those of the face octahedron less the links that foreground faces and
edge cells break. Each matrix is an OR of per-cell table entries; three
squarings (``M = OR_k _Q[byte k of M]``) close every path, and there is
one component iff ``M == _Q[A]`` for the nonzero union A of the rows: a
fixed number of numpy calls per block of voxels. The image is visited
through its ascending list of foreground flat indices, which is exactly
``argwhere`` order; the list left at the fixpoint gives the skeleton's
voxel coordinates without a skeleton volume.

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

from .errors import ValidationError

_OFFSETS = np.array([(dz, dy, dx)
                     for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
_CENTER = 13
_BLOCK = 1 << 12  # candidates per simple-point block: bounds the (27, n) temporaries


def _bit_matrix(adj):
    """(..., 8, 8) bool matrices as uint64 bit matrices, row i in byte i."""
    rows = np.packbits(adj.reshape(*adj.shape[:-2], 64), axis=-1, bitorder="little")
    return rows.view("<u8")[..., 0].astype(np.uint64)


_bits8 = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
_Q = _bit_matrix(_bits8[:, :, None] & _bits8[:, None])  # _Q[v]: the outer product v x v
_norm1 = np.abs(_OFFSETS).sum(axis=1)
_FACES = _OFFSETS[_norm1 == 1]
# Foreground nodes: the octants at the 8 corners, holding each cell within one step.
_in_octant = (np.abs(_OFFSETS[:, None] - _OFFSETS[_norm1 == 3]).max(axis=2) <= 1) & (_norm1 > 0)[:, None]
# Background nodes 0-5: the faces, two of them linked through their edge cell.
_on_face = np.pad((_OFFSETS[:, None] == _FACES).all(axis=2), ((0, 0), (0, 2)))
_on_edge = np.pad((_OFFSETS[:, None, None] == _FACES[:, None] + _FACES).all(axis=3),
                  ((0, 0), (0, 2), (0, 2)))
_octahedron = np.pad(_FACES @ _FACES.T >= 0, (0, 2))  # all face pairs but opposite ones
_OCTAHEDRON = _bit_matrix(_octahedron)
# Per cell, when foreground: it links its octants and breaks its face's or edge's links.
_TABLE = np.stack((_bit_matrix(_in_octant[:, :, None] & _in_octant[:, None]),
                   _bit_matrix(_octahedron & (_on_face[:, :, None] | _on_face[:, None] | _on_edge))),
                  axis=1)[:, :, None]


def _simple(nb):
    """(26, 6) simple-point test for (27, n) bool neighborhoods, one column each."""
    n = nb.shape[1]
    m = np.bitwise_or.reduce(nb[:, None] * _TABLE, axis=0).ravel()  # foreground, then background
    m[n:] ^= _OCTAHEDRON
    for _ in range(3):  # squarings: paths of up to 8 steps join every component of 8 nodes
        m = np.bitwise_or.reduce(_Q.take(m.view(np.uint8).reshape(-1, 8).T), axis=0)
    nodes = np.bitwise_or.reduce(m.view(np.uint8).reshape(-1, 8), axis=1)
    one = (nodes != 0) & (m == _Q[nodes])
    return one[:n] & one[n:]


def _first_independent(idx, earlier):
    """Lexicographically first maximal independent subset of ascending `idx`,
    where `earlier` holds the flat offsets of the 13 preceding 26-neighbors."""
    keep = bytearray(b"\x01") * len(idx)
    for lo in range(0, len(idx), _BLOCK):  # a block's pairs point back into all of idx
        nbr_flat = idx[lo:lo + _BLOCK, None] + earlier
        nbr = np.searchsorted(idx, nbr_flat)
        hit = idx[np.minimum(nbr, len(idx) - 1)] == nbr_flat
        # (candidate, earlier candidate) pairs, ascending by candidate: every
        # earlier candidate's fate is final before it is read
        rows, cols = np.nonzero(hit)
        for c, p in zip((rows + lo).tolist(), nbr[rows, cols].tolist()):
            if keep[p]:
                keep[c] = 0
    return idx[np.frombuffer(keep, dtype=bool)]


def _deletable(flat, border, offs):
    """The simple points among ascending `border` with 2+ foreground
    neighbors (endpoints and isolated voxels stay), in blocks of `_BLOCK`."""
    found = [border[:0]]
    for lo in range(0, len(border), _BLOCK):
        idx = border[lo:lo + _BLOCK]
        nb = flat[offs[:, None] + idx]
        keep = np.count_nonzero(nb, axis=0) >= 3
        found.append(idx[keep][_simple(nb[:, keep])])
    return np.concatenate(found)


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
            idx = _deletable(flat, fg[~flat[fg + step]], offs)
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
    if masks.ndim not in (3, 4):
        raise ValidationError(f"thin expects a 3D mask or a 4D stack of them, got shape {masks.shape}")
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
