"""Reference (26, 6) thinning kept only as a differential-test oracle.

This is the straightforward formulation that ``skeltop.thinning`` must
reproduce bit for bit: simplicity is decided by a min-label flood fill
over each 27-cell neighborhood (26-adjacency on the punctured foreground,
6-adjacency on the 18-neighborhood background), and conflicts inside a
sub-iteration are resolved by a sequential scan in ``argwhere`` order
that skips any candidate whose 3x3x3 neighborhood already lost a voxel.
"""

import numpy as np

_OFFSETS = [(dz, dy, dx) for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
_CENTER = 13
_SENTINEL = np.int8(100)
_CELL_IDX = np.arange(27, dtype=np.int8)

_off = np.array(_OFFSETS)
_cheb = np.abs(_off[:, None, :] - _off[None, :, :]).max(axis=2)
_manh = np.abs(_off[:, None, :] - _off[None, :, :]).sum(axis=2)

_ADJ26 = (_cheb <= 1) & ~np.eye(27, dtype=bool)
_ADJ26[_CENTER, :] = False
_ADJ26[:, _CENTER] = False

_IN18 = np.abs(_off).sum(axis=1) <= 2
_IN18[_CENTER] = False
_ADJ6 = (_manh == 1) & _IN18[:, None] & _IN18[None, :]
_FACES = np.where(np.abs(_off).sum(axis=1) == 1)[0]

_DIRECTIONS = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]

_CHUNK = 4096


def _component_labels(fg, adj):
    """Min-label flood fill over per-row 27-cell neighborhoods."""
    lbl = np.where(fg, _CELL_IDX[None, :], _SENTINEL)
    for _ in range(27):
        neighbor_min = np.where(adj[None, :, :], lbl[:, None, :], _SENTINEL).min(axis=2)
        new = np.where(fg, np.minimum(lbl, neighbor_min), _SENTINEL)
        if np.array_equal(new, lbl):
            break
        lbl = new
    return lbl


def simple_mask(nb27):
    """Per-row (26, 6) simple-point test for (n, 27) neighborhood slabs."""
    out = np.empty(nb27.shape[0], dtype=bool)
    for lo in range(0, nb27.shape[0], _CHUNK):
        nb = nb27[lo:lo + _CHUNK]
        fg = nb.copy()
        fg[:, _CENTER] = False
        lbl = _component_labels(fg, _ADJ26)
        n_fg = (fg & (lbl == _CELL_IDX[None, :])).sum(axis=1)

        bg = ~nb & _IN18[None, :]
        lbl = _component_labels(bg, _ADJ6)
        face_lbl = np.sort(np.where(bg[:, _FACES], lbl[:, _FACES], _SENTINEL), axis=1)
        n_bg = (face_lbl[:, 0] != _SENTINEL).astype(np.int64)
        n_bg += ((face_lbl[:, 1:] != face_lbl[:, :-1]) & (face_lbl[:, 1:] != _SENTINEL)).sum(axis=1)

        out[lo:lo + _CHUNK] = (n_fg == 1) & (n_bg == 1)
    return out


def _gather_neighborhoods(padded, coords):
    return np.stack(
        [padded[coords[:, 0] + oz, coords[:, 1] + oy, coords[:, 2] + ox]
         for (oz, oy, ox) in _OFFSETS], axis=1)


def thin(mask: np.ndarray) -> np.ndarray:
    """Thin a boolean 3D array to its medial-axis skeleton."""
    d, h, w = mask.shape
    img = np.zeros((d + 2, h + 2, w + 2), dtype=bool)
    img[1:-1, 1:-1, 1:-1] = np.asarray(mask, dtype=bool)
    core = img[1:-1, 1:-1, 1:-1]
    changed = True
    while changed:
        changed = False
        for (dz, dy, dx) in _DIRECTIONS:
            ahead = img[1 + dz:1 + dz + d, 1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
            coords = np.argwhere(core & ~ahead) + 1
            if coords.shape[0] == 0:
                continue
            nb27 = _gather_neighborhoods(img, coords)
            n_neighbors = nb27.sum(axis=1) - 1
            keep = n_neighbors >= 2  # protect endpoints and isolated voxels
            coords = coords[keep]
            if coords.shape[0] == 0:
                continue
            coords = coords[simple_mask(nb27[keep])]
            if coords.shape[0] == 0:
                continue
            deleted = np.zeros_like(img)
            for z, y, x in coords:
                if deleted[z - 1:z + 2, y - 1:y + 2, x - 1:x + 2].any():
                    continue  # neighborhood changed; re-decide next pass
                img[z, y, x] = False
                deleted[z, y, x] = True
                changed = True
    return core.copy()
