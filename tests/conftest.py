"""Shared fixtures: a deterministic corpus of synthetic shapes and
independent brute-force oracles used to cross-check accelerated paths."""

import numpy as np
import pytest
from hypothesis import strategies as st

from skeltop import BINARY, Morphology, SwcRecord, Volume3D


def stamp_capsule(mask, pa, pb, radius):
    """Mark voxels within `radius` of the segment pa-pb (coords (z, y, x))."""
    pa = np.asarray(pa, dtype=np.float64)
    pb = np.asarray(pb, dtype=np.float64)
    zz, yy, xx = np.meshgrid(*(np.arange(s) for s in mask.shape), indexing="ij")
    pts = np.stack((zz, yy, xx), axis=-1).astype(np.float64)
    seg = pb - pa
    n2 = float((seg ** 2).sum())
    if n2 < 1e-24:
        d2 = ((pts - pa) ** 2).sum(axis=-1)
    else:
        t = np.clip(((pts - pa) @ seg) / n2, 0.0, 1.0)
        d2 = ((pts - (pa + t[..., None] * seg)) ** 2).sum(axis=-1)
    mask |= d2 <= radius * radius


def _tube(axis, radius):
    m = np.zeros((22, 22, 22), dtype=bool)
    a = np.array([10.0, 10.0, 10.0])
    b = a.copy()
    a[axis], b[axis] = 3.0, 18.0
    stamp_capsule(m, a, b, radius)
    return m


def _diag_tube(flip, radius):
    m = np.zeros((22, 22, 22), dtype=bool)
    if flip:
        stamp_capsule(m, (4, 17, 4), (17, 4, 17), radius)
    else:
        stamp_capsule(m, (4, 4, 4), (17, 17, 17), radius)
    return m


def _l_bend(axis_pair, radius):
    m = np.zeros((24, 24, 24), dtype=bool)
    corner = np.array([5.0, 5.0, 5.0])
    arm1 = corner.copy()
    arm2 = corner.copy()
    arm1[axis_pair[0]] = 18.0
    arm2[axis_pair[1]] = 18.0
    stamp_capsule(m, corner, arm1, radius)
    stamp_capsule(m, corner, arm2, radius)
    return m


def _y_branch(spread, radius):
    m = np.zeros((26, 26, 26), dtype=bool)
    stamp_capsule(m, (4, 13, 13), (13, 13, 13), radius)
    stamp_capsule(m, (13, 13, 13), (21, 13 + spread, 13 + spread // 2), radius)
    stamp_capsule(m, (13, 13, 13), (21, 13 - spread, 13 - spread // 2), radius)
    return m


def _blob(centers_radii, dims=(24, 24, 24)):
    m = np.zeros(dims, dtype=bool)
    zz, yy, xx = np.meshgrid(*(np.arange(s) for s in dims), indexing="ij")
    for (cz, cy, cx, r) in centers_radii:
        m |= ((zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2) <= r * r
    return m


def build_shape_corpus():
    """>= 20 deterministic binary masks: tubes, L-bends, Y-branches, blobs."""
    shapes = []
    for axis in (0, 1, 2):
        for radius in (1.2, 2.3):
            shapes.append((f"tube-axis{axis}-r{radius}", _tube(axis, radius)))
    shapes.append(("tube-diag", _diag_tube(False, 1.6)))
    shapes.append(("tube-antidiag", _diag_tube(True, 2.0)))
    for pair in ((0, 1), (0, 2), (1, 2)):
        shapes.append((f"L-{pair[0]}{pair[1]}", _l_bend(pair, 1.7)))
    shapes.append(("L-thick", _l_bend((1, 2), 2.4)))
    for spread, radius in ((5, 1.4), (7, 1.8), (6, 2.2), (4, 2.6)):
        shapes.append((f"Y-s{spread}-r{radius}", _y_branch(spread, radius)))
    shapes.append(("blob-ball", _blob([(12, 12, 12, 6)])))
    shapes.append(("blob-two", _blob([(8, 8, 8, 4), (16, 16, 16, 5)])))
    shapes.append(("blob-three", _blob([(6, 6, 6, 3), (12, 14, 12, 4), (18, 7, 17, 3)])))
    shapes.append(("blob-merged", _blob([(10, 10, 10, 5), (13, 13, 13, 5)])))
    return shapes


@pytest.fixture(scope="session")
def shape_corpus():
    corpus = build_shape_corpus()
    assert len(corpus) >= 20
    return [(name, Volume3D(m.astype("u1"), BINARY)) for name, m in corpus]


# ---------------------------------------------------------------------------
# Independent oracles

def brute_min_dists(queries, targets):
    """All-pairs nearest distances, plain numpy broadcast."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    d2 = ((q[:, None, :] - t[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


def brute_surface_voxels(mask_bool):
    """6-neighborhood surface scan written independently of the library."""
    d, h, w = mask_bool.shape
    out = set()
    for z in range(d):
        for y in range(h):
            for x in range(w):
                if not mask_bool[z, y, x]:
                    continue
                for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    nz, ny, nx = z + dz, y + dy, x + dx
                    if not (0 <= nz < d and 0 <= ny < h and 0 <= nx < w) \
                            or not mask_bool[nz, ny, nx]:
                        out.add((z, y, x))
                        break
    return out


def count_components_26(mask_bool):
    """26-connectivity component count via scipy labeling (oracle)."""
    from scipy import ndimage
    _, n = ndimage.label(mask_bool, structure=np.ones((3, 3, 3)))
    return int(n)


def has_2x2x2_block(mask_bool):
    s = mask_bool
    return bool((s[:-1, :-1, :-1] & s[1:, :-1, :-1] & s[:-1, 1:, :-1] & s[:-1, :-1, 1:]
                 & s[1:, 1:, :-1] & s[1:, :-1, 1:] & s[:-1, 1:, 1:] & s[1:, 1:, 1:]).any())


@st.composite
def forests(draw, max_nodes=24, span=20.0):
    """SWC forests for differential tests: unsorted, non-contiguous ids, parents
    with larger or smaller ids than their children, several roots, random float
    coordinates and zero-length segments; records come in shuffled order."""
    n = draw(st.integers(1, max_nodes))
    ids = draw(st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n, unique=True))
    coord = st.floats(-span, span, allow_nan=False, allow_infinity=False)
    records = []
    for k, node_id in enumerate(ids):
        parent = -1 if k == 0 or draw(st.integers(0, 5)) == 0 else ids[draw(st.integers(0, k - 1))]
        if parent != -1 and draw(st.integers(0, 6)) == 0:  # zero-length segment
            p = records[ids.index(parent)]
            xyz = (p.x, p.y, p.z)
        else:
            xyz = tuple(draw(coord) for _ in range(3))
        records.append(SwcRecord(node_id, draw(st.integers(0, 7)), *xyz,
                                 draw(st.floats(0.01, 8.0)), parent))
    order = draw(st.permutations(range(n)))
    return Morphology(tuple(records[i] for i in order))
