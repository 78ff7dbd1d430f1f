"""Reference NumPy tree growth kept only as a differential-test oracle.

This is the formulation that ``skeltop.synth.generate_tree`` must
reproduce bit for bit: every growth step works on NumPy 3-vectors, with
``np.cross`` for the cap's frame and array sums for the norms. The RNG
stream, its calls and their order are the generator's own.
"""

import numpy as np

from skeltop.errors import GenerationError
from skeltop.swc import Morphology, SwcRecord
from skeltop.synth import _MAX_DIRECTION_TRIES, STREAM_TREE, _rng, _unit_sphere


def _cap_direction(rng, axis, cos_min):
    """Uniform direction on the spherical cap {u : dot(u, axis) >= cos_min}."""
    z = rng.uniform(cos_min, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    s = np.sqrt(max(0.0, 1.0 - z * z))
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.sqrt((u ** 2).sum())
    v = np.cross(axis, u)
    return s * np.cos(phi) * u + s * np.sin(phi) * v + z * axis


def generate_tree(spec):
    """Grow a branching path tree inside the volume, deterministically."""
    rng = _rng(spec.seed, STREAM_TREE)
    d, h, w = spec.dims
    margin = spec.tube_radius + 1.0
    lo = np.array([margin, margin, margin])
    hi = np.array([w - 1 - margin, h - 1 - margin, d - 1 - margin])  # (x, y, z)
    if (hi - lo).min() <= 0:
        raise GenerationError(
            f"dims {spec.dims} leave no interior for margin {margin:.2f}")

    positions = []  # node id - 1 indexes these and records
    directions = []
    records = []

    def add_node(pos, direction, parent_id, type_code):
        node_id = len(records) + 1
        records.append(SwcRecord(node_id, type_code, float(pos[0]), float(pos[1]),
                                 float(pos[2]), spec.tube_radius, parent_id))
        positions.append(np.asarray(pos, dtype=np.float64))
        directions.append(direction)
        return node_id

    def grow_path(current, direction, n_segments, type_code):
        for _ in range(n_segments):
            pos = positions[current - 1]
            step = rng.uniform(*spec.segment_length)
            d_try = direction
            for attempt in range(_MAX_DIRECTION_TRIES):
                nxt = pos + step * d_try
                if (nxt >= lo).all() and (nxt <= hi).all():
                    break
                if attempt < _MAX_DIRECTION_TRIES // 2:
                    d_try = _cap_direction(rng, direction, 0.7)
                else:
                    inward = 0.5 * (lo + hi) - pos
                    inward /= max(1e-12, float(np.sqrt((inward ** 2).sum())))
                    d_try = _cap_direction(rng, inward, 0.8)
            else:
                raise GenerationError(
                    f"could not keep the tree inside dims {spec.dims}; "
                    "enlarge dims or shorten segments")
            current = add_node(nxt, d_try, current, type_code)
            direction = _cap_direction(rng, d_try, 0.9)

    root_pos = lo + rng.uniform(size=3) * (hi - lo)
    root_dir = _unit_sphere(rng)
    root_id = add_node(root_pos, root_dir, -1, type_code=1)
    grow_path(root_id, root_dir, int(rng.integers(4, 7)), type_code=3)

    for _ in range(spec.n_branch_points):
        interior = sorted({r.parent for r in records if r.parent != -1})
        attach = int(rng.choice(interior))
        branch_dir = _cap_direction(rng, directions[attach - 1], 0.2)
        grow_path(attach, branch_dir, int(rng.integers(2, 5)), type_code=3)

    return Morphology(tuple(records))
