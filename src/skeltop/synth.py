"""Seeded synthetic neuron fixtures: tree morphologies plus rasterized
binary masks and noisy probability volumes.

Randomness comes from numpy's PCG64 with documented stream tags so the
same spec reproduces the same fixture everywhere: stream 1 drives tree
growth, stream 2 drives the probability-volume noise. Morphology
coordinates live in voxel index space, (x, y, z) mapping to voxel
(z, y, x); the whole tree stays inside the volume with a margin of at
least the tube radius.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, ValidationError, check_positive_finite
from .swc import Morphology, SwcRecord
from .volume import BINARY, PROBABILITY, Volume3D

STREAM_TREE = 1
STREAM_NOISE = 2

_MAX_DIRECTION_TRIES = 64
MAX_VOXELS = 512 ** 3  # specs with more voxels are refused rather than attempted


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    dims: tuple = (32, 32, 32)
    n_branch_points: int = 2
    segment_length: tuple = (4.0, 7.0)
    tube_radius: float = 1.5
    noise_sigma: float = 0.0
    blur_sigma: float = 0.0

    def __post_init__(self):
        checked = {"seed": _integer(self.seed, "seed"),
                   "dims": _numbers(self.dims, "dims", 3, _integer),
                   "n_branch_points": _integer(self.n_branch_points, "n_branch_points"),
                   "segment_length": _numbers(self.segment_length, "segment_length", 2, _real)}
        for name in ("tube_radius", "noise_sigma", "blur_sigma"):
            checked[name] = _real(getattr(self, name), name)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if min(self.dims) < 1 or math.prod(self.dims) > MAX_VOXELS:
            raise ValidationError(f"dims must be 3 positive integers with at most {MAX_VOXELS} "
                                  f"voxels in all, got {self.dims!r}")
        lo, hi = self.segment_length
        if not (0 < lo <= hi):
            raise ValidationError(f"segment_length must satisfy 0 < min <= max, got {self.segment_length!r}")
        if self.n_branch_points < 0:
            raise ValidationError("n_branch_points must be >= 0")
        check_positive_finite("tube_radius", self.tube_radius)
        if self.noise_sigma < 0 or self.blur_sigma < 0:
            raise ValidationError("noise_sigma and blur_sigma must be non-negative")


def _integer(value, name):
    """An integral number (3 and 3.0 pass; "3", 2.5, nan and booleans do not)."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or isinstance(value, (str, bool, np.bool_)) or out != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return out


def _real(value, name):
    """A finite real number; a boolean is not one."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if isinstance(value, (str, bool, np.bool_)) or not math.isfinite(out):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return out


def _numbers(values, name, count, convert):
    """A sequence of exactly `count` numbers, each checked by `convert`."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__len__") or len(values) != count:
        raise ValidationError(f"{name} must be a sequence of {count} numbers, got {values!r}")
    return tuple(convert(v, name) for v in values)


def _rng(seed, stream):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), stream])))


def _unit_sphere(rng):
    while True:
        v = rng.normal(size=3)
        n = float(np.sqrt((v ** 2).sum()))
        if n >= 1e-12:
            return v / n


def _cross(a, b):
    """np.cross of two 3-tuples, term for term."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _unit(v, least=0.0):
    """v over its norm (summed in NumPy's order), or over `least` if that is larger."""
    n = max(least, math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
    return v[0] / n, v[1] / n, v[2] / n


def _cap_direction(rng, axis, cos_min):
    """Uniform direction on the spherical cap {u : dot(u, axis) >= cos_min}."""
    z = rng.uniform(cos_min, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    s = math.sqrt(max(0.0, 1.0 - z * z))
    u = _unit(_cross(axis, (1.0, 0.0, 0.0) if abs(axis[0]) < 0.9 else (0.0, 1.0, 0.0)))
    v = _cross(axis, u)
    c, t = s * float(np.cos(phi)), s * float(np.sin(phi))  # NumPy's: math's may differ
    return (c * u[0] + t * v[0] + z * axis[0], c * u[1] + t * v[1] + z * axis[1],
            c * u[2] + t * v[2] + z * axis[2])


def generate_tree(spec: SynthSpec) -> Morphology:
    """Grow a branching path tree inside the volume, deterministically. Points
    and directions are float 3-tuples, each operation in the order of the NumPy
    formulation (kept in tests/synth_reference.py), so trees are bit-identical."""
    rng = _rng(spec.seed, STREAM_TREE)
    d, h, w = spec.dims
    margin = spec.tube_radius + 1.0
    hi = (w - 1 - margin, h - 1 - margin, d - 1 - margin)  # (x, y, z); lo is margin on each
    if min(hi) - margin <= 0:
        raise GenerationError(
            f"dims {spec.dims} leave no interior for margin {margin:.2f}")
    centre = tuple(0.5 * (margin + b) for b in hi)

    positions = []  # node id - 1 indexes these and records
    directions = []
    records = []

    def add_node(pos, direction, parent_id, type_code):
        node_id = len(records) + 1
        records.append(SwcRecord(node_id, type_code, *pos, spec.tube_radius, parent_id))
        positions.append(pos)
        directions.append(direction)
        return node_id

    def grow_path(current, direction, n_segments, type_code):
        for _ in range(n_segments):
            x, y, z = positions[current - 1]
            step = rng.uniform(*spec.segment_length)
            d_try = direction
            for attempt in range(_MAX_DIRECTION_TRIES):
                nxt = x + step * d_try[0], y + step * d_try[1], z + step * d_try[2]
                if (margin <= nxt[0] <= hi[0] and margin <= nxt[1] <= hi[1]
                        and margin <= nxt[2] <= hi[2]):
                    break
                if attempt < _MAX_DIRECTION_TRIES // 2:
                    d_try = _cap_direction(rng, direction, 0.7)
                else:
                    inward = _unit((centre[0] - x, centre[1] - y, centre[2] - z), 1e-12)
                    d_try = _cap_direction(rng, inward, 0.8)
            else:
                raise GenerationError(
                    f"could not keep the tree inside dims {spec.dims}; "
                    "enlarge dims or shorten segments")
            current = add_node(nxt, d_try, current, type_code)
            direction = _cap_direction(rng, d_try, 0.9)

    root_pos = tuple(margin + r * (b - margin) for r, b in zip(rng.uniform(size=3).tolist(), hi))
    root_dir = tuple(_unit_sphere(rng).tolist())
    root_id = add_node(root_pos, root_dir, -1, type_code=1)
    grow_path(root_id, root_dir, int(rng.integers(4, 7)), type_code=3)

    for _ in range(spec.n_branch_points):
        interior = sorted({r.parent for r in records if r.parent != -1})
        attach = int(rng.choice(interior))
        branch_dir = _cap_direction(rng, directions[attach - 1], 0.2)
        grow_path(attach, branch_dir, int(rng.integers(2, 5)), type_code=3)

    return Morphology(tuple(records))


def _stamp_capsule(mask, pa, pb, radius):
    d, h, w = mask.shape
    lo = np.floor(np.minimum(pa, pb) - radius).astype(int)
    hi = np.ceil(np.maximum(pa, pb) + radius).astype(int)
    x0, y0, z0 = np.maximum(lo, 0)
    x1 = min(hi[0], w - 1)
    y1 = min(hi[1], h - 1)
    z1 = min(hi[2], d - 1)
    zz, yy, xx = np.meshgrid(np.arange(z0, z1 + 1), np.arange(y0, y1 + 1),
                             np.arange(x0, x1 + 1), indexing="ij")
    pts = np.stack((xx, yy, zz), axis=-1).astype(np.float64)
    seg = pb - pa
    seg_len2 = float((seg ** 2).sum())
    if seg_len2 < 1e-24:
        d2 = ((pts - pa) ** 2).sum(axis=-1)
    else:
        t = np.clip(((pts - pa) @ seg) / seg_len2, 0.0, 1.0)
        closest = pa + t[..., None] * seg
        d2 = ((pts - closest) ** 2).sum(axis=-1)
    mask[z0:z1 + 1, y0:y1 + 1, x0:x1 + 1] |= d2 <= radius * radius


def rasterize(m: Morphology, spec: SynthSpec):
    """Render the morphology: a binary tube mask (swept balls along each
    segment, every node voxel guaranteed foreground) and a probability
    volume (mask blurred with blur_sigma, plus clamped Gaussian noise
    drawn from the spec's noise stream)."""
    d, h, w = spec.dims
    bounds = np.array([w, h, d], dtype=np.float64) - 1
    mask = np.zeros(spec.dims, dtype=bool)
    positions = m.node_positions()
    if (positions < 0).any() or (positions > bounds).any():
        raise ValidationError("morphology does not fit inside the volume dims")
    for parent, child in m.segments():
        _stamp_capsule(mask, np.array(parent.position()), np.array(child.position()),
                       spec.tube_radius)
    for pos in positions:
        ix, iy, iz = (int(v) for v in np.rint(pos))
        mask[iz, iy, ix] = True

    vol_mask = Volume3D(mask, BINARY)
    if spec.blur_sigma == 0 and spec.noise_sigma == 0:
        prob = mask.astype("<f4")
    else:
        field = mask.astype(np.float64)
        if spec.blur_sigma > 0:
            # imported here so that importing skeltop does not load scipy.ndimage
            from scipy.ndimage import gaussian_filter
            field = gaussian_filter(field, sigma=spec.blur_sigma, mode="constant", cval=0.0)
        if spec.noise_sigma > 0:
            noise_rng = _rng(spec.seed, STREAM_NOISE)
            field = field + noise_rng.normal(0.0, spec.noise_sigma, size=spec.dims)
        prob = np.clip(field, 0.0, 1.0).astype("<f4")
    return vol_mask, Volume3D(prob, PROBABILITY)
