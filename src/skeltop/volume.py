"""Dense 3D scalar volumes: thresholding, surface extraction, file I/O.

A volume is a (depth, height, width) scalar field with per-axis voxel
spacing. Two kinds exist: ``probability`` volumes (float32 values in
[0, 1]) and ``binary`` masks (uint8 values in {0, 1}). Volumes are
immutable after construction; every operation returns a new volume.

Distances elsewhere in the package are computed in voxel units by
default; spacing is carried as metadata and only applied where an
operation documents a spacing flag.
"""

from dataclasses import dataclass

import numpy as np

from . import rawjson
from .errors import ParseError, ValidationError

PROBABILITY = "probability"
BINARY = "binary"

_KIND_DTYPE = {PROBABILITY: np.dtype("<f4"), BINARY: np.dtype("u1")}
_KIND_DTYPE_NAME = {PROBABILITY: "f32", BINARY: "u8"}


class _Fresh(np.ndarray):
    """Marks an array that no one but the new volume holds (a payload just
    read from a file), so the volume keeps it without a copy."""


@dataclass(frozen=True)
class Volume3D:
    """Immutable 3D scalar field with dims (d, h, w) and spacing (sz, sy, sx)."""

    data: np.ndarray
    kind: str
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in _KIND_DTYPE:
            raise ValidationError(f"kind must be '{PROBABILITY}' or '{BINARY}', got {self.kind!r}")
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValidationError(f"volume data must be 3-dimensional, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"volume dims must be positive, got {arr.shape}")
        sp = tuple(float(s) for s in self.spacing)
        if len(sp) != 3 or any(not 0 < s < np.inf for s in sp):  # NaN fails too
            raise ValidationError(f"spacing must be 3 positive reals, got {self.spacing!r}")
        if self.kind == BINARY and arr.dtype.kind in "fc" and not np.isfinite(arr).all():
            raise ValidationError("binary volume has NaN or infinite values")  # the cast hides them
        arr = np.asarray(arr, dtype=_KIND_DTYPE[self.kind])
        if self.kind == PROBABILITY:
            lo, hi = float(arr.min()), float(arr.max())
            if not (lo >= 0.0 and hi <= 1.0):  # NaN fails both comparisons
                raise ValidationError("probability volume has values outside [0, 1] or NaN")
        elif arr.max() > 1:  # uint8: the only values that are not 0 or 1 exceed 1
            raise ValidationError("binary volume has values outside {0, 1}")
        arr = np.ascontiguousarray(arr)
        if np.may_share_memory(arr, self.data) and not isinstance(self.data, _Fresh):
            arr = arr.copy()  # own the caller's buffer before freezing
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "spacing", sp)

    @property
    def dims(self):
        return self.data.shape

    def foreground_count(self):
        return int(np.count_nonzero(self.data))

    def bool_data(self):
        return self.data.astype(bool)


def threshold(prob: Volume3D, tau: float = 0.5) -> Volume3D:
    """Binarize with a strict cut: foreground wherever value > tau.

    Values exactly equal to tau map to background. tau must lie strictly
    inside (0, 1), so a binary mask comes back as the same mask.
    """
    check_tau(tau)
    return Volume3D(prob.data > tau, BINARY, prob.spacing)


def check_tau(tau):
    """Raise ValidationError unless the threshold tau lies strictly inside (0, 1)."""
    if not (0.0 < tau < 1.0):
        raise ValidationError(f"tau must lie in the open interval (0, 1), got {tau}")


def check_same_dims(pred: Volume3D, gt: Volume3D):
    """Raise ValidationError unless the prediction and ground truth dims agree."""
    if pred.dims != gt.dims:
        raise ValidationError(
            f"prediction dims {tuple(pred.dims)} do not match ground truth dims {tuple(gt.dims)}")


def check_binary(vol: Volume3D, what: str):
    """Raise ValidationError unless `vol` is binary; `what` names the operation."""
    if vol.kind != BINARY:
        raise ValidationError(f"{what} requires a binary volume, got kind '{vol.kind}'")


def surface_voxel_array(mask: Volume3D) -> np.ndarray:
    """Foreground voxels with at least one 6-neighbor that is background
    or outside the volume, as an (n, 3) int array in (z, y, x) order."""
    check_binary(mask, "surface extraction")
    padded = np.zeros(tuple(n + 2 for n in mask.dims), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = mask.data
    flat = padded.ravel()
    fg = np.flatnonzero(flat)  # ascending flat index is argwhere order
    _, h, w = padded.shape
    exposed = np.zeros(len(fg), dtype=bool)
    for offset in (1, w, h * w):
        exposed |= ~flat[fg - offset]
        exposed |= ~flat[fg + offset]
    z, y, x = np.unravel_index(fg[exposed], padded.shape)
    return np.stack((z - 1, y - 1, x - 1), axis=1)


# ---------------------------------------------------------------------------
# File formats

_NRRD_MAGIC = "NRRD0004"
_NRRD_FIELDS = ("type", "dimension", "sizes", "encoding", "endian")


def read_volume(path: str) -> Volume3D:
    """Read an NRRD file (`.nrrd`) or a RawJson header (any other name)."""
    return _read_nrrd(path) if path.endswith(".nrrd") else _read_rawjson(path)


def write_volume(vol: Volume3D, path: str) -> None:
    """Write an NRRD file (`.nrrd`) or a RawJson header and payload (any other name)."""
    if path.endswith(".nrrd"):
        _write_nrrd(vol, path)
    else:
        rawjson.write_payload(path, {"dims": [int(d) for d in vol.dims],
                                     "spacing": [float(s) for s in vol.spacing],
                                     "kind": vol.kind},
                              vol.data.ravel(), _KIND_DTYPE_NAME[vol.kind])


def _read_rawjson(path):
    header = rawjson.load_object(path)
    for name in ("dims", "spacing", "kind", "dtype", "data_file"):
        rawjson.require_field(header, path, name)
    dims, count = rawjson.shape_field(header, path, "dims", rank=3)
    spacing = header["spacing"]
    if (not isinstance(spacing, list) or len(spacing) != 3
            or not all(rawjson.is_finite_number(v) for v in spacing)):
        raise ParseError(f"{path}: field 'spacing' must be 3 finite reals, got {spacing!r}")
    kind = header["kind"]
    if kind not in (PROBABILITY, BINARY):  # a tuple test: an unhashable value is just unequal
        raise ParseError(f"{path}: field 'kind' must be 'probability' or 'binary', got {kind!r}")
    if header["dtype"] != _KIND_DTYPE_NAME[kind]:
        raise ParseError(
            f"{path}: field 'dtype' is {header['dtype']!r} but kind '{kind}' "
            f"requires '{_KIND_DTYPE_NAME[kind]}'")
    flat = rawjson.read_payload(path, header, count)
    try:
        return Volume3D(flat.reshape(dims).view(_Fresh), kind, tuple(spacing))
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_nrrd(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0 or blob[:nl].strip() != _NRRD_MAGIC.encode():
        raise ParseError(f"{path}: missing {_NRRD_MAGIC} magic line")
    fields = {}
    pos = nl + 1
    while True:
        nl = blob.find(b"\n", pos)
        if nl < 0:
            raise ParseError(f"{path}: header never terminated by a blank line")
        line = blob[pos:nl].decode("ascii", errors="replace").rstrip("\r")
        pos = nl + 1
        if line == "":
            break
        if ":" not in line:
            raise ParseError(f"{path}: malformed header line {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in _NRRD_FIELDS:
            raise ParseError(f"{path}: unsupported field '{key}'")
        fields[key] = value.strip()
    for name in _NRRD_FIELDS:
        if name not in fields:
            raise ParseError(f"{path}: missing required field '{name}'")
    if fields["encoding"] != "raw":
        raise ParseError(f"{path}: unsupported value for field 'encoding': {fields['encoding']!r}")
    if fields["endian"] != "little":
        raise ParseError(f"{path}: unsupported value for field 'endian': {fields['endian']!r}")
    if fields["dimension"] != "3":
        raise ParseError(f"{path}: field 'dimension' must be 3, got {fields['dimension']!r}")
    if fields["type"] == "uint8":
        dtype, kind = np.dtype("u1"), BINARY
    elif fields["type"] == "float":
        dtype, kind = np.dtype("<f4"), PROBABILITY
    else:
        raise ParseError(f"{path}: field 'type' must be 'uint8' or 'float', got {fields['type']!r}")
    try:
        sizes = [int(tok) for tok in fields["sizes"].split()]
    except ValueError:
        raise ParseError(f"{path}: field 'sizes' must be integers, got {fields['sizes']!r}") from None
    if len(sizes) != 3 or any(v < 1 for v in sizes):
        raise ParseError(f"{path}: field 'sizes' must be 3 positive integers, got {fields['sizes']!r}")
    w, h, d = sizes  # fastest axis first; payload is x-fastest (C order in z, y, x)
    payload = blob[pos:]
    expected = d * h * w * dtype.itemsize
    if len(payload) != expected:
        raise ParseError(
            f"{path}: size mismatch: field 'sizes' implies {expected} payload bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype=dtype).reshape(d, h, w).view(_Fresh)
    try:
        return Volume3D(data, kind)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _write_nrrd(vol, path):
    d, h, w = vol.dims
    type_name = "uint8" if vol.kind == BINARY else "float"
    header = (
        f"{_NRRD_MAGIC}\n"
        f"type: {type_name}\n"
        f"dimension: 3\n"
        f"sizes: {w} {h} {d}\n"
        f"encoding: raw\n"
        f"endian: little\n"
        f"\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(vol.data).tobytes())
