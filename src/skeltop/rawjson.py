"""Sidecar-JSON raw binary format helpers.

Both volumes and weight tensors are stored as a small `.json` header next
to a flat little-endian binary payload. The header names the payload file
via `data_file`, a relative path resolved against the header's
directory; absolute paths and `..` components are rejected, so a header
can only name a payload in its own directory or below it.
"""

import json
import math
import os

import numpy as np

from .errors import ParseError

DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


def load_header(path):
    """Read and decode the sidecar JSON header, rewrapping JSON errors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header must be a JSON object")
    return header


def is_finite_number(value):
    """A JSON number that is a finite float; booleans are not numbers."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def require_field(header, path, name):
    if name not in header:
        raise ParseError(f"{path}: missing required field '{name}'")
    return header[name]


def read_payload(path, header, count):
    """Read `count` scalars of the declared dtype from the payload file."""
    dtype_name = require_field(header, path, "dtype")
    if dtype_name not in DTYPES:
        raise ParseError(
            f"{path}: field 'dtype' must be one of {sorted(DTYPES)}, got {dtype_name!r}")
    data_file = require_field(header, path, "data_file")
    if (not isinstance(data_file, str) or "\0" in data_file or os.path.isabs(data_file)
            or ".." in data_file.replace("\\", "/").split("/")):
        raise ParseError(
            f"{path}: field 'data_file' must be a relative path inside the header's "
            f"directory, got {data_file!r}")
    payload_path = os.path.join(os.path.dirname(os.path.abspath(path)), data_file)
    dtype = DTYPES[dtype_name]
    with open(payload_path, "rb") as fh:
        raw = fh.read()
    n = len(raw) // dtype.itemsize
    if len(raw) % dtype.itemsize != 0 or n != count:
        raise ParseError(
            f"{path}: size mismatch: header implies {count} scalars "
            f"({count * dtype.itemsize} bytes) but '{data_file}' holds {len(raw)} bytes")
    return np.frombuffer(raw, dtype=dtype)


def write_payload(path, header, flat, dtype_name):
    """Write the header JSON at `path` and the payload next to it."""
    data_file = header["data_file"]
    payload_path = os.path.join(os.path.dirname(os.path.abspath(path)), data_file)
    arr = np.ascontiguousarray(flat, dtype=DTYPES[dtype_name])
    with open(payload_path, "wb") as fh:
        fh.write(arr.tobytes())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
