"""Text and JSON input, and the sidecar-JSON raw binary format.

Every text input file (SWC, JSON headers, loss and synth specs) is read
through :func:`read_text`, so bytes that are not UTF-8 are a ParseError.

Both volumes and weight tensors are stored as a small `.json` header next
to a flat little-endian binary payload. The header names the payload file
via `data_file`, a relative path resolved against the header's
directory; absolute paths and `..` components are rejected, so a header
can only name a payload in its own directory or below it. Writers name
the payload `<stem>.bin` after the header's file name.
"""

import json
import math
import os

import numpy as np

from .errors import ParseError

DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


def read_text(path):
    """The contents of the UTF-8 text file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def load_object(path):
    """The JSON object stored in the text file at `path`."""
    try:
        doc = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # incl. JSONDecodeError, over-long integers
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


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


def shape_field(header, path, name, rank=None):
    """Header field `name` as a non-empty list of positive integers (exactly
    `rank` of them if given), with the product of its entries."""
    shape = require_field(header, path, name)
    if (not isinstance(shape, list) or not shape or rank not in (None, len(shape))
            or any(type(v) is not int or v < 1 for v in shape)):
        count = "" if rank is None else f"{rank} "
        raise ParseError(f"{path}: field '{name}' must be {count}positive integers, got {shape!r}")
    return shape, math.prod(shape)


def read_payload(path, header, count):
    """Read `count` scalars of the declared dtype from the payload file into
    a new array. The file's size is checked before anything is allocated."""
    dtype_name = require_field(header, path, "dtype")
    if dtype_name not in DTYPES:
        raise ParseError(
            f"{path}: field 'dtype' must be one of {sorted(DTYPES)}, got {dtype_name!r}")
    data_file = require_field(header, path, "data_file")
    if (not isinstance(data_file, str) or not data_file or "\0" in data_file
            or os.path.isabs(data_file) or ".." in data_file.replace("\\", "/").split("/")):
        raise ParseError(
            f"{path}: field 'data_file' must be a relative path inside the header's "
            f"directory, got {data_file!r}")
    payload_path = os.path.join(os.path.dirname(os.path.abspath(path)), data_file)
    if os.path.isdir(payload_path):
        raise ParseError(f"{path}: field 'data_file' must name a file, got directory {data_file!r}")
    dtype = DTYPES[dtype_name]
    with open(payload_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == count * dtype.itemsize:
            flat = np.empty(count, dtype=dtype)
            size = fh.readinto(flat)
    if size != count * dtype.itemsize:
        raise ParseError(
            f"{path}: size mismatch: header implies {count} scalars "
            f"({count * dtype.itemsize} bytes) but '{data_file}' holds {size} bytes")
    return flat


def write_payload(path, fields, flat, dtype_name):
    """Write `flat` as `<stem>.bin` next to `path`, and at `path` the header:
    `fields`, then `dtype` and `data_file`."""
    stem = os.path.basename(path)
    if stem.endswith(".json"):
        stem = stem[:-5]
    header = {**fields, "dtype": dtype_name, "data_file": f"{stem}.bin"}
    payload_path = os.path.join(os.path.dirname(os.path.abspath(path)), header["data_file"])
    arr = np.ascontiguousarray(flat, dtype=DTYPES[dtype_name])
    with open(payload_path, "wb") as fh:
        fh.write(arr.tobytes())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
