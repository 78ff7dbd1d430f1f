"""SWC neuron morphology parsing, writing, and arc-length resampling.

SWC is line oriented: comment lines start with '#', every other
non-blank line is one record of 7 whitespace-separated fields
(id, type, x, y, z, radius, parent; parent -1 marks a root). Records form
a forest: ids are unique, every non-root parent exists, no cycles.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rawjson
from .errors import ParseError, ValidationError, check_positive_finite


@dataclass(frozen=True)
class SwcRecord:
    id: int
    type_code: int
    x: float
    y: float
    z: float
    radius: float
    parent: int

    def position(self):
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Morphology:
    """A parsed neuron trace; records are kept in ascending id order."""

    records: tuple

    def __post_init__(self):
        records = tuple(sorted(self.records, key=lambda r: r.id))
        _validate_structure(records)
        object.__setattr__(self, "records", records)

    def __len__(self):
        return len(self.records)

    def is_empty(self):
        return not self.records

    def node_positions(self) -> np.ndarray:
        """(n, 3) float array of (x, y, z) node coordinates."""
        return np.array([r.position() for r in self.records],
                        dtype=np.float64).reshape(-1, 3)

    def segments(self):
        """(parent_record, child_record) pairs in child id order."""
        table = {r.id: r for r in self.records}
        return [(table[r.parent], r) for r in self.records if r.parent != -1]

    def total_length(self) -> float:
        return float(sum(
            np.sqrt((np.subtract(c.position(), p.position()) ** 2).sum())
            for p, c in self.segments()))


class _RecordError(ParseError):
    """A fault of the record at `index` in id order."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


def _validate_structure(records):
    table = {}
    for idx, rec in enumerate(records):
        if rec.id in table:
            raise _RecordError(idx, f"duplicate id {rec.id}")
        if not all(math.isfinite(v) for v in (rec.x, rec.y, rec.z)):
            raise _RecordError(idx, f"coordinates must be finite, got {rec.position()}")
        if not (math.isfinite(rec.radius) and rec.radius > 0):
            raise _RecordError(idx, f"radius must be positive and finite, got {rec.radius}")
        if rec.parent < -1:
            raise _RecordError(idx, f"parent must be -1 or a record id, got {rec.parent}")
        table[rec.id] = rec
    for idx, rec in enumerate(records):
        if rec.parent != -1 and rec.parent not in table:
            raise _RecordError(idx, f"parent id {rec.parent} does not exist")
    # cycle check: follow parent chains, memoizing ids known to reach a root
    safe = set()
    for idx, rec in enumerate(records):
        chain = set()
        cur = rec
        while cur.id not in safe:
            if cur.id in chain:
                raise _RecordError(idx, f"parent chain of id {rec.id} contains a cycle")
            chain.add(cur.id)
            if cur.parent == -1:
                break
            cur = table[cur.parent]
        safe.update(chain)


def parse_swc(text: str) -> Morphology:
    """Parse SWC text; errors carry 1-based line numbers."""
    records = []
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 7:
            raise ParseError(f"line {lineno}: expected 7 fields, got {len(fields)}")
        try:
            rec = SwcRecord(int(fields[0]), int(fields[1]),
                            float(fields[2]), float(fields[3]), float(fields[4]),
                            float(fields[5]), int(fields[6]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-numeric field ({exc})") from None
        records.append(rec)
        lines.append(lineno)
    order = sorted(range(len(records)), key=lambda i: records[i].id)
    try:
        return Morphology(tuple(records[i] for i in order))
    except _RecordError as exc:
        raise ParseError(f"line {lines[order[exc.index]]}: {exc}") from None


def write_swc(m: Morphology) -> str:
    """One record per line, fields space separated, ids ascending."""
    out = []
    for r in m.records:
        out.append(f"{r.id} {r.type_code} {r.x!r} {r.y!r} {r.z!r} {r.radius!r} {r.parent}")
    return "\n".join(out) + ("\n" if out else "")


def load_swc(path: str) -> Morphology:
    text = rawjson.read_text(path)
    try:
        return parse_swc(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_swc(m: Morphology, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_swc(m))


# Resampling past this many nodes is refused rather than attempted.
MAX_RESAMPLED_NODES = 10 ** 8


def resample_arrays(m: Morphology, step: float):
    """The nodes of ``resample(m, step)`` as arrays, row i being new id i + 1.

    Returns (positions (n, 3) float64, radii (n,) float64, parents (n,)
    int64 new ids with -1 for roots, sources (n,) int64 indices into
    ``m.records`` of the node each row is or lies before). Rows follow a
    preorder walk from the roots, children in ascending id order, with
    each segment's interior points just before its child node.
    """
    check_positive_finite("resample step", step)
    recs = m.records
    row_of = {r.id: i for i, r in enumerate(recs)}
    children = [[] for _ in recs]
    roots = []
    for i, r in enumerate(recs):
        if r.parent == -1:
            roots.append(i)
        else:
            children[row_of[r.parent]].append(i)
    order = []  # preorder; records are in id order, so children lists ascend
    stack = roots[::-1]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(reversed(children[i]))
    walk = [recs[i] for i in order]
    k_of = {r.id: k for k, r in enumerate(walk)}
    up = np.array([-1 if r.parent == -1 else k_of[r.parent] for r in walk], dtype=np.int64)
    xyz = np.array([r.position() for r in walk], dtype=np.float64).reshape(-1, 3)
    radius = np.array([r.radius for r in walk], dtype=np.float64)

    child = np.flatnonzero(up >= 0)
    d = xyz[child] - xyz[up[child]]
    # ((end - start) ** 2).sum() term by term, in the same order; inf past the float range
    with np.errstate(over="ignore"):
        length = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    count = np.ones(len(order))  # rows per node: its n_seg - 1 interior points, then itself
    count[child] = np.maximum(1.0, np.ceil(length / step))
    if not count.sum() <= MAX_RESAMPLED_NODES:
        raise ValidationError(
            f"resampling at step {step} would give {count.sum():.4g} nodes; "
            f"at most {MAX_RESAMPLED_NODES} are supported")
    count = count.astype(np.int64)
    own = np.cumsum(count) - 1  # each node's own row
    first = own - count + 1     # the first row of its block
    n = int(count.sum())

    seg = np.repeat(np.arange(len(order)), count - 1)  # node whose block holds each interior row
    inner = np.arange(len(seg)) + seg  # interior rows, skipping one own row per earlier node
    t = (inner - first[seg] + 1) / count[seg]  # i / n_seg
    a = up[seg]
    positions = np.empty((n, 3))
    positions[own] = xyz
    positions[inner] = xyz[a] + t[:, None] * (xyz[seg] - xyz[a])
    radii = np.empty(n)
    radii[own] = radius
    radii[inner] = radius[a] + t * (radius[seg] - radius[a])
    parents = np.arange(n, dtype=np.int64)  # the id of the row before is this row's index
    parents[first[child]] = own[up[child]] + 1
    parents[own[up < 0]] = -1
    sources = np.asarray(order, dtype=np.int64)[np.repeat(np.arange(len(order)), count)]
    return positions, radii, parents, sources


def resample(m: Morphology, step: float) -> Morphology:
    """Subdivide every parent-child segment so consecutive points sit at
    most `step` apart (arc length). Endpoints and topology are preserved;
    ids are renumbered sequentially from 1 in the order of
    :func:`resample_arrays`."""
    positions, radii, parents, sources = resample_arrays(m, step)
    if m.is_empty():
        return m
    codes = [r.type_code for r in m.records]
    return Morphology(tuple(
        SwcRecord(i, codes[s], x, y, z, r, p)
        for i, ((x, y, z), r, p, s) in enumerate(
            zip(positions.tolist(), radii.tolist(), parents.tolist(), sources.tolist()), start=1)))
