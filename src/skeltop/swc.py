"""SWC neuron morphology parsing, writing, and arc-length resampling.

SWC is line oriented: comment lines start with '#', every other
non-blank line is one record of 7 whitespace-separated fields
(id, type, x, y, z, radius, parent; parent -1 marks a root). Records form
a forest: ids are unique, every non-root parent exists, no cycles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, check_positive_finite


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

    def by_id(self):
        return {r.id: r for r in self.records}

    def segments(self):
        """(parent_record, child_record) pairs in child id order."""
        table = self.by_id()
        return [(table[r.parent], r) for r in self.records if r.parent != -1]

    def total_length(self) -> float:
        return float(sum(
            np.sqrt((np.subtract(c.position(), p.position()) ** 2).sum())
            for p, c in self.segments()))


def _validate_structure(records, lines=None):
    table = {}
    for idx, rec in enumerate(records):
        if rec.id in table:
            raise ParseError(_ctx(lines, idx, f"duplicate id {rec.id}"))
        if not all(math.isfinite(v) for v in (rec.x, rec.y, rec.z)):
            raise ParseError(_ctx(lines, idx, f"coordinates must be finite, got {rec.position()}"))
        if not (math.isfinite(rec.radius) and rec.radius > 0):
            raise ParseError(_ctx(lines, idx, f"radius must be positive and finite, got {rec.radius}"))
        if rec.parent < -1:
            raise ParseError(_ctx(lines, idx, f"parent must be -1 or a record id, got {rec.parent}"))
        table[rec.id] = rec
    for idx, rec in enumerate(records):
        if rec.parent != -1 and rec.parent not in table:
            raise ParseError(_ctx(lines, idx, f"parent id {rec.parent} does not exist"))
    # cycle check: follow parent chains, memoizing ids known to reach a root
    safe = set()
    for idx, rec in enumerate(records):
        chain = []
        cur = rec
        while cur.id not in safe:
            if cur.id in chain:
                raise ParseError(_ctx(lines, idx, f"parent chain of id {rec.id} contains a cycle"))
            chain.append(cur.id)
            if cur.parent == -1:
                break
            cur = table[cur.parent]
        safe.update(chain)


def _ctx(lines, record_index, message):
    if lines is not None and record_index < len(lines):
        return f"line {lines[record_index]}: {message}"
    return message


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
    _validate_structure([records[i] for i in order], [lines[i] for i in order])
    return Morphology(tuple(records))


def write_swc(m: Morphology) -> str:
    """One record per line, fields space separated, ids ascending."""
    out = []
    for r in m.records:
        out.append(f"{r.id} {r.type_code} {r.x!r} {r.y!r} {r.z!r} {r.radius!r} {r.parent}")
    return "\n".join(out) + ("\n" if out else "")


def load_swc(path: str) -> Morphology:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_swc(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_swc(m: Morphology, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_swc(m))


def resample(m: Morphology, step: float) -> Morphology:
    """Subdivide every parent-child segment so consecutive points sit at
    most `step` apart (arc length). Endpoints and topology are preserved;
    ids are renumbered sequentially from 1."""
    check_positive_finite("resample step", step)
    if m.is_empty():
        return m
    table = m.by_id()
    children = {r.id: [] for r in m.records}
    roots = []
    for r in m.records:
        if r.parent == -1:
            roots.append(r.id)
        else:
            children[r.parent].append(r.id)
    new_records = []
    new_id_of = {}
    counter = 1

    def emit(type_code, x, y, z, radius, parent_new):
        nonlocal counter
        rec = SwcRecord(counter, type_code, x, y, z, radius, parent_new)
        new_records.append(rec)
        counter += 1
        return rec.id

    stack = [(rid, None) for rid in reversed(roots)]
    while stack:
        rid, parent_new = stack.pop()
        rec = table[rid]
        if parent_new is None:
            new_id_of[rid] = emit(rec.type_code, rec.x, rec.y, rec.z, rec.radius, -1)
        else:
            parent = table[table[rid].parent]
            start = np.array(parent.position())
            end = np.array(rec.position())
            length = float(np.sqrt(((end - start) ** 2).sum()))
            n_seg = max(1, int(np.ceil(length / step))) if length > 0 else 1
            last = parent_new
            for i in range(1, n_seg):
                t = i / n_seg
                p = start + t * (end - start)
                radius = parent.radius + t * (rec.radius - parent.radius)
                last = emit(rec.type_code, float(p[0]), float(p[1]), float(p[2]),
                            float(radius), last)
            new_id_of[rid] = emit(rec.type_code, rec.x, rec.y, rec.z, rec.radius, last)
        for child in sorted(children[rid], reverse=True):
            stack.append((child, new_id_of[rid]))
    return Morphology(tuple(new_records))
