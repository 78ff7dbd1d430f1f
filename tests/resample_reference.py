"""Reference arc-length resampling kept only as a differential-test oracle.

This is the record-by-record formulation that ``skeltop.swc.resample``
and ``skeltop.swc.resample_arrays`` must reproduce bit for bit: a
depth-first walk from the roots in ascending id order, children in
ascending id order, that emits each segment's interior points
``start + (i / n_seg) * (end - start)`` (radii likewise) just before the
segment's child node, numbering the emitted records 1, 2, ...
"""

import numpy as np

from skeltop.errors import check_positive_finite
from skeltop.swc import Morphology, SwcRecord


def resample(m: Morphology, step: float) -> Morphology:
    check_positive_finite("resample step", step)
    if m.is_empty():
        return m
    table = {r.id: r for r in m.records}
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
