"""Shared machinery for the skeltop benchmark: spans, statistics,
environment capture, output digests and the result line.

Nothing here imports skeltop or numpy at module level, so `run.py` and
`worker.py` can import THREAD_PINS and apply them before numpy loads.
"""

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Thread pins applied before numpy is imported (run.py sets them) and
# passed to every child process, so BLAS/OpenMP pools never compete with
# the library's own batch threads on a 2-core machine.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

# calibrate() takes about this long on the 2-core x86-64 host the baseline
# was recorded on. Times are reported at that reference host speed.
CAL_REF_S = 0.03


def locate_source(root):
    """Absolute `src/` of the checkout, or None when skeltop is absent."""
    src = os.path.join(root, "src")
    return src if os.path.isfile(os.path.join(src, "skeltop", "__init__.py")) else None


def import_skeltop(src):
    sys.path.insert(0, src)
    import skeltop
    if not os.path.abspath(skeltop.__file__).startswith(src + os.sep):
        raise ImportError(f"skeltop imported from {skeltop.__file__}, not from {src}")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Spans

class Tracer:
    """In-memory span recorder: (name, start, end, parent, item id).

    Spans nest through `span()`; `attrs` carries work counts measured at
    the same boundary. Nothing is written until `dump_spans()`.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None

    def span(self, name, **attrs):
        return _Span(self, name, attrs)


def dump_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "item": tracer.item,
                       "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                       "start": None, "end": None, "attrs": dict(attrs)}

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record)
        self.record["start"] = time.perf_counter()
        return self.record["attrs"]

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class NullTracer:
    """Same interface, records nothing: the untraced decomposition."""

    def span(self, name, **attrs):
        return _NullSpan()


class _NullSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


def duration(span):
    return span["end"] - span["start"]


# ---------------------------------------------------------------------------
# Host speed

_CAL = {}


def calibrate(all_cores=False):
    """calibrate_once() on the current core or, with `all_cores`, the mean
    of it run on each core the process may use in turn. The cores of a
    shared host change speed independently of each other."""
    if not all_cores:
        return calibrate_once()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate_once())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def calibrate_once():
    """Seconds for a fixed mix of the kinds of work skeltop does:
    interpreter arithmetic, dict lookups keyed by cell tuples, numpy calls
    on tiny arrays, broadcast distance blocks and a sort. It is independent
    of skeltop and of the seed, and takes about 30 ms.

    A shared host's CPU speed drifts by tens of percent over minutes, and
    skeltop's item times drift with it. Each timed piece of work is scaled
    by CAL_REF_S / (calibrate() time around it), which removes most of the
    drift and leaves what the program's own code costs.
    """
    import numpy as np
    if not _CAL:
        rng = np.random.default_rng(12345)
        _CAL.update(arr=rng.random(60000), pts=rng.random((1500, 3)),
                    blk=rng.random((8, 3)), q=rng.random(3),
                    cells={(a, b, c): a for a in range(16) for b in range(8) for c in range(4)})
    arr, pts, blk, q, get = (_CAL["arr"], _CAL["pts"], _CAL["blk"], _CAL["q"],
                             _CAL["cells"].get)
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    for i in range(40000):
        v = get((i & 15, i & 7, i & 3))
        if v is not None:
            acc += v
    for _ in range(1200):
        acc += float(np.sqrt(((blk - q) ** 2).sum(axis=1).min()))
    for lo in range(0, 300, 100):
        ((pts[lo:lo + 100, None, :] - pts[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    np.sort(arr)
    return time.perf_counter() - t0


def speed_scale(before, after):
    """Factor that brings work timed between two calibrations to the
    reference host speed."""
    return CAL_REF_S / (0.5 * (before + after))


# ---------------------------------------------------------------------------
# Statistics

def median(samples):
    """Nearest-rank median: the ceil(n/2)-th smallest sample."""
    xs = sorted(samples)
    return xs[math.ceil(len(xs) / 2) - 1]


def tail_percentile(samples):
    """Highest nearest-rank percentile with >= TAIL_BEYOND samples beyond
    it, never below the nearest-rank median (with fewer than 2*TAIL_BEYOND
    samples the two coincide). Returns (value, percentile, n_beyond)."""
    xs = sorted(samples)
    n = len(xs)
    k = max(math.ceil(n / 2), n - TAIL_BEYOND)
    return xs[k - 1], 100.0 * k / n, n - k


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# Process facts

def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def child_env(src_dir, threads=None):
    env = dict(os.environ, PYTHONPATH=src_dir, **THREAD_PINS)
    if threads is not None:
        env["SKELTOP_THREADS"] = str(threads)
    return env


def timed_python(args, env, timeout=120):
    """Run `python <args>` to completion; return (seconds, CompletedProcess)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=timeout, check=False)
    return time.perf_counter() - t0, proc


def git_commit(root):
    """Commit id when the checkout is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def platform_key():
    """Identity of the arithmetic: float results (and so output digests)
    are only comparable between runs that share it."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__ as feats
    simd = sorted(k for k, on in feats.items() if on)
    raw = json.dumps([platform.machine(), platform.python_version(), np.__version__,
                      simd], sort_keys=True)
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def environment(root):
    import numpy as np
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "git_commit": git_commit(root),
        "SKELTOP_THREADS": nproc(),
        "thread_pins": THREAD_PINS,
        "platform_key": platform_key(),
    }


# ---------------------------------------------------------------------------
# Outputs

def _scalar(x):
    if hasattr(x, "item"):  # numpy scalars
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def to_json(obj) -> str:
    return json.dumps(obj, default=_scalar)


def canon(obj):
    """The object as it reads back from JSON: outputs cross from the
    worker process to the checks as JSON, so both sides compare in this
    form. Floats round-trip exactly."""
    return json.loads(to_json(obj))


def digest(obj) -> str:
    """sha256 of the object's canonical JSON (sorted keys, no spaces)."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_line(correct, attempted, failed, metrics):
    """The single JSON object that ends standard output."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
