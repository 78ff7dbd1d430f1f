"""The timed loop of one benchmark run, in a process of its own.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR OUT

`run.py` starts it after set-up. It loads the fixtures that set-up wrote
to WORKDIR, without synthesis and without the benchmark's oracles, so
its peak RSS is that of the item loop alone. It runs one untimed warm-up
item, then the closed loop, and writes the item records, the spans and
the peak RSS to OUT as JSON.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import THREAD_PINS  # noqa: E402  (applied before numpy loads)

os.environ.update(THREAD_PINS)

import harness  # noqa: E402

HARD_CAP_S = 120.0   # wall seconds; stop starting new items past this, even mid-cycle


def run_loop(wl, seconds, tracer):
    """Closed loop in whole fixture cycles; returns the item records.

    A host-speed calibration runs between items, so two bracket each item
    and give its `scale` (harness.speed_scale). The loop ends after the
    first whole cycle at which the items' time at reference host speed
    reaches `seconds`, so the item count does not follow the host's drift.
    """
    items = []
    start = time.perf_counter()
    measured = 0.0
    cal = harness.calibrate(wl.cal_all_cores)
    while True:
        k = len(items) % wl.pool
        t0 = time.perf_counter()
        try:
            out, err = wl.run_item(k), None
        except Exception as exc:  # an item that raises is a failed item, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        lat = time.perf_counter() - t0
        cal_after = harness.calibrate(wl.cal_all_cores)
        rec = {"k": k, "latency": lat, "scale": harness.speed_scale(cal, cal_after),
               "output": out, "error": err}
        cal = cal_after
        measured += lat * rec["scale"]
        if tracer is not None:
            tracer.item = len(items)
            with tracer.span("item") as a:
                try:
                    rec["traced"] = wl.traced_item(k, tracer)
                except Exception as exc:
                    rec["traced"], rec["error"] = None, rec["error"] or f"traced: {exc}"
            a.update(untraced_s=lat)
        items.append(rec)
        if (time.perf_counter() - start >= HARD_CAP_S
                or (measured >= seconds and len(items) % wl.pool == 0)):
            return items


def main(argv):
    name, seed, seconds, trace, workdir, out_path = argv
    src = harness.locate_source(os.getcwd())
    harness.import_skeltop(src)
    import workloads
    wl = workloads.WORKLOADS[name](int(seed), src)
    wl.load(workdir)
    wl.run_item(0)
    tracer = harness.Tracer() if int(trace) else None
    items = run_loop(wl, float(seconds), tracer)
    peak = harness.peak_rss_mib(wl.children_rss)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(harness.to_json({"items": items, "peak_rss_mib": peak,
                                  "spans": tracer.spans if tracer else []}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
