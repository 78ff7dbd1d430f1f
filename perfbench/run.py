"""skeltop benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-step --seed 1 --seconds 12 --trace 0

It imports skeltop from the checkout's own `src/`, builds the workload's
fixtures from `--seed` under `.perfbench_work/` several times (`setup_s`
is the median), then starts `worker.py`, which runs a closed loop of
items in a process of its own, in whole fixture cycles, until the items'
time at reference host speed (harness.calibrate) reaches `--seconds`.
Back here, every output is checked outside the timed region and one
JSON result line is printed last on stdout. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs each item untraced and then stage
by stage with spans, and reports the per-layer metrics. A
human-readable summary goes to stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import THREAD_PINS  # noqa: E402  (numpy-free import order matters)

os.environ.update(THREAD_PINS)

import harness  # noqa: E402
import layers  # noqa: E402

SETUP_REPS = 3
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
INFO_PREFIX = "perfbench-info: "
WORKER_TIMEOUT_S = 150.0


def setup_once(wl, workdir, src):
    """One full set-up: fresh-interpreter import, fixtures and files, one
    untimed warm-up item. Returns its seconds, as measured and at the
    reference host speed."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cal = harness.calibrate(wl.cal_all_cores)
    t0 = time.perf_counter()
    _, proc = harness.timed_python(["-c", "import skeltop"], harness.child_env(src))
    if proc.returncode != 0:
        raise RuntimeError(f"import skeltop failed: {proc.stderr.decode(errors='replace')}")
    wl.setup(workdir)
    wl.run_item(0)
    wall = time.perf_counter() - t0
    return wall, wall * harness.speed_scale(cal, harness.calibrate(wl.cal_all_cores))


def run_worker(wl, args, workdir, src):
    """The timed loop in worker.py over the fixtures in `workdir`; returns
    its record (items, spans, peak_rss_mib)."""
    out_path = os.path.join(workdir, "loop.json")
    _, proc = harness.timed_python(
        [os.path.join(HERE, "worker.py"), wl.name, str(args.seed), str(args.seconds),
         str(args.trace), workdir, out_path], harness.child_env(src), WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')}")
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_items(wl, items, traced, recorded):
    """Failure reason per item (None when it passed), plus notes."""
    notes = []
    reference = {}
    verified = {}
    reasons = []
    for rec in items:
        out, k = rec["output"], rec["k"]
        reason = rec["error"] or (wl.item_failure(out) if out is not None else None)
        if reason is None and k not in verified:
            verified[k] = wl.verify(k, out)
            notes += verified[k]
            if not verified[k]:
                reference[k] = out
        if reason is None and verified[k]:
            reason = verified[k][0]
        elif reason is None and out != reference[k]:
            reason = "output differs from the same fixture's earlier output"
        if reason is None and traced and not wl.traced_matches(rec):
            reason = "traced decomposition differs from the pipeline result"
        reasons.append(reason)
    if recorded is None:
        notes.append("digests: not recorded for this seed and platform; not compared")
    else:
        for k, out in reference.items():
            if harness.digest(wl.digest_obj(out)) != recorded[k]:
                notes.append(f"digest mismatch for fixture {k}")
                reasons = [r or f"digest mismatch for fixture {k}" if rec["k"] == k else r
                           for r, rec in zip(reasons, items)]
    return reasons, notes


def end_to_end(items, peak_rss, setups):
    """End-to-end metrics at the reference host speed (harness.calibrate);
    the figures as measured go to the info line."""
    lats = [r["latency"] * r["scale"] for r in items]
    tail, pct, beyond = harness.tail_percentile(lats)
    metrics = {
        "items_per_s": (len(items) / sum(lats), "1/s"),
        "latency_p50_s": (harness.median(lats), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }
    raw = [r["latency"] for r in items]
    info = {"samples": len(lats), "tail_percentile": round(pct, 2),
            "samples_beyond_tail": beyond,
            "host_speed": round(statistics.median(r["scale"] for r in items), 4),
            "measured": {"items_per_s": round(len(items) / sum(raw), 4),
                         "latency_p50_s": round(harness.median(raw), 4),
                         "setup_s": round(statistics.median(w for w, _ in setups), 4)}}
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = harness.locate_source(root)
    if src is None:
        print("perfbench: no src/skeltop in the current directory; run from a checkout root",
              file=sys.stderr)
        return 2
    harness.import_skeltop(src)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, src)
    workdir = os.path.join(root, WORK_DIR, f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        setups = [setup_once(wl, workdir, src) for _ in range(SETUP_REPS)]
        loop = run_worker(wl, args, workdir, src)
        items = loop["items"]
        recorded = layers.recorded_digests(HERE, wl.name, args.seed)
        reasons, notes = check_items(wl, items, args.trace, recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    failed = sum(r is not None for r in reasons)
    if args.trace:
        out_dir = os.path.join(root, OUT_DIR)
        os.makedirs(out_dir, exist_ok=True)
        harness.dump_spans(loop["spans"],
                           os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.jsonl"))
        metrics = layers.per_layer(wl, items, loop["spans"])
        info = {"workload": wl.name, "seed": args.seed, "traced_items": len(items)}
    else:
        metrics, info = end_to_end(items, loop["peak_rss_mib"], setups)
        info.update(workload=wl.name, seed=args.seed)
    info.update(layers.summary(wl, items))
    info["error_rate"] = f"{failed}/{len(items)}"
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{INFO_PREFIX}{json.dumps(info, sort_keys=True)}", file=sys.stderr)
    print(harness.result_line(failed == 0, len(items), failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
