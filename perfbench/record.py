"""Record the benchmark's reference data, from the root of a checkout.

    python3 perfbench/record.py digests --seeds 0-31,7919
        Runs every fixture of every workload once per seed, checks it with
        the independent oracles and writes the sha256 of each canonical
        output JSON to perfbench/digests.json (keyed by the platform, since
        float results are only bit-stable on one platform).

    python3 perfbench/record.py runs --seeds 1-10 [--out FILE]
        Runs perfbench/run.py for every workload in BENCHMARK.json, once
        per seed untraced and once traced, for BENCHMARK.json's
        run_seconds. Prints every metric by name and unit with its median,
        quartiles and quartile spread over the seeds, plus the error rate.
        With --out, a second untraced pass over the same seeds follows,
        and the whole record (environment, fixture specs, reasons,
        predictions, held-out seed, baseline) is written as JSON.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
from run import INFO_PREFIX, THREAD_PINS  # noqa: E402

HELD_OUT_SEED = 7919   # used only to confirm a claimed gain, never while tuning
DIGESTS = os.path.join(HERE, "digests.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def benchmark_json(root):
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def record_digests(root, src, seeds):
    import workloads
    doc = {"platform_key": harness.platform_key(), "workloads": {}}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS, "r", encoding="utf-8") as fh:
            old = json.load(fh)
        if old.get("platform_key") == doc["platform_key"]:
            doc = old
    for name in workloads.WORKLOADS:
        cls = workloads.WORKLOADS[name]
        for seed in seeds:
            wl = cls(seed, src)
            workdir = tempfile.mkdtemp(prefix="digests-", dir=root)
            try:
                wl.setup(workdir)
                digests = []
                for k in range(wl.pool):
                    out = harness.canon(wl.run_item(k))
                    reason = wl.item_failure(out)
                    problems = [reason] if reason else wl.verify(k, out)
                    if problems:
                        raise SystemExit(f"{name} seed {seed} fixture {k}: {problems}")
                    digests.append(harness.digest(wl.digest_obj(out)))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            doc["workloads"].setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
        env=dict(os.environ, **THREAD_PINS))
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    info = [json.loads(line[len(INFO_PREFIX):]) for line in proc.stderr.splitlines()
            if line.startswith(INFO_PREFIX)]
    return json.loads(proc.stdout.strip().splitlines()[-1]), info[-1]


def stats(values):
    q1, med, q3 = harness.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def print_block(name, label, block, bounds):
    print(f"\n== {name} {label}")
    print(f"{'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    print(f"{'error_rate':32s} {'ratio':6s} {block['error_rate']:12.6g}   "
          f"({block['failed']}/{block['attempted']} items)")
    for metric, st in block["metrics"].items():
        bound = bounds.get(metric)
        print(f"{metric:32s} {st['unit']:6s} {st['median']:12.6g} {st['q1']:12.6g} "
              f"{st['q3']:12.6g} {st['spread']:8.4f} {'' if bound is None else bound:>6}")


def summarize(res_list):
    attempted = sum(r["attempted"] for r in res_list)
    failed = sum(r["failed"] for r in res_list)
    block = {"attempted": attempted, "failed": failed, "error_rate": failed / attempted,
             "metrics": {}, "runs": [r["info"] for r in res_list]}
    for metric, first in res_list[0]["metrics"].items():
        st = stats([r["metrics"][metric]["value"] for r in res_list])
        block["metrics"][metric] = dict(st, unit=first["unit"])
    return block


def record_runs(root, seeds, out):
    """Pass 1 runs every workload untraced and traced per seed. With `out`,
    a second untraced pass follows (`trace0_repeat`), so the record shows
    whether two sets of runs of the same code agree within the bounds."""
    bench = benchmark_json(root)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    passes = [[("trace0", 0), ("trace1", 1)]]
    if out:
        passes.append([("trace0_repeat", 0)])
    runs = {}
    for group in passes:
        for seed in seeds:
            for name in names:
                for label, trace in group:
                    res, info = run_once(name, seed, seconds, trace)
                    res["info"] = info
                    runs.setdefault(name, {}).setdefault(label, []).append(res)
                    print(f"{name} seed {seed} trace {trace}: failed {res['failed']}/"
                          f"{res['attempted']}", file=sys.stderr)
    results = {}
    for name, by_label in runs.items():
        results[name] = {}
        for label, res_list in by_label.items():
            results[name][label] = summarize(res_list)
            print_block(name, f"{label} ({len(seeds)} seeds, {seconds} s per run)",
                        results[name][label], bounds)
    if out:
        import workloads
        whys = {w["name"]: w["why"] for w in bench["workloads"]}
        record = {
            "environment": harness.environment(root),
            "run_seconds": seconds,
            "seeds": seeds,
            "held_out_seed": HELD_OUT_SEED,
            "workloads": {n: {"why": whys[n],
                              "loop": "closed, one caller, whole fixture cycles",
                              "fixtures": workloads.WORKLOADS[n].spec()} for n in names},
            "per_layer": [{"name": n, "unit": u, "base": b} for n, u, b in layers.PER_LAYER],
            "predictions": layers.PREDICTIONS,
            "notes": layers.NOTES,
            "passes": "trace0 and trace1 come from pass 1, both modes run per seed in turn; "
                      "trace0_repeat is a second untraced pass over the same seeds right "
                      "after it. spread is (q3 - q1) / median over the seeds.",
            "baseline": results,
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("digests")
    d.add_argument("--seeds", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--seeds", required=True)
    r.add_argument("--out")
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = harness.locate_source(root)
    if src is None:
        print("record: run from a checkout root holding src/skeltop", file=sys.stderr)
        return 2
    harness.import_skeltop(src)
    if args.cmd == "digests":
        record_digests(root, src, parse_seeds(args.seeds))
    else:
        record_runs(root, parse_seeds(args.seeds), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
