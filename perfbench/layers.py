"""Per-layer metrics from the traced run, the prediction table, and the
recorded output digests.

Layer names are skeltop's modules. Times (`_s`) and work counts are per
item: the run total divided by the traced item count, which always
covers whole fixture cycles. Ratios state their base in PER_LAYER.
"""

import json
import os

from harness import duration, platform_key

# (name, unit, base of a ratio or what is summed)
PER_LAYER = [
    ("thinning.skeletonize_s", "s", "skeletonize() calls"),
    ("thinning.calls", "count", "skeletonize() calls"),
    ("thinning.fg_voxels", "count", "foreground voxels entering skeletonize()"),
    ("thinning.skel_voxels", "count", "skeleton voxels leaving skeletonize()"),
    ("thinning.us_per_fg_voxel", "us", "thinning time / foreground voxels"),
    ("spatial.nn_s", "s", "node_discrepancy, esa, dsa, pds, and hd95 less surface time"),
    ("spatial.nn_queries", "count", "query points over those calls"),
    ("spatial.nn_targets", "count", "target-set sizes summed over those calls"),
    ("spatial.us_per_query", "us", "spatial.nn_s / spatial.nn_queries"),
    ("volume.read_s", "s", "read_volume() calls"),
    ("volume.read_bytes", "count", "header + payload bytes read"),
    ("volume.read_mib_per_s", "MiB/s", "bytes read / read time"),
    ("volume.threshold_s", "s", "threshold() calls"),
    ("volume.surface_s", "s", "surface_voxel_array() inside hd95 calls"),
    ("volume.surface_points", "count", "surface points extracted inside hd95 calls"),
    ("skeleton.graph_s", "s", "graph_from_skeleton() calls"),
    ("skeleton.graph_nodes", "count", "graph nodes built"),
    ("skeleton.graph_edges", "count", "graph edges built"),
    ("skeleton_loss.node_s", "s", "node_discrepancy() calls"),
    ("skeleton_loss.edge_s", "s", "edge_discrepancy() calls"),
    ("skeleton_loss.path_s", "s", "path_discrepancy() calls (Python BFS)"),
    ("losses.dice_s", "s", "dice_loss() calls"),
    ("losses.ce_s", "s", "ce_loss() calls"),
    ("losses.total_s", "s", "total_loss() calls"),
    ("segmetrics.prf_s", "s", "precision_recall_f1() calls"),
    ("segmetrics.hd95_directed_s", "s", "hd95(directed) calls, surfaces included"),
    ("segmetrics.hd95_symmetric_s", "s", "hd95(symmetric) calls, surfaces included"),
    ("swc.load_s", "s", "load_swc() calls"),
    ("swc.resample_s", "s", "resample() calls"),
    ("swc.nodes_resampled", "count", "nodes after resampling"),
    ("tracemetrics.esa_s", "s", "esa() calls"),
    ("tracemetrics.dsa_s", "s", "dsa() calls"),
    ("tracemetrics.pds_s", "s", "pds() calls"),
    ("cli.interp_s", "s", "bare `python -c pass`"),
    ("cli.import_s", "s", "`python -c 'import skeltop.cli'`"),
    ("cli.batch_wall_s", "s", "tasl batch invocation, SKELTOP_THREADS=nproc"),
    ("cli.batch_wall_1t_s", "s", "the same batch, SKELTOP_THREADS=1"),
    ("cli.fanout_efficiency", "ratio",
     "serial in-process pair time / (batch wall - import) / threads"),
    ("cli.entries", "count", "result entries per invocation"),
    ("cli.error_entries", "count", "error entries per invocation"),
    ("trace.coverage", "ratio",
     "stage self time / untraced item time (cli-batch: (import + stages) / 1-thread batch)"),
    ("trace.overhead_s", "s",
     "traced - untraced item time (cli-batch: traced time outside timed work)"),
]

# Layer metric -> the end-to-end metrics it should move, per workload.
# latency_tail_s is listed only where runs have the 22+ items it needs.
PREDICTIONS = [
    {"layer": "thinning", "metrics": ["thinning.skeletonize_s", "thinning.us_per_fg_voxel"],
     "moves": {"train-step": ["items_per_s", "latency_p50_s", "latency_tail_s"],
               "cli-batch": ["items_per_s", "latency_p50_s"]},
     "most_on": "train-step", "unchanged_on": ["eval-case"]},
    {"layer": "spatial", "metrics": ["spatial.nn_s", "spatial.us_per_query"],
     "moves": {"eval-case": ["items_per_s", "latency_p50_s"],
               "train-step": ["items_per_s"], "cli-batch": ["items_per_s"]},
     "most_on": "eval-case",
     "note": "train-step and cli-batch only slightly (node term); on eval-case the "
             "distance-dependent part shows in items_per_s and speckled_time_share"},
    {"layer": "volume", "metrics": ["volume.read_s", "volume.threshold_s", "volume.surface_s"],
     "moves": {"eval-case": ["items_per_s"], "cli-batch": ["items_per_s"]},
     "unchanged_on": ["train-step"]},
    {"layer": "skeleton", "metrics": ["skeleton.graph_s"],
     "moves": {"train-step": ["items_per_s"]}, "unchanged_on": ["eval-case"]},
    {"layer": "skeleton_loss",
     "metrics": ["skeleton_loss.node_s", "skeleton_loss.edge_s", "skeleton_loss.path_s"],
     "moves": {"train-step": ["items_per_s"]}, "unchanged_on": ["eval-case"]},
    {"layer": "losses", "metrics": ["losses.dice_s", "losses.ce_s", "losses.total_s"],
     "moves": {}, "unchanged_on": ["train-step", "eval-case", "cli-batch"],
     "note": "under 2% of train-step; predicted to move nothing"},
    {"layer": "segmetrics",
     "metrics": ["segmetrics.prf_s", "segmetrics.hd95_directed_s",
                 "segmetrics.hd95_symmetric_s"],
     "moves": {"eval-case": ["items_per_s", "latency_p50_s"]},
     "unchanged_on": ["train-step", "cli-batch"]},
    {"layer": "swc/tracemetrics",
     "metrics": ["swc.load_s", "swc.resample_s", "tracemetrics.esa_s", "tracemetrics.dsa_s",
                 "tracemetrics.pds_s"],
     "moves": {"eval-case": ["items_per_s", "latency_p50_s"]},
     "unchanged_on": ["train-step", "cli-batch"]},
    {"layer": "cli",
     "metrics": ["cli.import_s", "cli.batch_wall_s", "cli.fanout_efficiency"],
     "moves": {"cli-batch": ["items_per_s", "latency_p50_s"]},
     "unchanged_on": ["train-step", "eval-case"],
     "note": "import time of the package also moves setup_s on every workload, "
             "since each set-up imports skeltop in a fresh interpreter"},
]

# What the end-to-end figures can and cannot show, recorded with the baseline.
NOTES = [
    "latency_tail_s is the highest nearest-rank percentile with 10 samples beyond it, "
    "never below the median; with 21 items or fewer that is the median itself. At "
    "run_seconds 12, eval-case runs have 16 or 20 items and cli-batch runs 9 to 11, so "
    "on those two workloads latency_tail_s equals latency_p50_s and measures no tail. "
    "Only train-step (36 to 40 items) has a tail.",
    "eval-case confounds speckle with cube size: every speckled case is 64^3 and every "
    "clean case 96^3. speckled_time_share therefore mixes distance-dependent NN cost "
    "with volume size.",
    "On eval-case the clean 96^3 cases are the faster half, so the nearest-rank median "
    "latency is the slowest clean case; the speckled cases show in items_per_s and "
    "speckled_time_share, not in the latency metrics.",
    "peak_rss_mib is read in worker.py right after the timed loop. The worker only "
    "loads the fixture files; set-up, synthesis and the oracles run in run.py.",
    "End-to-end times are scaled to a reference host speed: each item and each set-up "
    "is multiplied by CAL_REF_S / (mean of the calibrate() times before and after it). "
    "On cli-batch, whose batch spreads over both cores, calibrate() is the mean over "
    "the cores in turn. The per-layer times of the traced run are not scaled. The "
    "figures as measured are kept in each run's info as 'measured'.",
]

HD95 = ("segmetrics.hd95_directed", "segmetrics.hd95_symmetric")
NN = ("skeleton_loss.node", "tracemetrics.esa", "tracemetrics.dsa", "tracemetrics.pds")


def per_layer(wl, items, spans):
    """Every PER_LAYER metric for one traced run; layers the workload does
    not exercise read 0."""
    n = len(items)
    parents = {s["parent"] for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(*names):
        return sum(duration(s) for name in names for s in by_name.get(name, ()))

    def attr(key, *names):
        return sum(s["attrs"].get(key, 0) for name in names for s in by_name.get(name, ()))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    probe = {s["item"]: duration(s) for s in by_name.get("volume.surface_probe", ())}
    surface_s = sum(probe[s["item"]] for name in HD95 for s in by_name.get(name, ()))
    nn_s = total(*NN) + total(*HD95) - surface_s
    nn_queries = attr("nn_queries", *NN, *HD95)
    thin_s, fg = total("thinning.skeletonize"), attr("fg", "thinning.skeletonize")
    read_s, read_bytes = total("volume.read"), attr("bytes", "volume.read")
    stage_s = sum(duration(s) for s in spans
                  if s["id"] not in parents and not s["attrs"].get("probe"))
    untraced = sum(r["latency"] for r in items)
    roots = by_name.get("item", ())

    m = {
        "thinning.skeletonize_s": thin_s / n,
        "thinning.calls": len(by_name.get("thinning.skeletonize", ())) / n,
        "thinning.fg_voxels": fg / n,
        "thinning.skel_voxels": attr("skel", "thinning.skeletonize") / n,
        "thinning.us_per_fg_voxel": ratio(thin_s, fg, 1e6),
        "spatial.nn_s": nn_s / n,
        "spatial.nn_queries": nn_queries / n,
        "spatial.nn_targets": attr("nn_targets", *NN, *HD95) / n,
        "spatial.us_per_query": ratio(nn_s, nn_queries, 1e6),
        "volume.read_s": read_s / n,
        "volume.read_bytes": read_bytes / n,
        "volume.read_mib_per_s": ratio(read_bytes, read_s, 1.0 / 2 ** 20),
        "volume.threshold_s": total("volume.threshold") / n,
        "volume.surface_s": surface_s / n,
        "volume.surface_points": attr("surface_points", *HD95) / n,
        "skeleton.graph_s": total("skeleton.graph") / n,
        "skeleton.graph_nodes": attr("nodes", "skeleton.graph") / n,
        "skeleton.graph_edges": attr("edges", "skeleton.graph") / n,
        "skeleton_loss.node_s": total("skeleton_loss.node") / n,
        "skeleton_loss.edge_s": total("skeleton_loss.edge") / n,
        "skeleton_loss.path_s": total("skeleton_loss.path") / n,
        "losses.dice_s": total("losses.dice") / n,
        "losses.ce_s": total("losses.ce") / n,
        "losses.total_s": total("losses.total") / n,
        "segmetrics.prf_s": total("segmetrics.prf") / n,
        "segmetrics.hd95_directed_s": total(HD95[0]) / n,
        "segmetrics.hd95_symmetric_s": total(HD95[1]) / n,
        "swc.load_s": total("swc.load") / n,
        "swc.resample_s": total("swc.resample") / n,
        "swc.nodes_resampled": attr("nodes", "swc.resample") / n,
        "tracemetrics.esa_s": total("tracemetrics.esa") / n,
        "tracemetrics.dsa_s": total("tracemetrics.dsa") / n,
        "tracemetrics.pds_s": total("tracemetrics.pds") / n,
        "cli.interp_s": 0.0, "cli.import_s": 0.0, "cli.batch_wall_s": 0.0,
        "cli.batch_wall_1t_s": 0.0, "cli.fanout_efficiency": 0.0,
        "cli.entries": 0.0, "cli.error_entries": 0.0,
    }
    if wl.name == "cli-batch":
        import_s = total("cli.import") / n
        batch = untraced / n
        batch_1t = total("cli.batch_1t") / n
        docs = [json.loads(r["output"]["stdout"]) for r in items
                if r["output"] is not None and r["output"]["returncode"] == 0]
        entries = [e for d in docs for e in d["results"]]
        m.update({
            "cli.interp_s": total("cli.interp") / n, "cli.import_s": import_s,
            "cli.batch_wall_s": batch, "cli.batch_wall_1t_s": batch_1t,
            "cli.fanout_efficiency": ratio(stage_s / n, batch - import_s) / wl.threads,
            "cli.entries": len(entries) / n,
            "cli.error_entries": sum("error" in e for e in entries) / n,
            "trace.coverage": ratio(import_s + stage_s / n, batch_1t),
            "trace.overhead_s": (sum(duration(s) for s in roots)
                                 - total("cli.interp", "cli.import", "cli.batch_1t")
                                 - stage_s) / n,
        })
    else:
        m.update({
            "trace.coverage": ratio(stage_s, untraced),
            "trace.overhead_s": (sum(duration(s) for s in roots) - untraced) / n,
        })
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (m[name], units[name]) for name, _, _ in PER_LAYER}


def summary(wl, items):
    """Workload facts for the stderr summary (eval-case: speckled share)."""
    if wl.name != "eval-case":
        return {}
    speckled = [r for r in items if wl.is_speckled(r["k"])]
    share = sum(r["latency"] for r in speckled) / sum(r["latency"] for r in items)
    return {"speckled_items": f"{len(speckled)}/{len(items)}",
            "speckled_time_share": round(share, 4)}


def recorded_digests(here, workload, seed):
    """Digests recorded for this workload and seed on this platform, or None."""
    path = os.path.join(here, "digests.json")
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("platform_key") != platform_key():
        return None
    return doc["workloads"].get(workload, {}).get(str(seed))
