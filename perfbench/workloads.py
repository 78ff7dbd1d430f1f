"""The three benchmark workloads: fixtures, the timed item, the traced
decomposition of that item, and its correctness check.

Every workload is a closed loop with one caller: `run_item` is called
again only after the previous call returned. Fixtures are built from
the workload seed alone; the library only ever sees the generated
volumes, traces and files.

`setup` generates the fixtures and writes them under a work directory;
`load` reads them back. The timed loop runs in `worker.py`, which calls
only `load`, so it holds no synthesis state and imports none of the
oracles (they are imported where a check needs them).

`traced_item` calls the library's public stage functions in the order
the pipeline uses them, one span per call, and returns the same output
object as `run_item`, so the runner can require the two to be identical.
"""

import json
import os

import numpy as np

from harness import NullTracer, canon, child_env, nproc, timed_python

import skeltop as sk
from skeltop.volume import surface_voxel_array


def synth_seeds(seed, tag, count):
    """Deterministic per-fixture synth seeds derived from the workload seed."""
    state = np.random.SeedSequence([int(seed), tag]).generate_state(count * 256)
    return [int(s) for s in state]


def synthesize(seeds, accept=None, fg_band=None, **spec_fields):
    """First seed from `seeds` whose tree fits the volume, passes `accept`
    and, when `fg_band` is given, whose thresholded probability volume
    has a foreground count inside it; with its rasterized fixture."""
    for s in seeds:
        spec = sk.SynthSpec(seed=s, **spec_fields)
        try:
            tree = sk.generate_tree(spec)
        except sk.GenerationError:
            continue
        if accept is not None and not accept(tree):
            continue
        mask, prob = sk.rasterize(tree, spec)
        if fg_band is not None and not (
                fg_band[0] <= sk.threshold(prob).foreground_count() <= fg_band[1]):
            continue
        return s, tree, mask, prob
    raise RuntimeError("no derived seed produced an acceptable tree")


def lattice_spread(tree, edge, n=8):
    """Mean distance from an n^3 lattice of cube points to the nearest tree node."""
    g = (np.arange(n) + 0.5) * edge / n
    lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    nodes = tree.node_positions()
    d2 = ((lattice[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1)).mean())


def file_bytes(header_path):
    with open(header_path, "r", encoding="utf-8") as fh:
        data_file = json.load(fh)["data_file"]
    payload = os.path.join(os.path.dirname(header_path), data_file)
    return os.path.getsize(header_path) + os.path.getsize(payload)


# ---------------------------------------------------------------------------
# skeleton_loss, stage by stage (train-step and cli-batch)

def _bbox_diameter(nodes):
    span = (nodes.max(axis=0) - nodes.min(axis=0)).astype(np.float64)
    return float(np.sqrt((span ** 2).sum()))


def decompose_skeleton_loss(pred, gt, tr, w=None):
    """skeleton_loss(pred, gt, w) through its public stages.

    Returns (breakdown, stages); `stages` keeps every intermediate so the
    correctness check can test each one against its oracle.
    """
    w = w if w is not None else sk.SkeletonLossWeights()
    with tr.span("volume.threshold"):
        pred_bin = sk.threshold(pred, w.tau) if pred.kind == sk.PROBABILITY else pred
    stages = {"pred_bin": pred_bin, "gt": gt}
    for side, vol in (("pred", pred_bin), ("gt", gt)):
        with tr.span("thinning.skeletonize") as a:
            skel = sk.skeletonize(vol)
        a.update(fg=vol.foreground_count(), skel=skel.foreground_count())
        with tr.span("skeleton.graph") as a:
            graph = sk.graph_from_skeleton(skel, w.r)
        a.update(nodes=graph.n_nodes, edges=graph.n_edges)
        stages[f"skel_{side}"], stages[f"graph_{side}"] = skel, graph
    g_pred, g_gt = stages["graph_pred"], stages["graph_gt"]
    if g_gt.is_empty():
        return sk.SkeletonLossBreakdown(0.0, 0.0, 0.0, 0.0, degenerate=True), stages
    if g_pred.is_empty():
        l_node = _bbox_diameter(g_gt.nodes)
    else:
        n_p, n_g = g_pred.n_nodes, g_gt.n_nodes
        with tr.span("skeleton_loss.node", nn_queries=n_p + n_g, nn_targets=n_p + n_g):
            l_node = sk.node_discrepancy(g_pred, g_gt)
    with tr.span("skeleton_loss.edge"):
        l_edge = sk.edge_discrepancy(g_pred, g_gt, w.epsilon)
    with tr.span("skeleton_loss.path"):
        l_path = sk.path_discrepancy(g_pred, g_gt, w.epsilon)
    total = w.lambda_node * l_node + w.lambda_edge * l_edge + w.lambda_path * l_path
    return sk.SkeletonLossBreakdown(l_node, l_edge, l_path, total), stages


def skeleton_loss_problems(stages, breakdown, label, w=None):
    """Oracle checks on every stage of one skeleton_loss evaluation."""
    import oracles
    w = w if w is not None else sk.SkeletonLossWeights()
    problems = []
    for side, vol in (("pred", stages["pred_bin"]), ("gt", stages["gt"])):
        skel = stages[f"skel_{side}"]
        problems += oracles.thinning_problems(vol.bool_data(), skel.bool_data(),
                                              f"{label} {side} thinning")
        problems += oracles.graph_problems(
            stages[f"graph_{side}"], sk.graph_from_skeleton_bruteforce(skel, w.r),
            f"{label} {side}")
    g_pred, g_gt = stages["graph_pred"], stages["graph_gt"]
    if breakdown.degenerate or g_pred.is_empty():
        return problems
    node = oracles.node_term(g_pred, g_gt)
    if breakdown.l_node != node:
        problems.append(f"{label}: l_node {breakdown.l_node!r} != brute-force {node!r}")
    path = oracles.path_term(g_pred, g_gt, w.epsilon)
    if breakdown.l_path != path:
        problems.append(f"{label}: l_path {breakdown.l_path!r} != csgraph {path!r}")
    return problems


def breakdown_obj(b):
    return {"l_node": b.l_node, "l_edge": b.l_edge, "l_path": b.l_path,
            "tasl": b.total, "degenerate": b.degenerate}


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    pool = 1               # distinct fixtures, cycled in order
    children_rss = False   # peak RSS of child processes instead of self
    cal_all_cores = False  # host speed from every core, not the current one

    def __init__(self, seed, src_dir):
        self.seed = seed
        self.src_dir = src_dir

    def setup(self, workdir):
        """Generate the fixtures from the seed, write them under `workdir`
        and load them; also keep what the checks need."""
        raise NotImplementedError

    def load(self, workdir):
        """Read the fixtures that `setup` wrote; all `run_item` needs."""
        raise NotImplementedError

    def run_item(self, k):
        raise NotImplementedError

    def traced_item(self, k, tr):
        raise NotImplementedError

    def verify(self, k, output):
        """Problems found by the independent checks for fixture k's output,
        which arrives as `canon` gives it."""
        raise NotImplementedError

    def item_failure(self, output):
        """Reason an item failed on its own terms (before comparison), or None."""
        return None

    def traced_matches(self, rec):
        """The traced decomposition reproduced the pipeline's output exactly."""
        return rec["traced"] == rec["output"]

    def digest_obj(self, output):
        """The canonical output object whose digest is recorded."""
        return output

    @classmethod
    def spec(cls):
        raise NotImplementedError


class TrainStep(Workload):
    name = "train-step"
    pool = 4
    TAG = 1
    SYNTH = dict(dims=(64, 64, 64), tube_radius=2.0, noise_sigma=0.1, blur_sigma=1.0)
    # Thinning time follows the foreground count of the thresholded
    # probability volume. Fixtures are redrawn until that count falls in
    # about the middle third of its range for this spec, so every seed
    # gives fixtures of comparable work.
    FG_BAND = (560, 625)
    FACTORS = (1, 2, 4)

    @staticmethod
    def block_max(a, f):
        if f == 1:
            return a
        d, h, w = a.shape
        return a.reshape(d // f, f, h // f, f, w // f, f).max(axis=(1, 3, 5))

    def setup(self, workdir):
        seeds = synth_seeds(self.seed, self.TAG, self.pool)
        for k in range(self.pool):
            _, _, mask, prob = synthesize(seeds[k::self.pool], fg_band=self.FG_BAND,
                                          **self.SYNTH)
            np.save(os.path.join(workdir, f"fixture{k}_prob.npy"), prob.data)
            np.save(os.path.join(workdir, f"fixture{k}_mask.npy"), mask.data)
        self.load(workdir)

    def load(self, workdir):
        self.fixtures = []
        for k in range(self.pool):
            prob = np.load(os.path.join(workdir, f"fixture{k}_prob.npy"))
            mask = np.load(os.path.join(workdir, f"fixture{k}_mask.npy"))
            self.fixtures.append([
                (sk.Volume3D(self.block_max(prob, f), sk.PROBABILITY),
                 sk.Volume3D(self.block_max(mask, f), sk.BINARY))
                for f in self.FACTORS])
        self.cfg = sk.DeepSupervisionConfig(sk.default_scale_weights(len(self.FACTORS)))

    def _output(self, per_scale, total):
        return {"scales": [{"dice": d, "ce": c, **breakdown_obj(b)} for d, c, b in per_scale],
                "total": total}

    def run_item(self, k):
        per_scale = []
        for p, g in self.fixtures[k]:
            d = sk.dice_loss(p, g)
            c = sk.ce_loss(p, g)
            per_scale.append((d, c, sk.skeleton_loss(p, g)))
        total = sk.total_loss([sk.ScaleLoss(d, c, b.total) for d, c, b in per_scale], self.cfg)
        return self._output(per_scale, total)

    def traced_item(self, k, tr, stages_out=None):
        per_scale = []
        for p, g in self.fixtures[k]:
            with tr.span("losses.dice"):
                d = sk.dice_loss(p, g)
            with tr.span("losses.ce"):
                c = sk.ce_loss(p, g)
            b, stages = decompose_skeleton_loss(p, g, tr)
            per_scale.append((d, c, b))
            if stages_out is not None:
                stages_out.append((b, stages))
        with tr.span("losses.total"):
            total = sk.total_loss([sk.ScaleLoss(d, c, b.total) for d, c, b in per_scale],
                                  self.cfg)
        return self._output(per_scale, total)

    def verify(self, k, output):
        staged = []
        composed = self.traced_item(k, NullTracer(), staged)
        problems = [] if canon(composed) == output else [
            f"fixture {k}: stage-by-stage result differs from the pipeline's"]
        for i, (b, stages) in enumerate(staged):
            problems += skeleton_loss_problems(stages, b, f"fixture {k} scale {i}")
        return problems

    @classmethod
    def spec(cls):
        return {"pool": cls.pool, "synth": cls.SYNTH, "scale_factors": cls.FACTORS,
                "fg_band": cls.FG_BAND,
                "fg_band_of": "foreground voxels of threshold(prob, 0.5) at full scale",
                "reduction": "block max over f^3 blocks for both the probability "
                             "volume and the mask",
                "scale_weights": "default_scale_weights(3)", "beta": 1.0}


class EvalCase(Workload):
    name = "eval-case"
    pool = 4
    TAG = 2
    # (cube edge, noise sigma): speckled 64^3 and clean 96^3 cases alternate
    # The two factors are confounded: every speckled case is 64^3 and every
    # clean one 96^3 (a speckled 96^3 case costs about 3 clean ones).
    CASES = ((64, 0.16), (96, 0.1), (64, 0.16), (96, 0.1))
    SPECKLE_NOISE = 0.16
    TREE = dict(n_branch_points=8, segment_length=(6.0, 10.0), tube_radius=2.0,
                blur_sigma=1.0)
    # Trees are redrawn until their length and their spread (lattice_spread)
    # fall in these bands, about the middle third of each for this spec.
    # Trace work follows length and speckle NN work follows the distance
    # to the tree, so seeds vary shape and placement at comparable work.
    LENGTH_BAND = (225.0, 240.0)
    SPREAD_BAND = {64: (21.5, 24.0), 96: (39.0, 45.0)}
    JITTER_SIGMA = 0.4     # per axis; mean displacement ~0.64 voxel
    RESAMPLE_STEP = 0.25   # sized so trace-eval is about a quarter of a case
    THETA = 2.0
    TAU = 0.5

    NAMES = ("pred.json", "gt.json", "pred.swc", "gt.swc")

    def setup(self, workdir):
        seeds = synth_seeds(self.seed, self.TAG, self.pool)
        self.oracle_data = []
        for k, (edge, noise) in enumerate(self.CASES):
            s, tree, mask, prob = synthesize(
                seeds[k::self.pool], lambda t, e=edge: self.typical(t, e),
                dims=(edge,) * 3, noise_sigma=noise, **self.TREE)
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([s, 99])))
            jitter = rng.normal(0.0, self.JITTER_SIGMA, size=(len(tree), 3))
            pred_tree = sk.Morphology(tuple(
                sk.SwcRecord(r.id, r.type_code, r.x + float(j[0]), r.y + float(j[1]),
                             r.z + float(j[2]), r.radius, r.parent)
                for r, j in zip(tree.records, jitter)))
            paths = self.case_paths(workdir, k)
            sk.write_volume(prob, paths["pred.json"])
            sk.write_volume(mask, paths["gt.json"])
            sk.save_swc(pred_tree, paths["pred.swc"])
            sk.save_swc(tree, paths["gt.swc"])
            self.oracle_data.append({"prob": prob.data, "mask": mask.data,
                                     "pred_tree": pred_tree, "gt_tree": tree})
        self.load(workdir)

    def case_paths(self, workdir, k):
        return {name: os.path.join(workdir, f"case{k}_{name}") for name in self.NAMES}

    def load(self, workdir):
        self.cases = []
        for k in range(self.pool):
            paths = self.case_paths(workdir, k)
            self.cases.append({"paths": paths,
                               "read_bytes": {n: file_bytes(paths[n])
                                              for n in ("pred.json", "gt.json")}})

    @classmethod
    def typical(cls, tree, edge):
        lo, hi = cls.SPREAD_BAND[edge]
        return (cls.LENGTH_BAND[0] <= tree.total_length() <= cls.LENGTH_BAND[1]
                and lo <= lattice_spread(tree, edge) <= hi)

    def is_speckled(self, k):
        return self.CASES[k][1] == self.SPECKLE_NOISE

    def run_item(self, k):
        paths = self.cases[k]["paths"]
        pred = sk.read_volume(paths["pred.json"])
        gt = sk.read_volume(paths["gt.json"])
        seg = sk.evaluate_segmentation(sk.threshold(pred, self.TAU), gt)
        trace = sk.evaluate_trace(sk.load_swc(paths["pred.swc"]), sk.load_swc(paths["gt.swc"]),
                                  theta=self.THETA, resample_step=self.RESAMPLE_STEP)
        return {"seg": seg.to_json_obj(), "trace": trace.to_json_obj()}

    def traced_item(self, k, tr):
        case = self.cases[k]
        paths = case["paths"]
        vols = {}
        for name in ("pred.json", "gt.json"):
            with tr.span("volume.read", bytes=case["read_bytes"][name]):
                vols[name] = sk.read_volume(paths[name])
        gt = vols["gt.json"]
        with tr.span("volume.threshold"):
            pred = sk.threshold(vols["pred.json"], self.TAU)
        with tr.span("segmetrics.prf"):
            precision, recall, f1, counts = sk.precision_recall_f1(pred, gt)
        directed = symmetric = None
        if pred.foreground_count() and gt.foreground_count():
            # hd95 extracts both surfaces inside each call; this probe times
            # that extraction once so it can be split from the NN time.
            with tr.span("volume.surface_probe", probe=True) as a:
                n_p = len(surface_voxel_array(pred))
                n_g = len(surface_voxel_array(gt))
            a.update(points=n_p + n_g)
            with tr.span("segmetrics.hd95_directed", nn_queries=n_p, nn_targets=n_g,
                         surface_points=n_p + n_g):
                directed = sk.hd95(pred, gt, "directed")
            with tr.span("segmetrics.hd95_symmetric", nn_queries=n_p + n_g,
                         nn_targets=n_g + n_p, surface_points=n_p + n_g):
                symmetric = sk.hd95(pred, gt, "symmetric")
        seg = sk.SegReport(100.0 * precision, 100.0 * recall, 100.0 * f1, directed, symmetric,
                           counts)
        trees = {}
        for name in ("pred.swc", "gt.swc"):
            with tr.span("swc.load"):
                trees[name] = sk.load_swc(paths[name])
        resampled = {}
        for name in ("pred.swc", "gt.swc"):
            with tr.span("swc.resample") as a:
                resampled[name] = sk.resample(trees[name], self.RESAMPLE_STEP)
            a.update(nodes=len(resampled[name]))
        p, g = resampled["pred.swc"], resampled["gt.swc"]
        with tr.span("tracemetrics.esa", nn_queries=len(p), nn_targets=len(g)):
            esa = sk.esa(p, g)
        with tr.span("tracemetrics.dsa", nn_queries=len(p), nn_targets=len(g)):
            dsa = sk.dsa(p, g, self.THETA)
        with tr.span("tracemetrics.pds", nn_queries=len(p) + len(g),
                     nn_targets=len(g) + len(p)):
            pds = sk.pds(p, g, self.THETA)
        trace = sk.TraceReport(esa, dsa, pds, self.THETA, len(p), len(g), self.RESAMPLE_STEP)
        return {"seg": seg.to_json_obj(), "trace": trace.to_json_obj()}

    def verify(self, k, output):
        import oracles
        case = self.oracle_data[k]
        problems = [] if canon(self.traced_item(k, NullTracer())) == output else [
            f"case {k}: stage-by-stage result differs from the pipeline's"]
        problems += oracles.segmentation_problems(case["prob"] > self.TAU, case["mask"] == 1,
                                                  output["seg"], f"case {k}")
        pred_xyz = sk.resample(case["pred_tree"], self.RESAMPLE_STEP).node_positions()
        gt_xyz = sk.resample(case["gt_tree"], self.RESAMPLE_STEP).node_positions()
        problems += oracles.trace_problems(pred_xyz, gt_xyz, output["trace"], self.THETA,
                                           f"case {k}")
        return problems

    @classmethod
    def spec(cls):
        return {"pool": cls.pool,
                "cases": [{"dims": [e] * 3, "noise_sigma": n,
                           "speckled": n == cls.SPECKLE_NOISE} for e, n in cls.CASES],
                "tree": cls.TREE, "tree_length_band": cls.LENGTH_BAND,
                "tree_spread_band": {f"{e}^3": b for e, b in cls.SPREAD_BAND.items()},
                "tree_spread": "mean distance from an 8^3 lattice to the nearest tree node",
                "swc_jitter_sigma_per_axis": cls.JITTER_SIGMA,
                "resample_step": cls.RESAMPLE_STEP, "theta": cls.THETA, "tau": cls.TAU,
                "files": "RawJson pred (f32) and gt (u8) volumes, pred/gt SWC"}


class CliBatch(Workload):
    name = "cli-batch"
    pool = 1               # every invocation runs the same batch
    children_rss = True
    cal_all_cores = True   # the batch's threads and processes use every core
    TAG = 3
    PAIRS = 6
    SYNTH = TrainStep.SYNTH

    def setup(self, workdir):
        seeds = synth_seeds(self.seed, self.TAG, self.PAIRS)
        for side in ("pred", "gt"):
            os.makedirs(os.path.join(workdir, side), exist_ok=True)
        for k in range(self.PAIRS):
            _, _, mask, prob = synthesize(seeds[k::self.PAIRS], fg_band=TrainStep.FG_BAND,
                                          **self.SYNTH)
            sk.write_volume(prob, os.path.join(workdir, "pred", f"pair{k}.json"))
            sk.write_volume(mask, os.path.join(workdir, "gt", f"pair{k}.json"))
        self.load(workdir)

    def load(self, workdir):
        self.pred_dir = os.path.join(workdir, "pred")
        self.gt_dir = os.path.join(workdir, "gt")
        self.pairs = [(f"pair{k}", os.path.join(self.pred_dir, f"pair{k}.json"),
                       os.path.join(self.gt_dir, f"pair{k}.json")) for k in range(self.PAIRS)]
        self.threads = nproc()

    def _invoke(self, threads):
        return timed_python(["-m", "skeltop.cli", "tasl", "--pred-dir", self.pred_dir,
                             "--gt-dir", self.gt_dir], child_env(self.src_dir, threads))

    def run_item(self, k):
        _, proc = self._invoke(self.threads)
        return {"returncode": proc.returncode,
                "stdout": proc.stdout.decode("utf-8", errors="replace"),
                "traceback": b"Traceback" in proc.stderr}

    def item_failure(self, output):
        if output["returncode"] != 0:
            return f"exit code {output['returncode']}"
        if output["traceback"]:
            return "Traceback on stderr"
        try:
            doc = json.loads(output["stdout"])
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if any("error" in e for e in doc.get("results", [])):
            return "batch holds an error entry"
        return None

    def traced_item(self, k, tr):
        env = child_env(self.src_dir)
        for name, args in (("cli.interp", ["-c", "pass"]),
                           ("cli.import", ["-c", "import skeltop.cli"])):
            with tr.span(name, probe=True):
                timed_python(args, env)
        with tr.span("cli.batch_1t", probe=True):
            _, proc = self._invoke(1)
        with tr.span("cli.serial_pairs"):
            entries = []
            for stem, pred_path, gt_path in self.pairs:
                vols = []
                for path in (pred_path, gt_path):
                    with tr.span("volume.read", bytes=file_bytes(path)):
                        vols.append(sk.read_volume(path))
                b, _ = decompose_skeleton_loss(vols[0], vols[1], tr)
                entries.append([stem, breakdown_obj(b)])
        return {"entries": entries, "stdout_1t": proc.stdout.decode("utf-8", errors="replace")}

    def traced_matches(self, rec):
        traced, out = rec["traced"], rec["output"]
        return (traced is not None and traced["stdout_1t"] == out["stdout"]
                and self.entries_match(out, traced["entries"]))

    def digest_obj(self, output):
        return json.loads(output["stdout"])

    def entries_match(self, output, entries):
        """CLI stdout entries equal [stem, breakdown_obj] pairs (canonical)."""
        doc = json.loads(output["stdout"])
        got = [[e["stem"], e["l_node"], e["l_edge"], e["l_path"], e["total"], e["degenerate"]]
               for e in doc["results"]]
        want = [[s, b["l_node"], b["l_edge"], b["l_path"], b["tasl"], b["degenerate"]]
                for s, b in canon(entries)]
        return got == want

    def verify(self, k, output):
        problems = []
        reason = self.item_failure(output)
        if reason:
            return [reason]
        inproc = [[stem, breakdown_obj(sk.skeleton_loss(sk.read_volume(p), sk.read_volume(g)))]
                  for stem, p, g in self.pairs]
        if not self.entries_match(output, inproc):
            problems.append("CLI entries differ from in-process skeleton_loss")
        for stem, p, g in self.pairs:
            b, stages = decompose_skeleton_loss(sk.read_volume(p), sk.read_volume(g),
                                                NullTracer())
            problems += skeleton_loss_problems(stages, b, stem)
        return problems

    @classmethod
    def spec(cls):
        return {"pairs": cls.PAIRS, "synth": cls.SYNTH, "fg_band": TrainStep.FG_BAND,
                "command": "python -m skeltop.cli tasl --pred-dir pred --gt-dir gt",
                "SKELTOP_THREADS": "nproc", "files": "RawJson pred (f32) / gt (u8)"}


WORKLOADS = {w.name: w for w in (TrainStep, EvalCase, CliBatch)}
