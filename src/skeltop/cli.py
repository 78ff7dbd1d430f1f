"""Batch command-line frontend.

Every command prints one machine-readable JSON document (with a
``"schema": 1`` marker) to stdout and diagnostics to stderr. Exit codes:
0 success, 1 I/O failure, 2 validation or parse failure. A result that
is NaN or infinite is a validation failure, since JSON cannot carry it.
Re-running a command on identical inputs produces byte-identical JSON.

``seg-eval``, ``trace-eval`` and ``tasl`` also accept ``--pred-dir`` /
``--gt-dir`` batch mode: files are paired by stem, entries are isolated
(a malformed file only fails its own entry, with an ``error`` message and
an ``error_kind`` of ``parse``, ``validation`` or ``io``; two files with
one stem on one side are an ``io`` entry), and entries are evaluated one
after another and emitted in sorted stem order. Numeric flags are checked
before any file is read, so a bad flag fails the whole run with exit 2.
Each handler imports the modules only its command uses, so ``tasl``
loads no trace, synthesis, inflation or segmentation module.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import rawjson
from .errors import ParseError, SkeltopError, ValidationError, check_positive_finite
from .skeleton import graph_from_skeleton, skeletonize
from .skeleton_loss import SkeletonLossWeights, skeleton_loss
from .volume import PROBABILITY, check_tau, read_volume, threshold, write_volume

SCHEMA = 1
VOLUME_EXTENSIONS = (".json", ".nrrd")
INFLATIONS = ("center", "average")


def _dumps(payload) -> str:
    """The JSON text of `payload`; a NaN or infinity is a ValidationError,
    since JSON has no such numbers."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        bad = [k for k, v in payload.items() if isinstance(v, float) and not math.isfinite(v)]
        raise ValidationError(
            f"result {', '.join(bad) or 'value'}: not finite, which JSON cannot represent") from None


def _stems(directory, extensions):
    """Stem -> paths of the files in `directory` with one of `extensions`."""
    stems = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(extensions):
            stems.setdefault(name.rsplit(".", 1)[0], []).append(os.path.join(directory, name))
    return stems


def _run_pairs(args, parser, extensions, evaluate_pair):
    """Evaluate --pred/--gt, or the --pred-dir/--gt-dir files paired by stem
    with one error entry per bad file."""
    single = args.pred is not None and args.gt is not None
    if single == (args.pred_dir is not None and args.gt_dir is not None):
        parser.error("provide either --pred/--gt or --pred-dir/--gt-dir")
    if single:
        return {"schema": SCHEMA, **evaluate_pair(args.pred, args.gt)}
    pred_stems, gt_stems = (_stems(d, extensions) for d in (args.pred_dir, args.gt_dir))

    def run_one(stem):
        pred, gt = pred_stems[stem], gt_stems.get(stem, [])
        clash = ", ".join(path for paths in (pred, gt) if len(paths) > 1 for path in paths)
        if clash:
            return {"stem": stem, "error": f"files share one stem: {clash}", "error_kind": "io"}
        if not gt:
            return {"stem": stem, "error": "no matching ground-truth file", "error_kind": "io"}
        try:
            result = evaluate_pair(pred[0], gt[0])
            _dumps(result)
        except ParseError as exc:
            return {"stem": stem, "error": str(exc), "error_kind": "parse"}
        except SkeltopError as exc:
            return {"stem": stem, "error": str(exc), "error_kind": "validation"}
        except OSError as exc:
            return {"stem": stem, "error": str(exc), "error_kind": "io"}
        return {"stem": stem, **result}

    return {"schema": SCHEMA, "results": [run_one(stem) for stem in sorted(pred_stems)]}


# ---------------------------------------------------------------------------
# Command handlers

def _cmd_seg_eval(args, parser):
    from .segmetrics import evaluate_segmentation
    check_tau(args.tau)

    def evaluate_pair(pred_path, gt_path):
        pred = threshold(read_volume(pred_path), args.tau)
        gt = read_volume(gt_path)
        report = evaluate_segmentation(pred, gt)
        return {**report.to_json_obj(), "params": {"tau": args.tau}}

    return _run_pairs(args, parser, VOLUME_EXTENSIONS, evaluate_pair)


def _cmd_trace_eval(args, parser):
    from . import swc, tracemetrics
    check_positive_finite("match threshold", args.theta)
    if args.resample is not None:
        check_positive_finite("resample step", args.resample)

    def evaluate_pair(pred_path, gt_path):
        report = tracemetrics.evaluate_trace(swc.load_swc(pred_path), swc.load_swc(gt_path),
                                             theta=args.theta, resample_step=args.resample)
        return report.to_json_obj()

    return _run_pairs(args, parser, ".swc", evaluate_pair)


def _parse_weights(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--weights expects three comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--weights values must be numbers, got {text!r}") from None


def _cmd_tasl(args, parser):
    lam = _parse_weights(args.weights)
    weights = SkeletonLossWeights(lambda_node=lam[0], lambda_edge=lam[1], lambda_path=lam[2],
                                  epsilon=args.eps, tau=args.tau, r=args.r)

    def evaluate_pair(pred_path, gt_path):
        breakdown = skeleton_loss(read_volume(pred_path), read_volume(gt_path), weights)
        return {**dataclasses.asdict(breakdown),
                "params": {"tau": args.tau, "r": args.r, "weights": list(lam), "eps": args.eps}}

    return _run_pairs(args, parser, VOLUME_EXTENSIONS, evaluate_pair)


def _cmd_loss(args, parser):
    from .losses import DeepSupervisionConfig, ScaleLoss, default_scale_weights, total_loss
    doc, fields = rawjson.load_object(args.scales), ("dice", "ce", "tasl")
    number = rawjson.is_finite_number
    scales, weights, beta = doc.get("scales"), doc.get("scale_weights"), doc.get("beta", 1.0)
    if not isinstance(scales, list):
        raise ValidationError(f"{args.scales}: expected an object with a 'scales' array")
    if not all(isinstance(s, dict) and all(number(s.get(k)) for k in fields) for s in scales):
        raise ValidationError(
            f"{args.scales}: each scale needs finite numeric 'dice', 'ce', 'tasl' fields")
    if not ((weights is None or isinstance(weights, list) and all(map(number, weights)))
            and number(beta)):
        raise ValidationError(
            f"{args.scales}: 'scale_weights' must be an array of numbers and 'beta' a number")
    if weights is None:
        weights = default_scale_weights(len(scales))
    cfg = DeepSupervisionConfig(scale_weights=weights, beta=float(beta))
    value = total_loss([ScaleLoss(*(float(s[k]) for k in fields)) for s in scales], cfg)
    return {"schema": SCHEMA, "total": value, "beta": cfg.beta,
            "scale_weights": list(cfg.scale_weights), "n_scales": len(scales)}


def _cmd_skeletonize(args, parser):
    vol = read_volume(args.input)
    skel = skeletonize(threshold(vol, args.tau))
    write_volume(skel, args.out)
    return {"schema": SCHEMA, "out": args.out,
            "foreground_in": vol.foreground_count() if vol.kind != PROBABILITY else None,
            "foreground_out": skel.foreground_count()}


def _cmd_graph(args, parser):
    vol = read_volume(args.input)
    graph = graph_from_skeleton(threshold(vol, args.tau), args.r)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(graph.to_json_obj(), fh, indent=2)
        fh.write("\n")
    return {"schema": SCHEMA, "out": args.out,
            "nodes": graph.n_nodes, "edges": graph.n_edges, "r": args.r}


def _cmd_inflate(args, parser):
    from . import inflate
    if args.kernel is None or args.kd is None or args.out is None:
        parser.error("inflate requires --kernel, --kd and --out")
    kernel = inflate.read_kernel2d(args.kernel)
    k3 = getattr(inflate, f"inflate_{args.mode}")(kernel, args.kd)
    inflate.write_tensor(k3.weights, args.out)
    return {"schema": SCHEMA, "out": args.out, "mode": args.mode,
            "kd": args.kd, "shape": list(k3.shape)}


def _cmd_inflate_verify(args, parser):
    from . import inflate
    kernel = inflate.read_kernel2d(args.kernel)
    vol = read_volume(args.volume)
    c_in = kernel.shape[1]
    field = np.repeat(vol.data.astype(np.float64)[None, ...], c_in, axis=0)
    center_res = inflate.center_inflation_residual(field, kernel, args.kd)
    average_res = inflate.average_inflation_residual(field, kernel, args.kd)
    mass = {mode: float(np.abs(getattr(inflate, f"inflate_{mode}")(kernel, args.kd).depth_sum()
                               - kernel.weights).max()) for mode in INFLATIONS}
    return {"schema": SCHEMA, "kd": args.kd, "center_max_residual": center_res,
            "average_interior_max_residual": average_res,
            "center_depth_sum_max_error": mass["center"],
            "average_depth_sum_max_error": mass["average"]}


def _cmd_synth(args, parser):
    from . import swc, synth
    doc = rawjson.load_object(args.spec)
    if "seed" not in doc:
        raise ValidationError(f"{args.spec}: expected an object with at least a 'seed' field")
    unknown = set(doc) - {field.name for field in dataclasses.fields(synth.SynthSpec)}
    if unknown:
        raise ValidationError(f"{args.spec}: unknown field(s) {sorted(unknown)}")
    spec = synth.SynthSpec(**doc)
    tree = synth.generate_tree(spec)
    mask, prob = synth.rasterize(tree, spec)
    swc_path = f"{args.out_prefix}.swc"
    mask_path = f"{args.out_prefix}_mask.json"
    prob_path = f"{args.out_prefix}_prob.json"
    swc.save_swc(tree, swc_path)
    write_volume(mask, mask_path)
    write_volume(prob, prob_path)
    return {"schema": SCHEMA, "swc": swc_path, "mask": mask_path, "prob": prob_path,
            "nodes": len(tree), "foreground": mask.foreground_count()}


# ---------------------------------------------------------------------------
# Parser

def _add_pair_arguments(sub):
    sub.add_argument("--pred", help="prediction file")
    sub.add_argument("--gt", help="ground-truth file")
    sub.add_argument("--pred-dir", help="directory of prediction files (batch mode)")
    sub.add_argument("--gt-dir", help="directory of ground-truth files (batch mode)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skeltop",
        description="Skeleton-topology losses and metrics for 3D volumes and neuron traces")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("seg-eval", help="precision/recall/F1 and HD95 on volumes")
    _add_pair_arguments(p)
    p.add_argument("--tau", type=float, default=0.5,
                   help="threshold applied to probability inputs (default 0.5)")
    p.set_defaults(handler=_cmd_seg_eval)

    p = commands.add_parser("trace-eval", help="esa/dsa/pds on SWC traces")
    _add_pair_arguments(p)
    p.add_argument("--theta", type=float, default=2.0,
                   help="match threshold in voxel units (default 2.0)")
    p.add_argument("--resample", type=float, default=None,
                   help="uniform resampling step before evaluation (off by default)")
    p.set_defaults(handler=_cmd_trace_eval)

    p = commands.add_parser("tasl", help="skeleton-graph topology loss on volumes")
    _add_pair_arguments(p)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--r", type=float, default=2.0, help="graph adjacency radius")
    p.add_argument("--weights", default="1.0,0.5,0.5",
                   help="node,edge,path term weights (default 1.0,0.5,0.5)")
    p.add_argument("--eps", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_tasl)

    p = commands.add_parser("loss", help="deep-supervision total from per-scale inputs")
    p.add_argument("--scales", required=True, help="JSON file with per-scale loss values")
    p.set_defaults(handler=_cmd_loss)

    p = commands.add_parser("skeletonize", help="thin a binary volume")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tau", type=float, default=0.5,
                   help="threshold applied first when the input is a probability volume")
    p.set_defaults(handler=_cmd_skeletonize)

    p = commands.add_parser("graph", help="skeleton voxels to proximity graph JSON")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--tau", type=float, default=0.5)
    p.set_defaults(handler=_cmd_graph)

    p = commands.add_parser("inflate", help="lift a 2D kernel tensor to 3D")
    inflate_sub = p.add_subparsers(dest="inflate_command")
    p.add_argument("--kernel", help="2D kernel tensor (shape c_out,c_in,k_h,k_w)")
    p.add_argument("--kd", type=int, help="target kernel depth")
    p.add_argument("--mode", choices=INFLATIONS, default="center")
    p.add_argument("--out", help="output 3D kernel tensor path")
    p.set_defaults(handler=_cmd_inflate)

    v = inflate_sub.add_parser("verify", help="report inflation equivalence residuals")
    v.add_argument("--kernel", required=True)
    v.add_argument("--kd", type=int, required=True)
    v.add_argument("--volume", required=True)
    v.set_defaults(handler=_cmd_inflate_verify)

    p = commands.add_parser("synth", help="generate a synthetic neuron fixture")
    p.add_argument("--spec", required=True, help="JSON SynthSpec file")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _dumps(args.handler(args, parser))
    except SkeltopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
