"""skeltop: skeleton-topology losses, kernel inflation, and
segmentation/tracing metrics for 3D volumes and neuron traces.

Public names and submodules resolve on first use (PEP 562) and are then
cached here. Only ``skeleton_loss`` is bound at import: a first import of
its namesake module would otherwise rebind the name to the module.
"""

import importlib

from .skeleton_loss import skeleton_loss

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "EmptyGraphError GenerationError ParseError SkeltopError UndefinedMetricError "
              "ValidationError",
    "inflate": "Kernel2D Kernel3D conv2d conv3d inflate_average inflate_center read_tensor "
               "write_tensor",
    "losses": "DeepSupervisionConfig ScaleLoss ce_loss default_scale_weights dice_loss total_loss",
    "segmetrics": "SegReport evaluate_segmentation hd95 nearest_rank_percentile "
                  "precision_recall_f1",
    "skeleton": "ComponentPartition SkeletonGraph connected_components graph_from_skeleton "
                "graph_from_skeleton_bruteforce mean_component_size skeletonize",
    "skeleton_loss": "SkeletonLossBreakdown SkeletonLossWeights edge_discrepancy node_discrepancy "
                     "path_discrepancy skeleton_loss",
    "swc": "Morphology SwcRecord load_swc parse_swc resample save_swc write_swc",
    "synth": "SynthSpec generate_tree rasterize",
    "tracemetrics": "TraceReport dsa esa evaluate_trace pds",
    "volume": "BINARY PROBABILITY Volume3D read_volume threshold write_volume",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "rawjson", "spatial", "thinning"}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME.get(name, name)}", __name__)
    globals()[name] = value = getattr(module, name) if name in _HOME else module
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
