"""The package namespace: names resolve on first use and keep `__all__`.

Each check runs in a fresh interpreter, since what is already imported
decides which path a lazy name takes.
"""

import subprocess
import sys
import textwrap

import pytest


PUBLIC = """
    BINARY ComponentPartition DeepSupervisionConfig EmptyGraphError GenerationError Kernel2D
    Kernel3D Morphology PROBABILITY ParseError ScaleLoss SegReport SkeletonGraph
    SkeletonLossBreakdown SkeletonLossWeights SkeltopError SwcRecord SynthSpec TraceReport
    UndefinedMetricError ValidationError Volume3D ce_loss connected_components conv2d conv3d
    default_scale_weights dice_loss dsa edge_discrepancy esa evaluate_segmentation
    evaluate_trace generate_tree graph_from_skeleton graph_from_skeleton_bruteforce hd95
    inflate_average inflate_center load_swc mean_component_size nearest_rank_percentile
    node_discrepancy parse_swc path_discrepancy pds precision_recall_f1 rasterize
    read_tensor read_volume resample save_swc skeleton_loss skeletonize threshold
    total_loss write_swc write_tensor write_volume
""".split()


def run_python(code):
    res = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("first", ["import skeltop", "import skeltop.cli"])
def test_every_public_name_is_its_home_modules_object(first):
    out = run_python(f"""
        {first}
        import importlib, skeltop
        for name in skeltop.__all__:
            home = importlib.import_module("skeltop." + skeltop._HOME[name])
            value = getattr(skeltop, name)
            assert value is getattr(home, name), name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name
        print(*skeltop.__all__)
    """)
    assert sorted(out.split()) == sorted(PUBLIC)


def test_star_import_binds_exactly_all():
    out = run_python("""
        ns = {}
        exec("from skeltop import *", ns)
        import skeltop
        assert set(ns) - {"__builtins__"} == set(skeltop.__all__), set(ns) ^ set(skeltop.__all__)
        print("ok")
    """)
    assert out == "ok\n"


@pytest.mark.parametrize("first", ["import skeltop", "import skeltop.skeleton_loss",
                                   "import skeltop.cli", "from skeltop import skeleton_loss"])
def test_skeleton_loss_stays_the_function(first):
    """`skeleton_loss` names both a function and its module; importing the
    module, before or after the package, must not rebind the package name."""
    out = run_python(f"""
        {first}
        import types, skeltop
        before = skeltop.skeleton_loss
        import skeltop.skeleton_loss
        from skeltop.skeleton_loss import skeleton_loss
        assert isinstance(before, types.FunctionType), before
        assert skeltop.skeleton_loss is before is skeleton_loss
        print("ok")
    """)
    assert out == "ok\n"


def test_unknown_name_raises_attribute_error():
    out = run_python("""
        import skeltop
        try:
            skeltop.nope
        except AttributeError as exc:
            print(repr(exc))
        print(hasattr(skeltop, "nope"), hasattr(skeltop, "skeletonize"))
    """)
    assert out == ("AttributeError(\"module 'skeltop' has no attribute 'nope'\")\n"
                   "False True\n")


def test_submodules_resolve_after_bare_import():
    out = run_python("""
        import sys, skeltop
        names = ["errors", "inflate", "losses", "rawjson", "segmetrics", "skeleton", "spatial",
                 "swc", "synth", "thinning", "tracemetrics", "volume"]
        for name in names:
            assert getattr(skeltop, name) is sys.modules["skeltop." + name], name
            assert name in dir(skeltop), name
        print("ok")
    """)
    assert out == "ok\n"


def test_import_loads_only_what_skeleton_loss_needs():
    out = run_python("""
        import sys, skeltop
        print(*sorted(m for m in sys.modules if m.startswith("skeltop.")))
    """)
    assert out.split() == ["skeltop.errors", "skeltop.rawjson", "skeltop.skeleton",
                           "skeltop.skeleton_loss", "skeltop.spatial", "skeltop.thinning",
                           "skeltop.volume"]


def test_dir_lists_every_public_name():
    out = run_python("""
        import skeltop
        missing = set(skeltop.__all__) - set(dir(skeltop))
        assert not missing, missing
        print("ok")
    """)
    assert out == "ok\n"


def test_resolved_names_are_cached_in_the_package():
    out = run_python("""
        import skeltop
        assert "dice_loss" not in vars(skeltop)
        f = skeltop.dice_loss
        assert vars(skeltop)["dice_loss"] is f
        print("ok")
    """)
    assert out == "ok\n"
