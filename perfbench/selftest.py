"""Self-test of the benchmark's correctness gate: every check must pass a
true output and catch a deliberately perturbed one.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Run from the root of a checkout. The file is not named test_*.py, so the
repository's own test run does not collect it.
"""

import copy
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (applies the thread pins before numpy loads)
import harness  # noqa: E402

harness.import_skeltop(os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import skeltop as sk  # noqa: E402
import workloads  # noqa: E402


def bump(x):
    """The next float above x: the smallest possible perturbation."""
    return float(np.nextafter(x, np.inf))


def tube_mask():
    m = np.zeros((16, 16, 16), dtype=bool)
    m[3:13, 6:9, 6:9] = True
    return m


def test_thinning_contract():
    mask = tube_mask()
    skel = sk.skeletonize(sk.Volume3D(mask.astype("u1"), sk.BINARY)).bool_data()
    assert oracles.thinning_problems(mask, skel, "t") == []
    outside = skel.copy()
    outside[0, 0, 0] = True
    assert any("subset" in p for p in oracles.thinning_problems(mask, outside, "t"))
    split = skel.copy()
    zs = np.argwhere(split)[:, 0]
    split[int(np.median(zs))] = False
    assert any("26-components" in p for p in oracles.thinning_problems(mask, split, "t"))
    block = skel.copy()
    block[5:7, 6:8, 6:8] = True
    assert any("2x2x2" in p for p in oracles.thinning_problems(mask, block, "t"))


def test_graph_check():
    skel = sk.skeletonize(sk.Volume3D(tube_mask().astype("u1"), sk.BINARY))
    g = sk.graph_from_skeleton(skel)
    brute = sk.graph_from_skeleton_bruteforce(skel)
    assert oracles.graph_problems(g, brute, "g") == []
    missing = sk.SkeletonGraph(g.nodes, g.edges[1:], g.radius_r)
    assert oracles.graph_problems(missing, brute, "g")


def test_segmentation_and_trace_checks():
    spec = sk.SynthSpec(seed=5, dims=(32, 32, 32), noise_sigma=0.16, blur_sigma=1.0)
    tree = sk.generate_tree(spec)
    mask, prob = sk.rasterize(tree, spec)
    pred = sk.threshold(prob, 0.5)
    report = sk.evaluate_segmentation(pred, mask).to_json_obj()
    assert oracles.segmentation_problems(prob.data > 0.5, mask.data == 1, report, "s") == []
    for key in ("hd95_directed", "hd95_symmetric"):
        bad = dict(report, **{key: bump(report[key])})
        assert oracles.segmentation_problems(prob.data > 0.5, mask.data == 1, bad, "s")
    bad = copy.deepcopy(report)
    bad["counts"]["fp"] += 1
    assert oracles.segmentation_problems(prob.data > 0.5, mask.data == 1, bad, "s")

    shifted = sk.Morphology(tuple(
        sk.SwcRecord(r.id, r.type_code, r.x + 0.3, r.y, r.z + 2.5 * (r.id % 3 == 0), r.radius,
                     r.parent) for r in tree.records))
    trace = sk.evaluate_trace(shifted, tree, theta=2.0, resample_step=0.5).to_json_obj()
    p_xyz = sk.resample(shifted, 0.5).node_positions()
    g_xyz = sk.resample(tree, 0.5).node_positions()
    assert oracles.trace_problems(p_xyz, g_xyz, trace, 2.0, "t") == []
    for key in ("esa", "dsa", "pds"):
        bad = dict(trace, **{key: bump(trace[key])})
        assert oracles.trace_problems(p_xyz, g_xyz, bad, 2.0, "t")


def _items(wl, outputs):
    return [{"k": i % wl.pool, "latency": 0.1, "output": o, "error": None}
            for i, o in enumerate(outputs)]


def test_train_step_gate():
    wl = workloads.TrainStep(0, None)
    wl.pool = 1
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        wl.setup(workdir)
    out = harness.canon(wl.run_item(0))
    assert wl.verify(0, out) == []
    bad = copy.deepcopy(out)
    bad["scales"][0]["l_node"] = bump(bad["scales"][0]["l_node"])
    assert wl.verify(0, bad)
    # a later item of the same fixture that drifts fails; the first stays good
    reasons, _ = run.check_items(wl, _items(wl, [out, bad]), None, None)
    assert reasons[0] is None and reasons[1] is not None
    # a recorded digest that does not match fails every item of the fixture
    reasons, notes = run.check_items(wl, _items(wl, [out, out]), None, ["0" * 64])
    assert all(reasons) and any("digest" in n for n in notes)
    good = harness.digest(wl.digest_obj(out))
    assert run.check_items(wl, _items(wl, [out, out]), None, [good])[0] == [None, None]


def test_eval_case_gate():
    wl = workloads.EvalCase(0, None)
    wl.pool = 1
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        wl.setup(workdir)
        out = harness.canon(wl.run_item(0))
        assert wl.verify(0, out) == []
        bad = copy.deepcopy(out)
        bad["seg"]["hd95_directed"] = bump(bad["seg"]["hd95_directed"])
        assert wl.verify(0, bad)
        bad = copy.deepcopy(out)
        bad["trace"]["n_pred"] += 1
        assert wl.verify(0, bad)


def test_cli_batch_failures():
    wl = workloads.CliBatch(0, None)
    doc = {"schema": 1, "results": [{"stem": "a", "l_node": 1.0}]}
    good = {"returncode": 0, "stdout": json.dumps(doc), "traceback": False}
    assert wl.item_failure(good) is None
    assert wl.item_failure(dict(good, returncode=1))
    assert wl.item_failure(dict(good, traceback=True))
    doc_err = {"schema": 1, "results": [{"stem": "a", "error": "bad"}]}
    assert wl.item_failure(dict(good, stdout=json.dumps(doc_err)))
    # stdout that changes between invocations fails the later invocation
    wl.verify = lambda k, out: []
    other = dict(good, stdout=json.dumps(doc, indent=1))
    reasons, _ = run.check_items(wl, _items(wl, [good, other]), None, None)
    assert reasons[0] is None and reasons[1] is not None


def test_end_to_end_scaling():
    # items and set-ups timed on a host at half the reference speed
    items = [{"latency": 2.0 * (i + 1), "scale": 0.5} for i in range(3)]
    metrics, info = run.end_to_end(items, 50.0, [(4.0, 2.0), (6.0, 3.0), (5.0, 2.5)])
    assert metrics["latency_p50_s"] == (2.0, "s")
    assert metrics["items_per_s"] == (0.5, "1/s")
    assert metrics["setup_s"] == (2.5, "s")
    assert info["measured"] == {"items_per_s": 0.25, "latency_p50_s": 4.0, "setup_s": 5.0}
    assert harness.speed_scale(harness.CAL_REF_S, 3 * harness.CAL_REF_S) == 0.5


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    print(f"{len(tests)} gate self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
