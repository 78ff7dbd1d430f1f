import json
import os
import subprocess
import sys

import numpy as np
import pytest

from skeltop import BINARY, Volume3D, save_swc, write_volume
from skeltop.inflate import write_tensor
from skeltop.synth import SynthSpec, generate_tree, rasterize


# skeltop modules that only commands other than tasl import
UNUSED_BY_TASL = ["skeltop.inflate", "skeltop.losses", "skeltop.segmetrics", "skeltop.swc",
                  "skeltop.synth", "skeltop.tracemetrics"]


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "skeltop.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def assert_one_line_error(res):
    """Exit 2 with a single `error:` line on stderr and nothing on stdout."""
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert res.stdout == ""


def write_raw_volume(header_path, data, data_file=None):
    """RawJson volume written field by field, so payloads Volume3D would reject
    (NaN probabilities) and any `data_file` value reach the reader."""
    header_path = str(header_path)
    data_file = data_file or os.path.basename(header_path)[:-5] + ".bin"
    kind, dtype = ("probability", "f32") if data.dtype.kind == "f" else ("binary", "u8")
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump({"dims": list(data.shape), "spacing": [1.0, 1.0, 1.0], "kind": kind,
                   "dtype": dtype, "data_file": data_file}, fh)
    payload = os.path.join(os.path.dirname(header_path), data_file)
    if not os.path.isabs(data_file) and ".." not in data_file:
        with open(payload, "wb") as fh:
            fh.write(data.astype("<f4" if kind == "probability" else "u1").tobytes())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = SynthSpec(seed=77, dims=(24, 26, 26), n_branch_points=2,
                     segment_length=(4.0, 6.0), tube_radius=1.6,
                     noise_sigma=0.05, blur_sigma=0.5)
    tree = generate_tree(spec)
    mask, prob = rasterize(tree, spec)
    write_volume(mask, str(root / "gt.json"))
    write_volume(prob, str(root / "pred.json"))
    save_swc(tree, str(root / "trace.swc"))
    rng = np.random.default_rng(7)
    write_tensor(rng.normal(size=(2, 1, 3, 3)), str(root / "k2d.json"))
    return root


class TestCommands:
    def test_tasl_identity(self, workdir):
        res = run_cli("tasl", "--pred", str(workdir / "gt.json"),
                      "--gt", str(workdir / "gt.json"))
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["schema"] == 1
        assert doc["total"] == 0.0

    def test_seg_eval(self, workdir):
        res = run_cli("seg-eval", "--pred", str(workdir / "pred.json"),
                      "--gt", str(workdir / "gt.json"), "--tau", "0.5")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["f1_pct"] > 95.0
        assert doc["hd95_directed"] is not None

    def test_seg_eval_dim_mismatch_exit2(self, workdir, tmp_path):
        other = Volume3D(np.zeros((4, 4, 4), dtype="u1"), BINARY)
        write_volume(other, str(tmp_path / "small.json"))
        res = run_cli("seg-eval", "--pred", str(tmp_path / "small.json"),
                      "--gt", str(workdir / "gt.json"))
        assert res.returncode == 2
        assert "(4, 4, 4)" in res.stderr and "(24, 26, 26)" in res.stderr

    def test_trace_eval(self, workdir):
        res = run_cli("trace-eval", "--pred", str(workdir / "trace.swc"),
                      "--gt", str(workdir / "trace.swc"), "--resample", "1.0")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["esa"] == 0.0 and doc["pds"] == 0.0
        assert doc["resample_step"] == 1.0

    def test_skeletonize_and_graph(self, workdir, tmp_path):
        skel = str(tmp_path / "skel.json")
        res = run_cli("skeletonize", "--in", str(workdir / "gt.json"), "--out", skel)
        assert res.returncode == 0, res.stderr
        res = run_cli("graph", "--in", skel, "--out", str(tmp_path / "g.json"))
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        graph = json.loads((tmp_path / "g.json").read_text())
        assert doc["nodes"] == len(graph["nodes"])
        assert graph["r"] == 2.0

    def test_inflate_and_verify(self, workdir, tmp_path):
        out = str(tmp_path / "k3d.json")
        res = run_cli("inflate", "--kernel", str(workdir / "k2d.json"),
                      "--kd", "3", "--mode", "center", "--out", out)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["shape"] == [2, 1, 3, 3, 3]
        res = run_cli("inflate", "verify", "--kernel", str(workdir / "k2d.json"),
                      "--kd", "3", "--volume", str(workdir / "pred.json"))
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["center_max_residual"] <= 1e-6
        assert doc["average_depth_sum_max_error"] <= 1e-12

    def test_loss(self, tmp_path):
        scales = {"beta": 1.0, "scale_weights": [1.0], "scales":
                  [{"dice": 0.4, "ce": 0.6, "tasl": 0.5}]}
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(scales))
        res = run_cli("loss", "--scales", str(path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["total"] == 1.5

    def test_synth(self, tmp_path):
        spec = {"seed": 5, "dims": [20, 22, 22], "tube_radius": 1.4,
                "segment_length": [3.0, 5.0], "n_branch_points": 1}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        res = run_cli("synth", "--spec", str(path), "--out-prefix", str(tmp_path / "fix"))
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert os.path.exists(doc["swc"])
        assert os.path.exists(doc["mask"])
        assert os.path.exists(doc["prob"])

    def test_missing_file_exit1(self):
        res = run_cli("tasl", "--pred", "/nonexistent/a.json", "--gt", "/nonexistent/b.json")
        assert res.returncode == 1

    def test_bad_flag_exit2(self, workdir):
        res = run_cli("seg-eval", "--pred", str(workdir / "gt.json"))
        assert res.returncode == 2

    def test_tasl_custom_weights(self, workdir):
        res = run_cli("tasl", "--pred", str(workdir / "gt.json"),
                      "--gt", str(workdir / "gt.json"), "--weights", "2.0,1.0,0.0")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["params"]["weights"] == [2.0, 1.0, 0.0]

    def test_tasl_malformed_weights_exit2(self, workdir):
        res = run_cli("tasl", "--pred", str(workdir / "gt.json"),
                      "--gt", str(workdir / "gt.json"), "--weights", "1.0,0.5")
        assert res.returncode == 2

    def test_trace_eval_empty_trace_exit2(self, workdir, tmp_path):
        empty = tmp_path / "empty.swc"
        empty.write_text("# only comments\n")
        res = run_cli("trace-eval", "--pred", str(empty), "--gt", str(workdir / "trace.swc"))
        assert res.returncode == 2
        assert "undefined" in res.stderr

    @pytest.mark.parametrize("flags", [("--r", "nan"), ("--r", "inf"), ("--eps", "nan"),
                                       ("--weights", "nan,0.5,0.5"), ("--weights", "1,inf,0.5")])
    def test_tasl_non_finite_exit2(self, workdir, flags):
        res = run_cli("tasl", "--pred", str(workdir / "gt.json"),
                      "--gt", str(workdir / "gt.json"), *flags)
        assert_one_line_error(res)

    @pytest.mark.parametrize("coord", ["nan", "inf"])
    def test_trace_eval_non_finite_coordinate_exit2(self, workdir, tmp_path, coord):
        bad = tmp_path / "bad.swc"
        bad.write_text(f"1 1 0 0 0 1 -1\n2 3 {coord} 0 0 1 1\n")
        # the timeout turns a hang in the distance search into a failure
        res = run_cli("trace-eval", "--pred", str(bad), "--gt", str(workdir / "trace.swc"),
                      timeout=30)
        assert_one_line_error(res)
        assert "coordinates must be finite" in res.stderr

    def test_seg_eval_bad_spacing_exit2(self, workdir, tmp_path):
        header = json.loads((workdir / "gt.json").read_text())
        header["spacing"] = ["x", 1, 1]
        (tmp_path / "bad.json").write_text(json.dumps(header))
        res = run_cli("seg-eval", "--pred", str(tmp_path / "bad.json"),
                      "--gt", str(workdir / "gt.json"))
        assert_one_line_error(res)
        assert "spacing" in res.stderr

    def test_seg_eval_nan_probability_exit2(self, workdir, tmp_path):
        write_raw_volume(tmp_path / "nan.json", np.full((24, 26, 26), np.nan, dtype="<f4"))
        res = run_cli("seg-eval", "--pred", str(tmp_path / "nan.json"),
                      "--gt", str(workdir / "gt.json"))
        assert_one_line_error(res)
        assert "NaN" in res.stderr

    @pytest.mark.parametrize("data_file", ["../gt.bin", "ABS"])
    def test_data_file_outside_header_directory_exit2(self, workdir, tmp_path, data_file):
        if data_file == "ABS":
            data_file = str(workdir / "gt.bin")
        (tmp_path / "sub").mkdir()
        header = json.loads((workdir / "gt.json").read_text())
        header["data_file"] = data_file
        (tmp_path / "sub" / "gt.json").write_text(json.dumps(header))
        (tmp_path / "gt.bin").write_bytes((workdir / "gt.bin").read_bytes())
        res = run_cli("seg-eval", "--pred", str(tmp_path / "sub" / "gt.json"),
                      "--gt", str(workdir / "gt.json"))
        assert_one_line_error(res)
        assert "data_file" in res.stderr
        header = json.loads((workdir / "k2d.json").read_text())
        header["data_file"] = "../k2d.bin"
        (tmp_path / "sub" / "k2d.json").write_text(json.dumps(header))
        (tmp_path / "k2d.bin").write_bytes((workdir / "k2d.bin").read_bytes())
        res = run_cli("inflate", "--kernel", str(tmp_path / "sub" / "k2d.json"), "--kd", "3",
                      "--out", str(tmp_path / "k3d.json"))
        assert_one_line_error(res)
        assert "data_file" in res.stderr

    def test_trace_eval_non_finite_result_exit2(self, workdir, tmp_path):
        far = tmp_path / "far.swc"
        far.write_text("1 1 0 0 0 1 -1\n2 3 1e300 0 0 1 1\n")
        res = run_cli("trace-eval", "--pred", str(far), "--gt", str(workdir / "trace.swc"))
        assert_one_line_error(res)
        assert "esa, dsa" in res.stderr and "not finite" in res.stderr
        res = run_cli("trace-eval", "--pred", str(far), "--gt", str(workdir / "trace.swc"),
                      "--resample", "0.5", timeout=30)
        assert_one_line_error(res)
        assert "nodes" in res.stderr

    def test_loss_infinite_total_exit2(self, tmp_path):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps({"scale_weights": [1.0],
                                    "scales": [{"dice": 0.5, "ce": 1e308, "tasl": 1e308}]}))
        res = run_cli("loss", "--scales", str(path))
        assert_one_line_error(res)
        assert "total" in res.stderr

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_graph_non_finite_radius_exit2(self, workdir, tmp_path, radius):
        res = run_cli("graph", "--in", str(workdir / "gt.json"),
                      "--out", str(tmp_path / "g.json"), "--r", radius)
        assert_one_line_error(res)

    @pytest.mark.parametrize("doc", [
        {"scales": [{"dice": "x", "ce": 0.6, "tasl": 0.5}]},
        {"scales": [{"dice": 0.4, "ce": [1], "tasl": 0.5}]},
        {"scales": [{"dice": 0.4, "ce": 0.6, "tasl": 0.5}], "beta": "x"},
        {"scales": [{"dice": 0.4, "ce": 0.6, "tasl": 0.5}], "scale_weights": ["x"]},
        {"scales": [{"dice": 0.4, "ce": 0.6, "tasl": 0.5}], "beta": float("nan")},
        {"scales": [{"dice": 0.4, "ce": 0.6, "tasl": 0.5}], "scale_weights": "1"},
        {"scales": [{"dice": "0.5", "ce": 0.6, "tasl": 0.5}]},
        {"scales": [{"dice": 0.4, "ce": True, "tasl": 0.5}]},
        {"scales": [{"dice": 0.4, "ce": 0.6, "tasl": 0.5}], "beta": True},
        {"scales": [[0.4, 0.6, 0.5]]}, {"scales": "dice"},
    ])
    def test_loss_non_numeric_exit2(self, tmp_path, doc):
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(doc))
        assert_one_line_error(run_cli("loss", "--scales", str(path)))

    @pytest.mark.parametrize("doc", [
        {"seed": "abc"}, {"seed": -1}, {"seed": 0, "dims": 5},
        {"seed": 0, "segment_length": [3.0, "x"]}, {"seed": 0, "noise_sigma": float("nan")},
    ])
    def test_synth_malformed_field_exit2(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        res = run_cli("synth", "--spec", str(path), "--out-prefix", str(tmp_path / "fix"))
        assert_one_line_error(res)


    def test_synth_oversized_dims_exit2(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"seed": 1, "dims": [100000, 100000, 100000]}))
        res = run_cli("synth", "--spec", str(path), "--out-prefix", str(tmp_path / "fix"))
        assert_one_line_error(res)
        assert "voxels" in res.stderr
        assert not list(tmp_path.glob("fix*"))

    @pytest.mark.parametrize("mode", ["center", "average", "verify"])
    def test_inflate_oversized_depth_exit2(self, workdir, tmp_path, mode):
        tensor, out = tmp_path / "k2d.json", tmp_path / "k3d.json"
        write_tensor(np.ones((1, 1, 3, 3)), str(tensor))
        args = (["verify", "--volume", str(workdir / "pred.json")] if mode == "verify"
                else ["--mode", mode, "--out", str(out)])
        res = run_cli("inflate", *args, "--kernel", str(tensor), "--kd", "1000000000000")
        assert_one_line_error(res)
        assert "kernel values" in res.stderr
        assert not out.exists()


class TestBatchMode:
    @pytest.fixture()
    def batch_dirs(self, workdir, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for seed in (31, 32):
            spec = SynthSpec(seed=seed, dims=(18, 20, 20), tube_radius=1.4,
                             segment_length=(3.0, 5.0), n_branch_points=1)
            tree = generate_tree(spec)
            mask, _ = rasterize(tree, spec)
            write_volume(mask, str(pred_dir / f"case{seed}.json"))
            write_volume(mask, str(gt_dir / f"case{seed}.json"))
        # malformed entry: only its own result should fail
        (pred_dir / "broken.json").write_text("{not json")
        (gt_dir / "broken.json").write_text("{not json")
        # unmatched entry
        write_volume(Volume3D(np.zeros((2, 2, 2), dtype="u1"), BINARY),
                     str(pred_dir / "orphan.json"))
        return pred_dir, gt_dir

    def test_batch_isolation_and_order(self, batch_dirs):
        pred_dir, gt_dir = batch_dirs
        res = run_cli("seg-eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir))
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        stems = [entry["stem"] for entry in doc["results"]]
        assert stems == sorted(stems)
        by_stem = {e["stem"]: e for e in doc["results"]}
        assert "error" in by_stem["broken"]
        assert "error" in by_stem["orphan"]
        assert by_stem["case31"]["f1_pct"] == 100.0
        assert by_stem["case32"]["f1_pct"] == 100.0

    def test_thread_cap_env(self, batch_dirs):
        pred_dir, gt_dir = batch_dirs
        res1 = run_cli("seg-eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                       env_extra={"SKELTOP_THREADS": "1"})
        res4 = run_cli("seg-eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                       env_extra={"SKELTOP_THREADS": "4"})
        assert res1.returncode == 0 and res4.returncode == 0
        assert res1.stdout == res4.stdout

    def test_tasl_batch(self, batch_dirs):
        pred_dir, gt_dir = batch_dirs
        res = run_cli("tasl", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir))
        assert res.returncode == 0, res.stderr
        by_stem = {e["stem"]: e for e in json.loads(res.stdout)["results"]}
        assert by_stem["case31"]["total"] == 0.0
        assert "error" in by_stem["broken"]

    def test_tasl_batch_loads_only_its_modules(self, batch_dirs):
        """A tasl batch run end to end imports no scipy and none of the
        modules that only other commands use."""
        pred_dir, gt_dir = batch_dirs
        code = ("import sys\nfrom skeltop.cli import main\nassert main(sys.argv[1:]) == 0\n"
                "print(*sorted(m for m in sys.modules if m.startswith(('scipy', 'skeltop.'))),"
                " file=sys.stderr)")
        res = subprocess.run([sys.executable, "-c", code, "tasl", "--pred-dir", str(pred_dir),
                              "--gt-dir", str(gt_dir)], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == run_cli("tasl", "--pred-dir", str(pred_dir),
                                     "--gt-dir", str(gt_dir)).stdout
        loaded = res.stderr.split()
        assert "skeltop.skeleton_loss" in loaded
        assert not [m for m in loaded if m in UNUSED_BY_TASL or m.startswith("scipy")], loaded

    @pytest.mark.parametrize("command", ["seg-eval", "tasl"])
    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_two_files_with_one_stem_fail_that_entry(self, batch_dirs, command, side):
        pred_dir, gt_dir = batch_dirs
        base = pred_dir if side == "pred" else gt_dir
        (base / "case31.nrrd").write_text("NRRD0004\n")
        res = run_cli(command, "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir))
        assert res.returncode == 0, res.stderr
        by_stem = {e["stem"]: e for e in json.loads(res.stdout)["results"]}
        assert by_stem["case31"] == {
            "stem": "case31", "error_kind": "io",
            "error": f"files share one stem: {base / 'case31.json'}, {base / 'case31.nrrd'}"}
        assert "error" not in by_stem["case32"]
        assert sorted(by_stem) == ["broken", "case31", "case32", "orphan"]

    @pytest.mark.parametrize("command", ["seg-eval", "tasl"])
    def test_bad_header_fails_only_its_entry(self, batch_dirs, command):
        pred_dir, gt_dir = batch_dirs
        for name, field, value in (("badspacing", "spacing", [1, True, 1]),
                                   ("baddims", "dims", [True, 20, 20])):
            for d in (pred_dir, gt_dir):
                header = json.loads((d / "case31.json").read_text())
                header[field] = value
                (d / f"{name}.json").write_text(json.dumps(header))
        res = run_cli(command, "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir))
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        by_stem = {e["stem"]: e for e in json.loads(res.stdout)["results"]}
        assert "dims" in by_stem["baddims"]["error"]
        assert "spacing" in by_stem["badspacing"]["error"]
        assert "error" not in by_stem["case31"] and "error" not in by_stem["case32"]

    def test_error_kind(self, batch_dirs, workdir):
        pred_dir, gt_dir = batch_dirs
        good = {e["stem"]: e for e in json.loads(run_cli(
            "seg-eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)).stdout)["results"]}
        write_raw_volume(pred_dir / "nan.json", np.full((18, 20, 20), np.nan, dtype="<f4"))
        write_raw_volume(pred_dir / "escape.json", np.zeros((18, 20, 20), dtype="u1"),
                         data_file="../gt/case31.bin")
        write_raw_volume(pred_dir / "nopayload.json", np.zeros((18, 20, 20), dtype="u1"))
        os.remove(pred_dir / "nopayload.bin")
        write_raw_volume(pred_dir / "small.json", np.zeros((4, 4, 4), dtype="u1"))
        for stem in ("nan", "escape", "nopayload", "small"):
            (gt_dir / f"{stem}.json").write_text((gt_dir / "case31.json").read_text())
            (gt_dir / f"{stem}.bin").write_bytes((gt_dir / "case31.bin").read_bytes())
            header = json.loads((gt_dir / f"{stem}.json").read_text())
            header["data_file"] = f"{stem}.bin"
            (gt_dir / f"{stem}.json").write_text(json.dumps(header))
        res = run_cli("seg-eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir))
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        by_stem = {e["stem"]: e for e in json.loads(res.stdout)["results"]}
        kinds = {stem: e.get("error_kind") for stem, e in by_stem.items()}
        assert kinds == {"broken": "parse", "orphan": "io", "nan": "parse", "escape": "parse",
                         "nopayload": "io", "small": "validation",
                         "case31": None, "case32": None}
        assert by_stem["orphan"]["error"] == "no matching ground-truth file"
        assert "NaN" in by_stem["nan"]["error"] and "data_file" in by_stem["escape"]["error"]
        for stem in ("broken", "orphan", "case31", "case32"):
            assert by_stem[stem] == {**good[stem], **(
                {"error_kind": kinds[stem]} if "error" in good[stem] else {})}

    def test_trace_eval_batch_non_finite_entry(self, tmp_path):
        pred_dir, gt_dir = tmp_path / "p", tmp_path / "g"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for d in (pred_dir, gt_dir):
            (d / "a.swc").write_text("1 1 0 0 0 1 -1\n2 3 3 0 0 1 1\n")
            (d / "far.swc").write_text("1 1 0 0 0 1 -1\n2 3 3 0 0 1 1\n")
        (pred_dir / "far.swc").write_text("1 1 0 0 0 1 -1\n2 3 1e300 0 0 1 1\n")
        res = run_cli("trace-eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir))
        assert res.returncode == 0, res.stderr
        assert "Infinity" not in res.stdout and "NaN" not in res.stdout
        by_stem = {e["stem"]: e for e in json.loads(res.stdout)["results"]}
        assert by_stem["far"]["error_kind"] == "validation"
        assert "not finite" in by_stem["far"]["error"]
        assert by_stem["a"]["esa"] == 0.0 and "error" not in by_stem["a"]

    def test_trace_eval_batch(self, workdir, tmp_path):
        pred_dir = tmp_path / "p"
        gt_dir = tmp_path / "g"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for d in (pred_dir, gt_dir):
            (d / "a.swc").write_text("1 1 0 0 0 1 -1\n2 3 3 0 0 1 1\n")
        (pred_dir / "bad.swc").write_text("1 1 0 0 0 1\n")
        (gt_dir / "bad.swc").write_text("1 1 0 0 0 1 -1\n")
        res = run_cli("trace-eval", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir))
        assert res.returncode == 0, res.stderr
        by_stem = {e["stem"]: e for e in json.loads(res.stdout)["results"]}
        assert by_stem["a"]["esa"] == 0.0
        assert "error" in by_stem["bad"]


def test_import_loads_no_scipy_or_thread_pool():
    """CLI start-up dominates a short batch, so importing the CLI loads
    neither scipy nor concurrent.futures, nor the modules only other
    commands use."""
    res = subprocess.run([sys.executable, "-c", "import sys, skeltop.cli; print(*sorted(m for m in "
                          "sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "\n"
    res = subprocess.run([sys.executable, "-c", "import sys, skeltop.cli; "
                          "print(*sorted(m for m in sys.modules if m.startswith('skeltop.')))"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert not set(res.stdout.split()) & set(UNUSED_BY_TASL), res.stdout


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, workdir, tmp_path):
        scales = tmp_path / "scales.json"
        scales.write_text(json.dumps({"scale_weights": [1.0],
                                      "scales": [{"dice": 0.1, "ce": 0.2, "tasl": 0.3}]}))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 9, "dims": [18, 18, 18],
                                    "tube_radius": 1.3, "segment_length": [3.0, 4.5]}))
        commands = [
            ("tasl", "--pred", str(workdir / "pred.json"), "--gt", str(workdir / "gt.json")),
            ("seg-eval", "--pred", str(workdir / "pred.json"), "--gt", str(workdir / "gt.json")),
            ("trace-eval", "--pred", str(workdir / "trace.swc"), "--gt", str(workdir / "trace.swc")),
            ("loss", "--scales", str(scales)),
            ("skeletonize", "--in", str(workdir / "gt.json"), "--out", str(tmp_path / "s.json")),
            ("graph", "--in", str(workdir / "gt.json"), "--out", str(tmp_path / "g.json")),
            ("inflate", "--kernel", str(workdir / "k2d.json"), "--kd", "5",
             "--mode", "average", "--out", str(tmp_path / "k3.json")),
            ("inflate", "verify", "--kernel", str(workdir / "k2d.json"), "--kd", "3",
             "--volume", str(workdir / "pred.json")),
            ("synth", "--spec", str(spec), "--out-prefix", str(tmp_path / "fx")),
        ]
        for cmd in commands:
            first = run_cli(*cmd)
            second = run_cli(*cmd)
            assert first.returncode == 0, (cmd, first.stderr)
            assert first.stdout == second.stdout, f"non-deterministic output: {cmd[0]}"
