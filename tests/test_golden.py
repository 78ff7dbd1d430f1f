"""Golden CLI outputs: every command on two seeded synth fixtures, compared
byte for byte (exit code, stdout, stderr and the sha256 of every file a
command writes) with the record in ``tests/golden/cli.json``.

Commands run in a scratch directory with relative paths, so the record
holds no machine-specific path. To re-record after an intended output
change, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import skeltop
from skeltop.inflate import write_tensor

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
SRC = str(Path(skeltop.__file__).resolve().parent.parent)

SPECS = {
    "spec_a.json": {"seed": 404, "dims": [18, 20, 20], "n_branch_points": 1,
                    "segment_length": [3.0, 5.0], "tube_radius": 1.4,
                    "noise_sigma": 0.05, "blur_sigma": 0.5},
    "spec_b.json": {"seed": 405, "dims": [18, 20, 20], "n_branch_points": 2,
                    "segment_length": [3.0, 5.0], "tube_radius": 1.6},
}
SCALES = {"scale_weights": [1.0, 0.5], "beta": 0.7,
          "scales": [{"dice": 0.2, "ce": 0.4, "tasl": 0.1},
                     {"dice": 0.3, "ce": 0.2, "tasl": 0.0}]}

COMMANDS = [
    ("synth", "--spec", "spec_a.json", "--out-prefix", "a"),
    ("synth", "--spec", "spec_b.json", "--out-prefix", "b"),
    ("seg-eval", "--pred", "a_prob.json", "--gt", "b_mask.json"),
    ("seg-eval", "--pred", "a_prob.json", "--gt", "a_mask.json", "--tau", "0.3"),
    ("trace-eval", "--pred", "a.swc", "--gt", "b.swc"),
    ("trace-eval", "--pred", "a.swc", "--gt", "b.swc", "--resample", "0.5", "--theta", "1.5"),
    ("tasl", "--pred", "a_prob.json", "--gt", "a_mask.json"),
    ("tasl", "--pred", "a_prob.json", "--gt", "b_mask.json", "--r", "3.0",
     "--weights", "1.0,0.25,2.0"),
    ("loss", "--scales", "scales.json"),
    ("skeletonize", "--in", "a_prob.json", "--out", "skel.json"),
    ("skeletonize", "--in", "b_mask.json", "--out", "skel.nrrd"),
    ("graph", "--in", "skel.json", "--out", "graph.json", "--r", "2.0"),
    ("graph", "--in", "a_mask.json", "--out", "graph_r35.json", "--r", "3.5"),
    ("inflate", "--kernel", "k2d.json", "--kd", "3", "--mode", "center", "--out", "k3c.json"),
    ("inflate", "--kernel", "k2d.json", "--kd", "4", "--mode", "average", "--out", "k3a.json"),
    ("inflate", "verify", "--kernel", "k2d.json", "--kd", "3", "--volume", "a_prob.json"),
    ("inflate", "verify", "--kernel", "k2d.json", "--kd", "6", "--volume", "b_mask.json"),
    ("inflate", "--kernel", "k2d.json", "--kd", "3"),
    ("seg-eval", "--pred-dir", "pred", "--gt-dir", "gt"),
    ("tasl", "--pred-dir", "pred", "--gt-dir", "gt"),
    ("trace-eval", "--pred-dir", "pred", "--gt-dir", "gt", "--resample", "1.0"),
]


def _digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _make_batch_dirs(root):
    """pred/ and gt/ hold copies of the fixtures paired by stem, with a
    probability ground truth and an orphan prediction as failing entries."""
    for sub in ("pred", "gt"):
        (root / sub).mkdir()
    copies = {"pred": {"c1": "a_prob", "c2": "b_mask", "c3": "a_mask", "c4": "a_prob"},
              "gt": {"c1": "a_mask", "c2": "a_mask", "c3": "b_prob"}}
    for sub, pairs in copies.items():
        for stem, src in pairs.items():
            (root / sub / f"{stem}.bin").write_bytes((root / f"{src}.bin").read_bytes())
            header = json.loads((root / f"{src}.json").read_text())
            header["data_file"] = f"{stem}.bin"
            (root / sub / f"{stem}.json").write_text(json.dumps(header))
    for sub, src in (("pred", "a"), ("gt", "b")):
        (root / sub / "c1.swc").write_bytes((root / f"{src}.swc").read_bytes())


def run_commands(root):
    """Run COMMANDS in `root`; one record per command."""
    root = Path(root)
    for name, spec in SPECS.items():
        (root / name).write_text(json.dumps(spec))
    (root / "scales.json").write_text(json.dumps(SCALES))
    write_tensor(np.random.default_rng(11).normal(size=(2, 2, 3, 5)), str(root / "k2d.json"))
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    records = []
    for argv in COMMANDS:
        if argv[0] != "synth" and not (root / "pred").exists():
            _make_batch_dirs(root)  # copies of the fixtures the synth commands wrote
        before = _digests(root)
        res = subprocess.run([sys.executable, "-m", "skeltop.cli", *argv], cwd=root,
                             capture_output=True, text=True, env=env)
        after = _digests(root)
        records.append({"argv": list(argv), "returncode": res.returncode,
                        "stdout": res.stdout, "stderr": res.stderr,
                        "files": {k: v for k, v in after.items() if before.get(k) != v}})
    return records


def test_cli_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = run_commands(tmp_path)
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(run_commands(tmp), indent=1) + "\n", encoding="utf-8")
