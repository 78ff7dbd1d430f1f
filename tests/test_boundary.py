"""Malformed input at the program's boundary, driven through ``cli.main``
in-process: every bad file or number gives exit 1 or 2 and raises
nothing, and in batch mode a bad file fails only its own entry.

Covers RawJson header fields, NRRD header lines, bytes that are not
UTF-8, and the numeric CLI flags, as tables plus hypothesis draws.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skeltop import cli, save_swc, write_volume
from skeltop.synth import SynthSpec, generate_tree, rasterize

NOT_UTF8 = b"\xff\xfe not utf-8 \xc3\x28\n"
HUGE = 10 ** 30


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """Valid inputs: RawJson and NRRD volumes and an SWC trace."""
    root = tmp_path_factory.mktemp("boundary")
    spec = SynthSpec(seed=11, dims=(14, 16, 16), n_branch_points=1,
                     segment_length=(3.0, 4.0), tube_radius=1.3, noise_sigma=0.05)
    tree = generate_tree(spec)
    mask, prob = rasterize(tree, spec)
    write_volume(mask, str(root / "gt.json"))
    write_volume(prob, str(root / "pred.json"))
    write_volume(mask, str(root / "gt.nrrd"))
    save_swc(tree, str(root / "trace.swc"))
    return root


def run(capsys, *argv):
    """`cli.main(argv)`'s exit code, stdout and stderr; main must not raise."""
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.startswith(("error: ", "i/o error: ")), err
        assert err.count("\n") == 1, err
    return code, out, err


def assert_rejected(capsys, *argv):
    code, _, err = run(capsys, *argv)
    assert code in (1, 2), err
    return code, err


# ---------------------------------------------------------------------------
# RawJson headers

NAN = float("nan")

# (name, field, value); value DELETE removes the field
DELETE = object()
RAWJSON_CASES = [
    ("dims_bool", "dims", True), ("dims_bool_entry", "dims", [True, 16, 16]),
    ("dims_rank2", "dims", [14, 16]), ("dims_rank4", "dims", [14, 16, 16, 1]),
    ("dims_zero", "dims", [0, 16, 16]), ("dims_negative", "dims", [-14, 16, 16]),
    ("dims_huge", "dims", [HUGE, HUGE, HUGE]), ("dims_float", "dims", [14.0, 16, 16]),
    ("dims_nan", "dims", [NAN, 16, 16]), ("dims_string", "dims", "14 16 16"),
    ("dims_missing", "dims", DELETE), ("dims_empty", "dims", []),
    ("spacing_bool", "spacing", [1, True, 1]), ("spacing_nan", "spacing", [NAN, 1, 1]),
    ("spacing_inf", "spacing", [1, float("inf"), 1]), ("spacing_huge", "spacing", [10 ** 400, 1, 1]),
    ("spacing_zero", "spacing", [0, 1, 1]), ("spacing_negative", "spacing", [1, -1, 1]),
    ("spacing_string", "spacing", ["x", 1, 1]), ("spacing_scalar", "spacing", 1.0),
    ("kind_list", "kind", []), ("kind_object", "kind", {}), ("kind_unknown", "kind", "mask"),
    ("kind_null", "kind", None), ("kind_bool", "kind", True),
    ("dtype_list", "dtype", []), ("dtype_unknown", "dtype", "f64"), ("dtype_wrong", "dtype", "u8"),
    ("dtype_null", "dtype", None),
    ("data_file_null", "data_file", None), ("data_file_int", "data_file", 5),
    ("data_file_list", "data_file", []), ("data_file_parent", "data_file", "../pred.bin"),
    ("data_file_absolute", "data_file", "/pred.bin"), ("data_file_nul", "data_file", "a\0b"),
    ("data_file_missing_file", "data_file", "nothing.bin"), ("data_file_empty", "data_file", ""),
    ("data_file_dot", "data_file", "."), ("data_file_dot_slash", "data_file", "./"),
]

RAWJSON_TEXTS = [
    ("not_json", b"{not json"), ("array", b"[1, 2, 3]"), ("empty", b""),
    ("deep", b"[" * 100000), ("long_integer", b'{"dims": [' + b"1" * 5000 + b"]}"),
    ("not_utf8", NOT_UTF8), ("bom", b"\xef\xbb\xbf{}"),
]


def write_bad_header(good, directory, name, field, value):
    header = json.loads((good / "pred.json").read_text())
    if value is DELETE:
        del header[field]
    else:
        header[field] = value
    (directory / "pred.bin").write_bytes((good / "pred.bin").read_bytes())
    path = directory / f"{name}.json"
    path.write_text(json.dumps(header))
    return path


# (name, exit code, text in the message) where they are not (2, the field name)
RAWJSON_EXPECTED = {"dims_huge": (2, "size mismatch"),
                    "data_file_missing_file": (1, "nothing.bin"),
                    "data_file_empty": (2, "data_file")}


@pytest.mark.parametrize("name,field,value", RAWJSON_CASES, ids=[c[0] for c in RAWJSON_CASES])
def test_rawjson_field(capsys, good, tmp_path, name, field, value):
    path = write_bad_header(good, tmp_path, name, field, value)
    code, err = assert_rejected(capsys, "seg-eval", "--pred", path, "--gt", good / "gt.json")
    want_code, want_text = RAWJSON_EXPECTED.get(name, (2, field))
    assert code == want_code and want_text in err, err


@pytest.mark.parametrize("name,blob", RAWJSON_TEXTS, ids=[c[0] for c in RAWJSON_TEXTS])
def test_rawjson_text(capsys, good, tmp_path, name, blob):
    path = tmp_path / f"{name}.json"
    path.write_bytes(blob)
    code, _ = assert_rejected(capsys, "tasl", "--pred", path, "--gt", good / "gt.json")
    assert code == 2


def test_tensor_shape_overflow(capsys, good, tmp_path):
    """A shape whose product wraps a 64-bit integer to 0 must not match an empty payload."""
    (tmp_path / "k.bin").write_bytes(b"")
    for shape in ([2 ** 32, 2 ** 32, 1, 1], [1, 1, True, 2], [0, 1, 1, 1]):
        (tmp_path / "k.json").write_text(json.dumps(
            {"shape": shape, "dtype": "f32", "data_file": "k.bin"}))
        code, _ = assert_rejected(capsys, "inflate", "--kernel", tmp_path / "k.json",
                                  "--kd", 3, "--out", tmp_path / "k3.json")
        assert code == 2


def test_rawjson_batch_keeps_good_entries(capsys, good, tmp_path):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    for stem in ("a_good", "z_good"):
        for d, src in ((pred_dir, "pred"), (gt_dir, "gt")):
            header = json.loads((good / f"{src}.json").read_text())
            header["data_file"] = f"{stem}.bin"
            (d / f"{stem}.json").write_text(json.dumps(header))
            (d / f"{stem}.bin").write_bytes((good / f"{src}.bin").read_bytes())
    bad = [c[0] for c in RAWJSON_CASES] + [t[0] for t in RAWJSON_TEXTS]
    for name, field, value in RAWJSON_CASES:
        write_bad_header(good, pred_dir, name, field, value)
    for name, blob in RAWJSON_TEXTS:
        (pred_dir / f"{name}.json").write_bytes(blob)
    for name in bad:
        (gt_dir / f"{name}.json").write_text((gt_dir / "a_good.json").read_text())
    code, out, _ = run(capsys, "seg-eval", "--pred-dir", pred_dir, "--gt-dir", gt_dir)
    assert code == 0
    by_stem = {e["stem"]: e for e in json.loads(out)["results"]}
    assert sorted(by_stem) == sorted(bad + ["a_good", "z_good"])
    for name in bad:
        want = "io" if RAWJSON_EXPECTED.get(name, (2,))[0] == 1 else "parse"
        assert by_stem[name]["error_kind"] == want, by_stem[name]
    _, single, _ = run(capsys, "seg-eval", "--pred", good / "pred.json", "--gt", good / "gt.json")
    expected = {k: v for k, v in json.loads(single).items() if k != "schema"}
    for stem in ("a_good", "z_good"):
        assert by_stem[stem] == {"stem": stem, **expected}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4), max_leaves=6)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(["dims", "spacing", "kind", "dtype", "data_file"]), value=JSON_VALUES)
def test_rawjson_field_fuzz(capsys, good, tmp_path, field, value):
    path = write_bad_header(good, tmp_path, "fuzz", field, value)
    run(capsys, "seg-eval", "--pred", path, "--gt", good / "gt.json")


SCALE = {"dice": 0.2, "ce": 0.3, "tasl": 0.1}


@pytest.mark.parametrize("command,doc", [
    ("loss", {"scales": [{**SCALE, "ce": 10 ** 400}]}),
    ("loss", {"scales": [SCALE], "scale_weights": [10 ** 400]}),
    ("loss", {"scales": [SCALE], "beta": 10 ** 400}),
    ("synth", {"seed": 1, "tube_radius": 10 ** 400}),
])
def test_integer_beyond_float_range(capsys, tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    flag = ("--scales",) if command == "loss" else ("--out-prefix", tmp_path / "fix", "--spec")
    code, _ = assert_rejected(capsys, command, *flag, path)
    assert code == 2


# (spec, the whole error message): a JSON boolean is not a number
SYNTH_CASES = [
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": 1, "dims": [True, 16, 16]}, "dims must be an integer, got True"),
    ({"seed": 1, "dims": True}, "dims must be a sequence of 3 numbers, got True"),
    ({"seed": 1, "n_branch_points": False}, "n_branch_points must be an integer, got False"),
    ({"seed": 1, "segment_length": [True, 5]}, "segment_length must be a finite number, got True"),
    ({"seed": 1, "tube_radius": True}, "tube_radius must be a finite number, got True"),
    ({"seed": 1, "noise_sigma": False}, "noise_sigma must be a finite number, got False"),
    ({"seed": 1, "blur_sigma": True}, "blur_sigma must be a finite number, got True"),
]


@pytest.mark.parametrize("doc,message", SYNTH_CASES, ids=[m.split()[0] for _, m in SYNTH_CASES])
def test_synth_spec_field(capsys, tmp_path, doc, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, err = assert_rejected(capsys, "synth", "--spec", path, "--out-prefix", tmp_path / "fix")
    assert code == 2 and err == f"error: {message}\n", err
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# NRRD headers

NRRD_OK = ["type: uint8", "dimension: 3", "sizes: 16 16 14", "encoding: raw", "endian: little"]
NRRD_CASES = [
    ("no_magic", b"NOTNRRD\n\n"), ("empty", b""), ("magic_only", b"NRRD0004\n"),
    ("no_colon", ["type uint8"] + NRRD_OK[1:]), ("unknown_field", NRRD_OK + ["space: left"]),
    ("missing_field", NRRD_OK[:-1]), ("encoding", NRRD_OK[:3] + ["encoding: gzip"] + NRRD_OK[4:]),
    ("endian", NRRD_OK[:4] + ["endian: big"]), ("dimension", NRRD_OK[:1] + ["dimension: 2"] + NRRD_OK[2:]),
    ("type", ["type: double"] + NRRD_OK[1:]), ("sizes_words", NRRD_OK[:2] + ["sizes: a b c"] + NRRD_OK[3:]),
    ("sizes_two", NRRD_OK[:2] + ["sizes: 16 16"] + NRRD_OK[3:]),
    ("sizes_zero", NRRD_OK[:2] + ["sizes: 16 16 0"] + NRRD_OK[3:]),
    ("sizes_negative", NRRD_OK[:2] + ["sizes: 16 -16 14"] + NRRD_OK[3:]),
    ("sizes_float", NRRD_OK[:2] + ["sizes: 16 16 1e3"] + NRRD_OK[3:]),
    ("sizes_huge", NRRD_OK[:2] + [f"sizes: {HUGE} 16 14"] + NRRD_OK[3:]),
    ("sizes_mismatch", NRRD_OK[:2] + ["sizes: 16 16 13"] + NRRD_OK[3:]),
    ("not_ascii", [b"type: uint8\xff"] + NRRD_OK[1:]), ("not_utf8_magic", NOT_UTF8),
    ("float_nan", ["type: float"] + NRRD_OK[1:]),
]


def nrrd_blob(good, spec):
    if isinstance(spec, bytes):
        return spec
    lines = [s if isinstance(s, bytes) else s.encode() for s in spec]
    payload = (good / "gt.nrrd").read_bytes().split(b"\n\n", 1)[1]
    if any(s.startswith(b"type: float") for s in lines):
        payload = b"\x00\x00\xc0\x7f" * (14 * 16 * 16)  # float32 NaN
    return b"NRRD0004\n" + b"\n".join(lines) + b"\n\n" + payload


@pytest.mark.parametrize("name,spec", NRRD_CASES, ids=[c[0] for c in NRRD_CASES])
def test_nrrd_header(capsys, good, tmp_path, name, spec):
    path = tmp_path / f"{name}.nrrd"
    path.write_bytes(nrrd_blob(good, spec))
    code, _ = assert_rejected(capsys, "seg-eval", "--pred", path, "--gt", good / "gt.nrrd")
    assert code == 2


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(index=st.integers(0, len(NRRD_OK) - 1), line=st.binary(max_size=24))
def test_nrrd_header_fuzz(capsys, good, tmp_path, index, line):
    lines = [s.encode() for s in NRRD_OK]
    lines[index] = line.replace(b"\n", b" ")
    path = tmp_path / "fuzz.nrrd"
    path.write_bytes(nrrd_blob(good, lines))
    run(capsys, "seg-eval", "--pred", path, "--gt", good / "gt.nrrd")


# ---------------------------------------------------------------------------
# Text that is not UTF-8

def not_utf8_commands(good, bad):
    return {
        "loss": ("loss", "--scales", bad),
        "synth": ("synth", "--spec", bad, "--out-prefix", bad.parent / "fix"),
        "seg-eval": ("seg-eval", "--pred", bad, "--gt", good / "gt.json"),
        "tasl": ("tasl", "--pred", good / "gt.json", "--gt", bad),
        "trace-eval": ("trace-eval", "--pred", bad, "--gt", good / "trace.swc"),
        "inflate": ("inflate", "--kernel", bad, "--kd", 3, "--out", bad.parent / "k3.json"),
    }


@pytest.mark.parametrize("command", ["loss", "synth", "seg-eval", "tasl", "trace-eval", "inflate"])
def test_not_utf8_exit2(capsys, good, tmp_path, command):
    bad = tmp_path / ("bad.swc" if command == "trace-eval" else "bad.json")
    bad.write_bytes(NOT_UTF8)
    code, err = assert_rejected(capsys, *not_utf8_commands(good, bad)[command])
    assert code == 2 and err == f"error: {bad}: not UTF-8 text\n"


def test_not_utf8_batch_entry(capsys, good, tmp_path):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    for stem in ("a", "c"):
        for d in (pred_dir, gt_dir):
            (d / f"{stem}.swc").write_bytes((good / "trace.swc").read_bytes())
    (pred_dir / "b.swc").write_bytes(NOT_UTF8)
    (gt_dir / "b.swc").write_bytes((good / "trace.swc").read_bytes())
    code, out, _ = run(capsys, "trace-eval", "--pred-dir", pred_dir, "--gt-dir", gt_dir)
    assert code == 0
    results = json.loads(out)["results"]
    assert [e["stem"] for e in results] == ["a", "b", "c"]
    assert results[1] == {"stem": "b", "error": f"{pred_dir / 'b.swc'}: not UTF-8 text",
                          "error_kind": "parse"}
    assert results[0]["esa"] == results[2]["esa"] == 0.0


# ---------------------------------------------------------------------------
# Numeric flags

def flag_commands(good, tmp_path):
    pair = ("--pred", good / "pred.json", "--gt", good / "gt.json")
    traces = ("--pred", good / "trace.swc", "--gt", good / "trace.swc")
    return {
        "--tau": [("seg-eval", *pair), ("tasl", *pair),
                  ("seg-eval", "--pred", good / "gt.json", "--gt", good / "gt.json"),
                  ("skeletonize", "--in", good / "gt.json", "--out", tmp_path / "s.json"),
                  ("graph", "--in", good / "gt.json", "--out", tmp_path / "g.json")],
        "--r": [("tasl", *pair), ("graph", "--in", good / "gt.json", "--out", tmp_path / "g.json")],
        "--eps": [("tasl", *pair)],
        "--weights": [("tasl", *pair)],
        "--theta": [("trace-eval", *traces)],
        "--resample": [("trace-eval", *traces)],
    }


def flag_arg(flag, value):
    """`--flag=value`: with a space, argparse would read `-inf` as an option."""
    text = repr(value) if math.isfinite(value) else str(value)
    return f"{flag}={','.join([text] * 3) if flag == '--weights' else text}"


FLAGS = ["--tau", "--r", "--eps", "--weights", "--theta", "--resample"]
BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0, -1e300]


@pytest.mark.parametrize("flag", FLAGS)
@pytest.mark.parametrize("value", BAD_NUMBERS, ids=str)
def test_numeric_flag_exit2(capsys, good, tmp_path, flag, value):
    for argv in flag_commands(good, tmp_path)[flag]:
        code, err = assert_rejected(capsys, *argv, flag_arg(flag, value))
        assert code == 2, (argv, err)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(FLAGS),
       value=st.floats(max_value=0.0) | st.sampled_from(BAD_NUMBERS))
def test_numeric_flag_fuzz(capsys, good, tmp_path, flag, value):
    argv = flag_commands(good, tmp_path)[flag][0]
    code, _ = assert_rejected(capsys, *argv, flag_arg(flag, value))
    assert code == 2


def batch_dirs(good, tmp_path, suffix):
    """pred/gt directories holding one good pair with the given suffix."""
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    if suffix == ".swc":
        for d in (pred_dir, gt_dir):
            (d / "a.swc").write_bytes((good / "trace.swc").read_bytes())
    else:
        for d, src in ((pred_dir, "pred"), (gt_dir, "gt")):
            (d / "a.json").write_text((good / f"{src}.json").read_text())
            (d / f"{src}.bin").write_bytes((good / f"{src}.bin").read_bytes())
    return pred_dir, gt_dir


@pytest.mark.parametrize("command,flag", [("seg-eval", "--tau"), ("tasl", "--tau"),
                                          ("trace-eval", "--theta"),
                                          ("trace-eval", "--resample")])
@pytest.mark.parametrize("value", [float("nan"), 0.0], ids=str)
def test_numeric_flag_fails_whole_batch(capsys, good, tmp_path, command, flag, value):
    """A flag is checked once, before the batch: exit 2, one error line, no stdout."""
    pred_dir, gt_dir = batch_dirs(good, tmp_path, ".swc" if command == "trace-eval" else ".json")
    code, out, err = run(capsys, command, "--pred-dir", pred_dir, "--gt-dir", gt_dir)
    assert code == 0 and len(json.loads(out)["results"]) == 1 and "error" not in out
    code, out, err = run(capsys, command, "--pred-dir", pred_dir, "--gt-dir", gt_dir,
                         flag_arg(flag, value))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1, err
