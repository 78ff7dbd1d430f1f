import json
import os
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltop import (BINARY, PROBABILITY, ParseError, ValidationError,
                     Volume3D, read_volume, threshold, write_volume)
from skeltop.volume import surface_voxel_array

from conftest import brute_surface_voxels


def slice_surface_voxel_array(m):
    """Reference surface extraction: six shifted slices of the padded mask,
    then argwhere over the whole volume."""
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2, m.shape[2] + 2), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = m
    interior = np.ones_like(m)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return np.argwhere(m & ~interior)


def surface_voxels(vol):
    """The surface as a set of (z, y, x) tuples, for comparison with brute force."""
    return {tuple(int(c) for c in row) for row in surface_voxel_array(vol)}


def assert_surface_matches_reference(m):
    got = surface_voxel_array(binary_volume(m))
    want = slice_surface_voxel_array(np.asarray(m, dtype=bool))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def prob_volume(values):
    return Volume3D(np.asarray(values, dtype="<f4"), PROBABILITY)


def binary_volume(values):
    return Volume3D(np.asarray(values, dtype="u1"), BINARY)


class TestVolume3D:
    def test_invariant_checks(self):
        with pytest.raises(ValidationError):
            Volume3D(np.full((2, 2, 2), 1.5, dtype="<f4"), PROBABILITY)
        with pytest.raises(ValidationError):
            Volume3D(np.full((2, 2, 2), 2, dtype="u1"), BINARY)
        with pytest.raises(ValidationError):
            Volume3D(np.zeros((2, 2), dtype="u1"), BINARY)
        with pytest.raises(ValidationError):
            Volume3D(np.zeros((2, 2, 2), dtype="u1"), BINARY, spacing=(0, 1, 1))
        with pytest.raises(ValidationError):
            Volume3D(np.zeros((2, 2, 2), dtype="u1"), "labels")

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_spacing_rejected(self, axis, bad):
        spacing = [1.0, 1.0, 1.0]
        spacing[axis] = bad
        with pytest.raises(ValidationError, match="spacing must be 3 positive reals"):
            Volume3D(np.zeros((2, 2, 2), dtype="u1"), BINARY, tuple(spacing))

    @pytest.mark.parametrize("bad", [2, 7, 128, 255])
    def test_binary_values_above_one_rejected(self, bad):
        m = np.zeros((3, 4, 5), dtype="u1")
        m[2, 3, 4] = bad
        with pytest.raises(ValidationError, match="binary"):
            Volume3D(m, BINARY)

    @pytest.mark.parametrize("values", [np.zeros((2, 3, 4)), np.ones((2, 3, 4)),
                                        np.eye(4).reshape(1, 4, 4), [[[0.0, 0.7, 1.0]]],
                                        np.array([[[-1, 256, 1]]])])
    def test_binary_check_matches_isin_on_the_cast(self, values):
        cast = np.asarray(np.asarray(values), dtype="u1")
        if np.isin(cast, (0, 1)).all():
            assert np.array_equal(Volume3D(values, BINARY).data, cast)
        else:
            with pytest.raises(ValidationError, match="binary"):
                Volume3D(values, BINARY)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    def test_binary_non_finite_floats_rejected_not_cast(self, bad, dtype):
        data = np.ones((2, 3, 4), dtype=dtype)
        data[1, 2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast of the bad value is attempted
            with pytest.raises(ValidationError, match="binary volume has NaN or infinite"):
                Volume3D(data, BINARY)

    @pytest.mark.parametrize("kind", [BINARY, PROBABILITY])
    def test_empty_sized_volume_rejected(self, kind):
        for shape in [(0, 2, 2), (2, 0, 2), (2, 2, 0)]:
            with pytest.raises(ValidationError, match="dims must be positive"):
                Volume3D(np.zeros(shape), kind)

    @pytest.mark.parametrize("fill", [float("nan"), -0.001, 1.001, float("inf"), float("-inf")])
    def test_probability_outside_unit_interval_or_nan_rejected(self, fill):
        for count in (1, 8):
            data = np.full((2, 2, 2), 0.5, dtype="<f4")
            data.ravel()[:count] = fill
            with pytest.raises(ValidationError, match="probability"):
                Volume3D(data, PROBABILITY)

    def test_probability_bounds_accepted(self):
        vol = prob_volume([[[0.0, 1.0], [0.5, 0.25]]])
        assert vol.data.min() == 0.0 and vol.data.max() == 1.0

    def test_data_is_immutable(self):
        vol = binary_volume(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1

    # arrays of the volume's own dtype are shared with the caller until
    # copied; a cast or a strided view makes a fresh array of its own
    CALLER_ARRAYS = [
        (BINARY, lambda: np.zeros((3, 4, 5), dtype="u1")),
        (BINARY, lambda: np.zeros((3, 4, 5), dtype=bool)),
        (BINARY, lambda: np.zeros((6, 4, 5), dtype="u1")[::2]),
        (PROBABILITY, lambda: np.zeros((3, 4, 5), dtype="<f4")),
        (PROBABILITY, lambda: np.zeros((3, 4, 5))),
    ]

    @pytest.mark.parametrize("kind,make", CALLER_ARRAYS)
    def test_caller_mutation_does_not_reach_the_volume(self, kind, make):
        arr = make()
        vol = Volume3D(arr, kind)
        arr[...] = 1
        assert vol.data.max() == 0
        assert not np.may_share_memory(vol.data, arr)

    @pytest.mark.parametrize("kind,make", CALLER_ARRAYS)
    def test_data_is_read_only_whether_copied_or_not(self, kind, make):
        vol = Volume3D(make(), kind)
        assert not vol.data.flags.writeable and vol.data.flags.c_contiguous
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1
        as_prob = Volume3D(vol.data, PROBABILITY, vol.spacing)
        for derived in (threshold(as_prob, 0.5), as_prob):
            assert not derived.data.flags.writeable


class TestThreshold:
    def test_strict_inequality(self):
        vol = prob_volume(np.array([0.2, 0.5, 0.7]).reshape(1, 1, 3))
        out = threshold(vol, 0.5)
        assert out.data.ravel().tolist() == [0, 0, 1]
        assert out.kind == BINARY
        assert out.dims == vol.dims and out.spacing == vol.spacing

    def test_all_zero(self):
        vol = prob_volume(np.zeros((4, 4, 4)))
        assert threshold(vol, 0.5).foreground_count() == 0

    def test_seeded_count_matches_scalar_scan(self):
        # frozen from an independent scalar loop over the same seeded draw
        rng = np.random.default_rng(20240817)
        vol = prob_volume(rng.random((8, 8, 8)).astype("<f4"))
        assert threshold(vol, 0.5).foreground_count() == 267

    def test_tau_out_of_range(self):
        vol = prob_volume(np.zeros((2, 2, 2)))
        for tau in (0.0, 1.0, -0.3, 1.5):
            with pytest.raises(ValidationError):
                threshold(vol, tau)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_on_binary(self, seed, tau):
        rng = np.random.default_rng(seed)
        vol = prob_volume(rng.random((4, 5, 3)).astype("<f4"))
        once = threshold(vol, tau)
        twice = threshold(Volume3D(once.data, PROBABILITY, once.spacing), tau)
        assert np.array_equal(once.data, twice.data)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.9), st.floats(0.05, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_tau(self, seed, tau_a, tau_b):
        lo, hi = sorted((tau_a, tau_b))
        rng = np.random.default_rng(seed)
        vol = prob_volume(rng.random((4, 4, 4)).astype("<f4"))
        assert threshold(vol, hi).foreground_count() <= threshold(vol, lo).foreground_count()


class TestSurfaceVoxels:
    def test_single_voxel(self):
        m = np.zeros((5, 5, 5))
        m[2, 2, 2] = 1
        assert surface_voxels(binary_volume(m)) == {(2, 2, 2)}

    def test_solid_3cube(self):
        m = np.zeros((5, 5, 5))
        m[1:4, 1:4, 1:4] = 1
        surf = surface_voxels(binary_volume(m))
        assert len(surf) == 26 and (2, 2, 2) not in surf

    def test_solid_5cube_brute(self):
        m = np.zeros((7, 7, 7), dtype=bool)
        m[1:6, 1:6, 1:6] = True
        surf = surface_voxels(binary_volume(m))
        assert len(surf) == 98
        assert surf == brute_surface_voxels(m)

    def test_empty_mask(self):
        assert surface_voxels(binary_volume(np.zeros((3, 3, 3)))) == set()

    def test_touching_volume_boundary(self):
        m = np.ones((3, 4, 5), dtype=bool)
        surf = surface_voxels(binary_volume(m))
        assert surf == brute_surface_voxels(m)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_subset_of_foreground_and_matches_brute(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((5, 6, 4)) < 0.4
        vol = binary_volume(m)
        surf = surface_voxels(vol)
        fg = {tuple(c) for c in np.argwhere(m)}
        assert surf <= fg
        assert surf == brute_surface_voxels(m)


class TestSurfaceMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 24)] * 3), seed=st.integers(0, 2 ** 32 - 1),
           density=st.floats(0.0, 1.0))
    def test_random_masks(self, dims, seed, density):
        assert_surface_matches_reference(np.random.default_rng(seed).random(dims) < density)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (24, 24, 24), (1, 7, 9), (7, 1, 9), (7, 9, 1),
                                      (1, 1, 12), (12, 1, 1), (3, 4, 5)])
    def test_empty_and_full(self, dims):
        assert_surface_matches_reference(np.zeros(dims, dtype=bool))
        assert_surface_matches_reference(np.ones(dims, dtype=bool))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_one_voxel_thick_slab(self, axis):
        m = np.zeros((9, 10, 11), dtype=bool)
        index = [slice(1, -1)] * 3
        index[axis] = 4
        m[tuple(index)] = True
        assert_surface_matches_reference(m)
        assert len(surface_voxel_array(binary_volume(m))) == m.sum()


class TestRawJsonIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(99)
        vol = Volume3D(rng.random((16, 16, 16)).astype("<f4"), PROBABILITY,
                       spacing=(2.0, 0.5, 0.5))
        path = str(tmp_path / "vol.json")
        write_volume(vol, path)
        back = read_volume(path)
        assert back.kind == vol.kind
        assert back.dims == vol.dims
        assert back.spacing == vol.spacing
        assert back.data.tobytes() == vol.data.tobytes()

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        vol = Volume3D((rng.random((4, 6, 5)) < 0.3).astype("u1"), BINARY)
        path = str(tmp_path / "m.json")
        write_volume(vol, path)
        back = read_volume(path)
        assert back.data.tobytes() == vol.data.tobytes()

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [4, 4, 4], "spacing": [1, 1, 1], "kind": "probability",'
                        ' "dtype": "f32", "data_file": "bad.bin"}')
        (tmp_path / "bad.bin").write_bytes(np.zeros(63, dtype="<f4").tobytes())
        with pytest.raises(ParseError, match="size mismatch") as exc:
            read_volume(str(path))
        assert str(exc.value) == (f"{path}: size mismatch: header implies 64 scalars "
                                  "(256 bytes) but 'bad.bin' holds 252 bytes")

    def test_huge_dims_checked_before_allocation(self, tmp_path):
        # 2**62 bytes: allocating before the size check would fail with MemoryError
        path = tmp_path / "huge.json"
        path.write_text('{"dims": [1048576, 1048576, 1048576], "spacing": [1, 1, 1],'
                        ' "kind": "probability", "dtype": "f32", "data_file": "huge.bin"}')
        (tmp_path / "huge.bin").write_bytes(bytes(8))
        with pytest.raises(ParseError) as exc:
            read_volume(str(path))
        assert str(exc.value) == (f"{path}: size mismatch: header implies {2 ** 60} scalars "
                                  f"({2 ** 62} bytes) but 'huge.bin' holds 8 bytes")

    def test_short_read_is_a_size_mismatch(self, tmp_path, monkeypatch):
        # the file holds fewer bytes than its size said when it was opened
        path = tmp_path / "m.json"
        write_volume(Volume3D(np.ones((2, 2, 2), dtype="u1"), BINARY), str(path))
        (tmp_path / "m.bin").write_bytes(bytes(6))
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=8))
        with pytest.raises(ParseError, match="'m.bin' holds 6 bytes"):
            read_volume(str(path))

    @pytest.mark.parametrize("name", ["m.json", "m.nrrd"])
    def test_read_payload_is_kept_without_copy(self, tmp_path, name):
        rng = np.random.default_rng(3)
        vol = Volume3D(rng.random((5, 6, 7)).astype("<f4"), PROBABILITY)
        write_volume(vol, str(tmp_path / name))
        back = read_volume(str(tmp_path / name))
        assert type(back.data) is np.ndarray and not back.data.flags.owndata
        assert not back.data.flags.writeable and back.data.flags.c_contiguous
        assert back.data.tobytes() == vol.data.tobytes()

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2, 2], "kind": "binary", "dtype": "u8",'
                        ' "data_file": "bad.bin"}')
        with pytest.raises(ParseError, match="spacing"):
            read_volume(str(path))

    @pytest.mark.parametrize("field,text", [
        ("spacing", '["x", 1, 1]'), ("spacing", "[true, 1, 1]"), ("spacing", "[1, NaN, 1]"),
        ("spacing", "[1, 1, Infinity]"), ("spacing", "[1e400, 1, 1]"), ("spacing", "[1, 1, null]"),
        pytest.param("spacing", "[1, 1, 1" + "0" * 400 + "]", id="spacing-integer-beyond-float"),
        ("dims", "[true, 2, 4]"),
    ])
    def test_malformed_dims_or_spacing_entry(self, tmp_path, field, text):
        header = {"dims": "[2, 2, 2]", "spacing": "[1, 1, 1]", field: text}
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dims": {header["dims"]}, "spacing": {header["spacing"]},'
                        ' "kind": "binary", "dtype": "u8", "data_file": "bad.bin"}')
        (tmp_path / "bad.bin").write_bytes(bytes(8))
        with pytest.raises(ParseError, match=field):
            read_volume(str(path))

    def test_nan_probability_payload(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2, 2, 2], "spacing": [1, 1, 1], "kind": "probability",'
                        ' "dtype": "f32", "data_file": "nan.bin"}')
        (tmp_path / "nan.bin").write_bytes(np.full(8, np.nan, dtype="<f4").tobytes())
        with pytest.raises(ParseError, match="NaN"):
            read_volume(str(path))

    @pytest.mark.parametrize("data_file", ["../out/m.bin", "sub/../../m.bin", "..", "/abs/m.bin",
                                           "..\\m.bin", 7, None, ["m.bin"], "m\u0000.bin", ""])
    def test_data_file_outside_header_directory(self, tmp_path, data_file):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "m.bin").write_bytes(bytes(8))
        inner = tmp_path / "in"
        inner.mkdir()
        path = inner / "m.json"
        path.write_text(json.dumps({"dims": [2, 2, 2], "spacing": [1, 1, 1], "kind": "binary",
                                    "dtype": "u8", "data_file": data_file}))
        with pytest.raises(ParseError, match="data_file"):
            read_volume(str(path))

    def test_data_file_in_subdirectory(self, tmp_path):
        (tmp_path / "payload").mkdir()
        (tmp_path / "payload" / "m.bin").write_bytes(bytes([0, 1] * 4))
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dims": [2, 2, 2], "spacing": [1, 1, 1], "kind": "binary",
                                    "dtype": "u8", "data_file": "payload/m.bin"}))
        assert read_volume(str(path)).foreground_count() == 4

    def test_kind_dtype_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2, 2], "spacing": [1, 1, 1], "kind": "binary",'
                        ' "dtype": "f32", "data_file": "bad.bin"}')
        (tmp_path / "bad.bin").write_bytes(np.zeros(8, dtype="<f4").tobytes())
        with pytest.raises(ParseError, match="dtype"):
            read_volume(str(path))


class TestNrrdIO:
    def _write(self, tmp_path, header_lines, payload):
        path = tmp_path / "vol.nrrd"
        text = "NRRD0004\n" + "\n".join(header_lines) + "\n\n"
        path.write_bytes(text.encode() + payload)
        return str(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        vol = Volume3D(rng.random((3, 4, 5)).astype("<f4"), PROBABILITY)
        path = str(tmp_path / "v.nrrd")
        write_volume(vol, path)
        back = read_volume(path)
        assert back.dims == vol.dims
        assert back.data.tobytes() == vol.data.tobytes()

    def test_unsupported_encoding(self, tmp_path):
        path = self._write(tmp_path, ["type: uint8", "dimension: 3", "sizes: 2 2 2",
                                      "encoding: gzip", "endian: little"], b"\x00" * 8)
        with pytest.raises(ParseError, match="encoding"):
            read_volume(path)

    def test_unsupported_field(self, tmp_path):
        path = self._write(tmp_path, ["type: uint8", "dimension: 3", "sizes: 2 2 2",
                                      "space directions: none", "encoding: raw",
                                      "endian: little"], b"\x00" * 8)
        with pytest.raises(ParseError, match="space directions"):
            read_volume(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.nrrd"
        path.write_bytes(b"NOTNRRD\n\n")
        with pytest.raises(ParseError, match="magic"):
            read_volume(str(path))

    def test_bad_dimension(self, tmp_path):
        path = self._write(tmp_path, ["type: uint8", "dimension: 2", "sizes: 2 2 2",
                                      "encoding: raw", "endian: little"], b"\x00" * 8)
        with pytest.raises(ParseError, match="dimension"):
            read_volume(path)

    def test_axis_order(self, tmp_path):
        # sizes are fastest-first (w h d); payload is C order over (z, y, x)
        data = np.arange(24, dtype="u1").reshape(2, 3, 4) % 2
        vol = Volume3D(data, BINARY)
        path = str(tmp_path / "v.nrrd")
        write_volume(vol, path)
        raw = open(path, "rb").read()
        assert b"sizes: 4 3 2" in raw
        assert read_volume(path).dims == (2, 3, 4)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        vol = Volume3D((rng.random((4, 5, 6)) < 0.5).astype("u1"), BINARY)
        path = str(tmp_path / "b.nrrd")
        write_volume(vol, path)
        back = read_volume(path)
        assert back.kind == BINARY
        assert back.data.tobytes() == vol.data.tobytes()

    def test_nonbinary_uint8_payload_rejected(self, tmp_path):
        path = self._write(tmp_path, ["type: uint8", "dimension: 3", "sizes: 2 2 2",
                                      "encoding: raw", "endian: little"], b"\x07" * 8)
        with pytest.raises(ParseError, match="binary"):
            read_volume(path)


def test_surface_array_sorted_and_unique():
    m = np.zeros((4, 4, 4))
    m[1:3, 1:3, 1:3] = 1
    arr = surface_voxel_array(Volume3D(m.astype("u1"), BINARY))
    assert len(np.unique(arr, axis=0)) == len(arr)
