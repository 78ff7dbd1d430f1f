import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltop import (BINARY, PROBABILITY, ParseError, ValidationError,
                     Volume3D, read_volume, surface_voxels, threshold,
                     write_volume)
from skeltop.volume import surface_voxel_array

from conftest import brute_surface_voxels


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

    def test_data_is_immutable(self):
        vol = binary_volume(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1


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
        twice = threshold(once.as_probability(), tau)
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
        with pytest.raises(ParseError, match="size mismatch"):
            read_volume(str(path))

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
