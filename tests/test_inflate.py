import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inflate_reference
from skeltop import (Kernel2D, Kernel3D, ParseError, ValidationError, conv2d, conv3d,
                     inflate_average, inflate_center, read_tensor,
                     write_tensor)
from skeltop.inflate import (average_inflation_residual,
                             center_inflation_residual, read_kernel2d)


def rand_kernel(seed, co=3, ci=2, kh=3, kw=3):
    rng = np.random.default_rng(seed)
    return Kernel2D(rng.normal(size=(co, ci, kh, kw)))


def conv2d_loop(img, kw, stride=1):
    """Independent triple-loop cross-correlation oracle."""
    co, ci, kh, kww = kw.shape
    _, h, w = img.shape
    ph, pw = kh // 2, kww // 2
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kww) // stride + 1
    out = np.zeros((co, oh, ow))
    for o in range(co):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(ci):
                    for u in range(kh):
                        for v in range(kww):
                            y = i * stride + u - ph
                            x = j * stride + v - pw
                            if 0 <= y < h and 0 <= x < w:
                                acc += img[c, y, x] * kw[o, c, u, v]
                out[o, i, j] = acc
    return out


def conv3d_loop(vol, kw, stride=(1, 1, 1)):
    co, ci, kd, kh, kww = kw.shape
    _, d, h, w = vol.shape
    pd, ph, pw = kd // 2, kh // 2, kww // 2
    sd, sh, sw = stride
    od = (d + 2 * pd - kd) // sd + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kww) // sw + 1
    out = np.zeros((co, od, oh, ow))
    for o in range(co):
        for t in range(od):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for dt in range(kd):
                            for u in range(kh):
                                for v in range(kww):
                                    z = t * sd + dt - pd
                                    y = i * sh + u - ph
                                    x = j * sw + v - pw
                                    if 0 <= z < d and 0 <= y < h and 0 <= x < w:
                                        acc += vol[c, z, y, x] * kw[o, c, dt, u, v]
                    out[o, t, i, j] = acc
    return out


class TestInflateCenter:
    def test_kd1_is_reshape(self):
        k = rand_kernel(0)
        out = inflate_center(k, 1)
        assert out.shape == (3, 2, 1, 3, 3)
        assert np.array_equal(out.weights[:, :, 0], k.weights)

    def test_kd3_center_slice(self):
        k = rand_kernel(1)
        out = inflate_center(k, 3)
        assert np.array_equal(out.weights[:, :, 1], k.weights)
        assert not out.weights[:, :, 0].any()
        assert not out.weights[:, :, 2].any()

    def test_even_kd_uses_floor(self):
        k = rand_kernel(2)
        out = inflate_center(k, 4)
        assert np.array_equal(out.weights[:, :, 2], k.weights)
        for t in (0, 1, 3):
            assert not out.weights[:, :, t].any()

    def test_depth_sum_exact(self):
        k = rand_kernel(3)
        for kd in (1, 2, 3, 5):
            out = inflate_center(k, kd)
            assert np.array_equal(out.depth_sum(), k.weights)

    def test_invalid_depth(self):
        with pytest.raises(ValidationError):
            inflate_center(rand_kernel(4), 0)


class TestInflateAverage:
    def test_kd1_matches_center(self):
        k = rand_kernel(5)
        assert np.array_equal(inflate_average(k, 1).weights,
                              inflate_center(k, 1).weights)

    def test_each_slice_scaled(self):
        k = rand_kernel(6)
        out = inflate_average(k, 4)
        for t in range(4):
            assert np.allclose(out.weights[:, :, t], k.weights / 4.0, rtol=0, atol=0)

    def test_invalid_depth(self):
        with pytest.raises(ValidationError, match="kernel depth must be >= 1"):
            inflate_average(rand_kernel(4), 0)

    def test_depth_sum_recovers_kernel(self):
        k = rand_kernel(7)
        for kd in (2, 3, 4, 5):
            err = np.abs(inflate_average(k, kd).depth_sum() - k.weights).max()
            assert err <= 1e-12


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(8)
        img = rng.normal(size=(1, 6, 7))
        k = Kernel2D(np.ones((1, 1, 1, 1)))
        assert np.array_equal(conv2d(img, k), img)

    def test_impulse_response(self):
        img = np.zeros((1, 7, 7))
        img[0, 3, 3] = 1.0
        k = Kernel2D(np.ones((1, 1, 3, 3)))
        out = conv2d(img, k)
        want = np.zeros((1, 7, 7))
        want[0, 2:5, 2:5] = 1.0
        assert np.array_equal(out, want)

    def test_conv2d_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(2, 6, 5))
        k = rand_kernel(10, co=3, ci=2, kh=3, kw=3)
        for stride in (1, 2):
            got = conv2d(img, k, stride)
            want = conv2d_loop(img, k.weights, stride)
            assert np.abs(got - want).max() <= 1e-10

    def test_conv3d_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        vol = rng.normal(size=(2, 4, 5, 4))
        k3 = inflate_average(rand_kernel(12, co=2, ci=2), 3)
        for stride in ((1, 1, 1), (2, 1, 2)):
            got = conv3d(vol, k3, stride)
            want = conv3d_loop(vol, k3.weights, stride)
            assert np.abs(got - want).max() <= 1e-10

    def test_stride2_halves_output(self):
        rng = np.random.default_rng(13)
        vol = rng.normal(size=(1, 8, 8, 8))
        k3 = inflate_center(rand_kernel(14, co=1, ci=1), 3)
        out = conv3d(vol, k3, (2, 2, 2))
        assert out.shape == (1, 4, 4, 4)

    def test_channel_mismatch(self):
        with pytest.raises(ValidationError):
            conv2d(np.zeros((3, 5, 5)), rand_kernel(15, ci=2))


    def test_conv3d_input_checks(self):
        k3 = inflate_center(rand_kernel(18, ci=2), 3)
        with pytest.raises(ValidationError, match=r"conv3d input must be \(c_in, D, H, W\)"):
            conv3d(np.zeros((2, 5, 5)), k3)
        with pytest.raises(ValidationError, match=r"strides must be >= 1, got \(1, 0, 1\)"):
            conv3d(np.zeros((2, 5, 5, 5)), k3, (1, 0, 1))
        with pytest.raises(ValidationError, match="zero-size conv3d output"):
            conv3d(np.zeros((2, 0, 5, 5)), k3)


class TestInflationSizeCap:
    @pytest.mark.parametrize("inflate", [inflate_center, inflate_average])
    def test_depth_past_the_value_cap_is_refused(self, inflate, monkeypatch):
        k = rand_kernel(19)  # 3 * 2 * 3 * 3 = 54 values
        monkeypatch.setattr("skeltop.inflate.MAX_KERNEL_VALUES", 54 * 4)
        assert inflate(k, 4).shape == (3, 2, 4, 3, 3)
        with pytest.raises(ValidationError, match="at most 216 kernel values, got 5"):
            inflate(k, 5)

    @pytest.mark.parametrize("inflate", [inflate_center, inflate_average])
    def test_huge_depth_is_refused_before_allocating(self, inflate):
        with pytest.raises(ValidationError, match="kernel values, got 1000000000000"):
            inflate(rand_kernel(20), 10 ** 12)


class TestEquivalence:
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([3, 5]))
    @settings(max_examples=20, deadline=None)
    def test_center_slicewise(self, seed, kd):
        rng = np.random.default_rng(seed)
        vol = rng.normal(size=(2, 6, 7, 6))
        k = Kernel2D(rng.normal(size=(3, 2, 3, 3)))
        assert center_inflation_residual(vol, k, kd) <= 1e-6

    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([3, 5]))
    @settings(max_examples=20, deadline=None)
    def test_average_depth_constant(self, seed, kd):
        rng = np.random.default_rng(seed)
        vol = rng.normal(size=(2, 8, 6, 6))
        k = Kernel2D(rng.normal(size=(2, 2, 3, 3)))
        assert average_inflation_residual(vol, k, kd) <= 1e-6


class TestMatchesReference:
    """conv2d and the residuals against the stand-alone einsum conv2d and
    per-slice loops in tests/inflate_reference.py, bit for bit."""

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 3),
           st.integers(1, 5), st.integers(1, 5), st.integers(1, 9), st.integers(1, 9),
           st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_conv2d(self, seed, co, ci, kh, kw, h, w, stride):
        rng = np.random.default_rng(seed)
        img = rng.normal(size=(ci, h, w))
        k = Kernel2D(rng.normal(size=(co, ci, kh, kw)))
        assert np.array_equal(conv2d(img, k, stride), inflate_reference.conv2d(img, k, stride))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 4), st.integers(1, 7), st.integers(1, 7),
           st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_residuals(self, seed, co, ci, kh, kw, h, w, d, kd):
        rng = np.random.default_rng(seed)
        vol = rng.normal(size=(ci, d, h, w))
        k = Kernel2D(rng.normal(size=(co, ci, kh, kw)))
        if (h, w, kh, kw) == (1, 1, 1, 1) and d > 1:
            # single-pixel slices: see test_center_residual_single_pixel_slices
            assert center_inflation_residual(vol, k, kd) == 0.0
            assert inflate_reference.center_inflation_residual(vol, k, kd) <= 1e-12
        else:
            assert (center_inflation_residual(vol, k, kd)
                    == inflate_reference.center_inflation_residual(vol, k, kd))
        if kd // 2 < d - kd // 2:
            assert (average_inflation_residual(vol, k, kd)
                    == inflate_reference.average_inflation_residual(vol, k, kd))
        else:
            with pytest.raises(ValidationError, match="no interior slices"):
                average_inflation_residual(vol, k, kd)

    def test_center_residual_single_pixel_slices(self):
        """With 1x1 slices and a 1x1 kernel, each slice's channel axis is
        contiguous, and numpy sums a contiguous axis in another order than
        the strided one conv3d sees. The per-slice reference then differs
        from conv3d by rounding; the batched reference uses conv3d's order,
        so the residual is exactly 0."""
        rng = np.random.default_rng(0)
        vol = rng.normal(size=(3, 2, 1, 1))
        k = Kernel2D(rng.normal(size=(1, 3, 1, 1)))
        assert inflate_reference.center_inflation_residual(vol, k, 1) == 2.220446049250313e-16
        assert center_inflation_residual(vol, k, 1) == 0.0

    def test_conv2d_input_checks(self):
        k = rand_kernel(17, ci=2)
        with pytest.raises(ValidationError, match=r"conv2d input must be \(c_in, H, W\)"):
            conv2d(np.zeros((2, 1, 5, 5)), k)
        with pytest.raises(ValidationError, match="stride must be >= 1, got 0"):
            conv2d(np.zeros((2, 5, 5)), k, 0)
        with pytest.raises(ValidationError, match="input has 3 channels, kernel expects 2"):
            conv2d(np.zeros((3, 5, 5)), k)


class TestKernelClasses:
    @pytest.mark.parametrize("cls, rank, what", [(Kernel2D, 4, "2D kernel"),
                                                 (Kernel3D, 5, "3D kernel")])
    def test_validation_messages(self, cls, rank, what):
        with pytest.raises(ValidationError) as exc:
            cls(np.ones((3, 3)))
        assert str(exc.value) == f"{what} weights must be {rank}-dimensional, got shape (3, 3)"
        zero = (1,) * (rank - 1) + (0,)
        with pytest.raises(ValidationError) as exc:
            cls(np.ones(zero))
        assert str(exc.value) == f"{what} has a zero-length axis: {zero}"
        bad = np.ones((1,) * rank)
        bad.flat[0] = np.inf
        with pytest.raises(ValidationError) as exc:
            cls(bad)
        assert str(exc.value) == f"{what} weights contain non-finite values"

    def test_frozen_read_only_copy(self):
        src = np.ones((1, 1, 2, 2, 2), dtype=np.float32)
        k = Kernel3D(src)
        src[0, 0, 0, 0, 0] = 5.0
        assert k.weights.dtype == np.float64 and k.weights.flags.c_contiguous
        assert not k.weights.flags.writeable and k.weights.max() == 1.0
        assert k.shape == (1, 1, 2, 2, 2)
        assert np.array_equal(k.depth_sum(), np.full((1, 1, 2, 2), 2.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.weights = np.zeros((1, 1, 1, 1, 1))

    def test_distinct_classes(self):
        assert not issubclass(Kernel2D, Kernel3D) and not issubclass(Kernel3D, Kernel2D)
        assert not hasattr(Kernel2D, "depth_sum")
        assert [f.name for f in dataclasses.fields(Kernel2D)] == ["weights"]
        assert Kernel2D(np.ones((1, 1, 1, 1))) != Kernel3D(np.ones((1, 1, 1, 1, 1)))


class TestTensorIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        arr = rng.normal(size=(3, 2, 3, 3)).astype("<f4").astype(np.float64)
        path = str(tmp_path / "k.json")
        write_tensor(arr, path)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_bad_shape_field(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"shape": [2, 0], "dtype": "f32", "data_file": "k.bin"}')
        with pytest.raises(ParseError, match="shape"):
            read_tensor(str(path))

    def test_dtype_other_than_f32(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"shape": [2, 2], "dtype": "u8", "data_file": "k.bin"}')
        (tmp_path / "k.bin").write_bytes(b"\x00" * 4)
        with pytest.raises(ParseError, match="field 'dtype' must be 'f32', got 'u8'"):
            read_tensor(str(path))

    def test_wrong_rank_for_kernel(self, tmp_path):
        path = str(tmp_path / "k.json")
        write_tensor(np.zeros((2, 2, 2)), path)
        with pytest.raises(ParseError, match="4 axes"):
            read_kernel2d(path)

    @pytest.mark.parametrize("data_file", ["../k.bin", "/tmp/k.bin"])
    def test_data_file_outside_header_directory(self, tmp_path, data_file):
        (tmp_path / "k.bin").write_bytes(b"\x00" * 16)
        (tmp_path / "sub").mkdir()
        path = tmp_path / "sub" / "k.json"
        path.write_text(f'{{"shape": [2, 2], "dtype": "f32", "data_file": "{data_file}"}}')
        with pytest.raises(ParseError, match="data_file"):
            read_tensor(str(path))

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"shape": [2, 2], "dtype": "f32", "data_file": "k.bin"}')
        (tmp_path / "k.bin").write_bytes(b"\x00" * 12)
        with pytest.raises(ParseError, match="size mismatch"):
            read_tensor(str(path))
