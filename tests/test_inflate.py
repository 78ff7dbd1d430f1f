import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeltop import (Kernel2D, ParseError, ValidationError, conv2d, conv3d,
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
