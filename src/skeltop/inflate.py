"""Lifting 2D convolution kernels to 3D, plus reference convolutions.

Two schemes: center placement (the 2D kernel occupies the middle depth
slice, all others zero) and uniform averaging (every depth slice holds
the kernel divided by the depth). Both conserve the kernel mass: summing
the 3D kernel over depth recovers the 2D weights.

The convolutions here are plain direct cross-correlations with
half-kernel zero padding, used to demonstrate that the inflated kernels
behave like their 2D originals (slice-wise for center inflation,
depth-constant inputs for average inflation). Weights are held in
float64 in memory; the on-disk tensor format is little-endian float32.
"""

from dataclasses import dataclass

import numpy as np

from . import rawjson
from .errors import ParseError, ValidationError

MAX_KERNEL_VALUES = 10 ** 8  # larger inflated kernels are refused rather than attempted


@dataclass(frozen=True)
class _Kernel:
    """Read-only float64 convolution weights; each subclass sets the rank, `_RANK`."""

    weights: np.ndarray

    def __post_init__(self):
        what = f"{self._RANK - 2}D kernel"
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != self._RANK:
            raise ValidationError(
                f"{what} weights must be {self._RANK}-dimensional, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError(f"{what} has a zero-length axis: {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} weights contain non-finite values")
        arr = np.ascontiguousarray(arr).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

    @property
    def shape(self):
        return self.weights.shape


@dataclass(frozen=True)
class Kernel2D(_Kernel):
    """Convolution weights of shape (c_out, c_in, k_h, k_w)."""

    _RANK = 4


@dataclass(frozen=True)
class Kernel3D(_Kernel):
    """Convolution weights of shape (c_out, c_in, k_d, k_h, k_w)."""

    _RANK = 5

    def depth_sum(self) -> np.ndarray:
        return self.weights.sum(axis=2)


def inflate_center(k: Kernel2D, k_d: int) -> Kernel3D:
    """Place the 2D kernel at depth slice floor(k_d / 2); zeros elsewhere."""
    if not 1 <= k_d <= MAX_KERNEL_VALUES // k.weights.size:
        raise ValidationError(f"kernel depth must be >= 1 and give at most {MAX_KERNEL_VALUES} "
                              f"kernel values, got {k_d}")
    co, ci, kh, kw = k.shape
    out = np.zeros((co, ci, k_d, kh, kw), dtype=np.float64)
    out[:, :, k_d // 2, :, :] = k.weights
    return Kernel3D(out)


def inflate_average(k: Kernel2D, k_d: int) -> Kernel3D:
    """Replicate the 2D kernel over every depth slice, scaled by 1 / k_d."""
    if not 1 <= k_d <= MAX_KERNEL_VALUES // k.weights.size:
        raise ValidationError(f"kernel depth must be >= 1 and give at most {MAX_KERNEL_VALUES} "
                              f"kernel values, got {k_d}")
    sliced = k.weights[:, :, None, :, :] / float(k_d)
    return Kernel3D(np.repeat(sliced, k_d, axis=2))


def _out_len(n, k, s):
    return (n + 2 * (k // 2) - k) // s + 1


def conv2d(img: np.ndarray, k: Kernel2D, stride: int = 1) -> np.ndarray:
    """Direct cross-correlation of a (c_in, H, W) field, half-kernel zero
    padding, stride >= 1. Returns (c_out, H', W').

    This is `conv3d` on a depth-1 field with the depth-1 center inflation
    of `k`, which is the same sum in the same order."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3:
        raise ValidationError(f"conv2d input must be (c_in, H, W), got shape {img.shape}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    return conv3d(img[:, None], inflate_center(k, 1), (1, stride, stride))[:, 0]


def conv3d(vol: np.ndarray, k: Kernel3D, stride=(1, 1, 1)) -> np.ndarray:
    """Direct cross-correlation of a (c_in, D, H, W) field, half-kernel
    zero padding per axis, per-axis strides. Returns (c_out, D', H', W')."""
    vol = np.asarray(vol, dtype=np.float64)
    if vol.ndim != 4:
        raise ValidationError(f"conv3d input must be (c_in, D, H, W), got shape {vol.shape}")
    co, ci, kd, kh, kw = k.shape
    if vol.shape[0] != ci:
        raise ValidationError(f"input has {vol.shape[0]} channels, kernel expects {ci}")
    sd, sh, sw = (stride, stride, stride) if isinstance(stride, int) else tuple(stride)
    if min(sd, sh, sw) < 1:
        raise ValidationError(f"strides must be >= 1, got {(sd, sh, sw)}")
    _, d, h, w = vol.shape
    od, oh, ow = _out_len(d, kd, sd), _out_len(h, kh, sh), _out_len(w, kw, sw)
    if od < 1 or oh < 1 or ow < 1:
        raise ValidationError(f"zero-size conv3d output for input {vol.shape} kernel {k.shape}")
    padded = np.zeros((ci, d + 2 * (kd // 2), h + 2 * (kh // 2), w + 2 * (kw // 2)),
                      dtype=np.float64)
    padded[:, kd // 2:kd // 2 + d, kh // 2:kh // 2 + h, kw // 2:kw // 2 + w] = vol
    out = np.zeros((co, od, oh, ow), dtype=np.float64)
    for t in range(kd):
        for u in range(kh):
            for v in range(kw):
                patch = padded[:, t:t + sd * (od - 1) + 1:sd,
                               u:u + sh * (oh - 1) + 1:sh,
                               v:v + sw * (ow - 1) + 1:sw]
                out += np.einsum("oc,cdhw->odhw", k.weights[:, :, t, u, v], patch)
    return out


def center_inflation_residual(vol: np.ndarray, k: Kernel2D, k_d: int) -> float:
    """Max abs difference between conv3d with the center-inflated kernel
    and per-depth-slice conv2d, over the input's depths (stride 1)."""
    full = conv3d(vol, inflate_center(k, k_d))[:, :vol.shape[1]]
    return float(np.abs(full - conv3d(vol, inflate_center(k, 1))).max())


def average_inflation_residual(vol: np.ndarray, k: Kernel2D, k_d: int) -> float:
    """Max abs difference between conv3d with the average-inflated kernel
    and conv2d, over interior output depths of a depth-constant volume
    built by broadcasting the middle slice of `vol`."""
    mid = vol.shape[1] // 2
    const = np.repeat(vol[:, mid:mid + 1], vol.shape[1], axis=1)
    full = conv3d(const, inflate_average(k, k_d))
    ref = conv2d(const[:, 0], k)
    lo, hi = k_d // 2, vol.shape[1] - k_d // 2
    if lo >= hi:
        raise ValidationError(
            f"volume depth {vol.shape[1]} leaves no interior slices for kernel depth {k_d}")
    return float(np.abs(full[:, lo:hi] - ref[:, None]).max())


# ---------------------------------------------------------------------------
# Tensor file format (sidecar JSON + little-endian float32 payload)

def read_tensor(path: str) -> np.ndarray:
    header = rawjson.load_object(path)
    shape, count = rawjson.shape_field(header, path, "shape")
    if header.get("dtype") != "f32":
        raise ParseError(f"{path}: field 'dtype' must be 'f32', got {header.get('dtype')!r}")
    flat = rawjson.read_payload(path, header, count)
    return flat.reshape(shape).astype(np.float64)


def write_tensor(arr: np.ndarray, path: str) -> None:
    arr = np.asarray(arr)
    rawjson.write_payload(path, {"shape": [int(s) for s in arr.shape]}, arr.ravel(), "f32")


def read_kernel2d(path: str) -> Kernel2D:
    arr = read_tensor(path)
    if arr.ndim != 4:
        raise ParseError(f"{path}: 2D kernel tensor must have 4 axes, got {arr.ndim}")
    return Kernel2D(arr)
