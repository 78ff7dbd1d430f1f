"""Reference 2D convolution and inflation residuals kept only as a
differential-test oracle.

These are the stand-alone formulations that ``skeltop.inflate.conv2d``
and the two residual functions must reproduce bit for bit: an einsum
over the kernel taps of a zero-padded (c_in, H, W) field, and residuals
taken one output depth slice at a time.
"""

import numpy as np

from skeltop.inflate import conv3d, inflate_average, inflate_center


def conv2d(img, k, stride=1):
    img = np.asarray(img, dtype=np.float64)
    co, ci, kh, kw = k.shape
    _, h, w = img.shape
    oh = (h + 2 * (kh // 2) - kh) // stride + 1
    ow = (w + 2 * (kw // 2) - kw) // stride + 1
    padded = np.zeros((ci, h + 2 * (kh // 2), w + 2 * (kw // 2)), dtype=np.float64)
    padded[:, kh // 2:kh // 2 + h, kw // 2:kw // 2 + w] = img
    out = np.zeros((co, oh, ow), dtype=np.float64)
    for u in range(kh):
        for v in range(kw):
            patch = padded[:, u:u + stride * (oh - 1) + 1:stride,
                           v:v + stride * (ow - 1) + 1:stride]
            out += np.einsum("oc,chw->ohw", k.weights[:, :, u, v], patch)
    return out


def center_inflation_residual(vol, k, k_d):
    full = conv3d(vol, inflate_center(k, k_d))
    worst = 0.0
    for t in range(vol.shape[1]):
        ref = conv2d(vol[:, t], k)
        worst = max(worst, float(np.abs(full[:, t] - ref).max()))
    return worst


def average_inflation_residual(vol, k, k_d):
    mid = vol.shape[1] // 2
    const = np.repeat(vol[:, mid:mid + 1], vol.shape[1], axis=1)
    full = conv3d(const, inflate_average(k, k_d))
    ref = conv2d(const[:, 0], k)
    worst = 0.0
    for t in range(k_d // 2, vol.shape[1] - k_d // 2):
        worst = max(worst, float(np.abs(full[:, t] - ref).max()))
    return worst
