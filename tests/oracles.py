"""Independent brute-force oracles.

Every function here is written straight from the mathematical definition,
with plain Python loops, so it shares no code path with the package
implementations it checks.
"""

import math

import numpy as np


def conv2d_loops(image, kernels, border="zero-fill"):
    """Direct correlation: out[o,u,v] = sum_{c,i,j} image[c,u+i-k//2,v+j-k//2]*K[o,c,i,j]."""
    out_ch, in_ch, k, _ = kernels.shape
    _, h, w = image.shape
    half = k // 2
    out = np.zeros((out_ch, h, w))
    for o in range(out_ch):
        for u in range(h):
            for v in range(w):
                acc = 0.0
                for c in range(in_ch):
                    for i in range(k):
                        for j in range(k):
                            y = u + i - half
                            x = v + j - half
                            if border == "circular":
                                val = image[c, y % h, x % w]
                            elif border == "clamp":
                                val = image[c, min(max(y, 0), h - 1), min(max(x, 0), w - 1)]
                            else:
                                val = image[c, y, x] if 0 <= y < h and 0 <= x < w else 0.0
                            acc += val * kernels[o, c, i, j]
                out[o, u, v] = acc
    return out


def bilinear_loops(image, xs, ys, border="clamp"):
    """Per-point bilinear interpolation of a rank-2 image at flat coordinate lists.

    A corner outside the image reads its clamped pixel (clamp), its wrapped
    pixel (circular) or 0 (zero-fill). The blend is (1 - fx) v00 + fx v01 per
    row, then (1 - fy) top + fy bottom.
    """
    h, w = image.shape

    def pixel(y, x):
        if border == "circular":
            return image[y % h, x % w]
        if border == "clamp":
            return image[min(max(y, 0), h - 1), min(max(x, 0), w - 1)]
        return image[y, x] if 0 <= y < h and 0 <= x < w else 0.0

    out = []
    for x, y in zip(xs, ys):
        x0 = math.floor(x)
        y0 = math.floor(y)
        fx = x - x0
        fy = y - y0
        top = (1.0 - fx) * pixel(y0, x0) + fx * pixel(y0, x0 + 1)
        bottom = (1.0 - fx) * pixel(y0 + 1, x0) + fx * pixel(y0 + 1, x0 + 1)
        out.append((1.0 - fy) * top + fy * bottom)
    return np.array(out)


def ssim_windows(a, b, data_range):
    """Per-window SSIM evaluated literally, averaged over all valid positions."""
    size, sigma = 11, 1.5
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    win = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            dy = i - (size - 1) / 2.0
            dx = j - (size - 1) / 2.0
            win[i, j] = math.exp(-(dy * dy + dx * dx) / (2.0 * sigma * sigma))
    win /= win.sum()
    h, w = a.shape
    scores = []
    for u in range(h - size + 1):
        for v in range(w - size + 1):
            pa = a[u : u + size, v : v + size]
            pb = b[u : u + size, v : v + size]
            mu_a = float((win * pa).sum())
            mu_b = float((win * pb).sum())
            var_a = float((win * pa * pa).sum()) - mu_a * mu_a
            var_b = float((win * pb * pb).sum()) - mu_b * mu_b
            cov = float((win * pa * pb).sum()) - mu_a * mu_b
            scores.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
            )
    return sum(scores) / len(scores)


def norm_twopass_loops(x, joint_scale_axis):
    """Per-channel normalization with literal two-pass mean/variance.

    ``joint_scale_axis`` selects the [S, C, H, W] layout; otherwise [C, H, W].
    """
    eps = 1e-5
    out = np.empty_like(x)
    channels = x.shape[1] if joint_scale_axis else x.shape[0]
    for c in range(channels):
        vals = x[:, c].ravel() if joint_scale_axis else x[c].ravel()
        mean = sum(vals.tolist()) / vals.size
        var = sum(((v - mean) ** 2 for v in vals.tolist())) / vals.size
        denom = math.sqrt(var + eps)
        if joint_scale_axis:
            out[:, c] = (x[:, c] - mean) / denom
        else:
            out[c] = (x[c] - mean) / denom
    return out


def combine_loops(weights, filters, gains=None):
    """kernels[s,o,c] = gains[s] * sum_b weights[o,c,b] * filters[s,b] by loops."""
    s_n, b_n, k, _ = filters.shape
    o_n, c_n, _ = weights.shape
    out = np.zeros((s_n, o_n, c_n, k, k))
    for s in range(s_n):
        g = 1.0 if gains is None else gains[s]
        for o in range(o_n):
            for c in range(c_n):
                acc = np.zeros((k, k))
                for b in range(b_n):
                    acc += weights[o, c, b] * filters[s, b]
                out[s, o, c] = g * acc
    return out


def delta_formula(stack, images, s, block, crop_margin, scale_fn):
    """Literal (1/N) sum ||T_s F(h) - F(T_s h)||^2 / ||T_s F(h)||^2.

    ``scale_fn(grid2d, s)`` must be the same resampler the harness uses;
    the formula arithmetic here is independent.
    """
    total = 0.0
    for image in images:
        feats = stack.forward(image)[block - 1]
        feats_scaled = np.stack([scale_fn(ch, s) for ch in feats])
        g = stack.forward(scale_fn(image, s))[block - 1]
        h, w = feats.shape[-2:]
        my = int(round(h * crop_margin))
        mx = int(round(w * crop_margin))
        num = 0.0
        den = 0.0
        for c in range(feats.shape[0]):
            for u in range(my, h - my):
                for v in range(mx, w - mx):
                    d = feats_scaled[c, u, v] - g[c, u, v]
                    num += d * d
                    den += feats_scaled[c, u, v] ** 2
        total += num / den
    return total / len(images)


def raycast_second_image_pixel(f, u0, v0, plane_mnop, rotation, translation, u, v):
    """First-principles oracle for the planar projective map.

    Casts the ray of pixel (u, v) from the first camera at the origin,
    intersects the patch plane m x + n y + o z + p = 0, moves the camera by
    (R, t) (second-camera coordinates X' = R^T (X - t)), and projects the
    3D point into the second image.
    """
    m, n, o, p = plane_mnop
    ray = np.array([(u - u0) / f, (v - v0) / f, 1.0])
    denom = m * ray[0] + n * ray[1] + o * ray[2]
    lam = -p / denom
    point = lam * ray
    cam2 = np.asarray(rotation).T @ (point - np.asarray(translation))
    return (
        f * cam2[0] / cam2[2] + u0,
        f * cam2[1] / cam2[2] + v0,
    )
