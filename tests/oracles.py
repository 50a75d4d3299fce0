"""Independent reference implementations and frozen reference values.

Everything here deliberately takes a different route than the package
under test: arbitrary-precision special functions from mpmath, scipy for
quadrature and rotations, nested Python loops instead of
vectorized array code.  An agreement failure therefore points at the
implementation under test rather than at a shared bug.

The whole-array formulas at the end are the exception: they keep the
package's own arithmetic on whole arrays, so that a blocked, masked or
windowed rewrite of it can be checked for bit-identical results.

The frozen constants were computed once with mpmath at 60 significant
digits (direct series summation cross-checked against mpmath.besseli to
~1e-59 relative) and inlined so the tests do not re-derive their own
expectations at runtime.
"""

import math

import mpmath as mp
import numpy as np
from scipy import integrate

mp.mp.dps = 50

# log I_alpha(x) and I_{alpha+1}/I_alpha reference points
LOG_I0_1 = 0.23591435850717864869
LOG_I1_1 = -0.57064798749083128142
LOG_I127_300 = 269.68802773486934133
LOG_I128_300 = 269.27428028224616194
RATIO_NEXT_0_1 = 0.44638996589653450705
RATIO_NEXT_127_300 = 0.66116790640338422503

# log pdf on S^2 (n = 3) at kappa = 1, mu . x = 1: 1 + ln(1/(4 pi sinh 1))
VMF_N3_K1_COS1 = -1.6924636085404864266

# focal length for a 112 x 112 sensor at 10 degrees: 111 / (2 tan 5 deg)
FOCAL_112_10DEG = 634.36790280325454023


def log_bessel_oracle(alpha: float, x: float) -> float:
    """log I_alpha(x) via mpmath's hypergeometric evaluation."""
    if x == 0.0:
        return 0.0 if alpha == 0.0 else float("-inf")
    return float(mp.log(mp.besseli(mp.mpf(alpha), mp.mpf(x))))


def bessel_ratio_oracle(alpha: float, x: float) -> float:
    """I_{alpha+1}(x) / I_alpha(x) via mpmath."""
    if x == 0.0:
        return 0.0
    a, xx = mp.mpf(alpha), mp.mpf(x)
    return float(mp.besseli(a + 1, xx) / mp.besseli(a, xx))


def vmf_n3_log_pdf(cos_t: float, kappa: float) -> float:
    """Closed-form n = 3 log-density: kappa t + ln(kappa / (4 pi sinh kappa))."""
    k = mp.mpf(kappa)
    return float(k * mp.mpf(cos_t) + mp.log(k / (4 * mp.pi * mp.sinh(k))))


def circle_mass(log_pdf_of_angle) -> float:
    """Integral of exp(log_pdf) over the unit circle parameterized by angle."""
    val, _ = integrate.quad(lambda t: math.exp(log_pdf_of_angle(t)),
                            0.0, 2.0 * math.pi, limit=400)
    return val


def fd_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Componentwise central differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        dn = flat.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up.reshape(x.shape)) - f(dn.reshape(x.shape))) / (2.0 * h)
    return g.reshape(x.shape)


def rel_err(analytic, reference) -> float:
    """max |a - r| scaled by the largest magnitude in either array."""
    a = np.asarray(analytic, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    denom = max(float(np.max(np.abs(a))), float(np.max(np.abs(r))), 1e-8)
    return float(np.max(np.abs(a - r))) / denom


def psnr(a, b, mask=None) -> float:
    """Peak signal-to-noise ratio in dB for [0, 1] images; inf when equal."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if mask is not None:
        a = a[mask]
        b = b[mask]
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return -10.0 * math.log10(mse)


def bilinear(img: np.ndarray, u: float, v: float):
    """Bilinear sample with the same corner clipping as the warp."""
    h, w = img.shape[:2]
    u0 = int(min(max(math.floor(u), 0), w - 2))
    v0 = int(min(max(math.floor(v), 0), h - 2))
    fu = u - u0
    fv = v - v0
    return ((1 - fv) * ((1 - fu) * img[v0, u0] + fu * img[v0, u0 + 1])
            + fv * ((1 - fu) * img[v0 + 1, u0] + fu * img[v0 + 1, u0 + 1]))


def reference_scatter(u, v, d, valid, canvas, radius: int):
    """Nested-loop reference for the scatter-min z-buffer.

    Returns the canvas depths following the same contract: one write per
    valid point per in-radius offset, minimum depth wins, out-of-canvas
    writes are discarded, +inf where nothing lands.
    """
    H, W = canvas.H_new, canvas.W_new
    offsets = [(di, dj)
               for di in range(-radius, radius + 1)
               for dj in range(-radius, radius + 1)
               if di * di + dj * dj <= radius * radius]
    vals = np.full((H, W), np.inf)
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    d = np.asarray(d, dtype=np.float64).ravel()
    valid = np.asarray(valid, dtype=bool).ravel()
    for k in range(len(u)):
        if not valid[k]:
            continue
        fx = u[k] - canvas.x_min_g           # canvas pixel j sits at x_min_g + j
        fy = v[k] - canvas.y_min_g
        j0 = math.floor(fx + 0.5)
        i0 = math.floor(fy + 0.5)
        for di, dj in offsets:
            i, j = i0 + di, j0 + dj
            if 0 <= i < H and 0 <= j < W:
                if d[k] < vals[i, j]:
                    vals[i, j] = d[k]
    return vals


def reference_shade(depth_values, albedo, f, cx, cy, k_a, k_d, l_dx, l_dy):
    """Per-pixel scalar shading of the perspective surface: each neighbor
    the normal differences is back-projected through the pinhole (f, cx,
    cy) on its own."""
    h, w = depth_values.shape

    def point(i, j):
        z = depth_values[i, j]
        return ((j - cx) / f * z, (i - cy) / f * z, z)

    def diff(a, b, scale):
        pa, pb = point(*a), point(*b)
        return [(pa[k] - pb[k]) / scale for k in range(3)]

    lx, ly, lz = l_dx, l_dy, 1.0
    ln = math.sqrt(lx * lx + ly * ly + lz * lz)
    lx, ly, lz = lx / ln, ly / ln, lz / ln
    out = np.zeros((h, w, 3))
    for i in range(h):
        for j in range(w):
            if 0 < j < w - 1:
                tu = diff((i, j + 1), (i, j - 1), 2.0)
            elif j == 0:
                tu = diff((i, 1), (i, 0), 1.0)
            else:
                tu = diff((i, w - 1), (i, w - 2), 1.0)
            if 0 < i < h - 1:
                tv = diff((i + 1, j), (i - 1, j), 2.0)
            elif i == 0:
                tv = diff((1, j), (0, j), 1.0)
            else:
                tv = diff((h - 1, j), (h - 2, j), 1.0)
            nx = tu[1] * tv[2] - tu[2] * tv[1]
            ny = tu[2] * tv[0] - tu[0] * tv[2]
            nz = tu[0] * tv[1] - tu[1] * tv[0]
            if nz < 0.0:                    # toward the camera-facing side
                nx, ny, nz = -nx, -ny, -nz
            nn = math.sqrt(nx * nx + ny * ny + nz * nz)
            if nn < 1e-300:
                nx, ny, nz, nn = 0.0, 0.0, 1.0, 1.0
            s = max(0.0, (nx * lx + ny * ly + nz * lz) / nn)
            for c in range(3):
                out[i, j, c] = min(1.0, max(0.0, albedo[i, j, c] * (k_a + k_d * s)))
    return out


def _unit(vec):
    return vec / np.linalg.norm(vec)


def scalar_pps(cosines, mid: float, lam: float) -> float:
    terms = [(c - mid) ** 2 for c in cosines if c < mid]
    return lam * sum(terms) / len(terms) if terms else 0.0


def scalar_pns(z, labels, W, lam: float) -> float:
    N, C = len(z), len(W)
    total = 0.0
    for i in range(N):
        zi = _unit(np.asarray(z[i], dtype=np.float64))
        for j in range(C):
            if j == labels[i]:
                continue
            total += float(np.dot(zi, _unit(np.asarray(W[j], dtype=np.float64)))) ** 2
    return lam * total / (N * (C - 1))


def scalar_pp(W, selection, lam: float) -> float:
    sel = list(selection)
    total = 0.0
    pairs = 0
    for a in range(len(sel)):
        for b in range(a + 1, len(sel)):
            wa = _unit(np.asarray(W[sel[a]], dtype=np.float64))
            wb = _unit(np.asarray(W[sel[b]], dtype=np.float64))
            total += float(np.dot(wa, wb)) ** 2
            pairs += 1
    return lam * total / pairs if pairs else 0.0


def scalar_sns(z, labels, lam: float) -> float:
    total = 0.0
    pairs = 0
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if labels[i] == labels[j]:
                continue
            total += float(np.dot(_unit(np.asarray(z[i], dtype=np.float64)),
                                  _unit(np.asarray(z[j], dtype=np.float64))))
            pairs += 1
    return lam * total / pairs if pairs else 0.0


def scalar_margin_softmax(z, labels, W, margin: float, tau: float, n: int) -> float:
    """Brute-force margin softmax over the vMF similarity, with the
    similarity rebuilt per sample from the oracle Bessel evaluation."""
    nu = 0.5 * n - 1.0
    total = 0.0
    for i in range(len(z)):
        zi = np.asarray(z[i], dtype=np.float64)
        kappa = max(float(np.linalg.norm(zi)), 1e-6)
        norm_term = (nu * math.log(kappa) - 0.5 * n * math.log(2.0 * math.pi)
                     - log_bessel_oracle(nu, kappa))
        logits = []
        for j in range(len(W)):
            s = float(np.dot(np.asarray(W[j], dtype=np.float64), zi)) + norm_term
            if j == labels[i]:
                s -= margin
            logits.append(s / tau)
        top = max(logits)
        lse = top + math.log(sum(math.exp(l - top) for l in logits))
        total += lse - logits[labels[i]]
    return total / len(z)


def margin_softmax_grads(z, labels, W, margin: float, tau: float):
    """(grad_z, grad_W) of the mean margin softmax cross-entropy over the
    raw similarities S = z W^T, at 50 digits: with the row softmax p of
    the logits (S - margin onehot) / tau, d loss / d S = (p - onehot) /
    (N tau), grad_z = dS W and grad_W = dS^T z.  Every float input is
    exact in mpmath, so only the conversion back rounds to double."""
    N, C = len(z), len(W)
    zz = [[mp.mpf(float(x)) for x in row] for row in z]
    ww = [[mp.mpf(float(x)) for x in row] for row in W]
    t = mp.mpf(float(tau))
    dS = []
    for i in range(N):
        logits = [(mp.fsum(a * b for a, b in zip(zz[i], ww[j]))
                   - (mp.mpf(float(margin)) if j == labels[i] else 0)) / t for j in range(C)]
        top = max(logits)
        e = [mp.exp(l - top) for l in logits]
        total = mp.fsum(e)
        dS.append([(e[j] / total - (1 if j == labels[i] else 0)) / (N * t) for j in range(C)])
    grad_z = [[float(mp.fsum(dS[i][j] * ww[j][k] for j in range(C))) for k in range(len(zz[i]))]
              for i in range(N)]
    grad_W = [[float(mp.fsum(dS[i][j] * zz[i][k] for i in range(N))) for k in range(len(ww[j]))]
              for j in range(C)]
    return np.array(grad_z), np.array(grad_W)


def scalar_laplace(I_hat, I, sigma, mask) -> float:
    I_hat = np.asarray(I_hat, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), I.shape)
    terms = []
    h, w, c = I.shape
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            for k in range(c):
                s = sigma[i, j, k]
                terms.append(math.log(math.sqrt(2.0) * s)
                             + math.sqrt(2.0) * abs(I_hat[i, j, k] - I[i, j, k]) / s)
    return sum(terms) / len(terms)


def scalar_perceptual(I_hat, I, weight, feature_sigma) -> float:
    e_hat = weight @ np.asarray(I_hat, dtype=np.float64).ravel()
    e = weight @ np.asarray(I, dtype=np.float64).ravel()
    sigma = np.broadcast_to(np.asarray(feature_sigma, dtype=np.float64), e.shape)
    terms = [0.5 * math.log(2.0 * math.pi * sigma[k] ** 2)
             + abs(e_hat[k] - e[k]) / (2.0 * sigma[k] ** 2)
             for k in range(len(e))]
    return sum(terms) / len(terms)


def scalar_smoothness(values, lo: float, hi: float) -> float:
    rng = hi - lo
    if rng <= 0.0:
        return 0.0
    h, w = values.shape
    total = 0.0
    for i in range(h - 1):
        for j in range(w):
            total += abs(values[i + 1, j] - values[i, j])
    for i in range(h):
        for j in range(w - 1):
            total += abs(values[i, j + 1] - values[i, j])
    return total / (rng * h * w)


# ---------------------------------------------------------------------------
# whole-array formulas, for bit-identity checks

def whole_array_dataset(seed, C, samples_per_class, d_in, noise_angle_deg,
                        norm_logmean, norm_logstd):
    """(X, labels) of train_harness.generate_dataset, built one whole M x
    d_in array per step from the same rng draws in the same order."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((C, d_in))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    m = C * samples_per_class
    labels = np.repeat(np.arange(C), samples_per_class)
    base = dirs[labels]
    tang = rng.standard_normal((m, d_in))
    tang -= np.sum(tang * base, axis=1, keepdims=True) * base
    tang /= np.linalg.norm(tang, axis=1, keepdims=True)
    phi = rng.normal(0.0, np.radians(noise_angle_deg), m) if noise_angle_deg > 0 \
        else np.zeros(m)
    unit = base * np.cos(phi)[:, None] + tang * np.sin(phi)[:, None]
    norms = rng.lognormal(norm_logmean, norm_logstd, m)
    return unit * norms[:, None], labels


def plain_exp_margin_softmax(z, labels, W, margin: float, tau: float):
    """(loss, grad_z, grad_W) of uamf.uamf_loss with exp taken on every
    lane, the underflowing ones too."""
    N, C = len(z), len(W)
    target = np.arange(0, N * C, C) + labels
    logits = z @ W.T / tau
    logits.ravel()[target] -= margin / tau
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    sum_e = e.sum(axis=1)
    loss = float((np.log(sum_e) - logits.ravel()[target]).sum() / N)
    dS = e / sum_e[:, None]
    dS.ravel()[target] -= 1.0
    dS /= N * tau
    return loss, dS @ W, dS.T @ z


def whole_gram_pairwise(C: int, d: int, trials: int, seed) -> dict:
    """monte_carlo_pairwise's documented scheme on whole Gram matrices:
    trial t draws C standard-normal rows of R^d from the t-th child of
    SeedSequence(seed) and normalizes them; the moments run over the
    unordered pairs and the nearest neighbor excludes the vector itself."""
    nn, upper = [], []
    self_pair = np.eye(C, dtype=bool)
    for child in np.random.SeedSequence(seed).spawn(trials):
        x = np.random.default_rng(child).standard_normal((C, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        gram = x @ x.T
        upper.append(gram[np.triu_indices(C, 1)])
        nn.append(np.where(self_pair, -np.inf, np.abs(gram)).max(axis=1).mean())
    cos = np.concatenate(upper)
    return {"max_cos_mean": float(np.mean(nn)), "std_cos_emp": float(np.std(cos)),
            "mean_cos_emp": float(np.mean(cos)), "pairs": cos.size}


def depth_to_pointcloud(depth, K):
    """Every pixel of the depth map back-projected at once, H x W x 3:
    point = depth * K^-1 [u, v, 1], whose z component equals the depth."""
    from lh2.depth_renderer import _back_project
    h, w = depth.shape
    return _back_project(np.arange(w, dtype=np.float64)[None, :],
                         np.arange(h, dtype=np.float64)[:, None], depth.values, K)


def whole_cloud_centroid(depth, K):
    """depth_renderer.depth_centroid as the mean of the whole point cloud."""
    return depth_to_pointcloud(depth, K).reshape(-1, 3).mean(axis=0)


def whole_image_shade(depth, albedo, light, K):
    """depth_renderer.shade with the normals of the whole point cloud taken
    at once."""
    pts = depth_to_pointcloud(depth, K)
    t_u = np.gradient(pts, axis=1, edge_order=1)
    t_v = np.gradient(pts, axis=0, edge_order=1)
    n = np.cross(t_u, t_v)
    flip = n[..., 2] < 0.0
    n[flip] *= -1.0
    norms = np.linalg.norm(n, axis=-1)
    degenerate = norms < 1e-300
    n[degenerate] = (0.0, 0.0, 1.0)
    norms = np.where(degenerate, 1.0, norms)
    n /= norms[..., None]
    l = np.array([light.l_dx, light.l_dy, 1.0])
    l /= np.linalg.norm(l)
    s = np.maximum(n @ l, 0.0)
    return np.clip(albedo * (light.k_a + light.k_d * s)[..., None], 0.0, 1.0)


def whole_canvas_warp(source, depth, pose, K, canvas, radius: int):
    """(image, mask, depth) of depth_renderer.warp_image with the scatter
    run on the whole canvas and its central K.H x K.W window cropped out
    afterwards."""
    from lh2.depth_renderer import (_back_project, project_points, scatter_min_render,
                                    transform_pointcloud)
    pts = transform_pointcloud(depth_to_pointcloud(depth, K), pose)
    rendered = scatter_min_render(project_points(pts, K), canvas, radius)
    oy = (canvas.H_new - K.H) // 2
    ox = (canvas.W_new - K.W) // 2
    window = rendered[oy:oy + K.H, ox:ox + K.W].copy()
    x = canvas.x_min_g + np.arange(ox, ox + K.W)
    y = canvas.y_min_g + np.arange(oy, oy + K.H)

    valid = np.isfinite(window)
    pts_c = _back_project(x[None, :], y[:, None], np.where(valid, window, 1.0), K)
    back = (pts_c - pose.pivot - pose.t) @ pose.R + pose.pivot
    u0, v0, _, in_front = project_points(back, K)
    valid &= in_front & (u0 >= 0.0) & (u0 <= K.W - 1) & (v0 >= 0.0) & (v0 <= K.H - 1)

    out = np.zeros((K.H, K.W, 3))
    uu = u0[valid]
    vv = v0[valid]
    u_lo = np.clip(np.floor(uu).astype(np.int64), 0, K.W - 2)
    v_lo = np.clip(np.floor(vv).astype(np.int64), 0, K.H - 2)
    fu = (uu - u_lo)[:, None]
    fv = (vv - v_lo)[:, None]
    out[valid] = ((1 - fv) * ((1 - fu) * source[v_lo, u_lo] + fu * source[v_lo, u_lo + 1])
                  + fv * ((1 - fu) * source[v_lo + 1, u_lo]
                          + fu * source[v_lo + 1, u_lo + 1]))
    return out, valid, window
