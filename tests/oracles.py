"""Independent reference implementations and frozen reference values.

Everything here deliberately takes a different route than the package
under test: arbitrary-precision special functions from mpmath, scipy for
the normal distribution and rotations, nested Python loops instead of
vectorized array code.  An agreement failure therefore points at the
implementation under test rather than at a shared bug.

The frozen constants were computed once with mpmath at 60 significant
digits (direct series summation cross-checked against mpmath.besseli to
~1e-59 relative) and inlined so the tests do not re-derive their own
expectations at runtime.
"""

import math

import mpmath as mp
import numpy as np
from scipy import integrate, stats

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

# exact standard normal quantile at 0.999 vs the sqrt(2 ln 1/(1-p)) tail
# formula, and their relative disagreement (about 20.3% at this p)
PPF_999_EXACT = 3.0902323061678135415
TAIL_Q_999 = 3.716922188849838447
TAIL_Q_999_REL_ERR = 0.20279701349028380145

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


def normal_cdf(x: float) -> float:
    return float(stats.norm.cdf(x))


def normal_ppf(p: float) -> float:
    return float(stats.norm.ppf(p))


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

    Returns (values, dropped, mean_rounding_error) following the same
    contract: one write per valid point per in-radius offset, minimum
    depth wins, out-of-canvas writes are counted and discarded.
    """
    H, W = canvas.H_new, canvas.W_new
    offsets = [(di, dj)
               for di in range(-radius, radius + 1)
               for dj in range(-radius, radius + 1)
               if di * di + dj * dj <= radius * radius]
    vals = np.full((H, W), np.inf)
    dropped = 0
    rounding = []
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
        rounding.append(abs(fx - j0) + abs(fy - i0))
        for di, dj in offsets:
            i, j = i0 + di, j0 + dj
            if 0 <= i < H and 0 <= j < W:
                if d[k] < vals[i, j]:
                    vals[i, j] = d[k]
            else:
                dropped += 1
    mre = float(np.mean(rounding)) / 2.0 if rounding else 0.0
    return vals, dropped, mre


def reference_shade(depth_values, albedo, k_a, k_d, l_dx, l_dy):
    """Per-pixel scalar shading of the orthographic surface (u, v, depth)."""
    h, w = depth_values.shape
    lx, ly, lz = l_dx, l_dy, 1.0
    ln = math.sqrt(lx * lx + ly * ly + lz * lz)
    lx, ly, lz = lx / ln, ly / ln, lz / ln
    out = np.zeros((h, w, 3))
    for i in range(h):
        for j in range(w):
            if 0 < j < w - 1:
                dzdu = (depth_values[i, j + 1] - depth_values[i, j - 1]) / 2.0
            elif j == 0:
                dzdu = depth_values[i, 1] - depth_values[i, 0]
            else:
                dzdu = depth_values[i, w - 1] - depth_values[i, w - 2]
            if 0 < i < h - 1:
                dzdv = (depth_values[i + 1, j] - depth_values[i - 1, j]) / 2.0
            elif i == 0:
                dzdv = depth_values[1, j] - depth_values[0, j]
            else:
                dzdv = depth_values[h - 1, j] - depth_values[h - 2, j]
            # cross((1,0,dzdu), (0,1,dzdv)) = (-dzdu, -dzdv, 1), already +z
            nx, ny, nz = -dzdu, -dzdv, 1.0
            nn = math.sqrt(nx * nx + ny * ny + nz * nz)
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
