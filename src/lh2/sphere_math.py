"""Stable evaluation of the modified Bessel function I_alpha, the vMF
log-density on the unit sphere, and the vMF-based similarity with its
analytic gradient.

log I_alpha(x) and the ratio I_{alpha+1}(x) / I_alpha(x) come from one of
two routines, chosen per argument by x alone:

* x < 50: the ascending series in log domain,

      log t_m = (2m + alpha) * log(x/2) - log m! - log Gamma(m + alpha + 1)
      log I_alpha(x) = logsumexp_m(log t_m)

  over one term grid per call: rows are the arguments, columns m = 0..M-1,
  with M fixed in advance by _series_length from the largest argument so
  the truncated tail is negligible (M <= 126 below x = 50, for any alpha).
  The same terms give the ratio as sum_m t_m (x/2) / (m + alpha + 1) /
  sum_m t_m, so the order alpha+1 series is never summed.

* x >= 50: the Debye uniform asymptotic expansion (DLMF 10.41.3, 10.41.5)
  with r = hypot(alpha, x) and p = alpha / r,

      log I_alpha(x) = r + alpha log(x / (alpha + r)) - log(2 pi)/2
                       - log(r)/2 + log U,      U = sum_k U_k(p) alpha^-k
      ratio = x / (alpha + r) + r (V - U) / (U x),
                                      V - U = sum_k (V_k - U_k)(p) alpha^-k

  for k = 0..13, with the polynomials U_k and V_k - U_k of DLMF 10.41.10-11
  tabulated once at import.  Writing the ratio through V - U avoids the
  cancellation of sqrt(1+z^2)/z V/U - 1/z when x << alpha.  The cost does
  not depend on x.  Orders below 1 are evaluated at alpha + 1 and brought
  down by one step of the recurrence (DLMF 10.29.1)
  R_alpha = 1 / (2 (alpha + 1) / x + R_{alpha+1}) and
  log I_alpha = log I_{alpha+1} - log R_alpha.

Both routines run in bounded time and memory for every finite argument;
an infinite or nan argument gives a nan result.  A naive evaluation of
I_alpha underflows to 0 (hence log -inf) already for moderate orders at
small arguments; both routines work in log domain and avoid it.
_log_bessel alone picks the routine.  The vMF similarity has one
implementation, vmf_similarity_batch, and one chain rule, _similarity_grads;
vmf_similarity and vmf_similarity_grad are their one-row cases.
Everything here runs in 64-bit floats.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError

KAPPA_MIN = 1e-6
LOG_2PI = math.log(2.0 * math.pi)
# arguments at or above this use the Debye expansion, below it the series
_DEBYE_FROM = 50.0

# lgamma values over the series index grid are reused heavily inside the
# training loop; cache them per order.
_lfact_cache = np.zeros(0)
_lgamma_cache: dict[float, np.ndarray] = {}


def _lfact(m_count: int) -> np.ndarray:
    """lgamma(m+1) for m = 0..m_count-1, cached."""
    global _lfact_cache
    if len(_lfact_cache) < m_count:
        _lfact_cache = np.array([math.lgamma(m + 1.0) for m in range(m_count)])
    return _lfact_cache[:m_count]


def _lgamma_shift(alpha: float, m_count: int) -> np.ndarray:
    """lgamma(m+alpha+1) for m = 0..m_count-1, cached per alpha."""
    cached = _lgamma_cache.get(alpha)
    if cached is None or len(cached) < m_count:
        cached = np.array([math.lgamma(m + alpha + 1.0) for m in range(m_count)])
        _lgamma_cache[alpha] = cached
    return cached[:m_count]


def _series_length(alpha: float, x_max: float) -> int:
    # the largest term sits near m* = (sqrt(alpha^2 + x^2) - alpha) / 2 and
    # the tail decays faster than a Gaussian of width sqrt(m*); the padding
    # below leaves the truncated mass below 1e-18 of the sum
    peak = 0.5 * (math.hypot(alpha, x_max) - alpha)
    return int(peak + 12.0 * math.sqrt(peak + 1.0) + 40.0)


def _log_bessel_series(alpha: float, x: np.ndarray):
    """(log I_alpha(x), I_{alpha+1}(x) / I_alpha(x)) over an array of
    positive x below _DEBYE_FROM, both from one term grid."""
    m_count = _series_length(alpha, float(x.max()))
    m = np.arange(m_count)
    half_x = 0.5 * x
    weights = 1.0 / (m + alpha + 1.0)
    rows = np.arange(len(x))
    # one N x M buffer: log terms, shifted by each row's top, then the
    # terms with each row's top (exactly 1) set aside, so that log1p keeps
    # the digits of log I_0(x) ~ x^2/4 at small x
    t = np.outer(np.log(half_x), 2 * m + alpha)
    t -= _lfact(m_count) + _lgamma_shift(alpha, m_count)
    top_at = t.argmax(axis=1)
    top = t[rows, top_at]
    t -= top[:, None]
    np.exp(t, out=t)
    t[rows, top_at] = 0.0
    rest = t.sum(axis=1)
    ratio = half_x * (t @ weights + weights[top_at]) / (1.0 + rest)
    return top + np.log1p(rest), ratio


def _debye_tables(k_count: int = 14) -> np.ndarray:
    """Power-series coefficients in p of U_k(p) and V_k(p) - U_k(p) for
    k = 0..k_count-1, as a k_count x (3 k_count - 2) x 2 array: U_0 = 1,
    U_{k+1} = p^2 (1-p^2) U_k' / 2 + int_0^p (1 - 5t^2) U_k(t) dt / 8 and
    V_{k+1} - U_{k+1} = -p (1-p^2) U_k / 2 - p^2 (1-p^2) U_k'
    (DLMF 10.41.10-11).  U_k has degree 3k, and so has V_k - U_k."""
    width = 3 * (k_count - 1) + 1
    j = np.arange(width)
    tables = np.zeros((k_count, width, 2))
    tables[0, 0, 0] = 1.0
    for k in range(k_count - 1):
        u = tables[k, :, 0]
        du = np.append(j[1:] * u[1:], 0.0)               # U_k'
        p2du = np.zeros(width)                           # p^2 (1-p^2) U_k'
        p2du[2:] += du[:-2]
        p2du[4:] -= du[:-4]
        pu = np.zeros(width)                             # p (1-p^2) U_k
        pu[1:] += u[:-1]
        pu[3:] -= u[:-3]
        q = u.copy()                                     # (1 - 5p^2) U_k
        q[2:] -= 5.0 * u[:-2]
        tables[k + 1, 1:, 0] = 0.5 * p2du[1:] + 0.125 * q[:-1] / j[1:]
        tables[k + 1, :, 1] = -0.5 * pu - p2du
    return tables


_DEBYE_TABLES = _debye_tables()


def _log_bessel_debye(alpha: float, x: np.ndarray):
    """(log I_alpha(x), I_{alpha+1}(x) / I_alpha(x)) over an array of x at
    or above _DEBYE_FROM, by the Debye expansion; alpha < 1 is evaluated at
    alpha + 1 and recurred down one order."""
    nu = alpha + 1.0 if alpha < 1.0 else alpha
    r = np.hypot(nu, x)
    # fold nu^-k into one coefficient vector per polynomial table
    k_count, width, _ = _DEBYE_TABLES.shape
    coef = nu ** -np.arange(k_count) @ _DEBYE_TABLES.reshape(k_count, -1)
    u, v_minus_u = (np.vander(nu / r, width, increasing=True)
                    @ coef.reshape(width, 2)).T
    log_i = r + nu * np.log(x / (nu + r)) - 0.5 * LOG_2PI - 0.5 * np.log(r) + np.log(u)
    ratio = x / (nu + r) + r * v_minus_u / (u * x)
    if nu != alpha:
        ratio = 1.0 / (2.0 * nu / x + ratio)
        log_i -= np.log(ratio)
    return log_i, ratio


def _log_bessel(alpha: float, x: np.ndarray):
    """(log I_alpha(x), I_{alpha+1}(x) / I_alpha(x)) over an array of
    positive x; each argument takes the series below _DEBYE_FROM and the
    Debye expansion at or above it (also when it is inf or nan)."""
    low = x < _DEBYE_FROM
    if low.all():
        return _log_bessel_series(alpha, x)
    if not low.any():
        return _log_bessel_debye(alpha, x)
    log_i, ratio = np.empty_like(x), np.empty_like(x)
    log_i[low], ratio[low] = _log_bessel_series(alpha, x[low])
    high = ~low
    log_i[high], ratio[high] = _log_bessel_debye(alpha, x[high])
    return log_i, ratio


@dataclasses.dataclass(frozen=True)
class BesselEval:
    """log I_alpha(x) and the ratio I_{alpha+1}(x)/I_alpha(x)."""

    log_value: float
    ratio_next: float


def log_bessel_i(alpha: float, x: float) -> BesselEval:
    """Evaluate log I_alpha(x) and I_{alpha+1}(x) / I_alpha(x), by the
    series below x = 50 and the Debye expansion above.

    x = 0 with alpha > 0 returns log_value -inf (I_alpha(0) = 0); negative,
    infinite or nan inputs raise DomainError.
    """
    if not (0.0 <= alpha < math.inf and 0.0 <= x < math.inf):
        raise DomainError(f"log_bessel_i requires finite alpha >= 0 and x >= 0, "
                          f"got alpha={alpha}, x={x}")
    if x == 0.0:
        return BesselEval(log_value=0.0 if alpha == 0.0 else -math.inf, ratio_next=0.0)
    log_value, ratio = _log_bessel(float(alpha), np.array([float(x)]))
    return BesselEval(log_value=float(log_value[0]), ratio_next=float(ratio[0]))


def _divide_rows(a: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Row i of a divided by norms[i]; a zero norm leaves its row as it is,
    so zero rows of a matrix stay zero when it is scaled to unit rows."""
    return a / np.where(norms > 0.0, norms, 1.0)[:, None]


@dataclasses.dataclass(frozen=True)
class VmfParams:
    """Mean direction mu on S^{n-1}, concentration kappa (clamped to at
    least KAPPA_MIN), and the distribution dimension n used by the
    normalizer.  n may differ from the ambient dimension of mu."""

    mu: np.ndarray
    kappa: float
    n: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        # each check is negated so that nan fails it
        if not abs(np.linalg.norm(mu) - 1.0) <= 1e-9:
            raise DomainError(f"mu must be unit norm, got ||mu|| = {np.linalg.norm(mu)}")
        if not 0.0 <= self.kappa < math.inf:
            raise DomainError(f"kappa must be finite and non-negative, got {self.kappa}")
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", max(float(self.kappa), KAPPA_MIN))


def _log_normalizer(kappa: np.ndarray, n: int):
    """(g, ratio) over an array of concentrations kappa > 0: the vMF log
    normalizer g = nu log kappa - (n/2) log 2pi - log I_nu(kappa) and
    I_{nu+1}(kappa) / I_nu(kappa), with nu = n/2 - 1."""
    nu = 0.5 * n - 1.0
    log_i, ratio = _log_bessel(nu, kappa)
    return nu * np.log(kappa) - 0.5 * n * LOG_2PI - log_i, ratio


def vmf_log_pdf(x, params: VmfParams) -> float:
    """Log-density of the vMF distribution at unit vector x."""
    x = np.asarray(x, dtype=np.float64)
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-6:
        raise DomainError(f"x must be unit norm, got ||x|| = {np.linalg.norm(x)}")
    g, _ = _log_normalizer(np.array([params.kappa]), params.n)
    return params.kappa * float(np.dot(params.mu, x)) + float(g[0])


def vmf_similarity(proxy, z, n: int) -> float:
    """Similarity kappa*cos(theta) + (n/2-1) log kappa - (n/2) log 2pi
    - log I_{n/2-1}(kappa) with kappa = max(||z||, KAPPA_MIN) and cos(theta)
    measured between proxy and z in their own (d-dimensional) space: the
    one-row case of vmf_similarity_batch.

    For unclamped kappa the first term equals proxy . z exactly.
    """
    proxy = np.asarray(proxy, dtype=np.float64)
    pnorm = np.linalg.norm(proxy)
    # unit proxy expected; tolerate numeric drift (finite-difference probes
    # move the norm by O(step)) but reject anything clearly off the sphere
    if not abs(pnorm - 1.0) <= 1e-3:
        raise DomainError(f"proxy must be unit norm, got ||proxy|| = {pnorm}")
    z, norms = _one_row(z)
    return float(vmf_similarity_batch(z, proxy[None, :], n, norms=norms)[0][0, 0])


def _one_row(z):
    """z as a 1 x d batch and its row norm, which must be finite."""
    z = np.asarray(z, dtype=np.float64)[None, :]
    norms = np.linalg.norm(z, axis=1)
    if not np.isfinite(norms[0]):
        raise DomainError(f"||z|| must be finite, got {norms[0]}")
    return z, norms


class SimilarityGrad(NamedTuple):
    grad_proxy: np.ndarray
    grad_z: np.ndarray


def vmf_similarity_grad(proxy, z, n: int) -> SimilarityGrad:
    """Analytic gradient of vmf_similarity: the one-row, one-proxy case of
    _similarity_grads."""
    proxy = np.asarray(proxy, dtype=np.float64)[None, :]
    z, norms = _one_row(z)
    _, _, ratio, scale = vmf_similarity_batch(z, proxy, n, norms=norms)
    grad_z, grad_proxy = _similarity_grads(np.ones((1, 1)), z, _divide_rows(z, norms),
                                           proxy, ratio, scale)
    return SimilarityGrad(grad_proxy=grad_proxy[0], grad_z=grad_z[0])


def vmf_similarity_batch(z: np.ndarray, proxies: np.ndarray, n: int,
                         product=None, norms=None):
    """Vectorized similarities for a batch: returns (sims N x C, kappa N,
    ratio_next N, scale N) where scale = kappa / ||z|| converts proxy . z
    into the kappa*cos(theta) term (exactly 1 for unclamped rows, 0 for a
    zero row).  product and norms, when given, are z @ proxies.T and the
    row norms of z."""
    z = np.asarray(z, dtype=np.float64)
    if product is None:
        product = z @ np.asarray(proxies, dtype=np.float64).T
    if norms is None:
        norms = np.linalg.norm(z, axis=1)
    kappa = np.maximum(norms, KAPPA_MIN)
    scale = kappa / np.where(norms > 0.0, norms, np.inf)
    g, ratio = _log_normalizer(kappa, n)
    sims = product * scale[:, None] + g[:, None]
    return sims, kappa, ratio, scale


def _similarity_grads(dsim, z, zhat, proxies, ratio, scale):
    """(grad_z, grad_W) of sum_ij dsim_ij sim_ij, sim_ij = scale_i w_j . z_i
    + g(kappa_i), from vmf_similarity_batch's ratio and scale and the unit
    rows zhat of z.  grad_W = sum_i dsim_ij scale_i z_i.  With a_i = sum_j
    dsim_ij w_j, an unclamped row has d g / d kappa = -ratio_next, so grad_z_i
    = a_i - sum_j dsim_ij ratio_i zhat_i; a clamped row has sim_ij = KAPPA_MIN
    w_j . zhat_i + const, so grad_z_i = scale_i (a_i - (a_i . zhat_i) zhat_i)."""
    clamped = scale != 1.0
    row_term = dsim.sum(axis=1) * ratio * ~clamped
    grad_z = dsim @ proxies - row_term[:, None] * zhat
    if clamped.any():
        a, u = grad_z[clamped], zhat[clamped]      # row_term is 0 on these rows
        grad_z[clamped] = scale[clamped, None] * (a - np.einsum("ij,ij->i", a, u)[:, None] * u)
    return grad_z, dsim.T @ (z * scale[:, None])
