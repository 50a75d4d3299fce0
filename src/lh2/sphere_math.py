"""Stable evaluation of the modified Bessel function I_alpha, the vMF
log-density on the unit sphere, and the vMF-based similarity with its
analytic gradient.

The Bessel function is evaluated through its ascending series in log domain,

    log t_m = (2m + alpha) * log(x/2) - log m! - log Gamma(m + alpha + 1)
    log I_alpha(x) = logsumexp_m(log t_m)

over one term grid per call: rows are the arguments, columns m = 0..M-1,
with M fixed in advance by _series_length from the largest argument so the
truncated tail is negligible.  The same terms give the ratio

    I_{alpha+1}(x) / I_alpha(x) = sum_m t_m (x/2) / (m + alpha + 1) / sum_m t_m

so the order alpha+1 series is never summed.  An M above _MAX_TERMS (10^6),
or a grid of more than _MAX_GRID (2^24, 128 MiB of float64) elements, raises
TermCapError (a DomainError) instead of allocating the grid.  A
naive evaluation of I_alpha underflows to 0 (hence log -inf) already for
moderate orders at small arguments; the log-domain series removes that
restriction.
Everything here runs in 64-bit floats.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TermCapError

KAPPA_MIN = 1e-6
LOG_2PI = math.log(2.0 * math.pi)
_MAX_TERMS = 1_000_000
_MAX_GRID = 2 ** 24

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
    length = peak + 12.0 * math.sqrt(peak + 1.0) + 40.0
    # the negated test also rejects an infinite (overflowed) or nan argument
    if not length < _MAX_TERMS + 1:
        raise TermCapError(f"Bessel series needs {length:.0f} terms for "
                           f"alpha={alpha}, x={x_max}; the limit is {_MAX_TERMS}")
    return int(length)


def _log_bessel_series(alpha: float, x: np.ndarray):
    """(log I_alpha(x), I_{alpha+1}(x) / I_alpha(x)) over an array of
    positive x, both from one term grid."""
    m_count = _series_length(alpha, float(x.max()))
    if len(x) * m_count > _MAX_GRID:
        raise TermCapError(f"Bessel term grid needs {len(x)} x {m_count} elements "
                           f"for alpha={alpha}, x={float(x.max())}; the limit is "
                           f"{_MAX_GRID}")
    m = np.arange(m_count)
    half_x = 0.5 * x
    # one N x M buffer: log terms, shifted by each row's top, then the terms
    t = np.outer(np.log(half_x), 2 * m + alpha)
    t -= _lfact(m_count) + _lgamma_shift(alpha, m_count)
    top = t.max(axis=1)
    t -= top[:, None]
    np.exp(t, out=t)
    total = t.sum(axis=1)
    ratio = half_x * (t @ (1.0 / (m + alpha + 1.0))) / total
    return top + np.log(total), ratio


@dataclasses.dataclass(frozen=True)
class BesselEval:
    """log I_alpha(x) and the ratio I_{alpha+1}(x)/I_alpha(x)."""

    log_value: float
    ratio_next: float


def log_bessel_i(alpha: float, x: float) -> BesselEval:
    """Evaluate log I_alpha(x) by the log-domain ascending series.

    x = 0 with alpha > 0 returns log_value -inf (I_alpha(0) = 0); negative
    inputs raise DomainError.
    """
    if alpha < 0.0 or x < 0.0:
        raise DomainError(f"log_bessel_i requires alpha >= 0 and x >= 0, "
                          f"got alpha={alpha}, x={x}")
    if x == 0.0:
        return BesselEval(log_value=0.0 if alpha == 0.0 else -math.inf, ratio_next=0.0)
    log_value, ratio = _log_bessel_series(float(alpha), np.array([float(x)]))
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
        if abs(np.linalg.norm(mu) - 1.0) > 1e-9:
            raise DomainError(f"mu must be unit norm, got ||mu|| = {np.linalg.norm(mu)}")
        if self.kappa < 0.0:
            raise DomainError(f"kappa must be non-negative, got {self.kappa}")
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", max(float(self.kappa), KAPPA_MIN))


def _log_normalizer(kappa: float, n: int) -> float:
    """(n/2-1) log kappa - (n/2) log 2pi - log I_{n/2-1}(kappa)."""
    nu = 0.5 * n - 1.0
    ev = log_bessel_i(nu, kappa)
    return nu * math.log(kappa) - 0.5 * n * LOG_2PI - ev.log_value


def vmf_log_pdf(x, params: VmfParams) -> float:
    """Log-density of the vMF distribution at unit vector x."""
    x = np.asarray(x, dtype=np.float64)
    if abs(np.linalg.norm(x) - 1.0) > 1e-6:
        raise DomainError(f"x must be unit norm, got ||x|| = {np.linalg.norm(x)}")
    if params.kappa <= 0.0:
        raise DomainError("kappa must be positive")
    return params.kappa * float(np.dot(params.mu, x)) + _log_normalizer(params.kappa, params.n)


def vmf_similarity(proxy, z, n: int) -> float:
    """Similarity kappa*cos(theta) + (n/2-1) log kappa - (n/2) log 2pi
    - log I_{n/2-1}(kappa) with kappa = max(||z||, KAPPA_MIN) and cos(theta)
    measured between proxy and z in their own (d-dimensional) space.

    For unclamped kappa the first term equals proxy . z exactly.
    """
    proxy = np.asarray(proxy, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    pnorm = np.linalg.norm(proxy)
    if pnorm == 0.0:
        raise DomainError("proxy must be nonzero")
    # unit proxy expected; tolerate numeric drift (finite-difference probes
    # move the norm by O(step)) but reject anything clearly off the sphere
    if abs(pnorm - 1.0) > 1e-3:
        raise DomainError(f"proxy must be unit norm, got ||proxy|| = {pnorm}")
    norm = float(np.linalg.norm(z))
    kappa = max(norm, KAPPA_MIN)
    if norm >= KAPPA_MIN:
        align = float(np.dot(proxy, z))          # = kappa * cos(theta) exactly
    elif norm > 0.0:
        align = kappa * float(np.dot(proxy, z)) / norm
    else:
        align = 0.0                              # cos undefined at z = 0; clamp contract
    return align + _log_normalizer(kappa, n)


class SimilarityGrad(NamedTuple):
    grad_proxy: np.ndarray
    grad_z: np.ndarray
    clamped: bool


def vmf_similarity_grad(proxy, z, n: int) -> SimilarityGrad:
    """Analytic gradient of vmf_similarity.

    grad wrt proxy is z (the only proxy-dependent term is proxy . z).
    grad wrt z is proxy - ratio_next(n/2-1, kappa) * z/||z||, using
    d log I_nu / d kappa = I_{nu+1}/I_nu + nu/kappa so that the log kappa
    and Bessel derivatives collapse to -ratio_next.  At the clamp boundary
    the norm-dependent terms are frozen and grad wrt z is just proxy.
    """
    proxy = np.asarray(proxy, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    norm = float(np.linalg.norm(z))
    if norm < KAPPA_MIN:
        return SimilarityGrad(grad_proxy=z.copy(), grad_z=proxy.copy(), clamped=True)
    nu = 0.5 * n - 1.0
    ratio = log_bessel_i(nu, norm).ratio_next
    return SimilarityGrad(grad_proxy=z.copy(),
                          grad_z=proxy - ratio * (z / norm),
                          clamped=False)


def vmf_similarity_batch(z: np.ndarray, proxies: np.ndarray, n: int):
    """Vectorized similarities for a batch: returns (sims N x C, kappa N,
    ratio_next N, scale N) where scale converts proxy . z into the
    kappa*cos(theta) term (1 for unclamped rows)."""
    z = np.asarray(z, dtype=np.float64)
    proxies = np.asarray(proxies, dtype=np.float64)
    norms = np.linalg.norm(z, axis=1)
    kappa = np.maximum(norms, KAPPA_MIN)
    safe = np.where(norms > 0.0, norms, 1.0)
    scale = np.where(norms >= KAPPA_MIN, 1.0, np.where(norms > 0.0, kappa / safe, 0.0))
    nu = 0.5 * n - 1.0
    log_i, ratio = _log_bessel_series(nu, kappa)
    g = nu * np.log(kappa) - 0.5 * n * LOG_2PI - log_i
    sims = (z @ proxies.T) * scale[:, None] + g[:, None]
    return sims, kappa, ratio, scale
