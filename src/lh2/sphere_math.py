"""Stable evaluation of the modified Bessel function I_alpha, the vMF
similarity (the vMF log-density at the feature direction) and the
backward of the losses built on it.

log I_alpha(x) and the ratio I_{alpha+1}(x) / I_alpha(x) come from one
routine, _log_bessel: the Debye uniform asymptotic expansion (DLMF
10.41.3, 10.41.5) at order nu = alpha + m, m = max(0, ceil(15 - alpha)),
with r = hypot(nu, x) and p = nu / r,

    log I_nu(x) = r + nu log(x / (nu + r)) - log(2 pi)/2 - log(r)/2 + log U,
    ratio = x / (nu + r) + x Q / (U r),
    U = sum_k U_k(p) nu^-k,   Q = sum_k Q_k(p) nu^-k,   Q_k = (V_k - U_k) / (1 - p^2)

for k = 0..13, with the polynomials U_k and Q_k of DLMF 10.41.10-11
tabulated once at import.  Tabulating Q_k keeps the factor 1 - p^2 =
(x/r)^2 out of the float polynomial, where it would cancel as x -> 0.
The backward recurrence (DLMF 10.29.1) then goes down the m orders:
I_{a-1} = (2a / x) I_a + I_{a+1} is linear in (I_{a+1}, I_a), so from
(R_nu, 1), R_nu = I_{nu+1} / I_nu, the m steps a = nu, ..., alpha + 1 end
at (J_1, J_0) = (I_{alpha+1}, I_alpha) / I_nu with J_0 = A(1/x) + B(1/x)
R_nu and J_1 = A'(1/x) + B'(1/x) R_nu.  A, B, A' and B' are polynomials
of degree m with non-negative coefficients, tabulated once per (alpha, m),
so their evaluation does not cancel: log I_alpha = log I_nu + log J_0 and
R_alpha = J_1 / J_0.  For alpha < 1 at x <= 1, where log I_0(x) ~ x^2/4
tends to 0 and that sum keeps only its absolute error, log I comes from
the ascending series, 10 terms in log1p form, instead.

The cost does not depend on x; an infinite or nan argument gives a nan
result.  A naive evaluation of I_alpha underflows to 0 (hence log -inf)
already for moderate orders at small arguments; every step here works in
log domain and avoids it.

The vMF similarity has one implementation, vmf_similarity_batch, and one
adjoint, _similarity_adjoint; both read S = z W^T and the row norms of z,
and only the grad-check's vmf_similarity op and the tests call them (the
margin softmax cancels the normalizer).  A loss of S and the row norms of z
and W (the margin softmax, these similarities, the cosines of
uamf.ProxyProduct) has an adjoint (dS N x C, dnz N, dnw C), None standing
for a zero part, that one backward, adjoint_grads, takes to z and W.  All
floats are 64-bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

KAPPA_MIN = 1e-6
LOG_2PI = math.log(2.0 * math.pi)
# orders below this are evaluated this high and recurred down
_DEBYE_ORDER = 15.0


def _debye_tables(k_count: int = 14) -> np.ndarray:
    """Power-series coefficients in p of U_k(p) and Q_k(p) = (V_k(p) -
    U_k(p)) / (1 - p^2) for k = 0..k_count-1, as a k_count x (3 k_count - 2)
    x 2 array: U_0 = 1, Q_0 = 0, U_{k+1} = p^2 (1-p^2) U_k' / 2 +
    int_0^p (1 - 5t^2) U_k(t) dt / 8 and Q_{k+1} = -p U_k / 2 - p^2 U_k'
    (DLMF 10.41.10-11).  U_k has degree 3k, Q_k at most 3k - 2."""
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
        q = u.copy()                                     # (1 - 5p^2) U_k
        q[2:] -= 5.0 * u[:-2]
        tables[k + 1, 1:, 0] = 0.5 * p2du[1:] + 0.125 * q[:-1] / j[1:]
        tables[k + 1, 1:, 1] = -0.5 * u[:-1]             # -p U_k / 2
        tables[k + 1, 2:, 1] -= du[:-2]                  # - p^2 U_k'
    return tables


_DEBYE_TABLES = _debye_tables()


@functools.lru_cache(maxsize=64)
def _debye_coefficients(nu: float) -> np.ndarray:
    """The width x 2 power-series coefficients in p of U and Q at order nu:
    the tables with nu^-k folded in, one read-only array per order."""
    k_count, width, _ = _DEBYE_TABLES.shape
    coef = (nu ** -np.arange(k_count) @ _DEBYE_TABLES.reshape(k_count, -1)).reshape(width, 2)
    coef.setflags(write=False)
    return coef


@functools.lru_cache(maxsize=64)
def _recurrence_table(alpha: float, m: int) -> np.ndarray:
    """The (m+1) x 4 power-series coefficients in t = 1/x of A, B, A' and
    B': m steps (J_1, J_0) <- (J_0, 2a t J_0 + J_1), a = alpha + m, ...,
    alpha + 1, from (J_1, J_0) = (R_nu, 1) give J_0 = A + B R_nu and J_1 =
    A' + B' R_nu."""
    j0 = np.zeros((m + 1, 2))                  # columns: the 1 and R_nu parts
    j0[0, 0] = 1.0
    j1 = np.zeros((m + 1, 2))
    j1[0, 1] = 1.0
    for step in range(m, 0, -1):
        t_j0 = np.zeros_like(j0)
        t_j0[1:] = j0[:-1]
        j1, j0 = j0, 2.0 * (alpha + step) * t_j0 + j1
    table = np.hstack([j0, j1])
    table.setflags(write=False)
    return table


def _log_bessel(alpha: float, x: np.ndarray):
    """(log I_alpha(x), I_{alpha+1}(x) / I_alpha(x)) over an array of
    positive x: the Debye expansion at order alpha + m, m = max(0,
    ceil(15 - alpha)), taken down m orders by the tabulated recurrence; for
    alpha < 1 at x <= 1 log I comes from the ascending series instead."""
    m = max(0, math.ceil(_DEBYE_ORDER - alpha))
    nu = alpha + m
    r = np.hypot(nu, x)
    coef = _debye_coefficients(nu)
    u, q = (np.vander(nu / r, len(coef), increasing=True) @ coef).T
    x_nu_r = x / (nu + r)
    log_i = r + nu * np.log(x_nu_r) - 0.5 * LOG_2PI - 0.5 * np.log(r) + np.log(u)
    ratio = x_nu_r + x * q / (u * r)
    if m:
        a, b, a1, b1 = (np.vander(1.0 / x, m + 1, increasing=True)
                        @ _recurrence_table(alpha, m)).T
        j0 = a + b * ratio
        log_i += np.log(j0)
        ratio = (a1 + b1 * ratio) / j0
    if alpha < 1.0:
        # log I_alpha(x) ~ x^2/4 as x -> 0 at alpha = 0: log I_nu + log J_0
        # keeps that to about 1e-14 absolute, the ascending series in log1p
        # form keeps it relative.  Ten terms leave the tail below 1e-19.
        small = x <= 1.0
        xs = x[small]
        quarter_x2, rest = 0.25 * xs * xs, 0.0
        for k in range(9, 0, -1):
            rest = quarter_x2 / (k * (alpha + k)) * (1.0 + rest)
        log_i[small] = alpha * np.log(0.5 * xs) - math.lgamma(alpha + 1.0) + np.log1p(rest)
    return log_i, ratio


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norms of the rows of a 2-d array, from einsum's sums of
    squares: no N x d temporary, and a norm that overflows reads inf
    without a warning."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _reciprocals(norms: np.ndarray) -> np.ndarray:
    """1 / norms with a zero norm read as 1, so that rows scaled by them to
    unit rows stay zero where they are zero."""
    return 1.0 / np.where(norms > 0.0, norms, 1.0)


def _log_normalizer(kappa: np.ndarray, n: int):
    """(g, ratio) over an array of concentrations kappa > 0: the vMF log
    normalizer g = nu log kappa - (n/2) log 2pi - log I_nu(kappa) and
    I_{nu+1}(kappa) / I_nu(kappa), with nu = n/2 - 1."""
    nu = 0.5 * n - 1.0
    log_i, ratio = _log_bessel(nu, kappa)
    return nu * np.log(kappa) - 0.5 * n * LOG_2PI - log_i, ratio


def vmf_similarity_batch(S: np.ndarray, norms: np.ndarray, n: int):
    """The similarities kappa cos(theta) + (n/2-1) log kappa - (n/2) log 2pi
    - log I_{n/2-1}(kappa), kappa = max(||z||, KAPPA_MIN), of N samples to C
    unit proxies from S = z W^T (N x C) and the row norms of z: returns
    (sims N x C, kappa N, ratio_next N, scale N) where scale = kappa / ||z||
    converts S into the kappa cos(theta) term (exactly 1 for unclamped rows,
    so that term is S itself, and 0 for a zero row)."""
    kappa = np.maximum(norms, KAPPA_MIN)
    scale = kappa / np.where(norms > 0.0, norms, np.inf)
    g, ratio = _log_normalizer(kappa, n)
    sims = S * scale[:, None] + g[:, None]
    return sims, kappa, ratio, scale


def _similarity_adjoint(dsim, S, ratio, scale):
    """The adjoint (dS, dnz, dnw) of sum_ij dsim_ij sim_ij, sim_ij = scale_i
    S_ij + g(kappa_i): dS = dsim scale, dnw = 0 and, as d g / d kappa =
    -ratio_next, dnz_i = -ratio_i sum_j dsim_ij; a clamped row has a constant
    g and scale_i = KAPPA_MIN / ||z_i||, so dnz_i = -sum_j dsim_ij S_ij
    scale_i^2 / KAPPA_MIN (0 on a zero row)."""
    clamped = scale != 1.0
    dnz = -dsim.sum(axis=1) * ratio
    if clamped.any():                          # scale is 1 on every other row
        dnz[clamped] = -np.einsum("ij,ij->i", dsim[clamped], S[clamped]) \
            * scale[clamped] ** 2 / KAPPA_MIN
        dsim = dsim * scale[:, None]
    return dsim, dnz, None


def adjoint_grads(dS, dnz, dnw, z, zhat, W, what):
    """(grad_z, grad_W) of a loss of S = z W^T, ||z|| and ||W|| from its
    adjoint (dS, dnz, dnw), with zhat and what the unit rows of z and W; a
    dnz or dnw of None stands for zero."""
    grad_z = dS @ W if dnz is None else dS @ W + dnz[:, None] * zhat
    return grad_z, dS.T @ z if dnw is None else dS.T @ z + dnw[:, None] * what
