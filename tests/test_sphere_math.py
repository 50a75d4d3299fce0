"""Log-domain Bessel evaluation, vMF density, similarity and gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lh2.errors import DomainError
from lh2.sphere_math import (KAPPA_MIN, VmfParams, log_bessel_i, vmf_log_pdf,
                             vmf_similarity, vmf_similarity_batch,
                             vmf_similarity_grad)

import oracles

ALPHAS = [0.0, 0.5, 1.0, 15.0, 63.0, 127.0, 255.0]
X_GRID = np.geomspace(1e-3, 500.0, 25)
# orders of the n = 32 and n = 256 similarities at large kappa; training
# with norm_logmean = 5 reaches about 1e4
LARGE_KAPPA = [(nu, x) for nu in (15.0, 127.0) for x in (1e3, 1.1e4, 2e4)]
# both sides of the switch from the series to the Debye expansion at x = 50
BRANCH_ALPHAS = [0.0, 0.5, 1.0, 15.0, 127.0, 255.0]
BRANCH_X = [float(x) for x in np.geomspace(1e-6, 1e7, 27)] + [49.9, 50.0, 50.1]


# ---------------------------------------------------------------------------
# log_bessel_i

def test_bessel_at_zero():
    ev = log_bessel_i(0.0, 0.0)
    assert ev.log_value == 0.0                         # I_0(0) = 1
    assert log_bessel_i(1.0, 0.0).log_value == -math.inf
    assert log_bessel_i(0.5, 0.0).log_value == -math.inf


def test_bessel_frozen_points():
    assert log_bessel_i(0.0, 1.0).log_value == pytest.approx(
        oracles.LOG_I0_1, rel=1e-12)
    assert log_bessel_i(1.0, 1.0).log_value == pytest.approx(
        oracles.LOG_I1_1, rel=1e-12)
    ev = log_bessel_i(127.0, 300.0)                    # naive I overflows here
    assert ev.log_value == pytest.approx(oracles.LOG_I127_300, rel=1e-12)
    assert log_bessel_i(128.0, 300.0).log_value == pytest.approx(
        oracles.LOG_I128_300, rel=1e-12)
    assert ev.ratio_next == pytest.approx(oracles.RATIO_NEXT_127_300, rel=1e-10)
    assert log_bessel_i(0.0, 1.0).ratio_next == pytest.approx(
        oracles.RATIO_NEXT_0_1, rel=1e-10)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bessel_grid_vs_oracle(alpha):
    for x in list(X_GRID) + [x for nu, x in LARGE_KAPPA if nu == alpha]:
        want = oracles.log_bessel_oracle(alpha, float(x))
        got = log_bessel_i(alpha, float(x)).log_value
        assert abs(got - want) <= 1e-10 * abs(want) + 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bessel_ratio_in_unit_interval_and_monotone(alpha):
    ratios = [log_bessel_i(alpha, float(x)).ratio_next for x in X_GRID]
    assert all(0.0 < r < 1.0 for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_bessel_ratio_vs_oracle():
    points = [(alpha, x) for alpha in (0.0, 1.0, 63.0) for x in (0.01, 1.0, 20.0, 300.0)]
    for alpha, x in points + LARGE_KAPPA:
        assert log_bessel_i(alpha, x).ratio_next == pytest.approx(
            oracles.bessel_ratio_oracle(alpha, x), rel=1e-10)


@pytest.mark.parametrize("alpha", BRANCH_ALPHAS)
def test_bessel_both_branches_vs_oracle(alpha):
    for x in BRANCH_X:
        ev = log_bessel_i(alpha, x)
        assert ev.log_value == pytest.approx(oracles.log_bessel_oracle(alpha, x),
                                             rel=1e-12, abs=0.0)
        assert ev.ratio_next == pytest.approx(oracles.bessel_ratio_oracle(alpha, x),
                                              rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", BRANCH_ALPHAS)
def test_bessel_ratio_within_amos_bounds(alpha):
    # Amos (1974): x / (a + 1/2 + sqrt(x^2 + (a + 3/2)^2)) <= I_{a+1}/I_a
    # <= x / (a + 1/2 + sqrt(x^2 + (a + 1/2)^2)).  At small x the ratio and
    # the lower bound agree to below double precision, so each side allows
    # 4 ulp; at x = 1e7 and alpha = 0 the bounds are 45 ulp apart.
    slack = 4.0 * np.finfo(float).eps
    for x in BRANCH_X:
        ratio = log_bessel_i(alpha, x).ratio_next
        lower = x / (alpha + 0.5 + math.hypot(x, alpha + 1.5))
        upper = x / (alpha + 0.5 + math.hypot(x, alpha + 0.5))
        assert lower * (1.0 - slack) <= ratio <= upper * (1.0 + slack)


def test_bessel_rejects_negative_inputs():
    with pytest.raises(DomainError):
        log_bessel_i(-1.0, 1.0)
    with pytest.raises(DomainError):
        log_bessel_i(1.0, -1.0)
    with pytest.raises(DomainError):
        log_bessel_i(1.0, math.inf)


_MU = np.array([1.0, 0.0, 0.0])
_NAN3 = np.array([math.nan, 0.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda: log_bessel_i(math.nan, 1.0),
    lambda: log_bessel_i(1.0, math.nan),
    lambda: VmfParams(_NAN3, 1.0, 3),
    lambda: VmfParams(_MU, math.nan, 3),
    lambda: vmf_log_pdf(_NAN3, VmfParams(_MU, 1.0, 3)),
    lambda: vmf_similarity(_NAN3, np.ones(3), 4),
], ids=["bessel-alpha", "bessel-x", "params-mu", "params-kappa", "log-pdf-x",
        "similarity-proxy"])
def test_domain_checks_reject_nan(call):
    with pytest.raises(DomainError):
        call()


@given(st.floats(0.0, 200.0), st.floats(1e-3, 400.0))
def test_bessel_ratio_bounds_property(alpha, x):
    assert 0.0 < log_bessel_i(alpha, x).ratio_next < 1.0


# ---------------------------------------------------------------------------
# vmf_log_pdf

def test_vmf_params_validation():
    mu = np.array([1.0, 0.0, 0.0])
    assert VmfParams(mu, 0.0, 3).kappa == KAPPA_MIN    # clamp
    with pytest.raises(DomainError):
        VmfParams(2.0 * mu, 1.0, 3)
    with pytest.raises(DomainError):
        VmfParams(mu, -1.0, 3)
    with pytest.raises(DomainError):
        VmfParams(mu, math.inf, 3)
    with pytest.raises(DomainError):
        VmfParams(mu, 1.0, 1)


def test_vmf_log_pdf_n3_closed_form():
    mu = np.array([0.0, 0.0, 1.0])
    got = vmf_log_pdf(mu, VmfParams(mu, 1.0, 3))
    assert got == pytest.approx(oracles.VMF_N3_K1_COS1, rel=1e-10)
    # same closed form across cosines and concentrations
    for kappa in (0.5, 4.0, 50.0):
        for t in (-0.8, 0.1, 0.9):
            x = np.array([math.sqrt(1.0 - t * t), 0.0, t])
            got = vmf_log_pdf(x, VmfParams(mu, kappa, 3))
            assert got == pytest.approx(oracles.vmf_n3_log_pdf(t, kappa), rel=1e-10)


def test_vmf_log_pdf_n2_normalizes():
    for kappa in (0.5, 3.0, 20.0):
        params = VmfParams(np.array([1.0, 0.0]), kappa, 2)

        def log_pdf(t, params=params):
            return vmf_log_pdf(np.array([math.cos(t), math.sin(t)]), params)

        assert oracles.circle_mass(log_pdf) == pytest.approx(1.0, abs=1e-8)


def test_vmf_log_pdf_rotational_symmetry():
    mu = np.array([1.0, 0.0, 0.0])
    params = VmfParams(mu, 7.0, 3)
    t = 0.3
    x1 = np.array([t, math.sqrt(1.0 - t * t), 0.0])
    x2 = np.array([t, 0.0, -math.sqrt(1.0 - t * t)])   # same cosine to mu
    assert vmf_log_pdf(x1, params) == vmf_log_pdf(x2, params)


def test_vmf_log_pdf_rejects_nonunit_x():
    mu = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        vmf_log_pdf(np.array([2.0, 0.0]), VmfParams(mu, 1.0, 2))


# ---------------------------------------------------------------------------
# vmf_similarity

def _sim_oracle(proxy, z, n):
    """Closed form scale (proxy . z) + nu log kappa - (n/2) log 2pi
    - log I_nu(kappa) with kappa = max(||z||, KAPPA_MIN), scale = kappa / ||z||
    (0 at z = 0) and mpmath's log I."""
    norm = float(np.linalg.norm(z))
    kappa = max(norm, KAPPA_MIN)
    scale = kappa / norm if norm > 0.0 else 0.0
    nu = 0.5 * n - 1.0
    return (scale * float(np.dot(proxy, z)) + nu * math.log(kappa)
            - 0.5 * n * math.log(2.0 * math.pi)
            - oracles.log_bessel_oracle(nu, kappa))


def test_similarity_zero_vector_clamps():
    proxy = np.array([1.0, 0.0])
    got = vmf_similarity(proxy, np.zeros(2), 256)
    nu = 127.0
    want = (nu * math.log(KAPPA_MIN) - 128.0 * math.log(2.0 * math.pi)
            - oracles.log_bessel_oracle(nu, KAPPA_MIN))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-10)


def test_similarity_cosine_gap_exact():
    d, n = 4, 256
    proxy = np.zeros(d)
    proxy[0] = 1.0
    z_aligned = np.zeros(d)
    z_aligned[0] = 20.0
    z_perp = np.zeros(d)
    z_perp[1] = 20.0
    gap = vmf_similarity(proxy, z_aligned, n) - vmf_similarity(proxy, z_perp, n)
    assert gap == 20.0                                 # only the kappa cos term moves


def test_similarity_random_vs_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 300))
        proxy = rng.standard_normal(d)
        proxy /= np.linalg.norm(proxy)
        z = rng.standard_normal(d) * rng.uniform(0.1, 60.0)
        assert vmf_similarity(proxy, z, n) == pytest.approx(
            _sim_oracle(proxy, z, n), rel=1e-10)


def test_similarity_monotone_in_cosine():
    n, norm = 64, 12.0
    proxy = np.array([1.0, 0.0])
    sims = [vmf_similarity(proxy, norm * np.array([math.cos(t), math.sin(t)]), n)
            for t in np.linspace(0.0, math.pi, 15)]
    assert all(a > b for a, b in zip(sims, sims[1:]))  # decreasing angle order


def test_similarity_proxy_validation():
    with pytest.raises(DomainError):
        vmf_similarity(np.zeros(3), np.ones(3), 4)
    with pytest.raises(DomainError):
        vmf_similarity(np.array([2.0, 0.0]), np.ones(2), 4)


# ---------------------------------------------------------------------------
# vmf_similarity_grad

def test_grad_matches_finite_differences_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 65))
        proxy = rng.standard_normal(d)
        proxy /= np.linalg.norm(proxy)
        z = rng.standard_normal(d) * rng.uniform(1.0, 30.0)
        g = vmf_similarity_grad(proxy, z, n)
        fd_p = oracles.fd_grad(lambda p: vmf_similarity(p, z, n), proxy)
        fd_z = oracles.fd_grad(lambda zz: vmf_similarity(proxy, zz, n), z)
        assert oracles.rel_err(g.grad_proxy, fd_p) <= 1e-6
        assert oracles.rel_err(g.grad_z, fd_z) <= 1e-6


def test_grad_proxy_is_z_exactly():
    proxy = np.array([1.0, 0.0, 0.0])
    z = np.array([0.0, 3.0, 4.0])                      # perpendicular to proxy
    g = vmf_similarity_grad(proxy, z, 8)
    np.testing.assert_array_equal(g.grad_proxy, z)


def test_grad_directional_derivative_d2_n2():
    proxy = np.array([1.0, 0.0])
    theta = 0.7
    zhat = np.array([math.cos(theta), math.sin(theta)])
    z = 5.0 * zhat
    g = vmf_similarity_grad(proxy, z, 2)
    h = 1e-6
    fd = (vmf_similarity(proxy, z + h * zhat, 2)
          - vmf_similarity(proxy, z - h * zhat, 2)) / (2.0 * h)
    # d/dkappa [kappa cos(theta) - log I_0(kappa)] at kappa = 5
    want = math.cos(theta) - oracles.bessel_ratio_oracle(0.0, 5.0)
    assert float(g.grad_z @ zhat) == pytest.approx(want, rel=1e-9)
    assert fd == pytest.approx(want, rel=1e-6)


def test_grad_clamped_branch():
    proxy = np.array([0.0, 1.0])
    z = np.array([1e-9, 0.0])
    g = vmf_similarity_grad(proxy, z, 16)
    # the similarity is KAPPA_MIN proxy . z / ||z|| + const below the clamp,
    # and proxy is perpendicular to z here
    np.testing.assert_allclose(g.grad_z, proxy * (KAPPA_MIN / 1e-9), rtol=1e-15)
    np.testing.assert_allclose(g.grad_proxy, z * (KAPPA_MIN / 1e-9), rtol=1e-15)
    zero = vmf_similarity_grad(proxy, np.zeros(2), 16)
    np.testing.assert_array_equal(zero.grad_proxy, np.zeros(2))
    np.testing.assert_array_equal(zero.grad_z, np.zeros(2))


def test_clamped_grad_proxy_matches_finite_differences():
    # small n keeps the normalizer, and with it the rounding noise of the
    # differences, near 1; the gradient is about 1e-6
    rng = np.random.default_rng(3)
    for n in (2, 16):
        proxy = rng.standard_normal(5)
        proxy /= np.linalg.norm(proxy)
        z = rng.standard_normal(5)
        z *= 1e-9 / np.linalg.norm(z)
        g = vmf_similarity_grad(proxy, z, n)
        fd = oracles.fd_grad(lambda p: vmf_similarity(p, z, n), proxy)
        assert oracles.rel_err(g.grad_proxy, fd) <= 1e-4


def test_clamped_grad_z_matches_finite_differences():
    # below the clamp the z gradient is KAPPA_MIN / ||z|| times the part of
    # the proxy perpendicular to z, about 2 at ||z|| = 5e-7; steps of 1e-10
    # stay below the clamp
    g = vmf_similarity_grad(np.array([0.6, 0.8]), np.array([5e-7, 0.0]), 2)
    np.testing.assert_allclose(g.grad_z, [0.0, 1.6], rtol=1e-15, atol=1e-15)
    rng = np.random.default_rng(4)
    for n in (2, 16):
        proxy = rng.standard_normal(5)
        proxy /= np.linalg.norm(proxy)
        z = rng.standard_normal(5)
        z *= 5e-7 / np.linalg.norm(z)
        g = vmf_similarity_grad(proxy, z, n)
        fd = oracles.fd_grad(lambda zz: vmf_similarity(proxy, zz, n), z, h=1e-10)
        assert oracles.rel_err(g.grad_z, fd) <= 1e-4


# ---------------------------------------------------------------------------
# vmf_similarity_batch

def test_batch_matches_scalar():
    rng = np.random.default_rng(17)
    n = 48
    W = rng.standard_normal((5, 6))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    z = rng.standard_normal((4, 6)) * rng.uniform(0.5, 40.0, (4, 1))
    z[1] = 0.0                                         # clamped row
    z[2] *= 1e-9 / np.linalg.norm(z[2])                # sub-clamp tiny row
    sims, kappa, ratio, scale = vmf_similarity_batch(z, W, n)
    assert sims.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            assert sims[i, j] == pytest.approx(
                _sim_oracle(W[j], z[i], n), rel=1e-12, abs=1e-9)
    np.testing.assert_allclose(kappa, np.maximum(np.linalg.norm(z, axis=1),
                                                 KAPPA_MIN))
    assert scale[0] == 1.0 and scale[3] == 1.0
    assert scale[1] == 0.0                             # zero row: cos frozen at 0
    assert scale[2] == pytest.approx(KAPPA_MIN / np.linalg.norm(z[2]))
    nu = 0.5 * n - 1.0
    for i in (0, 3):
        assert ratio[i] == pytest.approx(
            oracles.bessel_ratio_oracle(nu, float(kappa[i])), rel=1e-10)


def test_batch_with_rows_on_both_sides_of_the_switch():
    n, nu = 48, 23.0
    norms = np.array([10.0, 49.99, 50.0, 300.0, 1e4])
    z = np.zeros((5, 3))
    z[:, 1] = norms
    W = np.eye(3)
    sims, kappa, ratio, scale = vmf_similarity_batch(z, W, n)
    for i, norm in enumerate(norms):
        for j in range(3):
            assert sims[i, j] == pytest.approx(_sim_oracle(W[j], z[i], n),
                                               rel=1e-15)
        assert ratio[i] == pytest.approx(oracles.bessel_ratio_oracle(nu, norm),
                                         rel=1e-12, abs=0.0)


def test_batch_far_above_the_series_range_matches_oracle():
    # kappa = 3e6, and 64 rows at kappa = 8e5, each take the Debye branch
    n, nu = 32, 15.0
    for rows, norm in ((1, 3e6), (64, 8e5)):
        z = np.zeros((rows, 4))
        z[:, 0] = norm
        sims, kappa, ratio, scale = vmf_similarity_batch(z, np.eye(4), n)
        # proxies 1..3 are orthogonal to z: their similarity is the normalizer
        g = (nu * math.log(norm) - 0.5 * n * math.log(2.0 * math.pi)
             - oracles.log_bessel_oracle(nu, norm))
        np.testing.assert_allclose(sims[:, 1:], g, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sims[:, 0], norm + sims[:, 1], rtol=1e-15)
        np.testing.assert_allclose(ratio, oracles.bessel_ratio_oracle(nu, norm),
                                   rtol=1e-12, atol=0.0)
    z = np.full((1, 4), 1e200)                         # the row norm overflows
    with np.errstate(over="ignore", invalid="ignore"):
        sims = vmf_similarity_batch(z, np.eye(4), n)[0]
    assert not np.isfinite(sims).any()
