"""Laplace/perceptual NLLs, depth smoothness, view variance."""

import math

import numpy as np
import pytest

from lh2.depth_renderer import DepthMap
from lh2.errors import DomainError
from lh2.recon_losses import (PerceptualExtractor, laplace_nll, laplace_nll_grad,
                              perceptual_nll, perceptual_nll_grad, smoothness_grad,
                              smoothness_loss, view_variance_grad, view_variance_loss)

import oracles


def _images(seed, h=4, w=5, c=3):
    rng = np.random.default_rng(seed)
    I = rng.uniform(0.0, 1.0, (h, w, c))
    I_hat = np.clip(I + rng.uniform(0.1, 0.4, I.shape) * rng.choice([-1.0, 1.0], I.shape), 0.0, 1.0)
    mask = rng.uniform(size=(h, w)) < 0.7
    mask[0, 0] = True
    return I_hat, I, mask


# ---------------------------------------------------------------------------
# laplace

def test_laplace_zero_at_match_with_unit_scale():
    I = np.full((2, 2, 3), 0.4)
    sigma = 1.0 / math.sqrt(2.0)
    assert laplace_nll(I, I, sigma, np.ones((2, 2), bool)) == \
        pytest.approx(0.0, abs=1e-12)


def test_laplace_constant_term():
    I = np.zeros((1, 1, 1))
    assert laplace_nll(I, I, 1.0, np.ones((1, 1), bool)) == \
        pytest.approx(0.5 * math.log(2.0), rel=1e-12)


def test_laplace_hand_value():
    I = np.zeros((1, 1, 1))
    I_hat = np.full((1, 1, 1), 0.3)
    want = math.log(math.sqrt(2.0) * 0.5) + math.sqrt(2.0) * 0.3 / 0.5
    assert laplace_nll(I_hat, I, 0.5, np.ones((1, 1), bool)) == \
        pytest.approx(want, rel=1e-12)


def test_laplace_matches_scalar_oracle():
    for seed in range(5):
        I_hat, I, mask = _images(seed)
        sigma = np.random.default_rng(seed + 100).uniform(0.3, 1.5, I.shape)
        want = oracles.scalar_laplace(I_hat, I, sigma, mask)
        assert laplace_nll(I_hat, I, sigma, mask) == pytest.approx(want, rel=1e-12)


def test_laplace_grad_vs_fd():
    I_hat, I, mask = _images(3)
    val, grad = laplace_nll_grad(I_hat, I, 0.7, mask)
    assert val == laplace_nll(I_hat, I, 0.7, mask)
    fd = oracles.fd_grad(lambda x: laplace_nll(x, I, 0.7, mask), I_hat)
    assert oracles.rel_err(grad, fd) <= 1e-6


def test_laplace_minimum_at_match():
    _, I, mask = _images(4)
    base = laplace_nll(I, I, 0.6, mask)
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert laplace_nll(I + rng.normal(0, 0.1, I.shape), I, 0.6, mask) > base


def test_laplace_shift_and_flip_consistency():
    I_hat, I, mask = _images(6)
    base = laplace_nll(I_hat, I, 0.5, mask)
    assert laplace_nll(I_hat + 0.25, I + 0.25, 0.5, mask) == \
        pytest.approx(base, rel=1e-12)
    flipped = laplace_nll(np.flip(I_hat, axis=1), np.flip(I, axis=1), 0.5,
                          np.flip(mask, axis=1))
    assert flipped == pytest.approx(base, rel=1e-12)


def test_laplace_validation():
    I_hat, I, mask = _images(7)
    with pytest.raises(DomainError, match="empty mask"):
        laplace_nll(I_hat, I, 0.5, np.zeros_like(mask))
    with pytest.raises(DomainError):
        laplace_nll(I_hat, I, 0.0, mask)
    with pytest.raises(DomainError):
        laplace_nll(I_hat[:2], I, 0.5, mask)
    with pytest.raises(DomainError):
        laplace_nll(I_hat, I, 0.5, mask[:2])


# ---------------------------------------------------------------------------
# perceptual

def test_perceptual_zero_point():
    I = np.random.default_rng(0).uniform(size=(3, 3, 2))
    ext = PerceptualExtractor.from_seed(1, I.shape, features=8)
    sigma = 1.0 / math.sqrt(2.0 * math.pi)
    assert perceptual_nll(I, I, ext, sigma) == pytest.approx(0.0, abs=1e-12)
    assert perceptual_nll(I, I, ext, 1.0) == \
        pytest.approx(0.5 * math.log(2.0 * math.pi), rel=1e-12)


def test_perceptual_matches_scalar_oracle():
    for seed in range(5):
        I_hat, I, _ = _images(seed, h=3, w=3, c=2)
        ext = PerceptualExtractor.from_seed(seed, I.shape, features=6)
        sigma = np.random.default_rng(seed).uniform(0.4, 1.2, 6)
        want = oracles.scalar_perceptual(I_hat, I, ext.weight, sigma)
        assert perceptual_nll(I_hat, I, ext, sigma) == \
            pytest.approx(want, rel=1e-12)


def test_extractor_deterministic_unit_rows():
    a = PerceptualExtractor.from_seed(7, (4, 4, 3), features=10)
    b = PerceptualExtractor.from_seed(7, (4, 4, 3), features=10)
    np.testing.assert_array_equal(a.weight, b.weight)
    np.testing.assert_allclose(np.linalg.norm(a.weight, axis=1), 1.0, rtol=1e-12)
    img = np.random.default_rng(0).uniform(size=(4, 4, 3))
    np.testing.assert_allclose(a.extract(2.0 * img), 2.0 * a.extract(img),
                               rtol=1e-12)


def test_perceptual_grad_vs_fd():
    I_hat, I, _ = _images(8, h=3, w=3, c=2)
    ext = PerceptualExtractor.from_seed(2, I.shape, features=6)
    val, grad = perceptual_nll_grad(I_hat, I, ext, 0.8)
    assert val == pytest.approx(perceptual_nll(I_hat, I, ext, 0.8), rel=1e-14)
    fd = oracles.fd_grad(lambda x: perceptual_nll(x, I, ext, 0.8), I_hat)
    assert oracles.rel_err(grad, fd) <= 1e-6


def test_perceptual_validation():
    I = np.zeros((2, 2, 1))
    ext = PerceptualExtractor.from_seed(0, I.shape, features=4)
    for sigma in (0.0, -1.0):
        with pytest.raises(DomainError):
            perceptual_nll(I, I, ext, sigma)
        with pytest.raises(DomainError):
            perceptual_nll_grad(I, I, ext, sigma)


# ---------------------------------------------------------------------------
# smoothness

def test_smoothness_constant_zero():
    assert smoothness_loss(DepthMap.from_values(np.full((4, 4), 5.0))) == 0.0
    assert smoothness_loss(DepthMap(np.full((4, 4), 5.0), 1.0, 9.0)) == 0.0


def test_smoothness_two_pixel_hand_value():
    d = DepthMap.from_values(np.array([[1.0, 3.0]]))
    assert smoothness_loss(d) == pytest.approx(0.5, rel=1e-12)


def test_smoothness_stored_range_normalization():
    v = np.array([[1.0, 2.0], [3.0, 2.5]])
    narrow = smoothness_loss(DepthMap(v, 1.0, 3.0))
    wide = smoothness_loss(DepthMap(v, 1.0, 5.0))
    assert wide == pytest.approx(narrow * 2.0 / 4.0, rel=1e-12)


def test_smoothness_scale_and_shift_invariance():
    rng = np.random.default_rng(1)
    v = rng.uniform(2.0, 6.0, (5, 6))
    base = smoothness_loss(DepthMap(v, 2.0, 6.0))
    assert smoothness_loss(DepthMap(3.0 * v, 6.0, 18.0)) == \
        pytest.approx(base, rel=1e-12)
    assert smoothness_loss(DepthMap(v + 4.0, 6.0, 10.0)) == \
        pytest.approx(base, rel=1e-12)


def test_smoothness_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    v = rng.uniform(1.0, 4.0, (4, 7))
    d = DepthMap(v, 1.0, 4.0)
    assert smoothness_loss(d) == \
        pytest.approx(oracles.scalar_smoothness(v, 1.0, 4.0), rel=1e-12)


def test_smoothness_grad_vs_fd():
    rng = np.random.default_rng(3)
    # strictly increasing values keep every difference away from the kink
    v = np.cumsum(rng.uniform(0.01, 0.3, 16)).reshape(4, 4) + 1.0
    d = DepthMap(v, 1.0, 10.0)
    val, grad = smoothness_grad(d)
    assert val == smoothness_loss(d)
    fd = oracles.fd_grad(lambda x: smoothness_loss(DepthMap(x, 1.0, 10.0)), v)
    assert oracles.rel_err(grad, fd) <= 1e-6
    zero_val, zero_grad = smoothness_grad(DepthMap(np.full((3, 3), 2.0), 2.0, 2.0))
    assert zero_val == 0.0
    np.testing.assert_array_equal(zero_grad, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# view variance

def test_view_variance_constant_batch():
    views = np.tile([0.3, -0.1, 0.8], (5, 1))
    assert view_variance_loss(views, (0.1, 0.1, 0.1)) == \
        pytest.approx(0.3, rel=1e-12)


def test_view_variance_spread_batch_zero():
    views = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])   # var 1 per axis
    assert view_variance_loss(views, (0.1, 0.2, 0.3)) == 0.0


def test_view_variance_mixed_axes():
    views = np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])     # var (0, 1, 0)
    assert view_variance_loss(views, (0.01, 0.04, 0.25)) == \
        pytest.approx(0.26, rel=1e-12)


def test_view_variance_validation():
    with pytest.raises(DomainError):
        view_variance_loss(np.zeros((1, 3)), (0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        view_variance_loss(np.zeros((4, 2)), (0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        view_variance_loss(np.zeros(3), (0.1, 0.1, 0.1))


def test_view_variance_grad_vs_fd():
    rng = np.random.default_rng(4)
    views = rng.normal(0.0, 0.05, (6, 3))
    thr = (0.1, 0.0001, 0.2)                  # axis 1 inactive, margins wide
    val, grad = view_variance_grad(views, thr)
    assert val == pytest.approx(view_variance_loss(views, thr), rel=1e-14)
    fd = oracles.fd_grad(lambda x: view_variance_loss(x, thr), views)
    assert oracles.rel_err(grad, fd) <= 1e-6
    np.testing.assert_array_equal(grad[:, 1], np.zeros(6))

