"""Reconstruction loss family: Laplace NLL on masked residuals, a
perceptual Gaussian-form NLL over extracted features, depth smoothness
and view variance.

Note on the perceptual term: the formula pairs an absolute difference in
the exponent numerator with a 2 sigma^2 denominator and a Gaussian
normalizer.  As a true Gaussian NLL that is dimensionally inconsistent,
but it is implemented verbatim here; only the printed form is the
contract.

The feature extractor is a fixed seeded linear map standing in for a
perceptual network: the losses are agnostic to where features come from,
and only the formulas are under test at desk scale.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)


@dataclasses.dataclass
class PerceptualExtractor:
    """Deterministic unit-row linear map from a flattened image to a small
    feature vector."""

    weight: np.ndarray

    @staticmethod
    def from_seed(seed: int, image_shape, features: int = 64) -> "PerceptualExtractor":
        rng = np.random.default_rng(seed)
        flat = int(np.prod(image_shape))
        w = rng.standard_normal((features, flat))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        return PerceptualExtractor(weight=w)

    def extract(self, image) -> np.ndarray:
        return self.weight @ np.asarray(image, dtype=np.float64).ravel()


def _masked_channels(I_hat, I, sigma, mask):
    I_hat = np.asarray(I_hat, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    if I_hat.shape != I.shape:
        raise DomainError(f"image shapes differ: {I_hat.shape} vs {I.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != I.shape[:2]:
        raise DomainError(f"mask shape {mask.shape} does not match image {I.shape}")
    if not np.any(mask):
        raise DomainError("empty mask")
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), I.shape)
    if np.any(sigma <= 0.0):
        raise DomainError("sigma must be positive")
    return I_hat, I, sigma, mask


def laplace_nll(I_hat, I, sigma, mask) -> float:
    """Mean over masked pixel-channels of ln(sqrt(2) sigma)
    + sqrt(2) |I_hat - I| / sigma."""
    I_hat, I, sigma, mask = _masked_channels(I_hat, I, sigma, mask)
    term = np.log(_SQRT2 * sigma) + _SQRT2 * np.abs(I_hat - I) / sigma
    return float(np.mean(term[mask]))


def laplace_nll_grad(I_hat, I, sigma, mask) -> np.ndarray:
    """The gradient of laplace_nll wrt I_hat; it is undefined at exactly
    zero residual, where sign() contributes 0."""
    I_hat, I, sigma, mask = _masked_channels(I_hat, I, sigma, mask)
    resid = I_hat - I
    m = int(np.sum(mask)) * I.shape[2]
    grad = np.zeros_like(I_hat)
    grad[mask] = _SQRT2 * np.sign(resid[mask]) / sigma[mask] / m
    return grad


def _feature_residual(I_hat, I, extractor: PerceptualExtractor, feature_sigma):
    """(e(I_hat) - e(I), the feature sigmas broadcast to it), the sigmas
    checked positive."""
    de = extractor.extract(I_hat) - extractor.extract(I)
    sigma = np.broadcast_to(np.asarray(feature_sigma, dtype=np.float64), de.shape)
    if np.any(sigma <= 0.0):
        raise DomainError("feature_sigma must be positive")
    return de, sigma


def perceptual_nll(I_hat, I, extractor: PerceptualExtractor, feature_sigma) -> float:
    """Mean over features of 0.5 ln(2 pi sigma^2) + |e(I_hat) - e(I)| /
    (2 sigma^2), with the printed absolute-difference form kept as is."""
    de, sigma = _feature_residual(I_hat, I, extractor, feature_sigma)
    return float(np.mean(0.5 * np.log(2.0 * math.pi * sigma ** 2)
                         + np.abs(de) / (2.0 * sigma ** 2)))


def perceptual_nll_grad(I_hat, I, extractor: PerceptualExtractor,
                        feature_sigma) -> np.ndarray:
    """The gradient of perceptual_nll wrt I_hat, exact through the linear
    extractor."""
    de, sigma = _feature_residual(I_hat, I, extractor, feature_sigma)
    coeff = np.sign(de) / (2.0 * sigma ** 2) / de.size
    return (extractor.weight.T @ coeff).reshape(np.shape(I_hat))


def smoothness_loss(v, rng: float) -> float:
    """(1/N) sum of |vertical differences| plus (1/N) sum of |horizontal
    differences| of the depth values v, each normalized by the depth range
    rng, a constant of the map such as its own max - min; 0 for a range of
    0 or less, as a constant map's own."""
    if rng <= 0.0:
        return 0.0
    v = np.asarray(v, dtype=np.float64)
    vert = np.abs(np.diff(v, axis=0)).sum()
    horiz = np.abs(np.diff(v, axis=1)).sum()
    return float((vert + horiz) / (rng * v.size))


def smoothness_grad(v, rng: float) -> np.ndarray:
    """The gradient of smoothness_loss(v, rng) wrt the depth values v."""
    v = np.asarray(v, dtype=np.float64)
    grad = np.zeros_like(v)
    if rng <= 0.0:
        return grad
    sv = np.sign(v[1:, :] - v[:-1, :])
    sh = np.sign(v[:, 1:] - v[:, :-1])
    grad[1:, :] += sv
    grad[:-1, :] -= sv
    grad[:, 1:] += sh
    grad[:, :-1] -= sh
    grad /= rng * v.size
    return grad


def _view_gaps(view_batch, thresholds):
    """(views, threshold - population variance of the angles, per axis) of
    a B x 3 view batch, B >= 2."""
    views = np.asarray(view_batch, dtype=np.float64)
    if views.ndim != 2 or views.shape[1] != 3 or views.shape[0] < 2:
        raise DomainError(f"view batch must be B x 3 with B >= 2, got {views.shape}")
    return views, np.asarray(thresholds, dtype=np.float64).reshape(3) - views.var(axis=0)


def view_variance_loss(view_batch, thresholds) -> float:
    """Sum over the three rotation axes of ReLU(threshold - population
    variance of the batch's angles); axis 2 (frontal to profile) carries
    the widest intended range."""
    _, gaps = _view_gaps(view_batch, thresholds)
    return float(np.sum(np.maximum(gaps, 0.0)))


def view_variance_grad(view_batch, thresholds) -> np.ndarray:
    """The gradient of view_variance_loss wrt the angles, zero on axes whose
    variance already clears the threshold."""
    views, gaps = _view_gaps(view_batch, thresholds)
    return np.where((gaps > 0.0)[None, :], -2.0 * (views - views.mean(axis=0)) / len(views),
                    0.0)
