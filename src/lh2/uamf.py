"""Margin softmax over vMF similarities with an EMA-adaptive margin.

The margin follows the mean feature norm: a running estimate mu_norm is
updated per batch as

    mu_norm <- alpha * batch_mean + (1 - alpha) * mu_norm_prev
    margin   = margin_coeff * mu_norm

and the loss subtracts the margin from the true-class similarity before
the temperature division, then takes softmax cross-entropy.  Because the
per-sample normalizer terms of the similarity are shared across classes,
their gradient contributions cancel through the softmax; the chain rule
(sphere_math._similarity_grads, shared with vmf_similarity_grad) still
carries them.

Every sample-to-proxy quantity of a training step comes from one product
S = z W^T (ProxyProduct), which a batch builds on first use with a proxy
matrix and keeps: the similarities read the raw S, and the proxy losses
(proxy_losses) read the cosines S / (||z|| ||W||^T) of the same matrix.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from .errors import DomainError
from .sphere_math import _divide_rows, _similarity_grads, vmf_similarity_batch


@dataclasses.dataclass
class EmbeddingBatch:
    """N unnormalized feature vectors with integer class labels; norms,
    zhat, gram and the product with a proxy matrix are computed on first
    use and kept (z is never changed)."""

    z: np.ndarray
    labels: np.ndarray
    _product: Optional["ProxyProduct"] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise DomainError(f"z must be a nonempty N x d matrix, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise DomainError("z contains non-finite values")
        if labels.shape != (z.shape[0],):
            raise DomainError(f"labels shape {labels.shape} does not match N = {z.shape[0]}")
        if labels.min() < 0:
            raise DomainError("labels must be non-negative")
        self.z = z
        self.labels = labels

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.z, axis=1)

    @functools.cached_property
    def zhat(self) -> np.ndarray:
        """z scaled to unit rows; zero rows stay zero."""
        return _divide_rows(self.z, self.norms)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """N x N cosines between the samples."""
        return self.zhat @ self.zhat.T

    def product(self, proxies: "ProxyMatrix") -> "ProxyProduct":
        """The product with these proxies, built on the first call and kept
        until the batch meets another proxy matrix."""
        if self._product is None or self._product.proxies is not proxies:
            self._product = ProxyProduct(self, proxies)
        return self._product


@dataclasses.dataclass
class ProxyMatrix:
    """C unit-norm class proxies, one row per class; norms and unit are
    computed on first use, also for unvalidated finite-difference probes."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] < 1:
            raise DomainError(f"W must be a nonempty C x d matrix, got shape {W.shape}")
        self.W = W
        if not np.all(np.abs(self.norms - 1.0) <= 1e-6):   # nan fails too
            raise DomainError(f"proxy rows must be unit norm, worst deviation "
                              f"{np.abs(self.norms - 1.0).max():.3e}")

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.W, axis=1)

    @functools.cached_property
    def unit(self) -> np.ndarray:
        """W scaled to unit rows; zero rows stay zero."""
        return _divide_rows(self.W, self.norms)

    @staticmethod
    def from_rows(rows, norms=None) -> "ProxyMatrix":
        """Normalize arbitrary nonzero rows onto the sphere; norms, when
        given, are the rows' norms."""
        rows = np.asarray(rows, dtype=np.float64)
        if norms is None:
            norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            raise DomainError("zero proxy row")
        return ProxyMatrix(rows / norms[:, None])


class ProxyProduct:
    """S = z W^T of one batch against one proxy matrix, with the cosines
    S / (||z|| ||W||^T) read from it.  That quotient is the renormalized
    cosine also when W's rows are not unit; zero rows give zero cosines.
    The row norms are the batch's and the proxies' own."""

    def __init__(self, batch: EmbeddingBatch, proxies: ProxyMatrix):
        self.proxies = proxies
        self.z_norms = batch.norms
        self.S = batch.z @ proxies.W.T

    @functools.cached_property
    def cos(self) -> np.ndarray:
        """N x C cosines between the samples and the proxies."""
        nz, nw = self.z_norms, self.proxies.norms
        return self.S / np.outer(np.where(nz > 0.0, nz, 1.0),
                                 np.where(nw > 0.0, nw, 1.0))


@dataclasses.dataclass(frozen=True)
class NormTracker:
    """EMA of the batch-mean feature norm driving the adaptive margin."""

    mu_norm: float = 20.0
    alpha: float = 0.1

    def __post_init__(self):
        # alpha = 0 is a legal degenerate EMA (tracker frozen at its prior)
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mu_norm <= 0.0:
            raise DomainError(f"mu_norm must be positive, got {self.mu_norm}")


@dataclasses.dataclass
class LossReport:
    """A named loss total with per-term breakdown and gradients.

    total always equals the sum of terms; stats carries non-loss
    diagnostics (counts, fractions, degeneracy warnings).  A loss of the
    sample-to-proxy cosines asked for no gradients carries d total / d cos
    (N x C) as dcos instead of grad_z and grad_W.
    """

    total: float
    terms: dict
    grad_z: Optional[np.ndarray] = None
    grad_W: Optional[np.ndarray] = None
    stats: dict = dataclasses.field(default_factory=dict)
    dcos: Optional[np.ndarray] = None


def update_norm_tracker(tracker: NormTracker, batch: EmbeddingBatch,
                        margin_coeff: float = 0.35):
    """One EMA step on the mean feature norm; returns (tracker, margin)."""
    batch_mean = float(np.mean(batch.norms))
    mu = tracker.alpha * batch_mean + (1.0 - tracker.alpha) * tracker.mu_norm
    new = NormTracker(mu_norm=mu, alpha=tracker.alpha)
    return new, margin_coeff * mu


def uamf_loss(batch: EmbeddingBatch, proxies: ProxyMatrix, margin: float,
              tau: float, n: int, _logit_shift: float = 0.0) -> LossReport:
    """Softmax cross-entropy over vMF similarities with the true-class
    similarity reduced by the margin.

    Logits are (sim - margin * onehot) / tau + _logit_shift, shifted by
    their row maximum before the one exp; _logit_shift exists to exercise
    the shift invariance of the softmax and defaults to 0.  The
    similarities read the batch's product with the proxies, and grad_W is
    taken through the raw W, so it holds for rows off the sphere too.
    """
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if margin < 0.0:
        raise DomainError(f"margin must be non-negative, got {margin}")
    W = proxies.W
    C = W.shape[0]
    if C < 1:
        raise DomainError("need at least one class")
    if batch.labels.max() >= C:
        raise DomainError(f"label {batch.labels.max()} out of range for C = {C}")
    N = batch.z.shape[0]
    target = (np.arange(N), batch.labels)

    sims, _, ratio, scale = vmf_similarity_batch(batch.z, W, n,
                                                 batch.product(proxies).S, batch.norms)
    logits = sims / tau
    logits[target] -= margin / tau
    logits += _logit_shift
    logits -= logits.max(axis=1, keepdims=True)

    e = np.exp(logits)
    sum_e = e.sum(axis=1)
    loss = float(np.mean(np.log(sum_e) - logits[target]))
    coeff = e / sum_e[:, None]                   # the softmax p
    mean_target_prob = float(np.mean(coeff[target]))
    coeff[target] -= 1.0
    coeff /= N * tau                             # d loss / d sim_ij

    grad_z, grad_W = _similarity_grads(coeff, batch.z, batch.zhat, W, ratio, scale)
    return LossReport(total=loss, terms={"uamf": loss}, grad_z=grad_z, grad_W=grad_W,
                      stats={"clamped_rows": int(np.count_nonzero(scale != 1.0)),
                             "mean_target_prob": mean_target_prob})
