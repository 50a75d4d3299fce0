"""Margin softmax over vMF similarities with an EMA-adaptive margin.

The margin follows the mean feature norm: a running estimate mu_norm is
updated per batch as

    mu_norm <- alpha * batch_mean + (1 - alpha) * mu_norm_prev
    margin   = margin_coeff * mu_norm

and the loss subtracts the margin from the true-class similarity before
the temperature division, then takes softmax cross-entropy.  Because the
per-sample normalizer terms of the similarity are shared across classes,
their gradient contributions cancel through the softmax; the adjoint
(sphere_math._similarity_adjoint) still carries them.

Every sample-to-proxy quantity of a training step comes from one product
S = z W^T (ProxyProduct), which a batch builds on first use with a proxy
matrix and keeps: the similarities read the raw S, and the proxy losses
(proxy_losses) read the cosines S / (||z|| ||W||^T) of the same matrix.
Each such loss reports its adjoint; the reports of a step add up with +, and
their gradients run the one backward, sphere_math._adjoint_grads, on first read.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from .errors import DomainError
from .sphere_math import (_adjoint_grads, _divide_rows, _similarity_adjoint,
                          vmf_similarity_batch)


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
        self.S = batch.z @ proxies.W.T
        # the row norms with zeros read as 1, their outer product and the cosines
        self.nz, self.nw = (np.where(n > 0.0, n, 1.0) for n in (batch.norms, proxies.norms))
        self.denom = np.outer(self.nz, self.nw)
        self.cos = self.S / self.denom

    def cos_adjoint(self, d_cos: np.ndarray):
        """The adjoint of a loss of the cosines from its d_cos: dS = d_cos /
        (||z|| ||w||), dnz = -sum_j d_cos cos / ||z||, dnw = -sum_i d_cos cos / ||w||."""
        return (d_cos / self.denom, -np.einsum("ij,ij->i", d_cos, self.cos) / self.nz,
                -np.einsum("ij,ij->j", d_cos, self.cos) / self.nw)


def _plus(a, b):
    return b if a is None else a if b is None else a + b


@dataclasses.dataclass
class LossReport:
    """A named loss total with per-term breakdown and gradients.

    total always equals the sum of terms; stats carries non-loss values
    that callers read (fractions, cosines, the pp selection).  A loss of S,
    ||z|| and ||W|| carries its adjoint (dS, dnz, dnw), pp and sns their
    gradients as direct (grad_z, grad_W); grad_z and grad_W sum both on first
    read (None when nothing reaches them).  a + b adds the losses of one
    batch and proxy matrix.
    """

    total: float
    terms: dict
    stats: dict = dataclasses.field(default_factory=dict)
    batch: Optional[EmbeddingBatch] = None
    proxies: Optional[ProxyMatrix] = None
    adjoint: tuple = (None, None, None)
    direct: tuple = (None, None)

    def __add__(self, other: "LossReport") -> "LossReport":
        batch, proxies = self.batch or other.batch, self.proxies or other.proxies
        # each side reads this same batch and proxy matrix, or none
        if (other.batch or batch) is not batch or (other.proxies or proxies) is not proxies:
            raise DomainError("cannot add reports of different batches or proxy matrices")
        return LossReport(self.total + other.total, {**self.terms, **other.terms},
                          {**self.stats, **other.stats}, batch, proxies,
                          tuple(map(_plus, self.adjoint, other.adjoint)),
                          tuple(map(_plus, self.direct, other.direct)))

    @functools.cached_property
    def _grads(self):
        if self.adjoint[0] is None:
            return self.direct
        b, p = self.batch, self.proxies
        return tuple(map(_plus, _adjoint_grads(*self.adjoint, b.z, b.zhat, p.W, p.unit),
                         self.direct))

    grad_z = property(lambda self: self._grads[0])
    grad_W = property(lambda self: self._grads[1])


def update_norm_tracker(mu_norm: float, batch: EmbeddingBatch, alpha: float,
                        margin_coeff: float):
    """One EMA step on the mean feature norm; returns (mu_norm, margin)."""
    mu = alpha * float(np.mean(batch.norms)) + (1.0 - alpha) * mu_norm
    return mu, margin_coeff * mu


def uamf_loss(batch: EmbeddingBatch, proxies: ProxyMatrix, margin: float,
              tau: float, n: int) -> LossReport:
    """Softmax cross-entropy over vMF similarities with the true-class
    similarity reduced by the margin.

    Logits are (sim - margin * onehot) / tau, shifted by their row maximum
    before the one exp.  The similarities read the batch's product with
    the proxies, and grad_W is taken through the raw W, so it holds for
    rows off the sphere too.
    """
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if margin < 0.0:
        raise DomainError(f"margin must be non-negative, got {margin}")
    C = proxies.W.shape[0]
    if C < 1:
        raise DomainError("need at least one class")
    if batch.labels.max() >= C:
        raise DomainError(f"label {batch.labels.max()} out of range for C = {C}")
    N = batch.z.shape[0]
    target = (np.arange(N), batch.labels)

    S = batch.product(proxies).S
    sims, _, ratio, scale = vmf_similarity_batch(S, batch.norms, n)
    logits = sims / tau
    logits[target] -= margin / tau
    logits -= logits.max(axis=1, keepdims=True)

    e = np.exp(logits)
    sum_e = e.sum(axis=1)
    loss = float(np.mean(np.log(sum_e) - logits[target]))
    coeff = e / sum_e[:, None]                   # the softmax p
    mean_target_prob = float(np.mean(coeff[target]))
    coeff[target] -= 1.0
    coeff /= N * tau                             # d loss / d sim_ij

    return LossReport(loss, {"uamf": loss},
                      {"clamped_rows": int(np.count_nonzero(scale != 1.0)),
                       "mean_target_prob": mean_target_prob}, batch, proxies,
                      _similarity_adjoint(coeff, S, ratio, scale))
