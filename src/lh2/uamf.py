"""Margin softmax over vMF similarities with an EMA-adaptive margin.

The margin follows the mean feature norm: a running estimate mu_norm is
updated per batch as

    mu_norm <- alpha * batch_mean + (1 - alpha) * mu_norm_prev
    margin   = margin_coeff * mu_norm

and the loss subtracts the margin from the true-class similarity before
the temperature division, then takes softmax cross-entropy.  The vMF
similarity kappa_i mu_j^T x_i + g(kappa_i), kappa_i = ||z_i||, is S_ij =
z_i . w_j plus a log-normalizer shared by every class of row i, which the
row softmax cancels: the loss reads S alone and evaluates no Bessel function.

Every sample-to-proxy quantity of a training step comes from one product
S = z W^T (ProxyProduct), which a batch builds on first use with a proxy
matrix and keeps: the similarities read the raw S, and the proxy losses
(proxy_losses) read the cosines S / (||z|| ||W||^T) of the same matrix.
Each such loss reports what its backward needs; the reports of a step add
up with +, and the first gradient read forms the adjoints and runs the one
backward, sphere_math._adjoint_grads.  A finite-difference probe that reads
the total only forms none.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from .errors import DomainError
from .sphere_math import _adjoint_grads, _divide_rows, _row_norms


@dataclasses.dataclass
class EmbeddingBatch:
    """N unnormalized feature vectors with integer class labels; norms,
    zhat, gram, the distinct-label mask and the product with a proxy matrix
    are computed on first use and kept (z is never changed)."""

    z: np.ndarray
    labels: np.ndarray
    _product: Optional["ProxyProduct"] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise DomainError(f"z must be a nonempty N x d matrix, got shape {z.shape}")
        if not np.isfinite(z).all():
            raise DomainError("z contains non-finite values")
        if labels.shape != (z.shape[0],):
            raise DomainError(f"labels shape {labels.shape} does not match N = {z.shape[0]}")
        if labels.min() < 0:
            raise DomainError("labels must be non-negative")
        self.z = z
        self.labels = labels

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return _row_norms(self.z)

    @functools.cached_property
    def zhat(self) -> np.ndarray:
        """z scaled to unit rows; zero rows stay zero."""
        return _divide_rows(self.z, self.norms)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """N x N cosines between the samples.  The product takes a
        contiguous copy of the transpose: BLAS's symmetric-product path for
        zhat zhat^T costs about twice the general one at these sizes."""
        return self.zhat @ np.ascontiguousarray(self.zhat.T)

    @functools.cached_property
    def distinct_labels(self) -> np.ndarray:
        """N x N mask of the sample pairs with different labels (False on
        the diagonal)."""
        return self.labels[:, None] != self.labels

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
    _selection: tuple = dataclasses.field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] < 1:
            raise DomainError(f"W must be a nonempty C x d matrix, got shape {W.shape}")
        self.W = W
        if not (np.abs(self.norms - 1.0) <= 1e-6).all():   # nan fails too
            raise DomainError(f"proxy rows must be unit norm, worst deviation "
                              f"{np.abs(self.norms - 1.0).max():.3e}")

    @functools.cached_property
    def norms(self) -> np.ndarray:
        return _row_norms(self.W)

    @functools.cached_property
    def unit(self) -> np.ndarray:
        """W scaled to unit rows; zero rows stay zero."""
        return _divide_rows(self.W, self.norms)

    def selection_gram(self, sel: np.ndarray):
        """(rows, gram): the unit rows in sel and their cosines with the
        diagonal zeroed, so that every entry is a pair and each pair counts
        twice.  Kept for the last selection: the spread tracker reads the
        proxies after an update, and the next step's pp_loss the same ones,
        with every proxy selected whenever C <= N."""
        kept = self._selection
        if not (kept and len(kept[0]) == len(sel) and (kept[0] == sel).all()):
            rows = self.unit[sel]
            gram = rows @ np.ascontiguousarray(rows.T)
            np.fill_diagonal(gram, 0.0)
            self._selection = kept = (sel, rows, gram)
        return kept[1:]

    @staticmethod
    def from_rows(rows, norms=None) -> "ProxyMatrix":
        """Normalize arbitrary nonzero rows onto the sphere; norms, when
        given, are the rows' norms."""
        rows = np.asarray(rows, dtype=np.float64)
        if norms is None:
            norms = _row_norms(rows)
        if (norms == 0.0).any():
            raise DomainError("zero proxy row")
        return ProxyMatrix(rows / norms[:, None])


class ProxyProduct:
    """S = z W^T of one batch against one proxy matrix, with the cosines
    S / (||z|| ||W||^T) read from it.  That quotient is the renormalized
    cosine also when W's rows are not unit; zero rows give zero cosines.
    The row norms are the batch's and the proxies' own.  target holds the
    flat indices of the entries (i, label_i) of the N x C arrays."""

    def __init__(self, batch: EmbeddingBatch, proxies: ProxyMatrix):
        self.proxies = proxies
        self.S = batch.z @ proxies.W.T
        N, C = self.S.shape
        self.target = np.arange(0, N * C, C) + batch.labels
        # the row norms with zeros read as 1, their outer product and the cosines
        self.nz, self.nw = (np.where(n > 0.0, n, 1.0) for n in (batch.norms, proxies.norms))
        self.denom = self.nz[:, None] * self.nw
        self.cos = self.S / self.denom

    def cos_adjoint(self, d_cos: np.ndarray):
        """The adjoint of a loss of the cosines from its d_cos: dS = d_cos /
        (||z|| ||w||), dnz = -sum_j d_cos cos / ||z||, dnw = -sum_i d_cos cos / ||w||."""
        return (d_cos / self.denom, -np.einsum("ij,ij->i", d_cos, self.cos) / self.nz,
                -np.einsum("ij,ij->j", d_cos, self.cos) / self.nw)


def _plus(a, b):
    return b if a is None else a if b is None else a + b


def _sum_parts(parts, width):
    """The entrywise sum of tuples of arrays in which None stands for a zero."""
    total = (None,) * width
    for part in parts:
        total = tuple(map(_plus, total, part))
    return total


@dataclasses.dataclass
class LossReport:
    """A named loss total with per-term breakdown and gradients.

    total always equals the sum of terms; stats carries non-loss values
    that callers read (fractions, cosines, the pp selection).  A loss keeps
    what its gradients need and forms them on the first read of grad_z or
    grad_W (None when nothing reaches them): d_cos, d loss / d cos of the
    batch's ProxyProduct (pps, pns); adjoint, callables each returning an
    adjoint (dS, dnz, dnw) of a loss of S, ||z|| and ||W|| (uamf); direct,
    callables each returning (grad_z, grad_W) with None for a side it does
    not reach (pp, sns).  a + b adds the losses of one batch and proxy
    matrix and sums their d_cos, so one read runs cos_adjoint once and one
    backward.
    """

    total: float
    terms: dict
    stats: dict = dataclasses.field(default_factory=dict)
    batch: Optional[EmbeddingBatch] = None
    proxies: Optional[ProxyMatrix] = None
    d_cos: Optional[np.ndarray] = None
    adjoint: tuple = ()
    direct: tuple = ()

    def __add__(self, other: "LossReport") -> "LossReport":
        batch, proxies = self.batch or other.batch, self.proxies or other.proxies
        # each side reads this same batch and proxy matrix, or none
        if (other.batch or batch) is not batch or (other.proxies or proxies) is not proxies:
            raise DomainError("cannot add reports of different batches or proxy matrices")
        return LossReport(self.total + other.total, {**self.terms, **other.terms},
                          {**self.stats, **other.stats}, batch, proxies,
                          _plus(self.d_cos, other.d_cos), self.adjoint + other.adjoint,
                          self.direct + other.direct)

    @functools.cached_property
    def _grads(self):
        b, p = self.batch, self.proxies
        adjoints = [part() for part in self.adjoint]
        if self.d_cos is not None:
            adjoints.append(b.product(p).cos_adjoint(self.d_cos))
        grads = (None, None)
        if adjoints:
            grads = _adjoint_grads(*_sum_parts(adjoints, 3), b.z, b.zhat, p.W, p.unit)
        return _sum_parts([grads, *(part() for part in self.direct)], 2)

    grad_z = property(lambda self: self._grads[0])
    grad_W = property(lambda self: self._grads[1])


def update_norm_tracker(mu_norm: float, batch: EmbeddingBatch, alpha: float,
                        margin_coeff: float):
    """One EMA step on the mean feature norm; returns (mu_norm, margin)."""
    norms = batch.norms
    mu = alpha * float(norms.sum() / len(norms)) + (1.0 - alpha) * mu_norm
    return mu, margin_coeff * mu


# exp rounds every argument below -745.1332 to exactly 0
_EXP_ZERO = -745.14


def uamf_loss(batch: EmbeddingBatch, proxies: ProxyMatrix, margin: float,
              tau: float) -> LossReport:
    """Softmax cross-entropy over vMF similarities with the true-class
    similarity reduced by the margin.

    Logits are (S - margin * onehot) / tau, S = z W^T the batch's product
    with the proxies: the similarity's normalizer g(||z_i||), a per-row
    shift, cancels in the softmax.  They are shifted by their row maximum
    before the one exp, which skips the lanes at or below _EXP_ZERO: their
    exp is 0, which numpy's exp reaches on a slow path, and at large
    feature norms most lanes are there.  grad_W is taken through the raw W,
    off the sphere too.
    """
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if margin < 0.0:
        raise DomainError(f"margin must be non-negative, got {margin}")
    C = proxies.W.shape[0]
    if batch.labels.max() >= C:
        raise DomainError(f"label {batch.labels.max()} out of range for C = {C}")
    N = batch.z.shape[0]
    product = batch.product(proxies)
    target = product.target

    logits = product.S / tau
    logits.ravel()[target] -= margin / tau
    logits -= logits.max(axis=1, keepdims=True)

    e = np.zeros(logits.shape)
    np.exp(logits, out=e, where=logits > _EXP_ZERO)
    sum_e = e.sum(axis=1)
    loss = float((np.log(sum_e) - logits.ravel()[target]).sum() / N)

    def adjoint():
        dS = e / sum_e[:, None]                  # the softmax p
        dS.ravel()[target] -= 1.0
        dS /= N * tau                            # d loss / d S_ij
        return dS, np.zeros(N), np.zeros(C)

    return LossReport(loss, {"uamf": loss}, batch=batch, proxies=proxies,
                      adjoint=(adjoint,))
