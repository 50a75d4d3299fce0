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
(proxy_losses) read the cosines S / ||z||, as the proxy rows are unit.
Each such loss reports what its backward needs; the reports of a step add
up with +, and the first gradient read forms the adjoints and runs the one
backward, sphere_math.adjoint_grads.  A finite-difference probe that reads
the total only forms none.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from .errors import DomainError
from .sphere_math import _reciprocals, _row_norms, adjoint_grads


@dataclasses.dataclass
class EmbeddingBatch:
    """N unnormalized feature vectors with integer class labels; the row
    norms and their reciprocals rnorms, which every use reads, and the largest
    label max_label are taken at construction, and zhat, gram, the
    distinct-label mask and the product with a proxy matrix on first use, and
    kept (z is never changed).  The norms are the features' one check: a row
    with a nan or inf entry, or whose sum of squares overflows, has none."""

    z: np.ndarray
    labels: np.ndarray
    _product: Optional["ProxyProduct"] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise DomainError(f"z must be a nonempty N x d matrix, got shape {z.shape}")
        self.norms = _row_norms(z)
        if not np.isfinite(self.norms).all():
            raise DomainError("z has a row whose norm is not finite or overflows")
        if labels.shape != (z.shape[0],):
            raise DomainError(f"labels shape {labels.shape} does not match N = {z.shape[0]}")
        if labels.min() < 0:
            raise DomainError("labels must be non-negative")
        self.z, self.labels, self.max_label = z, labels, int(labels.max())
        self.rnorms = _reciprocals(self.norms)

    @functools.cached_property
    def zhat(self) -> np.ndarray:
        """z scaled to unit rows; zero rows stay zero."""
        return self.z * self.rnorms[:, None]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """N x N cosines between the samples.  The product takes a
        contiguous copy of the transpose: BLAS's symmetric-product path for
        zhat zhat^T costs about twice the general one at these sizes."""
        return self.zhat @ np.ascontiguousarray(self.zhat.T)

    @functools.cached_property
    def distinct_labels(self) -> np.ndarray:
        """N x N mask of the sample pairs with different labels (False on
        the diagonal), compared as int32, twice as fast, when they fit."""
        labels = self.labels.astype(np.int32) if self.max_label < 2 ** 31 else self.labels
        return labels[:, None] != labels

    def product(self, proxies: "ProxyMatrix") -> "ProxyProduct":
        """The product with these proxies, built on the first call and kept
        until the batch meets another proxy matrix."""
        if self._product is None or self._product.proxies is not proxies:
            self._product = ProxyProduct(self, proxies)
        return self._product


def _proxy_rows(W) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 1:
        raise DomainError(f"W must be a nonempty C x d matrix, got shape {W.shape}")
    return W


# below this norm a row's sum of squares is subnormal: its quotient is not unit
_MIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


@dataclasses.dataclass
class ProxyMatrix:
    """C class proxies, one unit-norm row per class.  The constructor checks
    the rows to 1e-12, the error bound of every cosine read from them, since
    no loss renormalizes them; from_rows divides rows onto the sphere."""

    W: np.ndarray

    def __post_init__(self):
        self.W = _proxy_rows(self.W)
        deviation = np.abs(_row_norms(self.W) - 1.0)
        if not (deviation <= 1e-12).all():   # nan fails too
            raise DomainError(f"proxy rows must be unit norm, worst deviation "
                              f"{deviation.max():.3e}")

    def selection_gram(self, sel):
        """(rows, gram): the rows in sel (an index array or a slice) and
        their cosines with the diagonal zeroed, so that every entry is a
        pair and each pair counts twice."""
        rows = self.W[sel]
        gram = rows @ np.ascontiguousarray(rows.T)
        gram.ravel()[::len(gram) + 1] = 0.0        # the diagonal
        return rows, gram

    @staticmethod
    def from_rows(rows) -> "ProxyMatrix":
        """Divide rows, such as the updated proxies, by their norms onto the
        sphere: their one check.  A norm that is not finite or below _MIN_NORM
        raises a DomainError naming the first such row before anything is
        divided."""
        rows = _proxy_rows(rows)
        norms = _row_norms(rows)
        ok = (norms >= _MIN_NORM) & (norms < np.inf)    # nan fails too
        if not ok.all():
            row = int(np.argmin(ok))
            raise DomainError(f"proxy row {row} has norm {norms[row]:.3e}; a proxy row "
                              f"needs a finite norm of at least {_MIN_NORM:.3e}")
        proxies = ProxyMatrix.__new__(ProxyMatrix)
        proxies.W = rows / norms[:, None]
        return proxies


class ProxyProduct:
    """S = z W^T of one batch against one proxy matrix, with the cosines
    S / ||z|| read from it: the proxies' rows are unit.  Zero rows of z give
    zero cosines.  starts and target hold the flat indices of the entries
    (i, 0) and (i, label_i) of the N x C arrays; a label of C or more is a
    DomainError, so that no reader of target reads another row's entry."""

    def __init__(self, batch: EmbeddingBatch, proxies: ProxyMatrix):
        C = proxies.W.shape[0]
        if batch.max_label >= C:
            raise DomainError(f"label {batch.max_label} out of range for C = {C}")
        self.proxies = proxies
        # a contiguous W^T gives the same bits a fifth faster at desk sizes
        self.S = batch.z @ np.ascontiguousarray(proxies.W.T)
        self.starts = np.arange(0, self.S.size, C)
        self.target = self.starts + batch.labels
        self.rz = batch.rnorms                 # cos and dS are products
        self.cos = self.S * self.rz[:, None]

    def cos_adjoint(self, d_cos: np.ndarray):
        """The adjoint of a loss of the cosines from its d_cos: dS = d_cos /
        ||z||, dnz = -sum_j d_cos cos / ||z|| and dnw = -sum_i d_cos cos, the
        part through the proxies' normalization, at their unit norms."""
        return (d_cos * self.rz[:, None], -np.einsum("ij,ij->i", d_cos, self.cos) * self.rz,
                -np.einsum("ij,ij->j", d_cos, self.cos))


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
    that callers read (fractions, cosines, the pp Gram).  A loss keeps
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
            grads = adjoint_grads(*_sum_parts(adjoints, 3), b.z, b.zhat, p.W)
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
    shift, cancels in the softmax.  They are shifted by their row maximum,
    read at the row's argmax, before the one exp.  Only when some lane is
    at or below _EXP_ZERO does the exp skip those lanes: their exp is 0,
    which numpy's exp reaches on a slow path, and at large feature norms
    most lanes are there.  grad_W is taken through the raw W, off the
    sphere too.  The batch checks the norms and the product the labels.
    """
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    if margin < 0.0:
        raise DomainError(f"margin must be non-negative, got {margin}")
    N = batch.z.shape[0]
    product = batch.product(proxies)
    target = product.target

    logits = product.S / tau
    logits.ravel()[target] -= margin / tau
    logits -= logits.ravel()[product.starts + logits.argmax(axis=1)][:, None]

    if logits.min() > _EXP_ZERO:
        e = np.exp(logits)
    else:
        e = np.zeros(logits.shape)
        np.exp(logits, out=e, where=logits > _EXP_ZERO)
    sum_e = e.sum(axis=1)
    loss = float((np.log(sum_e) - logits.ravel()[target]).sum() / N)

    def adjoint():
        # d loss / d S_ij = (p_ij - [j = label_i]) / (N tau), p the softmax
        dS = e * (1.0 / (N * tau * sum_e))[:, None]
        dS.ravel()[target] -= 1.0 / (N * tau)
        return dS, None, None                    # S alone: no norm parts

    return LossReport(loss, {"uamf": loss}, batch=batch, proxies=proxies,
                      adjoint=(adjoint,))
