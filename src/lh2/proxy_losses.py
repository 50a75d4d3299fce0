"""Proxy-based absolute-distance regularizers and the epoch-mid schedule.

Three losses constrain cosines directly rather than through the softmax:

    pps  pulls positive cosines below the epoch mid up toward it
    pns  pushes sample-to-negative-proxy cosines toward 0 (squared)
    pp   pushes proxy-to-proxy cosines toward 0 (squared) on a selection
         of the batch's proxies plus randomly sampled ones

plus the sample-to-sample sns variant (first power, disabled by default).
pps and pns read their cosines from the batch's product with the proxies
(uamf.ProxyProduct), the same S = z W^T the margin softmax reads, so the
cosines are renormalized on both sides.  Each computes its d loss / d cos
as an N x C matrix; proxy_based_total sums the two and takes the sum
through the quotient rule once.  One helper, _quotient_rule, applies the
full quotient rule to both sides and to the pp and sns Gram matrices, so
gradients hold even when inputs drift slightly off the sphere.

The epoch mid is the clipped mean positive cosine of the previous epoch,
accumulated with observe_positive_cosines from the cosines pps_loss reports
and rolled with end_epoch.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DomainError
from .sphere_math import _divide_rows
from .sphere_stats import _distinct_label_pairs, _selection_gram
from .uamf import EmbeddingBatch, LossReport, ProxyMatrix


@dataclasses.dataclass(frozen=True)
class ProxyLossConfig:
    lambda_pps: float = 5.0
    lambda_pns: float = 20.0
    lambda_pp: float = 150.0
    lambda_sns: float = 150.0
    sns_enabled: bool = False
    cos_min: float = 0.5
    cos_max: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.cos_min <= self.cos_max <= 1.0:
            raise DomainError(f"need 0 <= cos_min <= cos_max <= 1, got "
                              f"({self.cos_min}, {self.cos_max})")
        for name in ("lambda_pps", "lambda_pns", "lambda_pp", "lambda_sns"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be non-negative")


@dataclasses.dataclass(frozen=True)
class EpochMidState:
    """Clipped mean positive cosine of the previous epoch plus the running
    accumulator for the current one."""

    mid: float
    acc_sum: float = 0.0
    acc_count: int = 0

    @staticmethod
    def initial(cfg: ProxyLossConfig) -> "EpochMidState":
        return EpochMidState(mid=cfg.cos_min)


def positive_cosines(batch: EmbeddingBatch, proxies: ProxyMatrix) -> np.ndarray:
    """cos between each sample and its own class proxy."""
    return batch.product(proxies).cos[np.arange(len(batch.labels)), batch.labels]


def observe_positive_cosines(state: EpochMidState, cos: np.ndarray,
                             strict: bool = False) -> EpochMidState:
    """Accumulate a batch's positive cosines (pps_loss reports them as
    stats["positive_cos"]) for the next epoch-mid update.

    Default tracks every sample in the batch; strict mode tracks only the
    batch's first sample (the literal low-variance-unfriendly reading of
    the schedule).
    """
    if strict:
        cos = cos[:1]
    return EpochMidState(mid=state.mid,
                         acc_sum=state.acc_sum + float(np.sum(cos)),
                         acc_count=state.acc_count + len(cos))


def end_epoch(state: EpochMidState, cfg: ProxyLossConfig) -> EpochMidState:
    """Roll the accumulated mean into the mid, clipped to [cos_min, cos_max];
    an empty accumulator leaves the mid unchanged."""
    if state.acc_count == 0:
        return EpochMidState(mid=state.mid)
    mean = state.acc_sum / state.acc_count
    return EpochMidState(mid=float(np.clip(mean, cfg.cos_min, cfg.cos_max)))


def _quotient_rule(dcos, cos, other_unit, own_unit, own_norms):
    """d loss / d own rows from d loss / d cos for cosines
    cos_ij = own_i . other_j / (||own_i|| ||other_j||):
    (dcos @ other_unit - sum_j dcos_ij cos_ij own_unit_i) / ||own_i||."""
    weight = np.einsum("ij,ij->i", dcos, cos)
    return _divide_rows(dcos @ other_unit - weight[:, None] * own_unit, own_norms)


def _cosine_grads(batch: EmbeddingBatch, proxies: ProxyMatrix, dcos: np.ndarray):
    """(grad_z, grad_W) of a loss of the sample-to-proxy cosines from its
    d loss / d cos (N x C), by the quotient rule on both sides."""
    cos = batch.product(proxies).cos
    zhat, what = batch.zhat, proxies.unit
    return (_quotient_rule(dcos, cos, what, zhat, batch.norms),
            _quotient_rule(dcos.T, cos.T, zhat, what, proxies.norms))


def _cosine_report(batch, proxies, name, loss, dcos, stats, grads) -> LossReport:
    if not grads:
        return LossReport(loss, {name: loss}, stats=stats, dcos=dcos)
    return LossReport(loss, {name: loss}, *_cosine_grads(batch, proxies, dcos), stats)


def pps_loss(batch: EmbeddingBatch, proxies: ProxyMatrix, state: EpochMidState,
             cfg: ProxyLossConfig, grads: bool = True) -> LossReport:
    """lambda_pps * mean over samples with cos < mid of (cos - mid)^2.

    The mid is a constant of the epoch; gradients flow through the cosines
    only.  Zero when no sample sits below the mid.  stats["positive_cos"]
    holds the batch's positive cosines for the epoch-mid accumulator.
    grads=False reports d loss / d cos as dcos in place of grad_z and
    grad_W.
    """
    N, C = batch.z.shape[0], proxies.W.shape[0]
    cos = positive_cosines(batch, proxies)
    n_left = int(np.count_nonzero(cos < state.mid))
    stats = {"below_frac": n_left / N, "positive_cos": cos}
    loss = 0.0
    dcos = np.zeros((N, C))
    if n_left > 0:
        resid = np.minimum(cos - state.mid, 0.0)     # 0 at or above the mid
        loss = cfg.lambda_pps * float(resid @ resid) / n_left
        dcos[np.arange(N), batch.labels] = (cfg.lambda_pps * 2.0 / n_left) * resid
    return _cosine_report(batch, proxies, "pps", loss, dcos, stats, grads)


def pns_loss(batch: EmbeddingBatch, proxies: ProxyMatrix,
             cfg: ProxyLossConfig, grads: bool = True) -> LossReport:
    """lambda_pns * sum over samples and non-target proxies of cos^2,
    divided by N * (C - 1).  grads=False reports d loss / d cos as dcos in
    place of grad_z and grad_W."""
    N, C = batch.z.shape[0], proxies.W.shape[0]
    if C < 2:
        return _cosine_report(batch, proxies, "pns", 0.0, np.zeros((N, C)), {}, grads)
    dcos = batch.product(proxies).cos.copy()
    dcos[np.arange(N), batch.labels] = 0.0
    denom = N * (C - 1)
    loss = cfg.lambda_pns * float(np.vdot(dcos, dcos)) / denom
    dcos *= cfg.lambda_pns * 2.0 / denom
    return _cosine_report(batch, proxies, "pns", loss, dcos, {}, grads)


def pp_selection(batch_labels, C: int, rng: np.random.Generator) -> np.ndarray:
    """Union of the batch's distinct proxies and N uniformly sampled ones
    (without replacement, deduplicated), sorted for determinism."""
    labels = np.asarray(batch_labels, dtype=np.int64)
    chosen = np.zeros(C, dtype=bool)
    chosen[labels] = True
    chosen[rng.choice(C, size=min(len(labels), C), replace=False)] = True
    return np.flatnonzero(chosen)


def pp_loss(batch_labels, proxies: ProxyMatrix, cfg: ProxyLossConfig,
            rng: np.random.Generator) -> LossReport:
    """lambda_pp * mean over unordered proxy pairs in the selection of
    cos^2; gradient with respect to the proxies only."""
    C = proxies.W.shape[0]
    if C < 2:
        return LossReport(0.0, {"pp": 0.0}, None, np.zeros_like(proxies.W),
                          {"pp_selection": np.arange(C, dtype=np.int64)})
    sel = pp_selection(batch_labels, C, rng)
    k = len(sel)
    if k < 2:
        return LossReport(0.0, {"pp": 0.0}, None, np.zeros_like(proxies.W),
                          {"pp_selection": sel})
    ws, gram = _selection_gram(proxies.unit, sel)
    npairs = k * (k - 1) // 2
    loss = cfg.lambda_pp * float(np.vdot(gram, gram)) / (2 * npairs)
    dcos = (cfg.lambda_pp * 2.0 / npairs) * gram
    grad_W = np.zeros_like(proxies.W)
    grad_W[sel] = _quotient_rule(dcos, gram, ws, ws, proxies.norms[sel])
    return LossReport(loss, {"pp": loss}, None, grad_W, {"pp_selection": sel})


def sns_loss(batch: EmbeddingBatch, cfg: ProxyLossConfig) -> LossReport:
    """lambda_sns * mean over distinct-label sample pairs of cos (first
    power); off by default since it buys nothing in practice.  It reads the
    batch's Gram matrix, which sphere_stats.sns_tracker reads too."""
    pair, ordered = _distinct_label_pairs(batch.labels)
    if ordered == 0:
        return LossReport(0.0, {"sns": 0.0}, np.zeros_like(batch.z))
    gram = batch.gram
    loss = cfg.lambda_sns * float(np.sum(gram, where=pair)) / ordered
    dcos = (cfg.lambda_sns * 2.0 / ordered) * pair   # symmetric; each pair once in the loss
    grad_z = _quotient_rule(dcos, gram, batch.zhat, batch.zhat, batch.norms)
    return LossReport(loss, {"sns": loss}, grad_z)


def proxy_based_total(batch: EmbeddingBatch, proxies: ProxyMatrix,
                      state: EpochMidState, cfg: ProxyLossConfig,
                      rng: np.random.Generator) -> LossReport:
    """Sum of the enabled components; the term map keeps each value.  pps
    and pns report d loss / d cos, and their sum goes through the quotient
    rule once."""
    reports = [pps_loss(batch, proxies, state, cfg, grads=False),
               pns_loss(batch, proxies, cfg, grads=False)]
    grad_z, grad_W = _cosine_grads(batch, proxies, reports[0].dcos + reports[1].dcos)
    reports.append(pp_loss(batch.labels, proxies, cfg, rng))
    if cfg.sns_enabled:
        reports.append(sns_loss(batch, cfg))

    terms = {}
    stats = {}
    total = 0.0
    for rep in reports:
        terms.update(rep.terms)
        stats.update(rep.stats)
        total += rep.total
        if rep.grad_z is not None:
            grad_z += rep.grad_z
        if rep.grad_W is not None:
            grad_W += rep.grad_W
    return LossReport(total, terms, grad_z, grad_W, stats)
