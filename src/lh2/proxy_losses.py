"""Proxy-based absolute-distance regularizers and the epoch-mid schedule.

Three losses constrain cosines directly rather than through the softmax:

    pps  pulls positive cosines below the epoch mid up toward it
    pns  pushes sample-to-negative-proxy cosines toward 0 (squared)
    pp   pushes proxy-to-proxy cosines toward 0 (squared) on a selection
         of the batch's proxies plus randomly sampled ones

plus the sample-to-sample sns variant (first power, disabled by default).
All cosines are computed on renormalized features and proxies; gradients
use the full quotient rule on both sides, so they hold even when inputs
drift slightly off the sphere.

The epoch mid is the clipped mean positive cosine of the previous epoch,
accumulated with observe_positive_cosines from the cosines pps_loss reports
and rolled with end_epoch.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DomainError
from .sphere_math import _divide_rows
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
    mid_strict_mode: bool = False

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
    return np.sum(batch.zhat * proxies.unit[batch.labels], axis=1)


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


def pps_loss(batch: EmbeddingBatch, proxies: ProxyMatrix, state: EpochMidState,
             cfg: ProxyLossConfig) -> LossReport:
    """lambda_pps * mean over samples with cos < mid of (cos - mid)^2.

    The mid is a constant of the epoch; gradients flow through the cosines
    only.  Zero when no sample sits below the mid.  stats["positive_cos"]
    holds the batch's positive cosines for the epoch-mid accumulator.
    """
    N, _ = batch.z.shape
    cos = positive_cosines(batch, proxies)
    left = cos < state.mid
    n_left = int(np.sum(left))
    stats = {"below_frac": n_left / N, "n_left": n_left, "positive_cos": cos}
    if n_left == 0:
        return LossReport(0.0, {"pps": 0.0}, np.zeros_like(batch.z),
                          np.zeros_like(proxies.W), stats)
    resid = cos[left] - state.mid
    loss = cfg.lambda_pps * float(np.mean(resid ** 2))
    dcos = np.zeros(N)
    dcos[left] = cfg.lambda_pps * 2.0 * resid / n_left

    zhat = batch.zhat
    wy = proxies.unit[batch.labels]
    grad_z = _divide_rows(dcos[:, None] * (wy - cos[:, None] * zhat), batch.norms)
    grad_W = np.zeros_like(proxies.W)
    contrib = dcos[:, None] * (zhat - cos[:, None] * wy) \
        / proxies.norms[batch.labels, None]
    np.add.at(grad_W, batch.labels, contrib)
    return LossReport(loss, {"pps": loss}, grad_z, grad_W, stats)


def pns_loss(batch: EmbeddingBatch, proxies: ProxyMatrix,
             cfg: ProxyLossConfig) -> LossReport:
    """lambda_pns * sum over samples and non-target proxies of cos^2,
    divided by N * (C - 1)."""
    C = proxies.W.shape[0]
    N = batch.z.shape[0]
    if C < 2:
        return LossReport(0.0, {"pns": 0.0}, np.zeros_like(batch.z),
                          np.zeros_like(proxies.W), {"pns_degenerate_C": True})
    zhat, what = batch.zhat, proxies.unit
    cos = zhat @ what.T
    negmask = np.ones_like(cos)
    negmask[np.arange(N), batch.labels] = 0.0
    denom = N * (C - 1)
    loss = cfg.lambda_pns * float(np.sum((cos * negmask) ** 2)) / denom

    dcos = cfg.lambda_pns * 2.0 * cos * negmask / denom
    grad_z = _divide_rows(dcos @ what - np.sum(dcos * cos, axis=1, keepdims=True) * zhat,
                          batch.norms)
    grad_W = (dcos.T @ zhat - np.sum(dcos * cos, axis=0)[:, None] * what) \
        / proxies.norms[:, None]
    return LossReport(loss, {"pns": loss}, grad_z, grad_W)


def pp_selection(batch_labels, C: int, rng: np.random.Generator) -> np.ndarray:
    """Union of the batch's distinct proxies and N uniformly sampled ones
    (without replacement, deduplicated), sorted for determinism."""
    labels = np.asarray(batch_labels, dtype=np.int64)
    n_sample = min(len(labels), C)
    sampled = rng.choice(C, size=n_sample, replace=False)
    return np.union1d(np.unique(labels), sampled)


def pp_loss(batch_labels, proxies: ProxyMatrix, cfg: ProxyLossConfig,
            rng: np.random.Generator) -> LossReport:
    """lambda_pp * mean over unordered proxy pairs in the selection of
    cos^2; gradient with respect to the proxies only."""
    C = proxies.W.shape[0]
    if C < 2:
        return LossReport(0.0, {"pp": 0.0}, None, np.zeros_like(proxies.W),
                          {"pp_degenerate_C": True,
                           "pp_selection": np.arange(C, dtype=np.int64)})
    sel = pp_selection(batch_labels, C, rng)
    k = len(sel)
    if k < 2:
        return LossReport(0.0, {"pp": 0.0}, None, np.zeros_like(proxies.W),
                          {"pp_selection_size": k, "pp_selection": sel})
    ws = proxies.unit[sel]
    gram = ws @ ws.T
    iu = np.triu_indices(k, 1)
    npairs = k * (k - 1) // 2
    loss = cfg.lambda_pp * float(np.mean(gram[iu] ** 2))

    dcos = cfg.lambda_pp * 2.0 * gram / npairs
    np.fill_diagonal(dcos, 0.0)
    grad_sel = (dcos @ ws - np.sum(dcos * gram, axis=1, keepdims=True) * ws) \
        / proxies.norms[sel, None]
    grad_W = np.zeros_like(proxies.W)
    grad_W[sel] = grad_sel
    return LossReport(loss, {"pp": loss}, None, grad_W,
                      {"pp_selection_size": k, "pp_pairs": npairs,
                       "pp_selection": sel})


def sns_loss(batch: EmbeddingBatch, cfg: ProxyLossConfig) -> LossReport:
    """lambda_sns * mean over distinct-label sample pairs of cos (first
    power); off by default since it buys nothing in practice."""
    N = batch.z.shape[0]
    labels = batch.labels
    pair = (labels[:, None] != labels[None, :]).astype(np.float64)
    npairs = int(np.sum(np.triu(pair, 1)))
    if npairs == 0:
        return LossReport(0.0, {"sns": 0.0}, np.zeros_like(batch.z), None,
                          {"sns_pairs": 0})
    zhat = batch.zhat
    gram = zhat @ zhat.T
    loss = cfg.lambda_sns * float(np.sum(np.triu(gram * pair, 1))) / npairs

    dcos = cfg.lambda_sns * pair / npairs        # symmetric; each pair once in the loss
    grad_z = _divide_rows(dcos @ zhat - np.sum(dcos * gram, axis=1, keepdims=True) * zhat,
                          batch.norms)
    return LossReport(loss, {"sns": loss}, grad_z, None, {"sns_pairs": npairs})


def proxy_based_total(batch: EmbeddingBatch, proxies: ProxyMatrix,
                      state: EpochMidState, cfg: ProxyLossConfig,
                      rng: np.random.Generator) -> LossReport:
    """Sum of the enabled components; the term map keeps each value."""
    reports = [pps_loss(batch, proxies, state, cfg),
               pns_loss(batch, proxies, cfg),
               pp_loss(batch.labels, proxies, cfg, rng)]
    if cfg.sns_enabled:
        reports.append(sns_loss(batch, cfg))

    terms = {}
    stats = {}
    grad_z = np.zeros_like(batch.z)
    grad_W = np.zeros_like(proxies.W)
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
