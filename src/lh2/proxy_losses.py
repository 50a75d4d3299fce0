"""Proxy-based absolute-distance regularizers and the epoch-mid schedule.

Three losses constrain cosines directly rather than through the softmax:

    pps  pulls positive cosines below the epoch mid up toward it
    pns  pushes sample-to-negative-proxy cosines toward 0 (squared)
    pp   pushes proxy-to-proxy cosines toward 0 (squared) on a selection
         of the batch's proxies plus randomly sampled ones

plus the sample-to-sample sns variant (first power, on when lambda_sns > 0).
The weights lambda_* and the mid clip [cos_min, cos_max] are fields of the
run's io_formats.RunConfig, which checks their values however it is made.
pps and pns read their cosines from the batch's product with the unit
proxies (uamf.ProxyProduct), the same S = z W^T the margin softmax reads.
Each reports its d loss / d cos as an N x C matrix; the reports of a step
sum them, and a gradient read takes the sum through ProxyProduct.cos_adjoint
and the one backward, sphere_math.adjoint_grads, to z and W.  pp and sns
read Gram matrices (pp reports its selection's as stats["pp_gram"] for the
spread tracker); _quotient_rule takes their gradients when they are read.
A gradient in W is that of the loss of W's rows put back on the sphere, as
the update puts them after every step.

The epoch mid is the clipped mean positive cosine of the previous epoch,
accumulated with observe_positive_cosines from the cosines pps_loss reports
and rolled with end_epoch.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .io_formats import RunConfig
from .uamf import EmbeddingBatch, LossReport, ProxyMatrix


# the benchmark's tests still build the run config by this name
ProxyLossConfig = RunConfig


@dataclasses.dataclass(frozen=True)
class EpochMidState:
    """Clipped mean positive cosine of the previous epoch plus the running
    accumulator for the current one."""

    mid: float
    acc_sum: float = 0.0
    acc_count: int = 0

    @staticmethod
    def initial(cfg: RunConfig) -> "EpochMidState":
        return EpochMidState(mid=cfg.cos_min)


def positive_cosines(batch: EmbeddingBatch, proxies: ProxyMatrix) -> np.ndarray:
    """cos between each sample and its own class proxy."""
    product = batch.product(proxies)
    return product.cos.ravel()[product.target]


def observe_positive_cosines(state: EpochMidState, cos: np.ndarray) -> EpochMidState:
    """Accumulate a batch's positive cosines (pps_loss reports them as
    stats["positive_cos"]), every sample's, for the next epoch-mid update."""
    return EpochMidState(mid=state.mid,
                         acc_sum=state.acc_sum + float(cos.sum()),
                         acc_count=state.acc_count + len(cos))


def end_epoch(state: EpochMidState, cfg: RunConfig) -> EpochMidState:
    """Roll the accumulated mean into the mid, clipped to [cos_min, cos_max];
    an empty accumulator leaves the mid unchanged."""
    if state.acc_count == 0:
        return EpochMidState(mid=state.mid)
    mean = state.acc_sum / state.acc_count
    return EpochMidState(mid=float(np.clip(mean, cfg.cos_min, cfg.cos_max)))


def _quotient_rule(d_cos, cos, other_unit, own_unit):
    """d loss / d own rows from d loss / d cos for cosines
    cos_ij = own_i . other_j / (||own_i|| ||other_j||), where the own rows
    are unit: d_cos @ other_unit - sum_j d_cos_ij cos_ij own_unit_i.  At
    other norms it is ||own_i|| times the derivative."""
    weight = np.einsum("ij,ij->i", d_cos, cos)
    return d_cos @ other_unit - weight[:, None] * own_unit


def pps_loss(batch: EmbeddingBatch, proxies: ProxyMatrix, state: EpochMidState,
             cfg: RunConfig) -> LossReport:
    """lambda_pps * mean over samples with cos < mid of (cos - mid)^2.

    The mid is a constant of the epoch; gradients flow through the cosines
    only.  Zero when no sample sits below the mid.  stats["positive_cos"]
    holds the batch's positive cosines for the epoch-mid accumulator.
    """
    cos = positive_cosines(batch, proxies)
    product = batch.product(proxies)
    N = len(cos)
    resid = np.minimum(cos - state.mid, 0.0)     # 0 at or above the mid
    n_left = int(np.count_nonzero(resid))
    loss = cfg.lambda_pps * float(resid @ resid) / max(n_left, 1)
    d_cos = np.zeros(product.S.shape)
    d_cos.ravel()[product.target] = (cfg.lambda_pps * 2.0 / max(n_left, 1)) * resid
    return LossReport(loss, {"pps": loss}, {"below_frac": n_left / N, "positive_cos": cos},
                      batch, proxies, d_cos)


def pns_loss(batch: EmbeddingBatch, proxies: ProxyMatrix,
             cfg: RunConfig) -> LossReport:
    """lambda_pns * sum over samples and non-target proxies of cos^2,
    divided by N * (C - 1); zero for a single class."""
    product = batch.product(proxies)
    N, C = product.S.shape
    d_cos = product.cos.copy()
    d_cos.ravel()[product.target] = 0.0
    denom = N * max(C - 1, 1)
    loss = cfg.lambda_pns * float(np.vdot(d_cos, d_cos)) / denom
    d_cos *= cfg.lambda_pns * 2.0 / denom
    return LossReport(loss, {"pns": loss}, {}, batch, proxies, d_cos)


def pp_selection(batch_labels, C: int, rng: np.random.Generator) -> np.ndarray:
    """Union of the batch's distinct proxies and N uniformly sampled ones
    (without replacement, deduplicated), sorted for determinism.  When N >=
    C the draw covers every proxy, so the union is arange(C); the draw is
    still taken, since the generator's stream goes on to the batch order."""
    labels = np.asarray(batch_labels, dtype=np.int64)
    drawn = rng.choice(C, size=min(len(labels), C), replace=False)
    if len(labels) >= C:
        return np.arange(C)
    chosen = np.zeros(C, dtype=bool)
    chosen[labels] = True
    chosen[drawn] = True
    return np.flatnonzero(chosen)


def pp_loss(batch_labels, proxies: ProxyMatrix, cfg: RunConfig,
            rng: np.random.Generator) -> LossReport:
    """lambda_pp * mean over unordered proxy pairs in the selection of
    cos^2; gradient with respect to the proxies only.  stats["pp_gram"]
    holds the selection's cosines with the diagonal zeroed."""
    C = proxies.W.shape[0]
    # one class draws no random proxy; a selection of one has no pair and a zero loss
    sel = pp_selection(batch_labels, C, rng) if C > 1 else np.arange(C, dtype=np.int64)
    k = len(sel)
    rows = slice(None) if k == C else sel      # every proxy: views, no gather
    ws, gram = proxies.selection_gram(rows)
    npairs = max(k * (k - 1) // 2, 1)
    loss = cfg.lambda_pp * float(np.vdot(gram, gram)) / (2 * npairs)

    def direct():
        grad = _quotient_rule((cfg.lambda_pp * 2.0 / npairs) * gram, gram, ws, ws)
        if k == C:
            return None, grad
        grad_W = np.zeros_like(proxies.W)
        grad_W[sel] = grad
        return None, grad_W

    return LossReport(loss, {"pp": loss}, {"pp_gram": gram}, proxies=proxies,
                      direct=(direct,))


def sns_loss(batch: EmbeddingBatch, cfg: RunConfig) -> LossReport:
    """lambda_sns * mean over distinct-label sample pairs of cos (first
    power); lambda_sns defaults to 0 since the term buys nothing in practice.
    It reads the batch's Gram matrix, which sphere_stats.sns_tracker reads too."""
    pair, gram = batch.distinct_labels, batch.gram
    ordered = max(int(np.count_nonzero(pair)), 1)    # no pair: a zero loss
    loss = cfg.lambda_sns * float(np.sum(gram, where=pair)) / ordered

    def direct():
        d_cos = (cfg.lambda_sns * 2.0 / ordered) * pair   # symmetric; each pair once in the loss
        return _quotient_rule(d_cos, gram, batch.zhat, batch.zhat) * batch.rnorms[:, None], None

    return LossReport(loss, {"sns": loss}, batch=batch, direct=(direct,))


def proxy_based_total(batch: EmbeddingBatch, proxies: ProxyMatrix,
                      state: EpochMidState, cfg: RunConfig,
                      rng: np.random.Generator) -> LossReport:
    """Sum of pps, pns, pp and, when lambda_sns > 0, sns; the term map keeps
    each value.  The reports add up their gradient parts, so reading a
    gradient runs one backward."""
    rep = (pps_loss(batch, proxies, state, cfg) + pns_loss(batch, proxies, cfg)
           + pp_loss(batch.labels, proxies, cfg, rng))
    return rep + sns_loss(batch, cfg) if cfg.lambda_sns > 0 else rep
