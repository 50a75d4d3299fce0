"""Extreme-value estimates for uniformly distributed unit vectors,
Monte-Carlo verification, and the proxy/sample spread trackers.

For C near-uniform unit vectors in R^d the pairwise cosine is
approximately N(0, 1/d); extreme-value asymptotics then put a vector's
nearest-neighbor cosine (its smallest angle to the rest) near

    cos theta_min ~= sqrt(2 ln C / d)

with Std(cos theta) = sqrt(1/d).  Natural log throughout.  The quantile
approximation Q(p) ~= sqrt(2 ln(1/(1-p))) is a tail formula: it is only
accurate as p -> 1 and is documented as such rather than patched.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, RangeError

_MAX_MC_SCALARS = int(1e8)


@dataclasses.dataclass(frozen=True)
class EvtEstimate:
    C: int
    d: int
    cos_min: float          # cosine of the expected minimum pairwise angle
    theta_min_rad: float
    theta_min_deg: float
    std_cos: float          # sqrt(1/d)


def evt_estimate(C: int, d: int) -> EvtEstimate:
    """Closed-form minimum-angle and cosine-spread estimates."""
    if C < 2 or d < 2:
        raise DomainError(f"need C >= 2 and d >= 2, got ({C}, {d})")
    v = 2.0 * math.log(C) / d
    if v > 1.0:
        raise RangeError(f"2 ln C / d = {v:.4f} > 1: the minimum-angle formula "
                         f"breaks down for C = {C}, d = {d}")
    cos_min = math.sqrt(v)
    theta = math.acos(cos_min)
    return EvtEstimate(C=C, d=d, cos_min=cos_min, theta_min_rad=theta,
                       theta_min_deg=math.degrees(theta), std_cos=math.sqrt(1.0 / d))


def half_quarter_cosines(est: EvtEstimate):
    """(cos(theta_min/2), cos(theta_min/4)): the half-angle marks a fully
    successful classification boundary."""
    return math.cos(est.theta_min_rad / 2.0), math.cos(est.theta_min_rad / 4.0)


def normal_quantile_approx(p: float) -> float:
    """Tail approximation sqrt(2 ln(1/(1-p))) of the standard normal
    upper quantile; accurate only as p -> 1."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    return math.sqrt(2.0 * math.log(1.0 / (1.0 - p)))


def min_quantile(p: float, C: int) -> float:
    """Approximate p-quantile of the minimum of C standard normals:
    -Q(1 - p/C), negated per the minimum convention (min ~= -sqrt(2 ln C)
    as p -> 1 for large C)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p}")
    if C < 1:
        raise DomainError(f"C must be >= 1, got {C}")
    return -normal_quantile_approx(1.0 - p / C)


def monte_carlo_pairwise(C: int, d: int, trials: int, seed) -> dict:
    """Sample C uniform unit vectors per trial; report the nearest-neighbor
    statistic the closed form estimates (each vector's largest |cos| to any
    other, i.e. its minimum angle, averaged over vectors and trials) and the
    pooled empirical std of pairwise cosines."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if C < 2 or d < 1:
        raise DomainError(f"need C >= 2 and d >= 1, got ({C}, {d})")
    if C * d * trials > _MAX_MC_SCALARS:
        raise DomainError(f"C*d*trials = {C * d * trials} exceeds the "
                          f"{_MAX_MC_SCALARS} desk-scale bound")
    seeds = np.random.SeedSequence(seed).spawn(trials)
    s1 = 0.0
    s2 = 0.0
    count = 0
    max_sum = 0.0
    block = max(1, 2_000_000 // max(C, 1))
    for trial_seed in seeds:
        rng = np.random.default_rng(trial_seed)
        x = rng.standard_normal((C, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        nn_sum = 0.0
        for r0 in range(0, C, block):
            rows = np.arange(r0, min(r0 + block, C))
            gram = x[rows] @ x.T
            upper = gram[np.arange(C)[None, :] > rows[:, None]]
            if upper.size:
                s1 += float(upper.sum())
                s2 += float((upper ** 2).sum())
                count += upper.size
            gram[np.arange(len(rows)), rows] = 0.0    # drop the self-cosines
            nn_sum += float(np.abs(gram).max(axis=1).sum())
        max_sum += nn_sum / C
    mean = s1 / count
    var = max(s2 / count - mean ** 2, 0.0)
    return {"max_cos_mean": max_sum / trials, "std_cos_emp": math.sqrt(var),
            "mean_cos_emp": mean, "pairs": count}


def _selection_gram(unit: np.ndarray, sel: np.ndarray):
    """(rows, gram): the selected unit rows and their cosines with the
    diagonal zeroed, so that every entry is a pair and each pair counts
    twice."""
    rows = unit[sel]
    gram = rows @ rows.T
    np.fill_diagonal(gram, 0.0)
    return rows, gram


def _distinct_label_pairs(labels: np.ndarray):
    """(mask, count): the N x N mask of sample pairs with different labels
    (False on the diagonal) and its number of entries, each pair twice."""
    pair = labels[:, None] != labels[None, :]
    return pair, int(np.count_nonzero(pair))


def proxy_spread_trackers(proxies, C: int, d: int, batch_selection) -> dict:
    """Spread statistics over the pp-style selection of a ProxyMatrix:

        std      = sqrt(mean pairwise cos^2)
        std_mean = sqrt(mean relu(cos - sqrt(2 ln C / d))^2)

    std_mean only charges pairs closer than the expected minimum angle.
    The training loop calls it with the proxies after the step's update,
    so it reads the spread the next step starts from, not the Gram matrix
    pp_loss saw before the update.
    """
    sel = np.asarray(batch_selection, dtype=np.int64)
    k = len(sel)
    if k < 2:
        return {"std": 0.0, "std_mean": 0.0}
    _, gram = _selection_gram(proxies.unit, sel)
    ordered = k * (k - 1)
    thr = math.sqrt(min(2.0 * math.log(C) / d, 1.0))
    excess = np.maximum(gram - thr, 0.0).ravel()
    gram = gram.ravel()
    return {"std": math.sqrt(float(gram @ gram) / ordered),
            "std_mean": math.sqrt(float(excess @ excess) / ordered)}


def sns_tracker(batch) -> float:
    """sqrt(mean cos^2) over distinct-label sample pairs of an
    EmbeddingBatch; 0 when the batch has fewer than two labels.  It reads
    the batch's Gram matrix and pair mask as proxy_losses.sns_loss does."""
    pair, ordered = _distinct_label_pairs(batch.labels)
    if ordered == 0:
        return 0.0
    gram = batch.gram
    return math.sqrt(float(np.sum(gram * gram, where=pair)) / ordered)
