"""Extreme-value estimates for uniformly distributed unit vectors,
Monte-Carlo verification, and the proxy/sample spread trackers.

For C near-uniform unit vectors in R^d the pairwise cosine is
approximately N(0, 1/d); extreme-value asymptotics then put a vector's
nearest-neighbor cosine (its smallest angle to the rest) near

    cos theta_min ~= sqrt(2 ln C / d)

with Std(cos theta) = sqrt(1/d).  Natural log throughout.
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
    _, gram = proxies.selection_gram(sel)
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
    pair = batch.distinct_labels
    ordered = int(np.count_nonzero(pair))
    if ordered == 0:
        return 0.0
    squares = np.square(batch.gram)
    squares[~pair] = 0.0
    return math.sqrt(float(squares.sum()) / ordered)
