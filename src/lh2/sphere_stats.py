"""Extreme-value estimates for uniformly distributed unit vectors,
Monte-Carlo verification, and the proxy/sample spread trackers.

For C near-uniform unit vectors in R^d the pairwise cosine is
approximately N(0, 1/d); extreme-value asymptotics then put a vector's
nearest-neighbor cosine (its smallest angle to the rest) near

    cos theta_min ~= sqrt(2 ln C / d)

with Std(cos theta) = sqrt(1/d).  Natural log throughout.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, RangeError
from .io_formats import MAX_WORK


def evt_estimate(C: int, d: int) -> dict:
    """Closed-form minimum-angle and cosine-spread estimates, the record
    `lh2 stats` prints; cos_half = cos(theta_min / 2) marks a fully
    successful classification boundary."""
    if d > sys.float_info.max:      # first, so that no message prints such a d
        raise DomainError(f"d must be at most {sys.float_info.max:.3e}")
    if C < 2 or d < 2:
        raise DomainError(f"need C >= 2 and d >= 2, got ({C}, {d})")
    v = 2.0 * math.log(C) / d
    if v > 1.0:
        raise RangeError(f"2 ln C / d = {v:.4f} > 1: the minimum-angle formula "
                         f"breaks down for C = {C}, d = {d}")
    cos_min = math.sqrt(v)
    theta = math.acos(cos_min)
    return {"C": C, "d": d, "cos_min": cos_min, "theta_min_rad": theta,
            "theta_min_deg": math.degrees(theta), "std_cos": math.sqrt(1.0 / d),
            "cos_half": math.cos(theta / 2.0), "cos_quarter": math.cos(theta / 4.0)}


def monte_carlo_pairwise(C: int, d: int, trials: int, seed) -> dict:
    """Sample C uniform unit vectors per trial; report the nearest-neighbor
    statistic the closed form estimates (each vector's largest |cos| to any
    other, i.e. its minimum angle, averaged over vectors and trials) and the
    pooled empirical mean and std of pairwise cosines over the ordered
    pairs; pairs counts the unordered ones.  A run holds one trial's sample
    and one row block of its Gram matrix at a time.  One DomainError names
    each product over its cap: C*d*trials <= 1e8, C*d <= MAX_WORK,
    trials*C^2 <= 2^32 cosines, trials*C^2*d <= 2^37 multiply-adds."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if C < 2 or d < 1:
        raise DomainError(f"need C >= 2 and d >= 1, got ({C}, {d})")
    over = [f"{name} = {size} exceeds {cap}" for name, size, cap in (
        ("C*d*trials", C * d * trials, int(1e8)), ("C*d", C * d, MAX_WORK),
        ("trials*C^2", trials * C * C, 2 ** 32), ("trials*C^2*d", trials * C * C * d, 2 ** 37))
        if size > cap]
    if over:
        raise DomainError("Monte Carlo work over its caps: " + "; ".join(over))
    root = np.random.SeedSequence(seed)
    s1 = s2 = max_sum = 0.0
    block = max(1, 2_000_000 // C)
    for _ in range(trials):
        rng = np.random.default_rng(root.spawn(1)[0])
        x = rng.standard_normal((C, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        nn_sum = 0.0
        for r0 in range(0, C, block):
            gram = x[r0:r0 + block] @ x.T
            np.fill_diagonal(gram[:, r0:], 0.0)     # drop the self-cosines
            s1 += float(gram.sum())
            s2 += float(np.vdot(gram, gram))
            # the largest |cos| of each row, without an abs copy of the block
            nn_sum += float(np.maximum(gram.max(axis=1), -gram.min(axis=1)).sum())
        max_sum += nn_sum / C
    ordered = trials * C * (C - 1)
    mean = s1 / ordered
    var = max(s2 / ordered - mean ** 2, 0.0)
    return {"max_cos_mean": max_sum / trials, "std_cos_emp": math.sqrt(var),
            "mean_cos_emp": mean, "pairs": ordered // 2}


def proxy_spread_trackers(proxies, gram) -> dict:
    """Spread statistics of k proxies of a ProxyMatrix of C proxies in R^d
    (C and d read from its shape), from their k x k cosines with the
    diagonal zeroed (ProxyMatrix.selection_gram; pp_loss reports its
    selection's as stats["pp_gram"]):

        std      = sqrt(mean pairwise cos^2)
        std_mean = sqrt(mean relu(cos - sqrt(2 ln C / d))^2)

    std_mean only charges pairs closer than the expected minimum angle.
    """
    k = len(gram)
    if k < 2:
        return {"std": 0.0, "std_mean": 0.0}
    C, d = proxies.W.shape
    ordered = k * (k - 1)       # the zero diagonal leaves the ordered pairs
    thr = math.sqrt(min(2.0 * math.log(C) / d, 1.0))
    excess = np.maximum(gram - thr, 0.0)
    return {"std": math.sqrt(float(np.vdot(gram, gram)) / ordered),
            "std_mean": math.sqrt(float(np.vdot(excess, excess)) / ordered)}


def sns_tracker(batch) -> float:
    """sqrt(mean cos^2) over distinct-label sample pairs of an
    EmbeddingBatch; 0 when the batch has fewer than two labels.  It reads
    the batch's Gram matrix and pair mask as proxy_losses.sns_loss does."""
    pair = batch.distinct_labels
    ordered = int(np.count_nonzero(pair))
    if ordered == 0:
        return 0.0
    g = batch.gram * pair
    return math.sqrt(float(np.vdot(g, g)) / ordered)
