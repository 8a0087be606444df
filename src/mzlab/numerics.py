"""Shared numeric helpers: log-factorials, binomial weights and truncated pair sums.

Factorials overflow float64 at 171!, so every combinatorial factor in the
package goes through log-factorials and is exponentiated only after the
additions/cancellations are done in log space.
"""

from __future__ import annotations

import math

import numpy as np


def log_factorials(n_max: int) -> np.ndarray:
    """[log(0!), ..., log(n_max!)] as one running sum, computed afresh on every call.

    The sum runs in order, so every prefix equals the shorter sum bit for bit.
    """
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))))


def binomial_weights(n: int) -> np.ndarray:
    """C(n, k) / 2^n for k = 0..n, each from the exact integer C(n, k) by one correctly rounded int / int division."""
    c, d = [1], 2**n  # C(n, k) by the exact integer recurrence, and 2^n
    for k in range(n):
        c.append(c[-1] * (n - k) // (k + 1))
    return np.array([x / d for x in c], dtype=np.float64)


def binomial_thinning_matrix(l_max: int, eta: float) -> np.ndarray:
    """Column-stochastic matrix T with T[k, l] = C(l, k) eta^k (1-eta)^(l-k).

    Column l is the photon-count distribution left behind when l photons each
    survive independently with probability eta.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    dim = l_max + 1
    if eta == 1.0:
        return np.eye(dim)
    out = np.zeros((dim, dim))
    if eta == 0.0:
        out[0, :] = 1.0
        return out
    lf = log_factorials(l_max)
    k = np.arange(dim)
    log_eta, log_bar = math.log(eta), math.log1p(-eta)
    for l in range(dim):
        kk = k[: l + 1]
        out[: l + 1, l] = np.exp(lf[l] - lf[kk] - lf[l - kk] + kk * log_eta + (l - kk) * log_bar)
    return out


def pair_operands(ga: np.ndarray, gb: np.ndarray, n_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """ga[..., i] and the partial sum of gb[..., j] over j <= n_cap - i, for every i that has a partner.

    The sum of their products along the last axis is the truncated pair sum
    of ga[i] gb[j] over i + j <= n_cap, i.e. np.convolve(ga, gb)[:n_cap + 1].sum(),
    in time linear in the two lengths instead of their product.  A 2-D gb
    gives one row of partial sums per row; they are gathered with ``take``,
    so each row stays row-major, as the 1-D gather of one row would be.
    """
    size_a, size_b = ga.shape[-1], gb.shape[-1]
    n_cap = min(n_cap, size_a + size_b)  # every pair lies below this, and n_cap - i stays an int64
    i = np.arange(min(size_a, n_cap + 1))
    return ga[..., : i.size], np.cumsum(gb, axis=-1).take(np.minimum(n_cap - i, size_b - 1), axis=-1)
