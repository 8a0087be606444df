"""Shared numeric helpers: log-factorials and binomial weights.

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
