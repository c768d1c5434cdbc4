"""Shared helpers for the test suite."""

import numpy as np
import pytest

from entropath import pmf
from entropath.calculus import _fgh, shannon_entropy
from entropath.pmf import ParamVector, compute_pmf

# Budgets of the leave-two-out builder under test: the package's, and none, so
# that a block holds one j (a few at small j) and every n past 3 takes many blocks.
BLOCK_BUDGETS = {"64KiB": pmf._BLOCK_BYTES, "one_j": 0}


def random_instance(rng, n_min=1, n_max=12, eps=1e-3, signed=True):
    """Random (p, slopes) with parameters in [eps, 1-eps] and unit max-norm slopes."""
    n = int(rng.integers(n_min, n_max + 1))
    p = eps + (1.0 - 2.0 * eps) * rng.random(n)
    s = rng.uniform(-1.0, 1.0, n) if signed else rng.random(n)
    top = np.abs(s).max()
    if top == 0.0:
        s[0] = 1.0
        top = 1.0
    return p, s / top


def mixture_row(params, slopes):
    """g and h of one slope vector: row 0 of the stacked recurrence."""
    _, g, h = _fgh(params, slopes)
    return g[0], h[0]


def entropy_at(p):
    return shannon_entropy(compute_pmf(ParamVector(p)))


def fd_hessian(p, step=1e-4):
    """Finite-difference Hessian of the entropy over the parameter cube."""
    n = p.size
    out = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        out[i, i] = (entropy_at(p + ei) - 2.0 * entropy_at(p) + entropy_at(p - ei)) / step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            out[i, j] = (
                entropy_at(p + ei + ej)
                - entropy_at(p + ei - ej)
                - entropy_at(p - ei + ej)
                + entropy_at(p - ei - ej)
            ) / (4.0 * step**2)
            out[j, i] = out[i, j]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(42)
