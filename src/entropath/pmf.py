"""Poisson binomial mass functions, and the leave-two-out pmfs the cij checker reads.

Everything here is plain binary64 arithmetic. Mass functions are built by
sequential Bernoulli convolution and never renormalized, so any accumulation
bug stays visible to the tests instead of being washed out. The leave-two-out
pmfs are zero-padded rows of a row-major buffer, built in blocks of pairs and
stepped as contiguous memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

__all__ = [
    "ParamVector",
    "Pmf",
    "compute_pmf",
]

_SUM_TOL = 1e-12


def _as_prob_array(p, ndim: int = 1) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != ndim:
        shape = "one-dimensional sequence" if ndim == 1 else "stack of shape (m, n)"
        raise ValueError(f"parameters must form a {shape}")
    if arr.shape[-1] == 0:
        raise ValueError("empty model: at least one Bernoulli parameter is required")
    if not np.isfinite(arr).all():
        raise ValueError("parameters must be finite")
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("invalid parameter: every entry must lie in [0, 1]")
    return arr


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Success probabilities of independent Bernoulli components.

    The mass function is built on first use and cached.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = _as_prob_array(self.p).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def n(self) -> int:
        return int(self.p.size)

    @cached_property
    def pmf(self) -> "Pmf":
        """Mass function of the sum, built on first use."""
        return compute_pmf(self)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Finite mass function on {0, ..., m}: validated, read-only masses, never renormalized."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("mass function must be a nonempty one-dimensional sequence")
        if not np.isfinite(arr).all():
            raise ValueError("mass function has non-finite entries")
        if np.any(arr < 0.0):
            raise ValueError("mass function has negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"mass function sums to {total!r}, expected 1 within {_SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def _step(live: np.ndarray, p, q) -> None:
    """Apply the Bernoulli factor q + p x in place: live[k] <- live[k] q + live[k-1] p, k-major.

    Every recurrence of the package takes this step, so its rounding order fixes
    the bits of every mass, and a row has the same bits in any stack.
    """
    up = live[:-1] * p
    live *= q
    live[1:] += up


def _convolve_bernoullis(probs: np.ndarray) -> np.ndarray:
    """Sequential Bernoulli convolution of every row of probs (..., n), as rows (..., n + 1).

    Step t applies component t over k = 0..t+1, the only entries it can
    reach. The buffer is k-major and every step is elementwise across rows.
    """
    n = probs.shape[-1]
    buf = np.zeros((n + 1,) + probs.shape[:-1])
    buf[0] = 1.0
    for t in range(n):
        _step(buf[: t + 2], probs[..., t], 1.0 - probs[..., t])
    return buf.transpose((*range(1, buf.ndim), 0))  # k last


def _masses(f) -> np.ndarray:
    """The masses of a Pmf, or any sequence as a float64 array."""
    return f.values if isinstance(f, Pmf) else np.asarray(f, dtype=np.float64)


def compute_pmf(params: ParamVector) -> Pmf:
    """Mass function of the component sum, length n + 1."""
    return Pmf(_convolve_bernoullis(params.p))


def _check_pair(n: int, i: int, j: int) -> None:
    """Raise unless i and j are two distinct component indices of an n-component model."""
    if i == j:
        raise ValueError("invalid pair: the two indices must be distinct")
    for idx in (i, j):
        if not 0 <= idx < n:
            raise IndexError(f"component index {idx} out of range for n={n}")


# Bytes one instance's pair block of _leave_two_out_blocks may take, its leave-one-out rows and
# zero row included, so each block is swept while it is in cache. Up to n = 24 all pairs fit
# and the one block is the whole buffer; past it explorer._groups stacks no cij rows.
_BLOCK_BYTES = 1 << 16


def _block_pairs(n: int) -> int:
    """Pair rows in one block of _leave_two_out_blocks at n: all n(n-1)/2 when they fit.

    Otherwise as many as fit in _BLOCK_BYTES beside the n leave-one-out rows and the
    zero row, and never fewer than the n-1 pairs of j = n-1.
    """
    fit = _BLOCK_BYTES // (8 * (n + 2)) - n - 1
    return min(n * (n - 1) // 2, max(n - 1, fit))


@lru_cache(maxsize=16)
def _pair_lex(n: int) -> np.ndarray:
    """The lexicographic number of each pair i < j, in the builder's colex order (cached)."""
    i, j = np.triu_indices(n, 1)
    lex = np.empty(i.size, dtype=np.int64)
    lex[j * (j - 1) // 2 + i] = np.arange(i.size)
    lex.setflags(write=False)
    return lex


def _leave_two_out_blocks(p) -> Iterator[np.ndarray]:
    """The leave-two-out pmfs of each row of p (m, n), in blocks of pairs grouped by j.

    Each block is yielded as one buffer buf[row, k, instance] of n + 2 columns:
    the n leave-one-out rows, the block's pairs (i, j) in colex order (by j,
    then i; a block holds whole j's, at most _block_pairs(n) pairs), then a
    zero row. The buffer is reused: a block is valid until the next is drawn.
    Nothing is yielded for n < 2.

    Step t applies component t to every row that keeps it, as one _step over
    a contiguous run of rows with (row, k) flattened: no row holds a mass in
    its last two columns, so the carry into the next row is +0.0. Until the
    block's last j, the run starts at the leave-one-out rows; row t skips the
    step, its state put back after it. Pair (i, j) is born at step j as a copy
    of row i, outside that step's rows, so it skips j too. Past the block's
    last j the run is the block's pairs alone, and the leave-one-out rows
    carry their state to the next block. Every pair is thus stepped once from
    its birth: the sequential convolution of its kept components, with the
    bits of compute_pmf on them and zeros in columns n-1..n+1, in any stack
    and any block.
    """
    p = _as_prob_array(p, ndim=2)
    m, n = p.shape
    if n < 2:
        return
    cap = _block_pairs(n)
    buf = np.zeros((n + cap + 1, n + 2, m))
    buf[:n, 0] = 1.0
    q = 1.0 - p
    j0 = 0
    while j0 < n:
        j1, pairs = j0 + 1, j0
        while j1 < n and pairs + j1 <= cap:
            pairs += j1
            j1 += 1
        top = n
        for t in range(j0, n):
            if t < j1:
                buf[top : top + t] = buf[:t]
                skipped = buf[t].copy()
                _step(buf[:top].reshape(-1, m), p[:, t], q[:, t])
                buf[t] = skipped
                top += t
            else:
                _step(buf[n:top].reshape(-1, m), p[:, t], q[:, t])
        buf[top] = 0.0
        yield buf[: top + 1]
        j0 = j1
