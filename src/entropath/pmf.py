"""Poisson binomial mass functions, and the leave-two-out pmfs the cij checker reads.

Everything here is plain binary64 arithmetic. Mass functions are built by
sequential Bernoulli convolution and never renormalized, so any accumulation
bug stays visible to the tests instead of being washed out. The leave-two-out
pmfs are zero-padded rows of one row-major buffer, stepped as contiguous memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    """Finite mass function on {0, ..., m}; indexing outside the support reads zero."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("mass function must be a nonempty one-dimensional sequence")
        if np.any(arr < 0.0):
            raise ValueError("mass function has negative entries")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"mass function sums to {total!r}, expected 1 within {_SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def support_size(self) -> int:
        return int(self.values.size)

    @property
    def total(self) -> float:
        """Raw sum of the stored masses, reported as a diagnostic (never renormalized)."""
        return float(self.values.sum())

    def mass(self, k: int) -> float:
        """Total accessor: zero for any index outside {0, ..., m}."""
        if 0 <= k < self.values.size:
            return float(self.values[k])
        return 0.0

    def to_list(self) -> list[float]:
        return [float(v) for v in self.values]

    def to_json(self) -> str:
        """JSON array of the masses; float repr round-trips exactly."""
        return json.dumps(self.to_list())

    @classmethod
    def from_json(cls, text: str) -> "Pmf":
        return cls(np.asarray(json.loads(text), dtype=np.float64))


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


@lru_cache(maxsize=16)
def _pair_rows(n: int) -> np.ndarray:
    """_leave_two_out's buffer row of every pair i < j, in lexicographic order (cached)."""
    i, j = np.triu_indices(n, 1)
    rows = n + j * (j - 1) // 2 + i
    rows.setflags(write=False)
    return rows


def _leave_two_out(p) -> np.ndarray:
    """Every leave-one-out and leave-two-out pmf of each row of p (m, n), as buf[row, k, instance].

    The buffer has n + n(n-1)/2 + 1 rows of n + 2 columns: row i is the pmf
    without component i, the pairs follow in colex order (by j, then i;
    _pair_rows maps them), and the last row stays zero. Step t applies
    component t to every row that keeps it, as one _step over the contiguous
    prefix of rows with (row, k) flattened: no row holds a mass in its last
    two columns, so the carry into the next row is +0.0. Row t skips it: its
    state is put back after the step. Pair (i, j) is born at step j as a copy
    of row i, outside that step's rows, so it skips j too. Every pair is thus
    the sequential convolution of its kept components, with the bits of
    compute_pmf on them and zeros in columns n-1..n+1, and the same bits in
    any stack.
    """
    p = _as_prob_array(p, ndim=2)
    m, n = p.shape
    born = [n + t * (t - 1) // 2 for t in range(n + 1)]  # first pair row (i, t)
    buf = np.zeros((born[n] + 1, n + 2, m))
    buf[:n, 0] = 1.0
    q = 1.0 - p
    for t in range(n):
        buf[born[t] : born[t + 1]] = buf[:t]
        skipped = buf[t].copy()
        _step(buf[: born[t]].reshape(-1, m), p[:, t], q[:, t])
        buf[t] = skipped
    return buf
