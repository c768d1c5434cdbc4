"""Poisson binomial mass functions and their leave-one-out / leave-two-out variants.

Everything here is plain binary64 arithmetic. Mass functions are built by
sequential Bernoulli convolution and never renormalized, so any accumulation
bug stays visible to the tests instead of being washed out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "LeaveStructures",
    "ParamVector",
    "Pmf",
    "brute_force_pmf",
    "compute_pmf",
    "leave_one_out",
    "leave_structures",
    "leave_two_out",
    "pair_indices",
]

# Enumerating 2^n outcomes is the test oracle; past this it stops being cheap.
BRUTE_FORCE_MAX_N = 20

_SUM_TOL = 1e-12


def _as_prob_array(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("parameters must form a one-dimensional sequence")
    if arr.size == 0:
        raise ValueError("empty model: at least one Bernoulli parameter is required")
    if not np.isfinite(arr).all():
        raise ValueError("parameters must be finite")
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("invalid parameter: every entry must lie in [0, 1]")
    return arr


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Success probabilities of independent Bernoulli components.

    The mass function and the leave-out structures are built on first use
    and cached, so every checker evaluated on one vector shares them.
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

    @cached_property
    def leave(self) -> "LeaveStructures":
        """Leave-one-out and leave-two-out structures, built on first use."""
        return leave_structures(self)


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


def _convolve_bernoullis(probs: np.ndarray) -> np.ndarray:
    """Sequential Bernoulli convolution in one buffer.

    Each step writes the top entry first and then updates the interior from
    high index to low, so no value is read after being overwritten.
    """
    n = probs.size
    buf = np.zeros(n + 1)
    buf[0] = 1.0
    for m, p in enumerate(probs):
        q = 1.0 - p
        buf[m + 1] = buf[m] * p
        if m:
            buf[1 : m + 1] = buf[1 : m + 1] * q + buf[0:m] * p
        buf[0] *= q
    return buf


def compute_pmf(params: ParamVector) -> Pmf:
    """Mass function of the component sum, length n + 1."""
    return Pmf(_convolve_bernoullis(params.p))


def leave_one_out(params: ParamVector, i: int) -> Pmf:
    """Mass function of the sum with component i removed (support {0, ..., n-1})."""
    n = params.n
    if not 0 <= i < n:
        raise IndexError(f"component index {i} out of range for n={n}")
    rest = np.delete(params.p, i)
    if rest.size == 0:
        return Pmf(np.array([1.0]))
    return Pmf(_convolve_bernoullis(rest))


def _check_pair(n: int, i: int, j: int) -> None:
    """Raise unless i and j are two distinct component indices of an n-component model."""
    if i == j:
        raise ValueError("invalid pair: the two indices must be distinct")
    for idx in (i, j):
        if not 0 <= idx < n:
            raise IndexError(f"component index {idx} out of range for n={n}")


def leave_two_out(params: ParamVector, i: int, j: int) -> Pmf:
    """Mass function with components i and j removed (support {0, ..., n-2}).

    Symmetric in (i, j).
    """
    _check_pair(params.n, i, j)
    rest = np.delete(params.p, [i, j])
    if rest.size == 0:
        return Pmf(np.array([1.0]))
    return Pmf(_convolve_bernoullis(rest))


def brute_force_pmf(params: ParamVector) -> Pmf:
    """Oracle mass function summed over all 2^n outcome patterns.

    Deliberately independent of the convolution path so the tests can pin one
    against the other. Guarded because the cost doubles with every component.
    """
    n = params.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_MAX_N}, got n={n}")
    p = params.p
    out = np.zeros(n + 1)
    codes = np.arange(1 << n, dtype=np.uint64)
    shifts = np.arange(n, dtype=np.uint64)
    chunk = 1 << 14
    for lo in range(0, codes.size, chunk):
        block = codes[lo : lo + chunk]
        bits = (block[:, None] >> shifts) & np.uint64(1)
        weights = np.where(bits == 1, p, 1.0 - p).prod(axis=1)
        counts = bits.sum(axis=1).astype(np.intp)
        out += np.bincount(counts, weights=weights, minlength=n + 1)
    return Pmf(out)


@lru_cache(maxsize=16)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every pair i < j, in lexicographic order (read-only, cached)."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@dataclass(frozen=True, eq=False)
class LeaveStructures:
    """Full pmf plus every leave-one-out and leave-two-out pmf of one parameter vector.

    singles has shape (n, n), row i being the pmf without component i; pairs
    has shape (n(n-1)/2, n-1), one row per pair i < j in lexicographic order.
    All three arrays are read-only.
    """

    f: np.ndarray
    singles: np.ndarray
    pairs: np.ndarray

    def single(self, i: int) -> np.ndarray:
        return self.singles[i]

    def pair(self, i: int, j: int) -> np.ndarray:
        if i > j:
            i, j = j, i
        n = self.singles.shape[0]
        if not 0 <= i < j < n:
            raise KeyError((i, j))
        return self.pairs[i * (2 * n - i - 1) // 2 + (j - i - 1)]


def leave_structures(params: ParamVector) -> LeaveStructures:
    """One pass of prefix/suffix convolutions shared by every leave-out pmf.

    Far cheaper than removing components one at a time when all of them are
    needed, which is what the derivative and Hessian machinery does.
    """
    p = params.p
    n = params.n
    kernels = [np.array([1.0 - pi, pi]) for pi in p]
    pre = [np.array([1.0])]
    for i in range(n):
        pre.append(np.convolve(pre[i], kernels[i]))
    suf = [np.array([1.0])] * (n + 1)
    for i in range(n - 1, 0, -1):  # suf[0] would be the full pmf, pre[n]
        suf[i] = np.convolve(kernels[i], suf[i + 1])
    singles = np.empty((n, n))
    for i in range(n):
        singles[i] = np.convolve(pre[i], suf[i + 1])
    pairs = np.empty((n * (n - 1) // 2, max(n - 1, 0)))
    row = 0
    for i in range(n):
        left = pre[i]  # components 0..i-1, extended below with i+1..j-1
        for j in range(i + 1, n):
            pairs[row] = np.convolve(left, suf[j + 1])
            row += 1
            if j < n - 1:
                left = np.convolve(left, kernels[j])
    f = pre[n]
    for arr in (f, singles, pairs):
        arr.setflags(write=False)
    return LeaveStructures(f=f, singles=singles, pairs=pairs)
