"""Affine parameter paths and analytic entropy derivatives along them.

The central objects are the mixture sequences g (built from leave-one-out
pmfs) and h (from leave-two-out pmfs): the first two t-derivatives of the
mass function along an affine path are shifted differences of g and h, and
the entropy curvature follows from them in closed form. Natural logarithms
throughout; entropies are in nats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError
from .pmf import ParamVector, _masses, pair_indices

__all__ = [
    "AffinePath",
    "HessianReport",
    "PathDerivatives",
    "compute_g",
    "compute_h",
    "entropy_curvature",
    "entropy_hessian",
    "entropy_second_derivative_analytic",
    "path_at",
    "path_derivatives",
    "pmf_second_time_derivative",
    "pmf_time_derivative",
    "shannon_entropy",
    "stacked_entropy_curvature",
    "stacked_entropy_hessian",
    "stacked_mixtures",
]


def _check_slopes(params: ParamVector, slopes) -> np.ndarray:
    arr = np.asarray(slopes, dtype=np.float64)
    if arr.shape != (params.n,):
        raise ValueError(f"expected {params.n} slopes, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("slopes must be finite")
    return arr


def _max_feasible_domain(p: np.ndarray, slopes: np.ndarray) -> tuple[float, float]:
    lo, hi = -math.inf, math.inf
    for pi, si in zip(p, slopes):
        if si > 0.0:
            lo = max(lo, -pi / si)
            hi = min(hi, (1.0 - pi) / si)
        elif si < 0.0:
            lo = max(lo, (1.0 - pi) / si)
            hi = min(hi, -pi / si)
    # Division rounding can push a finite endpoint a few ulps outside the cube.
    if math.isfinite(hi):
        for _ in range(8):
            if np.all((p + hi * slopes >= 0.0) & (p + hi * slopes <= 1.0)):
                break
            hi = math.nextafter(hi, lo)
    if math.isfinite(lo):
        for _ in range(8):
            if np.all((p + lo * slopes >= 0.0) & (p + lo * slopes <= 1.0)):
                break
            lo = math.nextafter(lo, hi)
    return lo, hi


@dataclass(frozen=True, eq=False)
class AffinePath:
    """Path p(t) = p0 + t * slopes inside the parameter cube.

    With t_domain=None the maximal feasible closed interval is used.
    """

    p0: ParamVector
    slopes: np.ndarray
    t_domain: tuple[float, float] | None = None

    def __post_init__(self):
        slopes = _check_slopes(self.p0, self.slopes).copy()
        slopes.setflags(write=False)
        object.__setattr__(self, "slopes", slopes)
        dom = self.t_domain
        if dom is None:
            dom = _max_feasible_domain(self.p0.p, slopes)
        lo, hi = float(dom[0]), float(dom[1])
        if not lo <= hi:
            raise ValueError("t_domain is empty")
        for t in (lo, hi):
            if math.isinf(t):
                continue
            q = self.p0.p + t * slopes
            if np.any(q < 0.0) or np.any(q > 1.0):
                raise ValueError("t_domain leaves the parameter cube")
        object.__setattr__(self, "t_domain", (lo, hi))


def path_at(path: AffinePath, t: float) -> ParamVector:
    """Parameters at path position t."""
    lo, hi = path.t_domain
    if not lo <= t <= hi:
        raise ValueError(f"t={t!r} outside the path domain [{lo!r}, {hi!r}]")
    q = path.p0.p + t * path.slopes
    # Repair last-ulp rounding spill; anything larger is a genuine domain bug.
    tiny = 8.0 * np.finfo(np.float64).eps
    q = np.where((q > 1.0) & (q <= 1.0 + tiny), 1.0, q)
    q = np.where((q < 0.0) & (q >= -tiny), 0.0, q)
    return ParamVector(q)


@dataclass(frozen=True, eq=False)
class PathDerivatives:
    """Mixture sequences g (length n) and h (length n-1) attached to a (p, p') pair."""

    g: np.ndarray
    h: np.ndarray


def stacked_mixtures(singles: np.ndarray, pairs: np.ndarray, slopes: np.ndarray):
    """g (..., n) and h (..., n-1) of slope rows (..., n) against leave-out stacks.

    singles (..., n, n) and pairs (..., n(n-1)/2, n-1) broadcast against the
    slopes' leading axes: a stack of instances, or one instance's structures
    under a stack of slope vectors. Both sums reduce the component axis of a
    C-ordered product, which numpy adds row by row in index order, so the
    result does not depend on BLAS, and a row gives the same bits in any
    stack.
    """
    n = slopes.shape[-1]
    g = np.add.reduce(slopes[..., None] * singles, axis=-2)
    if n == 1:
        # No pairs. Skipping the empty sum matters on one-component scans,
        # which the critical-q estimators run by the thousand.
        return g, np.zeros(slopes.shape[:-1] + (0,))
    i, j = pair_indices(n)
    s = slopes.T  # components first: indexing them is cheaper there than behind an ellipsis
    # Ordered pairs: (i, j) and (j, i) both contribute, hence the factor 2.
    weights = (2.0 * (s[i] * s[j])).T
    h = np.add.reduce(weights[..., None] * pairs, axis=-2)
    return g, h


def _fgh(params: ParamVector, slopes: np.ndarray):
    """Full pmf plus the g and h sequences, from the vector's cached leave-out structures.

    slopes may stack slope vectors along its last axis; g and h then gain
    the same leading axes.
    """
    ls = params.leave
    return (ls.f, *stacked_mixtures(ls.singles, ls.pairs, slopes))


def _fgh_rows(params: ParamVector, slopes: np.ndarray):
    """_fgh as one-row stacks, the shape the stacked curvature kernels take."""
    return tuple(a[None, :] for a in _fgh(params, slopes))


def path_derivatives(params: ParamVector, slopes) -> PathDerivatives:
    """g_k = sum_i p_i' f^(i)_k and h_k = sum_{i != j} p_i' p_j' f^(i,j)_k."""
    slopes = _check_slopes(params, slopes)
    _, g, h = _fgh(params, slopes)
    return PathDerivatives(g=g, h=h)


def compute_g(params: ParamVector, slopes) -> np.ndarray:
    """First-order mixture sequence, length n; linear in the slopes."""
    return path_derivatives(params, slopes).g


def compute_h(params: ParamVector, slopes) -> np.ndarray:
    """Second-order mixture sequence, length n-1 (empty for n=1); quadratic in the slopes."""
    return path_derivatives(params, slopes).h


def _shift_diff1(g: np.ndarray, n: int) -> np.ndarray:
    """Length n+1 sequences g_{k-1} - g_k along the last axis, zero-padded outside {0..n-1}."""
    pad = np.zeros(g.shape[:-1] + (n + 2,))
    pad[..., 1 : n + 1] = g
    return pad[..., 0 : n + 1] - pad[..., 1 : n + 2]


def _shift_diff2(h: np.ndarray, n: int) -> np.ndarray:
    """Length n+1 sequences h_k - 2 h_{k-1} + h_{k-2} along the last axis.

    h is zero-padded outside {0..n-2}.
    """
    pad = np.zeros(h.shape[:-1] + (n + 3,))
    pad[..., 2 : n + 1] = h
    return pad[..., 2 : n + 3] - 2.0 * pad[..., 1 : n + 2] + pad[..., 0 : n + 1]


def pmf_time_derivative(path: AffinePath, t: float) -> np.ndarray:
    """d f_k / dt along the path, length n+1; telescopes to zero."""
    params = path_at(path, t)
    _, g, _ = _fgh(params, path.slopes)
    return _shift_diff1(g, params.n)


def pmf_second_time_derivative(path: AffinePath, t: float) -> np.ndarray:
    """d^2 f_k / dt^2 along the path, length n+1; telescopes to zero."""
    params = path_at(path, t)
    _, _, h = _fgh(params, path.slopes)
    return _shift_diff2(h, params.n)


def shannon_entropy(f) -> float:
    """Entropy in nats; zero masses contribute zero."""
    v = _masses(f)
    pos = v[v > 0.0]
    return float(-(pos * np.log(pos)).sum())


def _require_interior(params: ParamVector, margin: float) -> None:
    if margin < 0.0 or margin >= 0.5:
        raise ValueError("interior margin must lie in [0, 0.5)")
    if margin > 0.0 and (np.any(params.p < margin) or np.any(params.p > 1.0 - margin)):
        raise BoundaryError(f"parameters must lie in [{margin}, {1.0 - margin}]")


def stacked_entropy_curvature(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Entropy curvature H'' of every row of the stacks f (m, n+1), g (m, n), h (m, n-1).

    entropy_curvature is a one-row call of this kernel, so a row gives the
    same bits in any stack. Where a mass is exactly zero its terms must
    vanish too; otherwise the curvature is not defined there and a
    BoundaryError is raised.
    """
    n = g.shape[-1]
    df = _shift_diff1(g, n)
    d2f = _shift_diff2(h, n)
    pos = f > 0.0
    if not pos.all():
        dead = ~pos
        if np.any(df[dead] != 0.0) or np.any(d2f[dead] != 0.0):
            raise BoundaryError(
                "zero mass with active derivative terms; evaluate at an interior point"
            )
        # Both terms are zero at a dead mass; a unit there keeps them finite.
        f = np.where(pos, f, 1.0)
    return -(df**2 / f).sum(axis=-1) - ((np.log(f) + 1.0) * d2f).sum(axis=-1)


def entropy_curvature(params: ParamVector, slopes, interior_margin: float = 0.0) -> float:
    """Second t-derivative of the entropy at the point (p, p').

    Where a mass is exactly zero its terms must vanish too; otherwise the
    curvature is not defined there and a BoundaryError is raised.
    """
    slopes = _check_slopes(params, slopes)
    _require_interior(params, interior_margin)
    return float(stacked_entropy_curvature(*_fgh_rows(params, slopes))[0])


def entropy_second_derivative_analytic(
    path: AffinePath, t: float, interior_margin: float = 0.0
) -> float:
    """Analytic H''(t) along the path; agrees with centered finite differences."""
    return entropy_curvature(path_at(path, t), path.slopes, interior_margin)


@dataclass(frozen=True, eq=False)
class HessianReport:
    """Second-derivative matrix of the entropy over the parameter cube."""

    matrix: np.ndarray
    max_eigenvalue: float
    psd_margin: float

    def to_dict(self) -> dict:
        return {
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "max_eigenvalue": self.max_eigenvalue,
            "psd_margin": self.psd_margin,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def stacked_entropy_hessian(
    p: np.ndarray, f: np.ndarray, singles: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy Hessians (m, n, n) of the rows of p (m, n) and their top eigenvalues (m,).

    f, singles and pairs are the rows' leave-out stacks. Mixed second
    partials come from leave-two-out pmfs; pure ones vanish because each
    mass is affine in any single parameter. The top eigenvalues come from
    LAPACK's symmetric eigensolver over the whole stack. entropy_hessian is
    a one-row call, so a row has the same bits in any stack.
    """
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise BoundaryError("Hessian requires parameters strictly inside (0, 1)")
    n = p.shape[-1]
    u2 = 1.0 / f
    u1 = np.log(f) + 1.0
    d = _shift_diff1(singles, n)
    m = -np.matmul(d * u2[:, None, :], d.transpose(0, 2, 1))
    i, j = pair_indices(n)
    cross = -(u1[:, None, :] * _shift_diff2(pairs, n)).sum(axis=-1)
    m[:, i, j] += cross
    m[:, j, i] += cross
    m = 0.5 * (m + m.transpose(0, 2, 1))
    return m, np.linalg.eigvalsh(m)[:, -1]


def entropy_hessian(params: ParamVector) -> HessianReport:
    """Full Hessian of the entropy in the parameters, at a strictly interior point."""
    ls = params.leave
    m, top = stacked_entropy_hessian(params.p[None], ls.f[None], ls.singles[None], ls.pairs[None])
    matrix = m[0]
    matrix.setflags(write=False)
    top = float(top[0])
    return HessianReport(matrix=matrix, max_eigenvalue=top, psd_margin=-top)
