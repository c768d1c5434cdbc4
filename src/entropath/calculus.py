"""Affine parameter paths and analytic entropy derivatives along them.

The central objects are the mixture sequences g (slope-weighted leave-one-out
pmfs) and h (leave-two-out pmfs): the first two t-derivatives of the
mass function along an affine path are shifted differences of g and h, and
the entropy curvature follows from them in closed form. Natural logarithms
throughout; entropies are in nats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import pmf
from .errors import BoundaryError
from .pmf import ParamVector, _masses

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
    "stacked_fgh",
]


def _check_slopes(params: ParamVector, slopes) -> np.ndarray:
    arr = np.asarray(slopes, dtype=np.float64)
    if arr.shape != (params.n,):
        raise ValueError(f"expected {params.n} slopes, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("slopes must be finite")
    return arr


def _inside(p: np.ndarray, slopes: np.ndarray, t: float) -> bool:
    """Whether p + t * slopes lies in the parameter cube."""
    x = p + t * slopes
    return bool(np.all((x >= 0.0) & (x <= 1.0)))


def _nudge_inside(p: np.ndarray, slopes: np.ndarray, t: float, toward: float) -> float:
    """t moved up to 8 ulps toward toward, back inside the cube that division rounding left."""
    for _ in range(8):
        if not math.isfinite(t) or _inside(p, slopes, t):
            break
        t = math.nextafter(t, toward)
    return t


def _max_feasible_domain(p: np.ndarray, slopes: np.ndarray) -> tuple[float, float]:
    lo, hi = -math.inf, math.inf
    for pi, si in zip(p, slopes):
        if si > 0.0:
            lo = max(lo, -pi / si)
            hi = min(hi, (1.0 - pi) / si)
        elif si < 0.0:
            lo = max(lo, (1.0 - pi) / si)
            hi = min(hi, -pi / si)
    hi = _nudge_inside(p, slopes, hi, lo)
    return _nudge_inside(p, slopes, lo, hi), hi


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
        if not all(math.isinf(t) or _inside(self.p0.p, slopes, t) for t in (lo, hi)):
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


def stacked_fgh(p: np.ndarray, slopes: np.ndarray):
    """f (..., n+1), g (..., n) and h (..., n-1) of every row of p and slopes (..., n).

    With a the slopes and c_t = q_t + p_t x, step t maps F <- c_t F,
    G <- c_t G + a_t F and H <- c_t H + 2 a_t G (old F and G on the right), so
    g_k = sum_i a_i f^(i)_k and h_k = sum_{i != j} a_i a_j f^(i,j)_k come
    without a leave-out pmf. F, G and H / 2 share one k-major buffer, the
    factor c_t is pmf._step on all three and the carry is added after it:
    f has the bits of pmf._convolve_bernoullis, and a row has the same bits
    in any stack.
    """
    n = p.shape[-1]
    buf = np.zeros((n + 1, 3) + p.shape[:-1])
    buf[0, 0] = 1.0
    q = 1.0 - p
    for t in range(n):
        carry = buf[: t + 1, :2] * slopes[..., t]
        pmf._step(buf[: t + 2], p[..., t], q[..., t])
        buf[: t + 1, 1:] += carry
    # k last, and each row contiguous in k, as the kernels' sums need.
    out = buf.transpose((*range(1, buf.ndim), 0)).copy()
    return out[0], out[1, ..., :n], 2.0 * out[2, ..., : max(n - 1, 0)]  # doubling is exact


def _fgh(params: ParamVector, slopes):
    """f, g and h of one vector as stacks in the stacked kernels' shape, one row per slope row.

    slopes is one slope vector (n,), checked here, or a stack (m, n) the caller built.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    if slopes.ndim == 1:
        slopes = _check_slopes(params, slopes)[None]
    return stacked_fgh(np.broadcast_to(params.p, slopes.shape), slopes)


def path_derivatives(params: ParamVector, slopes) -> PathDerivatives:
    """g_k = sum_i p_i' f^(i)_k and h_k = sum_{i != j} p_i' p_j' f^(i,j)_k."""
    _, g, h = _fgh(params, slopes)
    return PathDerivatives(g=g[0], h=h[0])


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
    return _shift_diff1(g[0], params.n)


def pmf_second_time_derivative(path: AffinePath, t: float) -> np.ndarray:
    """d^2 f_k / dt^2 along the path, length n+1; telescopes to zero."""
    params = path_at(path, t)
    _, _, h = _fgh(params, path.slopes)
    return _shift_diff2(h[0], params.n)


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
    return float(stacked_entropy_curvature(*_fgh(params, slopes[None]))[0])


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


def stacked_entropy_hessian(p: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy Hessians (m, n, n) of the rows of p (m, n) and their top eigenvalues (m,).

    f (m, n+1) holds the rows' pmfs. Entry (i, j) is -sum_k d^(i)_k d^(j)_k / f_k,
    less <f^(i,j), w> off the diagonal; d^(i) is the first difference of f^(i),
    u = log f + 1 and w_k = u_k - 2 u_{k+1} + u_{k+2}. By the adjoints W_{n-1} = w,
    W_{j-1}[k] = q_j W_j[k] + p_j W_j[k+1], that sum is X_i . W_j for i < j, X_i
    convolving the components below j but i. One pass over j takes those sums in k
    order and applies component j to every X_i and to the prefix X_j starts as;
    X_i ends as f^(i). A row has the same bits in any stack; entropy_hessian is a one-row call.
    """
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise BoundaryError("Hessian requires parameters strictly inside (0, 1)")
    m, n = p.shape
    pc = np.ascontiguousarray(p.T)[:, :, None]  # pc[j] holds p_j of every row, (m, 1)
    qc = 1.0 - pc
    u = np.log(f) + 1.0
    adj = np.empty((n, max(n - 1, 0), m))  # adj[j, k] = W_j[k] for k < j
    adj[n - 1] = (u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:]).T
    for j in range(n - 1, 1, -1):
        np.multiply(adj[j, : j - 1], qc[j, :, 0], out=adj[j - 1, : j - 1])
        adj[j - 1, : j - 1] += adj[j, 1:j] * pc[j, :, 0]
    # rows[k, r, i] = X_i[k] of row r, column n the prefix; unborn columns stay zero.
    rows = np.zeros((n + 1, m, n + 1))
    rows[0, :, n] = 1.0
    cross = np.zeros((m, n, n + 1))  # cross[r, j, i] = X_i . W_j, zero unless i < j
    for j in range(n):
        np.add.reduce(rows[:j] * adj[j, :j, :, None], axis=0, out=cross[:, j])
        born = rows[: j + 1, :, n].copy()
        pmf._step(rows[: j + 2], pc[j], qc[j])
        rows[: j + 1, :, j] = born
    d = _shift_diff1(rows[:n, :, :n].transpose(1, 2, 0), n)
    h = -np.matmul(d * (1.0 / f)[:, None, :], d.transpose(0, 2, 1))
    cross = cross[:, :, :n]
    h = 0.5 * (h + h.transpose(0, 2, 1)) - (cross + cross.transpose(0, 2, 1))
    return h, np.linalg.eigvalsh(h)[:, -1]


def entropy_hessian(params: ParamVector) -> HessianReport:
    """Full Hessian of the entropy in the parameters, at a strictly interior point."""
    m, top = stacked_entropy_hessian(params.p[None], params.pmf.values[None])
    matrix = m[0]
    matrix.setflags(write=False)
    top = float(top[0])
    return HessianReport(matrix=matrix, max_eigenvalue=top, psd_margin=-top)
