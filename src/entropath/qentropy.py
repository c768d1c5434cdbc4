"""Renyi and Tsallis entropies and their curvature along affine parameter paths.

Both families reduce to the Shannon entropy as q -> 1; that limit point is
represented by kind="shannon" rather than by q itself. Both curvatures come
from the power sum T(t) = sum_k f_k(t)^q and its t-derivatives in ratio form:
with r1 = f'/f and r2 = f''/f, T' = q sum f^q r1 and
T'' = q(q-1) sum f^q r1^2 + q sum f^q r2. The ratios do not depend on q, so
a QBasis holds them once and each q raises f to the one power f^q, which
overflows nowhere that a mass is small. The Tsallis per-index decomposition,
with the two boundary terms the index relabeling produces, is kept as an
independent route to the same curvature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import (
    AffinePath,
    _fgh,
    _shift_diff1,
    _shift_diff2,
    path_at,
    shannon_entropy,
    stacked_entropy_curvature,
)
from .errors import BoundaryError, ConsistencyError
from .inequalities import MarginReport
from .pmf import ParamVector, _masses

__all__ = [
    "CRITICAL_Q_PROBES",
    "CriticalQResult",
    "EntropySpec",
    "QBasis",
    "TsallisUkReport",
    "basis_power_sums",
    "basis_q_curvature",
    "binomial2_tsallis_curvature",
    "chain_rule_check",
    "find_critical_q",
    "power_sum_derivatives",
    "q_basis",
    "q_curvature",
    "q_entropy",
    "tsallis_uk",
    "tsallis_uk_tilde",
]

_KINDS = ("shannon", "renyi", "tsallis")


def _checked_q(q) -> float:
    """q as a float: finite, nonnegative and away from the Shannon point q = 1."""
    try:
        q = float(q)
    except OverflowError:  # an integer past the float range
        q = math.inf
    if not math.isfinite(q) or q < 0.0:
        raise ValueError("q must be a finite nonnegative real")
    if q == 1.0:
        raise ValueError("q = 1 is the Shannon point; use kind='shannon'")
    return q


@dataclass(frozen=True)
class EntropySpec:
    """Which entropy functional to evaluate; q is required away from the Shannon point."""

    kind: str
    q: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown entropy kind {self.kind!r}")
        if self.kind == "shannon":
            if self.q is not None:
                raise ValueError("the Shannon spec carries no q")
            return
        if self.q is None:
            raise ValueError(f"{self.kind} entropy needs a q value")
        object.__setattr__(self, "q", _checked_q(self.q))

    @classmethod
    def shannon(cls) -> "EntropySpec":
        return cls("shannon")

    @classmethod
    def renyi(cls, q: float) -> "EntropySpec":
        return cls("renyi", q)

    @classmethod
    def tsallis(cls, q: float) -> "EntropySpec":
        return cls("tsallis", q)


def q_entropy(f, spec: EntropySpec) -> float:
    """Entropy of a mass function in nats.

    Zero masses contribute nothing to the power sum (0^q = 0 for every
    q >= 0, including q = 0, so the q = 0 Renyi value is the log of the
    number of nonzero masses).
    """
    v = _masses(f)
    if spec.kind == "shannon":
        return shannon_entropy(v)
    q = spec.q
    pos = v[v > 0.0]
    power_sum = float((pos**q).sum())
    if spec.kind == "renyi":
        return math.log(power_sum) / (1.0 - q)
    return (1.0 - power_sum) / (q - 1.0)


def _require_positive(f: np.ndarray) -> None:
    """The one zero-mass check of every q function: each mass strictly positive."""
    if (f <= 0.0).any():
        raise BoundaryError("q entropies need strictly positive masses")


class QBasis(NamedTuple):
    """The q-independent part of the power sums of stacks f (m, n+1), g (m, n), h (m, n-1).

    f holds the masses, every one strictly positive; r (4, m, n+1) stacks
    r1^2, r2 = f''/f, r1 = f'/f and 1, with f' and f'' the shifted differences
    of g and h. One product with f^q and one sum over k give the power sums:
    the first two rows T'', all four T' and T too. Built by q_basis;
    read-only where it is cached.
    """

    f: np.ndarray
    r: np.ndarray


def q_basis(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> QBasis:
    """The QBasis of the stacks; raises BoundaryError on a zero mass."""
    _require_positive(f)
    n = g.shape[-1]
    r = np.empty((4,) + f.shape)
    np.divide(_shift_diff1(g, n), f, out=r[2])
    np.multiply(r[2], r[2], out=r[0])
    np.divide(_shift_diff2(h, n), f, out=r[1])
    r[3] = 1.0
    return QBasis(f, r)


def _weighted_sums(basis: QBasis, q: float, rows: int):
    """T'' and the sums over k of f^q times the first rows of basis.r, one column per row."""
    s = (basis.f**q * basis.r[:rows]).sum(axis=-1)
    return q * (q - 1.0) * s[0] + q * s[1], s


def basis_power_sums(basis: QBasis, q: float):
    """T = sum_k f_k^q and its first two t-derivatives, one value per row: the per-q pass."""
    t2, s = _weighted_sums(basis, q, 4)
    return s[3], q * s[2], t2


def basis_q_curvature(basis: QBasis, spec: EntropySpec) -> np.ndarray:
    """Renyi or Tsallis curvature of every row of the basis, from its power sums: the per-q pass.

    Tsallis is T''/(1-q), which needs only T''; Renyi is
    T''/((1-q) T) - (T'/T)^2/(1-q).
    """
    q = spec.q
    if spec.kind == "tsallis":
        return _weighted_sums(basis, q, 2)[0] / (1.0 - q)
    t0, t1, t2 = basis_power_sums(basis, q)
    return t2 / ((1.0 - q) * t0) - (t1 / t0) ** 2 / (1.0 - q)


def power_sum_derivatives(params: ParamVector, slopes, q: float) -> tuple[float, float, float]:
    """T = sum_k f_k^q with its first two t-derivatives along the affine direction."""
    t0, t1, t2 = basis_power_sums(q_basis(*_fgh(params, slopes)), q)
    return float(t0[0]), float(t1[0]), float(t2[0])


def _tsallis_terms(f: np.ndarray, g: np.ndarray, h: np.ndarray, q: float):
    """Rows of the h part and the g part of u_k (their sum), k = 0..n-2, and the powers f^q.

    Each term is f_j^q times a q-independent ratio (h_k/f_j, (g_k/f_j)^2,
    g_k g_(k+1)/f_j^2), so f^q is the one power formed, and a small mass
    overflows no f^(q-2).
    """
    _require_positive(f)
    fq = f**q
    fa, fb, fc = f[:, :-2], f[:, 1:-1], f[:, 2:]
    wa, wb, wc = fq[:, :-2], fq[:, 1:-1], fq[:, 2:]
    ga, gb = g[:, :-1], g[:, 1:]
    h_part = -(1.0 / (1.0 - q)) * (wa * (h / fa) - 2.0 * wb * (h / fb) + wc * (h / fc))
    g_part = wa * (ga / fa) ** 2 - 2.0 * wb * (ga / fb) * (gb / fb) + wc * (gb / fc) ** 2
    return h_part, g_part, fq


def tsallis_uk(params: ParamVector, slopes, q: float) -> np.ndarray:
    """Per-index Tsallis analogue of the Shannon curvature decomposition, k = 0..n-2."""
    h_part, g_part, _ = _tsallis_terms(*_fgh(params, slopes), q)
    return (h_part + g_part)[0]


def q_curvature(params: ParamVector, slopes, spec: EntropySpec) -> float:
    """Second t-derivative of the chosen entropy at the point (p, p'): a one-row stack.

    Shannon is calculus.stacked_entropy_curvature; Renyi and Tsallis are the
    basis and the per-q pass, which give a row the same bits in any stack.
    """
    f, g, h = _fgh(params, slopes)
    if spec.kind == "shannon":
        return float(stacked_entropy_curvature(f, g, h)[0])
    return float(basis_q_curvature(q_basis(f, g, h), spec)[0])


def chain_rule_check(path: AffinePath, t: float, q: float) -> MarginReport:
    """Verify the Renyi/Tsallis curvature chain rule at one path point.

    Margin 0 is minus the relative residual of
    H_R'' = H_T''/T - (T'/T)^2 / (1-q), with H_R'' from the power sums and
    H_T'' from the per-index decomposition; margin 1 is the correction term
    oriented by the side of q = 1, confirming the sign that makes one
    concavity statement imply the other.
    """
    renyi = EntropySpec.renyi(q)  # refuses q = 1
    f, g, h = _fgh(path_at(path, t), path.slopes)
    basis = q_basis(f, g, h)
    t0, t1, _ = (float(x[0]) for x in basis_power_sums(basis, q))
    lhs = float(basis_q_curvature(basis, renyi)[0])
    correction = -((t1 / t0) ** 2) / (1.0 - q)
    # H_T'' from the per-index decomposition and its two boundary terms, not from T''.
    h_part, g_part, fq = _tsallis_terms(f, g, h, q)
    n = g.shape[-1]
    boundary = fq[:, n - 1] * (g[:, n - 1] / f[:, n - 1]) ** 2 + fq[:, 1] * (g[:, 0] / f[:, 1]) ** 2
    tsallis = float(-q * ((h_part + g_part).sum(axis=-1) + boundary)[0])
    rhs = tsallis / t0 + correction
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
    direction = -correction if q < 1.0 else correction
    return MarginReport.from_array("chain_rule", np.array((-residual, direction)), 1e-8)


@dataclass(frozen=True, eq=False)
class TsallisUkReport:
    """Both Tsallis decomposition sequences and their telescope bookkeeping.

    Sequences run over k = 0..n-1: one index past the h support, so the
    left-derivative terms close their telescopes at the top (g and h read
    zero past their supports). telescope_residual = sum(u_tilde) - sum(u)
    and boundary_term is its closed form; they must agree, and when the
    boundary term vanishes the two sums coincide.
    """

    u: np.ndarray
    u_tilde: np.ndarray
    sum_u: float
    sum_u_tilde: float
    telescope_residual: float
    boundary_term: float

    @property
    def boundary_vanishes(self) -> bool:
        return abs(self.boundary_term) <= 1e-12 * max(1.0, abs(self.sum_u))


def tsallis_uk_tilde(path: AffinePath, t: float, q: float) -> TsallisUkReport:
    """Tsallis u_k alongside its discrete-derivative rewriting u~_k.

    u~_k replaces part of the quadratic g-form by left discrete derivatives;
    summing, the derivative terms telescope and the two sums differ exactly
    by ((1-q)/(2-q)) g_0^2 (f_1^{q-2} - f_0^{q-2}), which is asserted here.
    q = 1 is the Shannon point and q = 2 makes the rewriting singular.
    """
    if q in (1.0, 2.0):
        raise ValueError("the rewriting is undefined at q = 1 and q = 2")
    params = path_at(path, t)
    f, g, h = _fgh(params, path.slopes)
    h_part, g_part, fq = (row[0] for row in _tsallis_terms(f, g, h, q))
    f, g = f[0], g[0]
    # k = n-1 lies past the h support, where u_k keeps only g_{n-1}^2 f_{n-1}^{q-2}.
    hterm = np.append(h_part, 0.0)
    u = np.append(h_part + g_part, fq[-2] * (g[-1] / f[-2]) ** 2)
    # w[m] = g_m^2 (f_{m+1}^{q-2} - f_m^{q-2}), the telescand at k = m - 1; g_n reads zero.
    w = np.append(fq[1:] * (g / f[1:]) ** 2 - fq[:-1] * (g / f[:-1]) ** 2, 0.0)
    step = np.diff(g, append=0.0) / f[1:]
    u_tilde = hterm + fq[1:] * step**2 + (1.0 / (2.0 - q)) * np.diff(w)
    sum_u = float(u.sum())
    sum_u_tilde = float(u_tilde.sum())
    residual = sum_u_tilde - sum_u
    boundary = ((1.0 - q) / (2.0 - q)) * float(w[0])
    if abs(residual - boundary) > 1e-10 * max(1.0, abs(sum_u), abs(sum_u_tilde), abs(boundary)):
        raise ConsistencyError(
            f"telescope residual {residual!r} disagrees with its closed form {boundary!r}"
        )
    return TsallisUkReport(
        u=u,
        u_tilde=u_tilde,
        sum_u=sum_u,
        sum_u_tilde=sum_u_tilde,
        telescope_residual=residual,
        boundary_term=boundary,
    )


@dataclass(frozen=True)
class CriticalQResult:
    """Outcome of a bisection for the q where a curvature probe changes sign."""

    family: str
    bracket: tuple[float, float]
    root: float
    sign_trace: tuple[tuple[float, int], ...]
    caveat: str | None = None

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.root <= hi:
            raise ValueError("root must lie inside the bracket")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "bracket": [self.bracket[0], self.bracket[1]],
            "root": self.root,
            "sign_trace": [[q, s] for q, s in self.sign_trace],
            "caveat": self.caveat,
        }


def binomial2_tsallis_curvature(q: float) -> float:
    """Closed-form Tsallis curvature of the equal-two-coin family at its midpoint."""
    return 2.0 ** (3.0 - 2.0 * q) * (2.0 - 4.0 * q + 2.0**q) * q / (q - 1.0)


@functools.cache
def _probe_point(p: tuple[float, ...], slopes: tuple[float, ...]) -> QBasis:
    """The QBasis of a fixed probe point over its largest mass, built once per point and read-only.

    f, g and h are divided by the largest mass first: the ratios stay, the
    weights become (f / max f)^q, and a curvature comes out divided by
    max_k f_k^q, which keeps its sign where every f_k^q underflows. The Renyi
    curvature, a ratio of the power sums, is unchanged up to rounding.
    """
    f, g, h = _fgh(ParamVector(np.array(p)), slopes)
    top = f.max()
    basis = q_basis(f / top, g / top, h / top)
    for array in basis:
        array.flags.writeable = False
    return basis


def _exact_probe(p: tuple[float, ...], slopes: tuple[float, ...], kind: str):
    """The q -> curvature probe of kind at the fixed point (p, slopes), over its largest mass."""
    return lambda q: float(basis_q_curvature(_probe_point(p, slopes), EntropySpec(kind, q))[0])


CRITICAL_Q_PROBES = {
    # 2 - 4q + 2^q divided by 2^max(q, 0): the same sign, and no power overflows at a finite q.
    "analytic_tsallis": lambda q: (0.5 - q) * 2.0 ** (2.0 - max(q, 0.0)) + 2.0 ** min(q, 0.0),
    # Over max_k f_k^q = 2^-q, by the middle mass alone it tends to 8q/(q-1) as q grows;
    # binomial2_tsallis_curvature is the closed form of the undivided curvature.
    "binomial2_tsallis": _exact_probe((0.5, 0.5), (1.0, 1.0), "tsallis"),
    # The conjectured threshold is a p -> 0 limit, probed at a small fixed p.
    "bernoulli_renyi": _exact_probe((1e-4,), (1.0,), "renyi"),
}


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def find_critical_q(
    family: str,
    bracket: tuple[float, float],
    probe=None,
    tol: float = 1e-7,
) -> CriticalQResult:
    """Bisect a sign change of a curvature probe in q.

    family names a built-in probe unless an explicit one is given. Plain midpoint
    bisection, no acceleration, until the bracket is no wider than tol or holds no
    float strictly inside; every evaluation lands in the sign trace. Raises if the
    probe does not change sign over the bracket.
    """
    if probe is None:
        if family not in CRITICAL_Q_PROBES:
            raise ValueError(f"unknown probe family {family!r}")
        probe = CRITICAL_Q_PROBES[family]
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy q_lo < q_hi")
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    s_lo = _sign(probe(lo))
    s_hi = _sign(probe(hi))
    trace = [(lo, s_lo), (hi, s_hi)]
    if s_lo == s_hi or 0 in (s_lo, s_hi):
        raise ValueError("violation predicate is constant over the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s_mid = _sign(probe(mid))
        trace.append((mid, s_mid))
        if s_mid == 0:
            lo = hi = mid
            break
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return CriticalQResult(
        family=family,
        bracket=(float(bracket[0]), float(bracket[1])),
        root=0.5 * (lo + hi),
        sign_trace=tuple(trace),
    )
