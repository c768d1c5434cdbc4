"""Renyi and Tsallis entropies and their curvature along affine parameter paths.

Both families reduce to the Shannon entropy as q -> 1; that limit point is
represented by kind="shannon" rather than by q itself. Curvatures come from
the power sum T(t) = sum_k f_k(t)^q and its analytic t-derivatives, or for
Tsallis equivalently from a per-index decomposition mirroring the Shannon
one, with the two boundary terms that the index relabeling produces kept
explicit so the value is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .calculus import (
    AffinePath,
    _check_slopes,
    _fgh,
    _shift_diff1,
    _shift_diff2,
    path_at,
    shannon_entropy,
    entropy_curvature,
)
from .errors import BoundaryError, ConsistencyError
from .inequalities import MarginReport
from .numdiff import central_second
from .pmf import ParamVector, Pmf, compute_pmf

__all__ = [
    "CRITICAL_Q_PROBES",
    "CriticalQResult",
    "EntropySpec",
    "TsallisUkReport",
    "binomial2_tsallis_curvature",
    "chain_rule_check",
    "find_critical_q",
    "power_sum_derivatives",
    "q_curvature",
    "q_entropy",
    "q_entropy_second_derivative",
    "tsallis_uk",
    "tsallis_uk_tilde",
]

_KINDS = ("shannon", "renyi", "tsallis")


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
        q = float(self.q)
        if not math.isfinite(q) or q < 0.0:
            raise ValueError("q must be a finite nonnegative real")
        if q == 1.0:
            raise ValueError("q = 1 is the Shannon point; use kind='shannon'")
        object.__setattr__(self, "q", q)

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
    v = f.values if isinstance(f, Pmf) else np.asarray(f, dtype=np.float64)
    if spec.kind == "shannon":
        return shannon_entropy(v)
    q = spec.q
    pos = v[v > 0.0]
    power_sum = float((pos**q).sum())
    if spec.kind == "renyi":
        return math.log(power_sum) / (1.0 - q)
    return (1.0 - power_sum) / (q - 1.0)


def power_sum_derivatives(params: ParamVector, slopes, q: float) -> tuple[float, float, float]:
    """T = sum_k f_k^q with its first two t-derivatives along the affine direction."""
    slopes = _check_slopes(params, slopes)
    f, g, h = _fgh(params, slopes)
    if np.any(f <= 0.0):
        raise BoundaryError("power sums need strictly positive masses")
    n = params.n
    df = _shift_diff1(g, n)
    d2f = _shift_diff2(h, n)
    t0 = float((f**q).sum())
    t1 = float(q * ((f ** (q - 1.0)) * df).sum())
    t2 = float(
        q * (q - 1.0) * ((f ** (q - 2.0)) * df**2).sum() + q * ((f ** (q - 1.0)) * d2f).sum()
    )
    return t0, t1, t2


def tsallis_uk(params: ParamVector, slopes, q: float) -> np.ndarray:
    """Per-index Tsallis analogue of the Shannon curvature decomposition, k = 0..n-2."""
    slopes = _check_slopes(params, slopes)
    f, g, h = _fgh(params, slopes)
    if np.any(f <= 0.0):
        raise BoundaryError("the decomposition needs strictly positive masses")
    return _tsallis_uk_from(f, g, h, q)


def _tsallis_uk_from(f: np.ndarray, g: np.ndarray, h: np.ndarray, q: float) -> np.ndarray:
    if h.size == 0:
        return np.zeros(0)
    fq1 = f ** (q - 1.0)
    fq2 = f ** (q - 2.0)
    fa, fb, fc = fq1[:-2], fq1[1:-1], fq1[2:]
    wa, wb, wc = fq2[:-2], fq2[1:-1], fq2[2:]
    ga, gb = g[:-1], g[1:]
    return -(1.0 / (1.0 - q)) * h * (fa - 2.0 * fb + fc) + (
        ga**2 * wa - 2.0 * ga * gb * wb + gb**2 * wc
    )


def q_curvature(params: ParamVector, slopes, spec: EntropySpec) -> float:
    """Second t-derivative of the chosen entropy at the point (p, p').

    Tsallis uses the per-index decomposition plus the two boundary terms the
    relabeling produces, which makes it exact; Renyi goes through the power
    sum and its derivatives.
    """
    slopes = _check_slopes(params, slopes)
    if spec.kind == "shannon":
        return entropy_curvature(params, slopes)
    q = spec.q
    if spec.kind == "tsallis":
        f, g, h = _fgh(params, slopes)
        if np.any(f <= 0.0):
            raise BoundaryError("curvature needs strictly positive masses")
        u = _tsallis_uk_from(f, g, h, q)
        n = params.n
        boundary = g[n - 1] ** 2 * f[n - 1] ** (q - 2.0) + g[0] ** 2 * f[1] ** (q - 2.0)
        return float(-q * (u.sum() + boundary))
    t0, t1, t2 = power_sum_derivatives(params, slopes, q)
    return t2 / ((1.0 - q) * t0) - (t1 / t0) ** 2 / (1.0 - q)


def q_entropy_second_derivative(
    path: AffinePath, t: float, spec: EntropySpec, step: float | None = None
) -> float:
    """Analytic curvature of the chosen entropy along the path at t.

    With a step given, the value is cross-checked against a centered finite
    difference of the entropy before being returned; the check needs room
    for t +- step inside the path domain.
    """
    params = path_at(path, t)
    value = q_curvature(params, path.slopes, spec)
    if step is not None:
        lo, hi = path.t_domain
        if not (lo <= t - step and t + step <= hi):
            raise BoundaryError("no room for centered differences at this t")
        fd = central_second(lambda s: q_entropy(compute_pmf(path_at(path, s)), spec), t, step)
        if abs(value - fd) > 1e-4 * max(abs(value), abs(fd), 1.0):
            raise ConsistencyError(f"analytic curvature {value!r} vs finite difference {fd!r}")
    return value


def chain_rule_check(path: AffinePath, t: float, q: float) -> MarginReport:
    """Verify the Renyi/Tsallis curvature chain rule at one path point.

    Margin 0 is minus the relative residual of
    H_R'' = H_T''/T - (T'/T)^2 / (1-q); margin 1 is the correction term
    oriented by the side of q = 1, confirming the sign that makes one
    concavity statement imply the other.
    """
    if q == 1.0:
        raise ValueError("q = 1 is the Shannon point")
    params = path_at(path, t)
    slopes = path.slopes
    t0, t1, _ = power_sum_derivatives(params, slopes, q)
    lhs = q_curvature(params, slopes, EntropySpec.renyi(q))
    correction = -((t1 / t0) ** 2) / (1.0 - q)
    rhs = q_curvature(params, slopes, EntropySpec.tsallis(q)) / t0 + correction
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
    direction = -correction if q < 1.0 else correction
    return MarginReport.build("chain_rule", [(0, -residual), (1, direction)], 1e-8)


@dataclass(frozen=True, eq=False)
class TsallisUkReport:
    """Both Tsallis decomposition sequences and their telescope bookkeeping.

    Sequences run over k = 0..n-1: one index past the h support, so the
    left-derivative terms close their telescopes at the top (padded g and h
    read zero there, and a padded power slot only ever multiplies a zero
    coefficient). telescope_residual = sum(u_tilde) - sum(u) and boundary_term
    is its closed form; they must agree, and when the boundary term vanishes
    the two sums coincide.
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
    if np.any(f <= 0.0):
        raise BoundaryError("the decomposition needs strictly positive masses")
    n = params.n
    gp = np.append(g, 0.0)
    hp = np.append(h, 0.0)
    # Padded power slots stay zero: they only ever meet zero coefficients.
    fq1 = np.zeros(n + 2)
    fq1[: n + 1] = f ** (q - 1.0)
    fq2 = np.zeros(n + 2)
    fq2[: n + 1] = f ** (q - 2.0)
    ks = np.arange(n)
    hterm = -(1.0 / (1.0 - q)) * hp * (fq1[ks] - 2.0 * fq1[ks + 1] + fq1[ks + 2])
    u = hterm + (
        gp[ks] ** 2 * fq2[ks]
        - 2.0 * gp[ks] * gp[ks + 1] * fq2[ks + 1]
        + gp[ks + 1] ** 2 * fq2[ks + 2]
    )
    w = np.empty(n + 1)  # w[m] holds the telescand at k = m - 1
    w[0] = g[0] ** 2 * (fq2[1] - fq2[0])
    w[1:] = gp[1:] ** 2 * (fq2[2 : n + 2] - fq2[1 : n + 1])
    u_tilde = (
        hterm
        + (gp[ks + 1] - gp[ks]) ** 2 * fq2[ks + 1]
        + (1.0 / (2.0 - q)) * (w[1:] - w[:-1])
    )
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def binomial2_tsallis_curvature(q: float) -> float:
    """Closed-form Tsallis curvature of the equal-two-coin family at its midpoint."""
    return 2.0 ** (3.0 - 2.0 * q) * (2.0 - 4.0 * q + 2.0**q) * q / (q - 1.0)


def _binomial2_tsallis_fd_probe(q: float, step: float = 1e-4) -> float:
    spec = EntropySpec.tsallis(q)

    def ent(t: float) -> float:
        return q_entropy(compute_pmf(ParamVector(np.array([t, t]))), spec)

    return central_second(ent, 0.5, step)


def _bernoulli_renyi_probe(q: float, p: float = 1e-4) -> float:
    # The conjectured threshold is a p -> 0 limit, probed at a small fixed p.
    return q_curvature(ParamVector(np.array([p])), np.array([1.0]), EntropySpec.renyi(q))


CRITICAL_Q_PROBES = {
    "analytic_tsallis": lambda q: 2.0 - 4.0 * q + 2.0**q,
    "binomial2_tsallis": binomial2_tsallis_curvature,
    "binomial2_tsallis_fd": _binomial2_tsallis_fd_probe,
    "bernoulli_renyi": _bernoulli_renyi_probe,
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

    family names a built-in probe unless an explicit one is given. Plain
    midpoint bisection, no acceleration; every evaluation lands in the sign
    trace. Raises if the probe does not change sign over the bracket.
    """
    if probe is None:
        if family not in CRITICAL_Q_PROBES:
            raise ValueError(f"unknown probe family {family!r}")
        probe = CRITICAL_Q_PROBES[family]
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy q_lo < q_hi")
    s_lo = _sign(probe(lo))
    s_hi = _sign(probe(hi))
    trace = [(lo, s_lo), (hi, s_hi)]
    if s_lo == s_hi or 0 in (s_lo, s_hi):
        raise ValueError("probe does not change sign over the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
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
