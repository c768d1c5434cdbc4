"""Margin checkers for the inequality ladder attached to Bernoulli sums.

Every checker reports signed slacks oriented so that a nonnegative margin
means the inequality holds, each with its scale: the largest absolute monomial
of the inequality there. Two functions hold the whole verdict rule: _tolerance
(max(ABS_FLOOR, REL_TOL * a row's largest scale), or a fixed theorem tolerance)
and _verdict (worst, holds, cut). The cubic checks subtract near-equal
products, so purely absolute tolerances would misfire across magnitudes.
"""

from __future__ import annotations

import collections
import enum
import functools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .calculus import _check_slopes, _fgh
from .errors import BoundaryError, ConsistencyError, LemmaHypothesisError
from .pmf import ParamVector, _check_pair, _convolve_bernoullis, _leave_two_out, _masses, _pair_rows

__all__ = [
    "ABS_FLOOR",
    "MarginReport",
    "Margins",
    "REL_TOL",
    "SmoothFunction",
    "UkBranch",
    "UkDecomposition",
    "UkTerm",
    "X_LOG_X",
    "c1_product_identity_residual",
    "check_functional_lemma",
    "check_monotone_worst_case",
    "check_quadratic_decomposition_n2",
    "compute_cij",
    "margin_rows",
    "rows_to_csv",
    "stacked_c1",
    "stacked_c1bar",
    "stacked_cij",
    "stacked_condition4",
    "stacked_corollary_fgh",
    "stacked_log_concavity",
    "stacked_two_fold_log_concavity",
    "stacked_uk",
]

ABS_FLOOR = 1e-13
REL_TOL = 1e-10
# Fixed tolerance of the theorem-level margins: u_k, H'', the Hessian, q-entropy concavity.
_THEOREM_TOLERANCE = 1e-9


def _tolerance(scale: np.ndarray | None):
    """Each row's tolerance from its margins' scales (..., K), or _THEOREM_TOLERANCE for None."""
    if scale is None:
        return _THEOREM_TOLERANCE
    return np.maximum(ABS_FLOOR, REL_TOL * scale.max(axis=-1, initial=0.0))


_Verdict = collections.namedtuple("_Verdict", "pos worst holds cut")  # arrays (m,); see _verdict


def _verdict(values: np.ndarray, tolerance) -> _Verdict:
    """The verdict on each row of values (m, K) under its tolerance (m,), or one for all rows.

    pos is where min() lands in the row: its first minimum, a NaN only when
    the row starts with one; an empty row reads as one +inf margin. The row
    holds when worst >= -tolerance, and a scan cuts it as a certificate when
    worst < -10 tolerance; a NaN worst does neither.
    """
    if not values.shape[-1]:
        values = np.full((len(values), 1), math.inf)
    pos = values.argmin(axis=-1)  # a row's first NaN, if it has one
    worst = values[np.arange(len(values)), pos]
    if values.shape[-1] > 1:  # a lone margin is its own minimum, even a NaN
        late = np.flatnonzero(np.isnan(worst) & (pos > 0))  # min() skips a NaN that does not lead
        if late.size:
            pos[late] = np.nanargmin(values[late], axis=-1)
            worst[late] = values[late, pos[late]]
    return _Verdict(pos, worst, worst >= -tolerance, worst < -10.0 * tolerance)


@dataclass(frozen=True, eq=False)
class MarginReport:
    """Signed slacks of one inequality family.

    values[t] is the margin LHS - RHS at index ks[t], oriented so >= 0 means
    the inequality holds there; both are read-only one-dimensional arrays.
    worst, worst_position (None when empty) and holds are _verdict's for
    values under tolerance.
    """

    name: str
    ks: np.ndarray
    values: np.ndarray
    tolerance: float
    worst: float
    holds: bool
    worst_position: int | None = None

    @classmethod
    def from_array(
        cls, name: str, values: np.ndarray, tolerance: float, ks: np.ndarray | None = None
    ) -> "MarginReport":
        """Report for the one-dimensional margins values[t] at index ks[t], or at t itself.

        Both are kept as read-only views, so the caller's arrays stay writable.
        """
        values = _read_only(values, np.float64)
        ks = _read_only(np.arange(values.size) if ks is None else ks, np.int64)
        if values.ndim != 1 or ks.shape != values.shape:
            raise ValueError("margins and their indices must be one-dimensional and of one size")
        tolerance = float(tolerance)
        verdict = _verdict(values[None], tolerance)
        pos = int(verdict.pos[0]) if values.size else None
        return cls(name, ks, values, tolerance, verdict.worst.item(0), bool(verdict.holds[0]), pos)

    @property
    def margins(self) -> tuple[tuple[int, float], ...]:
        """The (index, margin) pairs, built on demand."""
        return tuple(zip(self.ks.tolist(), self.values.tolist()))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "margins": [[k, v] for k, v in zip(self.ks.tolist(), self.values.tolist())],
            "tolerance": self.tolerance,
            "worst": None if math.isinf(self.worst) else self.worst,
            "holds": self.holds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _read_only(a, dtype) -> np.ndarray:
    """A read-only view of a as an array of dtype."""
    view = np.asarray(a, dtype=dtype).view()
    view.setflags(write=False)
    return view


class Margins(NamedTuple):
    """One checker's margins over a stack of m instances.

    values (m, K) holds each row's margins at the indices ks (K,), which
    default to 0..K-1, and scale (m, K) each margin's largest absolute
    monomial, or None for a theorem-level checker. Every stacked_* checker
    returns one, judged by _verdict under _tolerance(scale). explorer.CHECKERS
    lists the kernels a scan runs, and explorer.group_report turns a group's
    row 0 into a MarginReport.
    """

    values: np.ndarray
    scale: np.ndarray | None
    ks: np.ndarray | None = None

    @property
    def tolerance(self) -> np.ndarray:
        """Each row's tolerance (m,), from _tolerance(scale)."""
        return np.broadcast_to(_tolerance(self.scale), len(self.values))

    def report(self, name: str) -> MarginReport:
        """Row 0 as a MarginReport."""
        return MarginReport.from_array(name, self.values[0], self.tolerance[0], self.ks)


def margin_rows(report: MarginReport, instance_id: int = 0) -> list[tuple[int, str, int, float]]:
    """Flatten a report into (instance_id, inequality, k, margin) rows."""
    return [(instance_id, report.name, k, v) for k, v in report.margins]


def rows_to_csv(rows) -> str:
    lines = ["instance_id,inequality,k,margin"]
    for instance_id, name, k, margin in rows:
        lines.append(f"{instance_id},{name},{k},{margin!r}")
    return "\n".join(lines) + "\n"


def _scale(*terms: np.ndarray) -> np.ndarray:
    """The largest of the monomial arrays (..., K) at each margin."""
    return functools.reduce(np.maximum, terms)


def _window(v: np.ndarray, lo: int, hi: int) -> list[np.ndarray]:
    """Shifted masses f_{k+j} for j = lo..hi, along the last axis of v.

    Each entry covers k = 0..m+1, one step past the support {0..m}, and reads
    zero outside the support.
    """
    size = v.shape[-1]
    pad = np.zeros(v.shape[:-1] + (size + hi - lo + 1,))
    pad[..., -lo : size - lo] = v
    return [pad[..., j - lo : j - lo + size + 1] for j in range(lo, hi + 1)]


def stacked_log_concavity(f: np.ndarray) -> Margins:
    """Newton margins f_{k+1}^2 - f_k f_{k+2} of every row of f (m, n+1)."""
    sq = f[..., 1:-1] * f[..., 1:-1]
    pr = f[..., :-2] * f[..., 2:]
    return Margins(sq - pr, np.maximum(sq, pr))


def _two_fold(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic two-fold margins and their monomial scale, for k = 0..m+1 along the last axis."""
    return _two_fold_terms(*_window(v, -2, 2))


def _two_fold_terms(fm2, fm1, f0, f1, f2) -> tuple[np.ndarray, np.ndarray]:
    """Cubic two-fold margins and monomial scale at each k, from the shifted masses f_{k-2..k+2}.

    The margin is f_{k-2} f_{k+1}^2 + f_k^3 + f_{k-1}^2 f_{k+2}
    - f_{k-2} f_k f_{k+2} - 2 f_{k-1} f_k f_{k+1}, summed in that order; the
    scale at k is its largest monomial. One kernel serves single pmfs and
    stacked rows alike. It accumulates in place, so a stack of pairs costs a
    few arrays of its size rather than one per monomial.
    """
    margin = np.zeros(f0.shape)
    scale = np.zeros(f0.shape)
    term = np.empty(f0.shape)
    monomials = (
        (np.add, f1, f1, fm2),
        (np.add, f0, f0, f0),
        (np.add, fm1, fm1, f2),
        (np.subtract, fm2, f0, f2),
        (np.subtract, fm1, 2.0, f0, f1),
    )
    for accumulate, x, y, *zs in monomials:
        np.multiply(x, y, out=term)
        for z in zs:
            term *= z
        accumulate(margin, term, out=margin)
        np.maximum(scale, term, out=scale)
    return margin, scale


def _gaps(v: np.ndarray):
    """Shifted masses f_{k-2}..f_{k+2} and Newton gaps D_{k-1}, D_k, D_{k+1}, for k = 0..m+1.

    D_k = f_k^2 - f_{k-1} f_{k+1} reads zero outside the support.
    """
    fm2, fm1, f0, f1, f2 = shifted = _window(v, -2, 2)
    return shifted, (fm1 * fm1 - fm2 * f0, f0 * f0 - fm1 * f1, f1 * f1 - f0 * f2)


def stacked_two_fold_log_concavity(f: np.ndarray) -> Margins:
    """Cubic margins saying the Newton gaps D_k are themselves log-concave, for every row of f.

    Each margin is the direct cubic form; it is cross-checked against
    D_k^2 - D_{k-1} D_{k+1}, which equals f_k times the cubic form, and the
    two must agree to 1e-12 relative. The first disagreement in row order
    raises.
    """
    margin, scale = _two_fold(f)
    (_, _, f0, _, _), (d_lo, d_mid, d_hi) = _gaps(f)
    sq = d_mid * d_mid
    prod = d_lo * d_hi
    gap_form = sq - prod
    ref = f0 * margin
    check_scale = np.maximum(np.maximum(sq, np.abs(prod)), np.abs(ref))
    bad = np.flatnonzero(np.abs(gap_form - ref) > 1e-12 * np.maximum(check_scale, 1e-300))
    if bad.size:
        at = np.unravel_index(bad[0], ref.shape)
        raise ConsistencyError(
            f"two-fold margin forms disagree at k={int(at[-1])}: "
            f"{float(ref[at])!r} vs {float(gap_form[at])!r}"
        )
    return Margins(margin, scale)


def _c1(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins f_{k-1} D_k - D_{k-1} f_{k+1} for k = 0..m+1, and their monomial scales."""
    (fm2, fm1, f0, f1, _), (d_lo, d_mid, _) = _gaps(v)
    margin = fm1 * d_mid - d_lo * f1
    return margin, _scale(fm1 * (f0 * f0), fm1 * fm1 * f1, fm2 * f0 * f1)


def stacked_c1(f: np.ndarray) -> Margins:
    """Cubic margins f_{k-1} D_k - D_{k-1} f_{k+1} (lower-neighbor form) of every row of f."""
    return Margins(*_c1(f))


def stacked_c1bar(f: np.ndarray) -> Margins:
    """Mirrored cubic margins f_{k+1} D_k - D_{k+1} f_{k-1} of every row of f.

    Reversing the support swaps the two neighbors, so the margin at k is the
    lower-neighbor margin of the reversed pmf at m - k, for k = 0..m. At
    k = m + 1 every monomial vanishes and the margin is 0.
    """
    top = np.zeros(f.shape[:-1] + (1,))
    margin, scale = (np.concatenate((a[..., -2::-1], top), axis=-1) for a in _c1(f[..., ::-1]))
    return Margins(margin, scale)


def c1_product_identity_residual(f) -> float:
    """Worst relative gap in the identity tying both cubic forms to the two-fold margin.

    Multiplying the two sides of the lower and mirrored cubic inequalities and
    subtracting gives exactly f_{k-1} f_k f_{k+1} times the two-fold margin.
    """
    v = _masses(f)
    margin, _ = _two_fold(v)
    (_, fm1, f0, f1, _), (d_lo, d_mid, d_hi) = _gaps(v)
    rhs_prod = (fm1 * d_mid) * (f1 * d_mid)
    lhs_prod = (d_lo * f1) * (d_hi * fm1)
    ident = fm1 * f0 * f1 * margin
    scale = np.maximum(np.maximum(np.abs(rhs_prod), np.abs(lhs_prod)), np.abs(ident))
    live = scale != 0.0
    gaps = np.abs((rhs_prod - lhs_prod) - ident)[live] / scale[live]
    return float(gaps.max(initial=0.0))


def stacked_condition4(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> Margins:
    """Margins of the strong upper bound on h_k against the g/f quadratic, for every row.

    The margins run over k = 0..n-2 along the last axis.
    """
    f0, f1, f2 = f[..., :-2], f[..., 1:-1], f[..., 2:]
    g0, g1 = g[..., :-1], g[..., 1:]
    cross = 2.0 * g0 * g1 * f1
    lower = g0 * g0 * f2
    upper = g1 * g1 * f0
    sq = f1 * f1
    margins = cross - lower - upper - h * (sq - f0 * f2)
    abs_h = np.abs(h)
    return Margins(margins, _scale(np.abs(cross), lower, upper, abs_h * sq, abs_h * f0 * f2))


def stacked_corollary_fgh(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> Margins:
    """Margins g_k^2 - h_k f_k and g_{k+1}^2 - h_k f_{k+2} of every row; two entries per k."""
    lo_sq, hi_sq = g[..., :-1] * g[..., :-1], g[..., 1:] * g[..., 1:]
    abs_h = np.abs(h)
    # Interleaved per k: the lower margin, then the upper one.
    margins = np.stack([lo_sq - h * f[..., :-2], hi_sq - h * f[..., 2:]], axis=-1)
    scale = np.stack([_scale(lo_sq, abs_h * f[..., :-2]), _scale(hi_sq, abs_h * f[..., 2:])], -1)
    shape, ks = h.shape[:-1] + (-1,), np.repeat(np.arange(h.shape[-1]), 2)
    return Margins(margins.reshape(shape), scale.reshape(shape), ks)


class UkBranch(str, enum.Enum):
    """Which argument settles u_k >= 0 at an index."""

    H_NONPOSITIVE = "h_nonpositive"
    TRANSFORM = "transform"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class UkTerm:
    k: int
    u: float
    h: float
    branch: UkBranch
    A: float | None = None
    B: float | None = None
    C: float | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "branch": self.branch.value}


# UkDecomposition.branch holds the position of each index's branch in this tuple.
_UK_BRANCHES = (UkBranch.H_NONPOSITIVE, UkBranch.TRANSFORM, UkBranch.DEGENERATE)
_H_NONPOSITIVE, _TRANSFORM, _DEGENERATE = range(3)


@dataclass(frozen=True, eq=False)
class UkDecomposition:
    """Per-index decomposition of the entropy curvature bound, as arrays over k = 0..n-2.

    u and h hold u_k and h_k, branch the position of each k's UkBranch in
    _UK_BRANCHES, and A, B, C, alpha, beta, gamma the transform data, which
    mean something only where the branch is TRANSFORM. A stack of instances
    puts a leading axis on every array; row(r) is one instance's.
    """

    u: np.ndarray
    h: np.ndarray
    branch: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def row(self, r: int) -> "UkDecomposition":
        return UkDecomposition(*(getattr(self, f.name)[r] for f in fields(self)))

    @property
    def terms(self) -> tuple[UkTerm, ...]:
        """One UkTerm per index, built on demand; the transform data is None off its branch."""
        columns = zip(*(getattr(self, f.name).tolist() for f in fields(self)))
        return tuple(
            UkTerm(k, u, h, _UK_BRANCHES[code], *(data if code == _TRANSFORM else ()))
            for k, (u, h, code, *data) in enumerate(columns)
        )

    def to_dict(self) -> dict:
        return {"terms": [t.to_dict() for t in self.terms]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def stacked_uk(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> UkDecomposition:
    """Per-index curvature bound u_k with its transform data, for every row of f, g, h.

    u_k = h_k log(f_k f_{k+2} / f_{k+1}^2) + (g_k^2/f_k - 2 g_k g_{k+1}/f_{k+1}
    + g_{k+1}^2/f_{k+2}). When h_k > 0 and both neighboring g values are
    nonzero, the A/B/C and alpha/beta/gamma transform applies and its lower
    bound on u_k is asserted to 1e-10 over the whole stack; a vanishing g
    leaves the ratios undefined, so those indices are recorded as
    degenerate instead. The log of the mass ratio is split into single-mass
    logs to avoid underflow in long tails.
    """
    if np.any(f <= 0.0):
        raise BoundaryError(
            "zero mass on the support; the decomposition needs interior parameters"
        )
    logf = np.log(f)
    f0, f1, f2 = f[..., :-2], f[..., 1:-1], f[..., 2:]
    g0, g1 = g[..., :-1], g[..., 1:]
    log_ratio = logf[..., :-2] + logf[..., 2:] - 2.0 * logf[..., 1:-1]
    quad = g0 * g0 / f0 - 2.0 * g0 * g1 / f1 + g1 * g1 / f2
    u = h * log_ratio + quad
    sq0, sq1 = g0 * g0, g1 * g1
    degenerate = (sq0 == 0.0) | (sq1 == 0.0)
    branch = np.where(h <= 0.0, _H_NONPOSITIVE, np.where(degenerate, _DEGENERATE, _TRANSFORM))
    ag = np.abs(g0) * np.abs(g1)
    with np.errstate(divide="ignore", invalid="ignore"):  # off the transform branch
        a_val = (sq0 - f0 * h) / sq0
        b_val = (ag - f1 * h) / ag
        c_val = (sq1 - f2 * h) / sq1
    alpha = sq0 / f0
    beta = ag / f1
    gamma = sq1 / f2
    transform = branch == _TRANSFORM
    if transform.any():
        a, b, c = (np.where(transform, x, 0.0) for x in (a_val, b_val, c_val))
        bound = (
            alpha * _xlogx_array(1.0 - a)
            - 2.0 * beta * _xlogx_array(1.0 - b)
            + gamma * _xlogx_array(1.0 - c)
            + (alpha * a - 2.0 * beta * b + gamma * c)
        )
        reach = np.maximum.reduce([np.ones_like(u), np.abs(u), alpha, 2.0 * beta, gamma])
        bad = np.flatnonzero(transform & (u - bound < -1e-10 * reach))
        if bad.size:
            at = np.unravel_index(bad[0], u.shape)
            raise ConsistencyError(
                f"transform bound exceeded u_{int(at[-1])}: u={u[at]!r}, bound={bound[at]!r}"
            )
    return UkDecomposition(u, h, branch, a_val, b_val, c_val, alpha, beta, gamma)


@dataclass(frozen=True)
class SmoothFunction:
    """Scalar map on (0, inf) with three derivatives, vectorized over numpy arrays."""

    value: Callable
    d1: Callable
    d2: Callable
    d3: Callable


def _xlogx_array(x):
    x = np.asarray(x, dtype=np.float64)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


X_LOG_X = SmoothFunction(
    value=_xlogx_array,
    d1=lambda x: np.log(x) + 1.0,
    d2=lambda x: 1.0 / np.asarray(x, dtype=np.float64),
    d3=lambda x: -1.0 / np.asarray(x, dtype=np.float64) ** 2,
)


def check_functional_lemma(
    U: SmoothFunction,
    A: float,
    B: float,
    C: float,
    alpha: float,
    beta: float,
    gamma: float,
    grid_points: int = 1001,
) -> MarginReport:
    """Margin of the three-point concavity lemma for an admissible tuple.

    Hypotheses are validated before anything is evaluated: U(1) = 0 and
    U'(1) = 1 exactly, U''' <= 0 and log-convexity of U'' sampled on a grid
    over (0, 1], then 0 < A < 1, 0 < C < 1, B^2 <= AC and beta^2 <=
    alpha*gamma with alpha, gamma >= 0. Violations raise LemmaHypothesisError
    naming the failed condition.

    The report carries two margins: index 0 is the lemma slack itself and
    index 1 is the grid minimum of the second derivative of
    xi(t) = alpha U(1-tA) - 2 beta U(1-tB) + gamma U(1-tC), whose convexity
    is what drives the lemma.
    """
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    if float(U.value(np.array(1.0))) != 0.0:
        raise LemmaHypothesisError("U_at_one", "U(1) must be exactly 0")
    if float(U.d1(1.0)) != 1.0:
        raise LemmaHypothesisError("U_slope_at_one", "U'(1) must be exactly 1")
    ts = np.linspace(0.0, 1.0, grid_points + 1)[1:]
    d3 = np.asarray(U.d3(ts), dtype=np.float64)
    if np.any(d3 > 1e-12 * max(1.0, float(np.abs(d3).max()))):
        raise LemmaHypothesisError("U_third_derivative", "U''' must be nonpositive on (0, 1]")
    w = np.log(np.asarray(U.d2(ts), dtype=np.float64))
    dd = w[:-2] - 2.0 * w[1:-1] + w[2:]
    if np.any(dd < -1e-10 * max(1.0, float(np.abs(w).max()))):
        raise LemmaHypothesisError("U_log_convexity", "log U'' must be convex on (0, 1]")
    if not 0.0 < A < 1.0:
        raise LemmaHypothesisError("A_range", f"need 0 < A < 1, got A={A!r}")
    if not 0.0 < C < 1.0:
        raise LemmaHypothesisError("C_range", f"need 0 < C < 1, got C={C!r}")
    if B * B > A * C:
        raise LemmaHypothesisError("B_square", f"need B^2 <= A*C, got B={B!r}")
    if alpha < 0.0 or gamma < 0.0:
        raise LemmaHypothesisError("weight_sign", "alpha and gamma must be nonnegative")
    if beta * beta > alpha * gamma:
        raise LemmaHypothesisError("beta_square", f"need beta^2 <= alpha*gamma, got beta={beta!r}")
    lhs = (
        alpha * float(U.value(np.array(1.0 - A)))
        - 2.0 * beta * float(U.value(np.array(1.0 - B)))
        + gamma * float(U.value(np.array(1.0 - C)))
    )
    rhs = -alpha * A + 2.0 * beta * B - gamma * C
    margin = lhs - rhs
    grid = np.linspace(0.0, 1.0, grid_points)
    xi2 = (
        alpha * A * A * np.asarray(U.d2(1.0 - grid * A), dtype=np.float64)
        - 2.0 * beta * B * B * np.asarray(U.d2(1.0 - grid * B), dtype=np.float64)
        + gamma * C * C * np.asarray(U.d2(1.0 - grid * C), dtype=np.float64)
    )
    xi_min = float(xi2.min())
    return MarginReport.from_array("functional_lemma", np.array((margin, xi_min)), 1e-12)


def compute_cij(params: ParamVector, i: int, j: int, k: int) -> float:
    """Cross coefficient of the slope quadratic for the pair (i, j) at index k.

    Equals the negated two-fold margin of the leave-two-out pmf, the
    sequential convolution of the kept components, hence never positive; the
    sign is re-checked on every call.
    """
    _check_pair(params.n, i, j)
    margin, scale = _two_fold(_convolve_bernoullis(np.delete(params.p, (i, j))))
    if not 0 <= k < margin.size:
        return -0.0  # every monomial vanishes this far outside the support
    # The same kernel as the two-fold margin, so the negation is bit-exact.
    value = -float(margin[k])
    if value > 1e-15 * scale[k]:
        raise ConsistencyError(f"c coefficient came out positive at k={k}: {value!r}")
    return value


def stacked_cij(p) -> Margins:
    """Margins -c_{i,j}(k) >= 0 of every row of p (m, n), one per pair i < j and index k.

    Margin indices enumerate (pair, k) rows with pairs in lexicographic order
    and k running over the leave-two-out support plus one step past each end.
    f_{k-2}..f_{k+2} are slices of the builder's flattened pair block: each pair
    row ends in three zero columns, the last leave-one-out row's two zero columns
    precede the block and the zero row closes it, so they read a pair's masses or 0.
    The scales are gathered like the margins, their block freed before the margins'.
    """
    buf = _leave_two_out(p)
    rows, width, m = buf.shape
    n = width - 2
    flat = buf.reshape(-1, m)
    lo, size = n * width, (rows - n - 1) * width  # the pair block, flattened
    margin, scale = _two_fold_terms(*(flat[lo + j : lo + j + size] for j in range(-2, 3)))
    pairs = _pair_rows(n) - n  # each pair's n margin columns, in pair order, one row per instance
    scale = scale.reshape(-1, width, m)[pairs, :n].transpose(2, 0, 1).reshape(m, -1)
    margin = margin.reshape(-1, width, m)[pairs, :n].transpose(2, 0, 1).reshape(m, -1)
    return Margins(margin, scale)


def check_quadratic_decomposition_n2(params: ParamVector, k: int) -> MarginReport:
    """Extract the two-component slope-quadratic coefficients by probing.

    Probing the condition4 gap Q at slope vectors (1,0), (0,1) and (1,1)
    recovers b01, b10 and the cross coefficient c. The report margins are:
    index 0 and 1, the lower bounds on b01 and b10 against c; index 2, the
    discriminant b01*b10 - w0*w1*c^2; index 3, the same discriminant minus
    its sharper floor c^2 (p0 - p1)^2 / 4. The extracted c must match the
    direct coefficient to 1e-10 relative. Limited to n = 2 because for more
    components the single-slope probes aggregate over partners and no longer
    determine individual coefficients.
    """
    if params.n != 2:
        raise ValueError("coefficient extraction is defined for exactly two components")
    p0, p1 = float(params.p[0]), float(params.p[1])
    w0 = p0 * (1.0 - p0)
    w1 = p1 * (1.0 - p1)
    if w0 == 0.0 or w1 == 0.0:
        raise BoundaryError("coefficient extraction is singular at boundary parameters")
    # Q at the three slope rows in one stacked call; 0 outside k = 0..n-2, where every
    # term vanishes.
    q = stacked_condition4(*_fgh(params, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))).values
    q10, q01, q11 = q[:, k].tolist() if 0 <= k < q.shape[1] else (0.0, 0.0, 0.0)
    b01 = q10 / w1
    b10 = q01 / w0
    c = (q11 - q10 - q01) / (2.0 * w0 * w1)
    c_direct = compute_cij(params, 0, 1, k)
    if abs(c - c_direct) > max(1e-12, 1e-10 * max(abs(c), abs(c_direct))):
        raise ConsistencyError(f"extracted c={c!r} disagrees with direct value {c_direct!r}")
    bound = -0.5 * (p0 * (1.0 - p1) + p1 * (1.0 - p0)) * c
    disc = b01 * b10 - w0 * w1 * c * c
    sharper = disc - 0.25 * c * c * (p0 - p1) ** 2
    scale = max(abs(b01), abs(b10), abs(bound), w0 * w1 * c * c, 1.0e-30)
    margins = np.array((b01 - bound, b10 - bound, disc, sharper))
    return MarginReport.from_array(
        "quadratic_decomposition_n2", margins, max(1e-12, REL_TOL * scale)
    )


def check_monotone_worst_case(params: ParamVector, abs_slopes) -> MarginReport:
    """Check that equal slope signs minimize the condition4 gap.

    For every index k the gap Q is evaluated at all 2^n sign patterns applied
    to the given absolute slopes; the margin at k is min over patterns minus
    the all-positive value, which must be zero up to rounding. Enumeration is
    capped at n = 12.
    """
    n = params.n
    if n < 2:
        raise ValueError("the sign sweep needs at least two components")
    if n > 12:
        raise ValueError("sign-pattern enumeration limited to n <= 12")
    abs_slopes = _check_slopes(params, abs_slopes)
    if np.any(abs_slopes < 0.0):
        raise ValueError("absolute slopes must be nonnegative")
    codes = np.arange(1 << n)
    signs = np.where((codes[:, None] >> np.arange(n)) & 1, -1.0, 1.0)  # row 0 = all +1
    q = stacked_condition4(*_fgh(params, signs * abs_slopes)).values  # one row per pattern
    return MarginReport.from_array("monotone_worst_case", q.min(axis=0) - q[0], 1e-12)
