"""Margin checkers for the inequality ladder attached to Bernoulli sums.

Every checker reports signed slacks oriented so that a nonnegative margin
means the inequality holds. Tolerances follow one discipline: a margin is
accepted when it is at least -max(ABS_FLOOR, REL_TOL * scale), where scale is
the largest absolute monomial appearing in the inequality. The cubic checks
subtract near-equal products, so purely absolute tolerances would misfire
across magnitudes.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import _fgh, _check_slopes
from .errors import BoundaryError, ConsistencyError, LemmaHypothesisError
from .pmf import ParamVector, Pmf, leave_two_out, pair_indices

__all__ = [
    "ABS_FLOOR",
    "MarginReport",
    "REL_TOL",
    "SmoothFunction",
    "UkBranch",
    "UkDecomposition",
    "UkTerm",
    "X_LOG_X",
    "c1_product_identity_residual",
    "check_c1",
    "check_c1bar",
    "check_cij_nonpositive",
    "check_condition4",
    "check_corollary_fgh",
    "check_functional_lemma",
    "check_log_concavity",
    "check_monotone_worst_case",
    "check_quadratic_decomposition_n2",
    "check_two_fold_log_concavity",
    "compute_cij",
    "compute_uk",
    "margin_rows",
    "rows_to_csv",
]

ABS_FLOOR = 1e-13
REL_TOL = 1e-10


def _tolerance(scale: float) -> float:
    return max(ABS_FLOOR, REL_TOL * scale)


@dataclass(frozen=True)
class MarginReport:
    """Signed slacks of one inequality family.

    margins holds (index, LHS - RHS) pairs oriented so >= 0 means the
    inequality holds at that index; worst is their minimum (+inf when there
    is nothing to check), worst_position is the position in margins of the
    first entry equal to it (None when empty), and holds means worst >=
    -tolerance.
    """

    name: str
    margins: tuple[tuple[int, float], ...]
    tolerance: float
    worst: float
    holds: bool
    worst_position: int | None = None

    @classmethod
    def build(cls, name: str, pairs, tolerance: float) -> "MarginReport":
        frozen = tuple((int(k), float(v)) for k, v in pairs)
        pos = min(range(len(frozen)), key=lambda t: frozen[t][1], default=None)
        return cls._frozen(name, frozen, pos, tolerance)

    @classmethod
    def from_array(
        cls, name: str, values: np.ndarray, tolerance: float, ks: np.ndarray | None = None
    ) -> "MarginReport":
        """Report for the one-dimensional margins values[t] at index ks[t], or at t itself."""
        indices = range(values.size) if ks is None else ks.tolist()
        frozen = tuple(zip(indices, values.tolist()))
        return cls._frozen(name, frozen, _first_min(values), tolerance)

    @classmethod
    def _frozen(cls, name, frozen, pos: int | None, tolerance: float) -> "MarginReport":
        worst = math.inf if pos is None else frozen[pos][1]
        return cls(
            name=name,
            margins=frozen,
            tolerance=float(tolerance),
            worst=worst,
            holds=bool(worst >= -tolerance),
            worst_position=pos,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "margins": [[k, v] for k, v in self.margins],
            "tolerance": self.tolerance,
            "worst": None if math.isinf(self.worst) else self.worst,
            "holds": self.holds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _first_min(values: np.ndarray) -> int | None:
    """Position that Python's min() would pick: the first minimum, a NaN only when it leads.

    This is the position MarginReport.build finds by min() over the pairs.
    """
    if values.size == 0:
        return None
    pos = int(np.argmin(values))
    if math.isnan(values[pos]):
        pos = 0 if math.isnan(values[0]) else int(np.nanargmin(values))
    return pos


def margin_rows(report: MarginReport, instance_id: int = 0) -> list[tuple[int, str, int, float]]:
    """Flatten a report into (instance_id, inequality, k, margin) rows."""
    return [(instance_id, report.name, k, v) for k, v in report.margins]


def rows_to_csv(rows) -> str:
    lines = ["instance_id,inequality,k,margin"]
    for instance_id, name, k, margin in rows:
        lines.append(f"{instance_id},{name},{k},{margin!r}")
    return "\n".join(lines) + "\n"


def _masses(f) -> np.ndarray:
    if isinstance(f, Pmf):
        return f.values
    return np.asarray(f, dtype=np.float64)


def _scale(*terms: np.ndarray) -> float:
    """Largest entry over all the monomial arrays, 0 when they are empty."""
    return max((float(t.max()) for t in terms if t.size), default=0.0)


def _window(v: np.ndarray, lo: int, hi: int) -> list[np.ndarray]:
    """Shifted masses f_{k+j} for j = lo..hi, along the last axis of v.

    Each entry covers k = 0..m+1, one step past the support {0..m}, and reads
    zero outside the support.
    """
    size = v.shape[-1]
    pad = np.zeros(v.shape[:-1] + (size + hi - lo + 1,))
    pad[..., -lo : size - lo] = v
    return [pad[..., j - lo : j - lo + size + 1] for j in range(lo, hi + 1)]


def check_log_concavity(f) -> MarginReport:
    """Newton margins f_{k+1}^2 - f_k f_{k+2} over the support."""
    v = _masses(f)
    sq = v[1:-1] * v[1:-1]
    pr = v[:-2] * v[2:]
    margins = sq - pr
    return MarginReport.from_array("log_concavity", margins, _tolerance(_scale(sq, pr)))


def _two_fold(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic two-fold margins and their monomial scale, for k = 0..m+1 along the last axis.

    The margin is f_{k-2} f_{k+1}^2 + f_k^3 + f_{k-1}^2 f_{k+2}
    - f_{k-2} f_k f_{k+2} - 2 f_{k-1} f_k f_{k+1}, summed in that order; the
    scale at k is its largest monomial. One kernel serves single pmfs and
    stacked rows alike. It accumulates in place, so a stack of pairs costs a
    few arrays of its size rather than one per monomial.
    """
    fm2, fm1, f0, f1, f2 = _window(v, -2, 2)
    margin = np.zeros(f0.shape)
    scale = np.zeros(f0.shape)
    term = np.empty(f0.shape)
    monomials = (
        (np.add, f1, f1, fm2),
        (np.add, f0, f0, f0),
        (np.add, fm1, fm1, f2),
        (np.subtract, fm2, f0, f2),
        (np.subtract, 2.0 * fm1, f0, f1),
    )
    for accumulate, x, y, z in monomials:
        np.multiply(x, y, out=term)
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


def check_two_fold_log_concavity(f) -> MarginReport:
    """Cubic margins saying the Newton gaps D_k are themselves log-concave.

    Each margin is the direct cubic form; it is cross-checked against
    D_k^2 - D_{k-1} D_{k+1}, which equals f_k times the cubic form, and the
    two must agree to 1e-12 relative.
    """
    v = _masses(f)
    margin, scale = _two_fold(v)
    (_, _, f0, _, _), (d_lo, d_mid, d_hi) = _gaps(v)
    sq = d_mid * d_mid
    prod = d_lo * d_hi
    gap_form = sq - prod
    ref = f0 * margin
    check_scale = np.maximum(np.maximum(sq, np.abs(prod)), np.abs(ref))
    bad = np.flatnonzero(np.abs(gap_form - ref) > 1e-12 * np.maximum(check_scale, 1e-300))
    if bad.size:
        k = int(bad[0])
        raise ConsistencyError(
            f"two-fold margin forms disagree at k={k}: {float(ref[k])!r} vs {float(gap_form[k])!r}"
        )
    return MarginReport.from_array("two_fold_log_concavity", margin, _tolerance(_scale(scale)))


def _c1(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Margins f_{k-1} D_k - D_{k-1} f_{k+1} for k = 0..m+1, and their monomial scale."""
    (fm2, fm1, f0, f1, _), (d_lo, d_mid, _) = _gaps(v)
    margin = fm1 * d_mid - d_lo * f1
    return margin, _scale(fm1 * (f0 * f0), fm1 * fm1 * f1, fm2 * f0 * f1)


def check_c1(f) -> MarginReport:
    """Cubic margins f_{k-1} D_k - D_{k-1} f_{k+1} (lower-neighbor form)."""
    margin, scale = _c1(_masses(f))
    return MarginReport.from_array("c1", margin, _tolerance(scale))


def check_c1bar(f) -> MarginReport:
    """Mirrored cubic margins f_{k+1} D_k - D_{k+1} f_{k-1}.

    Reversing the support swaps the two neighbors, so the margin at k is the
    lower-neighbor margin of the reversed pmf at m - k, for k = 0..m. At
    k = m + 1 both products vanish and the margin is 0.
    """
    reversed_margin, scale = _c1(_masses(f)[::-1])
    margin = np.append(reversed_margin[-2::-1], 0.0)
    return MarginReport.from_array("c1bar", margin, _tolerance(scale))


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


def _condition4_margins(f: np.ndarray, g: np.ndarray, h: np.ndarray):
    """Margins for k = 0..n-2 and their monomial scale."""
    f0, f1, f2 = f[:-2], f[1:-1], f[2:]
    g0, g1 = g[:-1], g[1:]
    cross = 2.0 * g0 * g1 * f1
    lower = g0 * g0 * f2
    upper = g1 * g1 * f0
    sq = f1 * f1
    margins = cross - lower - upper - h * (sq - f0 * f2)
    abs_h = np.abs(h)
    return margins, _scale(np.abs(cross), lower, upper, abs_h * sq, abs_h * f0 * f2)


def check_condition4(params: ParamVector, slopes) -> MarginReport:
    """Margins of the strong upper bound on h_k against the g/f quadratic."""
    slopes = _check_slopes(params, slopes)
    if params.n < 2:
        raise ValueError("condition4 needs at least two components")
    margins, scale = _condition4_margins(*_fgh(params, slopes))
    return MarginReport.from_array("condition4", margins, _tolerance(scale))


def check_corollary_fgh(params: ParamVector, slopes) -> MarginReport:
    """Margins g_k^2 - h_k f_k and g_{k+1}^2 - h_k f_{k+2}; two entries per k."""
    slopes = _check_slopes(params, slopes)
    if params.n < 2:
        raise ValueError("corollary margins need at least two components")
    f, g, h = _fgh(params, slopes)
    lo_sq, hi_sq = g[:-1] * g[:-1], g[1:] * g[1:]
    abs_h = np.abs(h)
    # Interleaved per k: the lower margin, then the upper one.
    margins = np.stack([lo_sq - h * f[:-2], hi_sq - h * f[2:]], axis=1).ravel()
    scale = _scale(lo_sq, hi_sq, abs_h * f[:-2], abs_h * f[2:])
    ks = np.repeat(np.arange(h.size), 2)
    return MarginReport.from_array("corollary_fgh", margins, _tolerance(scale), ks)


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
        return {
            "k": self.k,
            "u": self.u,
            "h": self.h,
            "branch": self.branch.value,
            "A": self.A,
            "B": self.B,
            "C": self.C,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
        }


@dataclass(frozen=True)
class UkDecomposition:
    """Per-index decomposition of the entropy curvature bound."""

    terms: tuple[UkTerm, ...]

    @property
    def u(self) -> np.ndarray:
        return np.array([t.u for t in self.terms])

    def to_dict(self) -> dict:
        return {"terms": [t.to_dict() for t in self.terms]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def compute_uk(params: ParamVector, slopes, interior_margin: float = 0.0) -> UkDecomposition:
    """Per-index curvature bound u_k with its transform data.

    u_k = h_k log(f_k f_{k+2} / f_{k+1}^2) + (g_k^2/f_k - 2 g_k g_{k+1}/f_{k+1}
    + g_{k+1}^2/f_{k+2}). When h_k > 0 and both neighboring g values are
    nonzero, the A/B/C and alpha/beta/gamma transform is populated and the
    transform lower bound on u_k is asserted to 1e-10; a vanishing g leaves
    the ratios undefined, so those indices are recorded as degenerate instead.
    The log of the mass ratio is split into single-mass logs to avoid
    underflow in long tails.
    """
    slopes = _check_slopes(params, slopes)
    if params.n < 2:
        raise ValueError("the decomposition needs at least two components")
    if interior_margin > 0.0 and (
        np.any(params.p < interior_margin) or np.any(params.p > 1.0 - interior_margin)
    ):
        raise BoundaryError("parameters outside the requested interior margin")
    f, g, h = _fgh(params, slopes)
    if np.any(f <= 0.0):
        raise BoundaryError("zero mass on the support; the decomposition needs interior parameters")
    logf = np.log(f)
    terms = []
    for k in range(h.size):
        fk, f1, f2 = f[k], f[k + 1], f[k + 2]
        gk, g1 = g[k], g[k + 1]
        hk = h[k]
        log_ratio = logf[k] + logf[k + 2] - 2.0 * logf[k + 1]
        quad = gk * gk / fk - 2.0 * gk * g1 / f1 + g1 * g1 / f2
        u = hk * log_ratio + quad
        if hk <= 0.0:
            terms.append(UkTerm(k=k, u=u, h=hk, branch=UkBranch.H_NONPOSITIVE))
            continue
        if gk * gk == 0.0 or g1 * g1 == 0.0:
            terms.append(UkTerm(k=k, u=u, h=hk, branch=UkBranch.DEGENERATE))
            continue
        ag = abs(gk) * abs(g1)
        a_val = (gk * gk - fk * hk) / (gk * gk)
        b_val = (ag - f1 * hk) / ag
        c_val = (g1 * g1 - f2 * hk) / (g1 * g1)
        alpha = gk * gk / fk
        beta = ag / f1
        gamma = g1 * g1 / f2
        bound = (
            alpha * _xlogx(1.0 - a_val)
            - 2.0 * beta * _xlogx(1.0 - b_val)
            + gamma * _xlogx(1.0 - c_val)
            + (alpha * a_val - 2.0 * beta * b_val + gamma * c_val)
        )
        gap = u - bound
        if gap < -1e-10 * max(1.0, abs(u), alpha, 2.0 * beta, gamma):
            raise ConsistencyError(f"transform bound exceeded u_{k}: u={u!r}, bound={bound!r}")
        terms.append(
            UkTerm(
                k=k,
                u=u,
                h=hk,
                branch=UkBranch.TRANSFORM,
                A=a_val,
                B=b_val,
                C=c_val,
                alpha=alpha,
                beta=beta,
                gamma=gamma,
            )
        )
    return UkDecomposition(terms=tuple(terms))


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
    return MarginReport.build("functional_lemma", [(0, margin), (1, xi_min)], 1e-12)


def compute_cij(params: ParamVector, i: int, j: int, k: int) -> float:
    """Cross coefficient of the slope quadratic for the pair (i, j) at index k.

    Equals the negated two-fold margin of the leave-two-out pmf, hence never
    positive; the sign is re-checked on every call.
    """
    margin, scale = _two_fold(leave_two_out(params, i, j).values)
    if not 0 <= k < margin.size:
        return -0.0  # every monomial vanishes this far outside the support
    # The same kernel as the two-fold margin, so the negation is bit-exact.
    value = -float(margin[k])
    if value > 1e-15 * scale[k]:
        raise ConsistencyError(f"c coefficient came out positive at k={k}: {value!r}")
    return value


def check_cij_nonpositive(params: ParamVector) -> MarginReport:
    """Margins -c_{i,j}(k) >= 0 swept over all pairs and indices.

    Margin indices enumerate (pair, k) rows with pairs in lexicographic order
    and k running over the leave-two-out support plus one step past each end.
    """
    if params.n < 2:
        raise ValueError("pair coefficients need at least two components")
    margin, scale = _two_fold(params.leave.pairs)
    tolerance = _tolerance(_scale(scale))
    del scale  # free the stacked temporary before the margin tuples are built
    return MarginReport.from_array("cij_nonpositive", margin.ravel(), tolerance)


def _condition4_margin_at(params: ParamVector, slopes: np.ndarray, k: int) -> float:
    """Condition4 margin at one k; 0 outside k = 0..n-2, where every term vanishes."""
    margins, _ = _condition4_margins(*_fgh(params, slopes))
    return float(margins[k]) if 0 <= k < margins.size else 0.0


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
    q10 = _condition4_margin_at(params, np.array([1.0, 0.0]), k)
    q01 = _condition4_margin_at(params, np.array([0.0, 1.0]), k)
    q11 = _condition4_margin_at(params, np.array([1.0, 1.0]), k)
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
    pairs = [(0, b01 - bound), (1, b10 - bound), (2, disc), (3, sharper)]
    return MarginReport.build("quadratic_decomposition_n2", pairs, max(1e-12, REL_TOL * scale))


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
    ls = params.leave
    f = ls.f
    npat = 1 << n
    codes = np.arange(npat)
    signs = np.where((codes[:, None] >> np.arange(n)) & 1, -1.0, 1.0)  # row 0 = all +1
    s = signs * abs_slopes
    g = s @ ls.singles
    h = np.zeros((npat, n - 1))
    for i, j, fij in zip(*pair_indices(n), ls.pairs):
        h += np.outer(2.0 * s[:, i] * s[:, j], fij)
    pairs = []
    for k in range(n - 1):
        q = (
            2.0 * g[:, k] * g[:, k + 1] * f[k + 1]
            - g[:, k] ** 2 * f[k + 2]
            - g[:, k + 1] ** 2 * f[k]
            - h[:, k] * (f[k + 1] ** 2 - f[k] * f[k + 2])
        )
        pairs.append((k, float(q.min() - q[0])))
    return MarginReport.build("monotone_worst_case", pairs, 1e-12)
