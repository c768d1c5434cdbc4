"""Scalar reference implementations that pin the array-native library code.

These are the index-by-index formulas the checkers were first written as:
every mass is read through a zero-padded accessor, one k at a time. Powers
are written as products, so the arithmetic is plain IEEE multiplication and
the same on every machine. Each function returns the margins as (k, value)
pairs plus the monomial scale the checker's tolerance is built from.

The cyclic Jacobi eigensolver is here too; it pins the LAPACK eigenvalue of
the entropy Hessian. So are the leave-out mass functions built one removal
at a time and the 2^n enumeration of the pmf, which pin the library's
leave-two-out builder, the mixture sequences and the Hessian; the SplitMix64 generator with one object per
instance, which pins the scan's array draw; the scan as a loop over
instances, which pins the grouped scan; the finite-difference probe of
the two-coin Tsallis curvature, which pins the critical-q probe's root; and
the exact probes that build their point at every q, which pin the cached
probe points.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from entropath.pmf import ParamVector, Pmf, _check_pair, _convolve_bernoullis, compute_pmf


# Enumerating 2^n outcomes is the test oracle; past this it stops being cheap.
BRUTE_FORCE_MAX_N = 20


def leave_one_out(params: ParamVector, i: int) -> Pmf:
    """Mass function of the sum with component i removed (support {0, ..., n-1})."""
    n = params.n
    if not 0 <= i < n:
        raise IndexError(f"component index {i} out of range for n={n}")
    rest = np.delete(params.p, i)
    if rest.size == 0:
        return Pmf(np.array([1.0]))
    return compute_pmf(ParamVector(rest))


def leave_two_out(params: ParamVector, i: int, j: int) -> Pmf:
    """Mass function with components i and j removed (support {0, ..., n-2}).

    Symmetric in (i, j).
    """
    _check_pair(params.n, i, j)
    rest = np.delete(params.p, [i, j])
    if rest.size == 0:
        return Pmf(np.array([1.0]))
    return compute_pmf(ParamVector(rest))


def kept_convolutions(p: np.ndarray, drop: int) -> np.ndarray:
    """The pmf of p without each set of `drop` components, lexicographic, one row per set.

    Each row convolves its kept components in index order, as compute_pmf
    does; the rows are stacked only to keep the sweep up to n = 60 fast.
    """
    n = p.size
    keep = [np.delete(np.arange(n), list(out)) for out in itertools.combinations(range(n), drop)]
    if not keep:
        return np.zeros((0, 0))
    return _convolve_bernoullis(p[np.array(keep)])


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


def at(v: np.ndarray, k: int) -> float:
    return float(v[k]) if 0 <= k < v.size else 0.0


def newton_gap(v: np.ndarray, k: int) -> float:
    """D_k = f_k^2 - f_{k-1} f_{k+1}, zero outside the support."""
    return at(v, k) * at(v, k) - at(v, k - 1) * at(v, k + 1)


def log_concavity(v: np.ndarray):
    pairs = []
    scale = 0.0
    for k in range(v.size - 2):
        sq = float(v[k + 1]) * float(v[k + 1])
        pr = float(v[k]) * float(v[k + 2])
        pairs.append((k, sq - pr))
        scale = max(scale, sq, pr)
    return pairs, scale


def two_fold_terms(v: np.ndarray, k: int):
    a = at(v, k - 2) * (at(v, k + 1) * at(v, k + 1))
    b = at(v, k) * at(v, k) * at(v, k)
    c = at(v, k - 1) * at(v, k - 1) * at(v, k + 2)
    d = at(v, k - 2) * at(v, k) * at(v, k + 2)
    e = 2.0 * at(v, k - 1) * at(v, k) * at(v, k + 1)
    return a, b, c, d, e


def two_fold(v: np.ndarray):
    """Cubic margins for k = 0..m+1; the D-gap identity is the caller's to check."""
    pairs = []
    scale = 0.0
    for k in range(v.size + 1):
        a, b, c, d, e = two_fold_terms(v, k)
        pairs.append((k, a + b + c - d - e))
        scale = max(scale, a, b, c, d, e)
    return pairs, scale


def c1(v: np.ndarray):
    pairs = []
    scale = 0.0
    for k in range(v.size + 1):
        lhs = at(v, k - 1) * newton_gap(v, k)
        rhs = newton_gap(v, k - 1) * at(v, k + 1)
        pairs.append((k, lhs - rhs))
        scale = max(
            scale,
            at(v, k - 1) * (at(v, k) * at(v, k)),
            at(v, k - 1) * at(v, k - 1) * at(v, k + 1),
            at(v, k - 2) * at(v, k) * at(v, k + 1),
        )
    return pairs, scale


def c1bar(v: np.ndarray):
    """The mirrored form f_{k+1} D_k - D_{k+1} f_{k-1}, written out directly."""
    pairs = []
    scale = 0.0
    for k in range(v.size + 1):
        lhs = at(v, k + 1) * newton_gap(v, k)
        rhs = newton_gap(v, k + 1) * at(v, k - 1)
        pairs.append((k, lhs - rhs))
        scale = max(
            scale,
            at(v, k + 1) * (at(v, k) * at(v, k)),
            at(v, k + 1) * at(v, k + 1) * at(v, k - 1),
            at(v, k) * at(v, k + 2) * at(v, k - 1),
        )
    return pairs, scale


def cij(pair_pmfs):
    """Two-fold margins of every leave-two-out pmf, numbered (pair, k) row-major."""
    pairs = []
    scale = 0.0
    for v in pair_pmfs:
        rows, s = two_fold(np.asarray(v))
        pairs.extend(rows)
        scale = max(scale, s)
    return [(idx, value) for idx, (_, value) in enumerate(pairs)], scale


def condition4(f: np.ndarray, g: np.ndarray, h: np.ndarray):
    pairs = []
    scale = 0.0
    for k in range(h.size):
        fk, f1, f2 = float(f[k]), float(f[k + 1]), float(f[k + 2])
        gk, g1, hk = float(g[k]), float(g[k + 1]), float(h[k])
        gain = 2.0 * gk * g1 * f1 - gk * gk * f2 - g1 * g1 * fk
        hterm = hk * (f1 * f1 - fk * f2)
        pairs.append((k, gain - hterm))
        scale = max(
            scale,
            abs(2.0 * gk * g1 * f1),
            gk * gk * f2,
            g1 * g1 * fk,
            abs(hk) * (f1 * f1),
            abs(hk) * fk * f2,
        )
    return pairs, scale


def corollary_fgh(f: np.ndarray, g: np.ndarray, h: np.ndarray):
    pairs = []
    scale = 0.0
    for k in range(h.size):
        fk, f2 = float(f[k]), float(f[k + 2])
        gk, g1, hk = float(g[k]), float(g[k + 1]), float(h[k])
        pairs.append((k, gk * gk - hk * fk))
        pairs.append((k, g1 * g1 - hk * f2))
        scale = max(scale, gk * gk, g1 * g1, abs(hk) * fk, abs(hk) * f2)
    return pairs, scale


def mixture_sequences(singles, pair_pmfs, slopes: np.ndarray):
    """g = sum_i s_i f^(i) and h = sum_{i<j} 2 s_i s_j f^(i,j), accumulated term by term."""
    n = slopes.size
    g = np.zeros(n)
    for i in range(n):
        g += slopes[i] * np.asarray(singles[i])
    h = np.zeros(max(n - 1, 0))
    row = 0
    for i in range(n):
        for j in range(i + 1, n):
            h += (2.0 * (slopes[i] * slopes[j])) * np.asarray(pair_pmfs[row])
            row += 1
    return g, h


def _jacobi_rotate(a: np.ndarray, p: int, q: int, c: float, s: float, t: float) -> None:
    app, aqq, apq = a[p, p], a[q, q], a[p, q]
    new_p = c * a[:, p] - s * a[:, q]
    new_q = s * a[:, p] + c * a[:, q]
    a[:, p] = new_p
    a[p, :] = new_p
    a[:, q] = new_q
    a[q, :] = new_q
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = 0.0
    a[q, p] = 0.0


def jacobi_eigenvalues(matrix, off_tol: float = 1e-12, max_sweeps: int = 30) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations, ascending.

    Sweeps until the off-diagonal norm falls below off_tol, with a relative
    floor because an absolute target below float64 resolution of the matrix
    norm would never be reached.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    stop = max(off_tol, 1e-15 * float(np.sqrt((a * a).sum())))
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * float((np.triu(a, 1) ** 2).sum()))
        if off <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                _jacobi_rotate(a, p, q, c, t * c, t)
    return np.sort(np.diagonal(a).copy())


def hessian_matrix(f: np.ndarray, singles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The entropy Hessian of one instance from its leave-out pmfs, as two-dimensional products.

    The first-order part is one (n, n+1) @ (n+1, n) product; the stacked
    library kernel must give each row these bits.
    """
    n = singles.shape[0]
    gp = np.zeros((n, n + 2))
    gp[:, 1 : n + 1] = singles
    d = gp[:, : n + 1] - gp[:, 1:]
    m = -(d * (1.0 / f)) @ d.T
    hp = np.zeros((pairs.shape[0], n + 3))
    hp[:, 2 : n + 1] = pairs
    cross = -((np.log(f) + 1.0) * (hp[:, 2:] - 2.0 * hp[:, 1:-1] + hp[:, :-2])).sum(axis=1)
    rows, cols = np.triu_indices(n, 1)
    m[rows, cols] += cross
    m[cols, rows] += cross
    return 0.5 * (m + m.T)


def hessian_scale(f: np.ndarray, singles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The (n, n) monomial scale that bounds the rounding of each entropy Hessian entry.

    Entry (i, j) is 1 (for the rounding of log f) plus the absolute
    monomials of the first-order term, sum_k (f^(i)_{k-1} + f^(i)_k)
    (f^(j)_{k-1} + f^(j)_k) / f_k, plus off the diagonal those of the cross
    term, sum_k f^(i,j)_k (|u_k| + 2|u_{k+1}| + |u_{k+2}|) with u = log f + 1.
    """
    n = singles.shape[0]
    gp = np.zeros((n, n + 2))
    gp[:, 1 : n + 1] = singles
    a = gp[:, : n + 1] + gp[:, 1:]
    scale = 1.0 + (a / f) @ a.T
    u = np.abs(np.log(f) + 1.0)
    weights = u[:-2] + 2.0 * u[1:-1] + u[2:]
    rows, cols = np.triu_indices(n, 1)
    cross = pairs @ weights if n > 1 else np.zeros(0)
    scale[rows, cols] += cross
    scale[cols, rows] += cross
    return scale


# Curvature formulas along an affine path, one instance at a time, as the
# library computed them before its curvature kernels took stacks: f, g and h
# are the 1-D pmf and mixture sequences. Each returns the value and the
# monomial scale, the largest absolute term its rounding can move.


def _shift_diffs(g: np.ndarray, h: np.ndarray):
    """d f/dt = g_{k-1} - g_k and d^2 f/dt^2 = h_k - 2 h_{k-1} + h_{k-2}, k = 0..n."""
    gp = np.concatenate(([0.0], g, [0.0]))
    hp = np.concatenate(([0.0, 0.0], h, [0.0, 0.0]))
    return gp[:-1] - gp[1:], hp[2:] - 2.0 * hp[1:-1] + hp[:-2]


def entropy_curvature(f: np.ndarray, g: np.ndarray, h: np.ndarray):
    """H'' over the nonzero masses (a zero mass must carry no derivative terms)."""
    df, d2f = _shift_diffs(g, h)
    pos = f > 0.0
    fk = f[pos]
    a = df[pos] ** 2 / fk
    b = (np.log(fk) + 1.0) * d2f[pos]
    value = float(-a.sum() - b.sum())
    return value, float(max(np.abs(a).max(), np.abs(b).max()))


def power_sums(f: np.ndarray, g: np.ndarray, h: np.ndarray, q: float):
    """T = sum f^q with T' and T'' in ratio form; the scale is that of T''.

    With r1 = f'/f and r2 = f''/f: T' = q sum f^q r1 and
    T'' = q(q-1) sum f^q r1^2 + q sum f^q r2.
    """
    df, d2f = _shift_diffs(g, h)
    w = f**q
    r1 = df / f
    a = w * r1**2
    b = w * (d2f / f)
    t0 = float(w.sum())
    t1 = float(q * (w * r1).sum())
    t2 = float(q * (q - 1.0) * a.sum() + q * b.sum())
    return (t0, t1, t2), float(max(abs(q * (q - 1.0)) * np.abs(a).max(), abs(q) * np.abs(b).max()))


def renyi_curvature(f: np.ndarray, g: np.ndarray, h: np.ndarray, q: float):
    """T''/((1-q) T) - (T'/T)^2/(1-q); every rounding of T, T' and T'' carried to the result."""
    (t0, t1, t2), scale2 = power_sums(f, g, h, q)
    df, _ = _shift_diffs(g, h)
    scale1 = float(np.abs(q * f**q * (df / f)).max())
    first = t2 / ((1.0 - q) * t0)
    second = (t1 / t0) ** 2 / (1.0 - q)
    scale = max(
        scale2 / abs((1.0 - q) * t0),
        abs(second),
        2.0 * abs(t1) * scale1 / (t0 * t0 * abs(1.0 - q)),
        (abs(first) + 2.0 * abs(second)) * float((f**q).max()) / t0,
    )
    return first - second, scale


def tsallis_uk(f: np.ndarray, g: np.ndarray, h: np.ndarray, q: float) -> np.ndarray:
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


def tsallis_curvature(f: np.ndarray, g: np.ndarray, h: np.ndarray, q: float):
    """-q (sum u_k + boundary terms), the boundary terms in numpy scalar powers."""
    n = g.size
    u = tsallis_uk(f, g, h, q)
    boundary = g[n - 1] ** 2 * f[n - 1] ** (q - 2.0) + g[0] ** 2 * f[1] ** (q - 2.0)
    fq1 = f ** (q - 1.0)
    fq2 = f ** (q - 2.0)
    terms = [0.0, g[n - 1] ** 2 * fq2[n - 1], g[0] ** 2 * fq2[1]]
    for k in range(h.size):
        hk = abs(h[k] / (1.0 - q))
        terms += [hk * fq1[k], 2.0 * hk * fq1[k + 1], hk * fq1[k + 2]]
        terms += [g[k] ** 2 * fq2[k], 2.0 * abs(g[k] * g[k + 1]) * fq2[k + 1],
                  g[k + 1] ** 2 * fq2[k + 2]]
    return float(-q * (u.sum() + boundary)), abs(q) * float(max(terms))


# The two-coin Tsallis critical-q probe as it was first written: a centred
# second difference of the entropy along p = (t, t). The library's probe is
# the exact kernel; this one pins its root from outside.


def binomial2_tsallis_fd_probe(q: float, step: float = 1e-4) -> float:
    """Second difference in t of the Tsallis entropy at p = (t, t), centred at t = 1/2."""
    from entropath.numdiff import central_second
    from entropath.qentropy import EntropySpec, q_entropy

    spec = EntropySpec.tsallis(q)

    def ent(t: float) -> float:
        return q_entropy(compute_pmf(ParamVector(np.array([t, t]))), spec)

    return central_second(ent, 0.5, step)


# The exact critical-q probes, every q building its point again: the unscaled
# ones as they were first written, and the points over their largest mass,
# whose bits the library's probes (each point built once) must give.


def binomial2_tsallis_unscaled_probe(q: float) -> float:
    """Tsallis curvature at p = (1/2, 1/2), slopes (1, 1), the point built for this q alone."""
    from entropath.qentropy import EntropySpec, q_curvature

    params = ParamVector(np.array([0.5, 0.5]))
    return q_curvature(params, np.array([1.0, 1.0]), EntropySpec.tsallis(q))


def binomial2_tsallis_probe(q: float) -> float:
    """The same curvature over its largest mass to the q, (1/2)^q: f, g and h doubled (exactly)."""
    from entropath.calculus import _fgh
    from entropath.qentropy import EntropySpec, basis_q_curvature, q_basis

    f, g, h = _fgh(ParamVector(np.array([0.5, 0.5])), np.array([1.0, 1.0]))
    return float(basis_q_curvature(q_basis(2.0 * f, 2.0 * g, 2.0 * h), EntropySpec.tsallis(q))[0])


def bernoulli_renyi_unscaled_probe(q: float) -> float:
    """Renyi curvature of one coin at p = 1e-4, slope 1, the point built for this q alone."""
    from entropath.qentropy import EntropySpec, q_curvature

    return q_curvature(ParamVector(np.array([1e-4])), np.array([1.0]), EntropySpec.renyi(q))


def bernoulli_renyi_probe(q: float) -> float:
    """The same curvature with f, g and h over the largest mass, 1 - 1e-4: a ratio, it stays."""
    from entropath.calculus import _fgh
    from entropath.qentropy import EntropySpec, basis_q_curvature, q_basis

    f, g, h = _fgh(ParamVector(np.array([1e-4])), np.array([1.0]))
    top = f.max()
    return float(basis_q_curvature(q_basis(f / top, g / top, h / top), EntropySpec.renyi(q))[0])


# The scan estimator of a critical q, as it was first written: one run_scan of
# the kind's curvature checker per bisection step. The library's estimator
# must cut the same certificates at every step and so bisect identically.


def scan_step_certificates(config, kind: str, q: float):
    """The certificates run_scan cuts at q on the single curvature checker of the kind."""
    from dataclasses import replace

    from entropath.explorer import run_scan

    if kind == "shannon":
        scan = replace(config, inequality_set=("entropy_concavity",), q_grid=None)
    else:
        scan = replace(config, inequality_set=(f"{kind}_concavity",), q_grid=(q,))
    return run_scan(scan).certificates


def min_position(values) -> int:
    """Position of the entry Python's min() returns: the first, replaced by every later smaller one.

    So a leading NaN is kept, a later NaN never wins, and a tie keeps the
    earlier entry. This is the rule of a scan's worst margin, over one row's
    margins and over the rows in instance-index order.
    """
    values = list(values)
    pick = 0
    for j, v in enumerate(values):
        if v < values[pick]:
            pick = j
    return pick


def reevaluate_certificate(cert) -> float:
    """A certificate's worst margin recomputed from its stored tuple alone, as a one-row group."""
    from entropath.explorer import evaluate_checker

    return evaluate_checker(cert.inequality, ParamVector(np.array(cert.p)),
                            np.array(cert.slopes), cert.q).worst


def bisect_by_scans(config, family: str, kind: str, bracket, tol: float = 1e-7, steps=None):
    """(root, sign trace) of the bisection driven by scan_step_certificates.

    When steps is a list, every step appends its (q, certificates) to it.
    """
    from dataclasses import replace

    base = replace(config, family=family)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy q_lo < q_hi")

    def violated(q: float) -> bool:
        certificates = scan_step_certificates(base, kind, q)
        if steps is not None:
            steps.append((q, certificates))
        return len(certificates) > 0

    v_lo = violated(lo)
    v_hi = violated(hi)
    trace = [(lo, 1 if v_lo else -1), (hi, 1 if v_hi else -1)]
    if v_lo == v_hi:
        raise ValueError("violation predicate is constant over the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v_mid = violated(mid)
        trace.append((mid, 1 if v_mid else -1))
        if v_mid == v_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), tuple(trace)


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def uk_terms(f: np.ndarray, g: np.ndarray, h: np.ndarray):
    """u_k and its transform data one k at a time: (u, h, branch, A, B, C, alpha, beta, gamma).

    Off the transform branch the six transform entries are None. The
    transform lower bound on u_k is asserted to 1e-10, as the library does.
    """
    logf = np.log(f)
    terms = []
    for k in range(h.size):
        fk, f1, f2 = f[k], f[k + 1], f[k + 2]
        gk, g1, hk = g[k], g[k + 1], h[k]
        log_ratio = logf[k] + logf[k + 2] - 2.0 * logf[k + 1]
        u = hk * log_ratio + (gk * gk / fk - 2.0 * gk * g1 / f1 + g1 * g1 / f2)
        if hk <= 0.0:
            terms.append((u, hk, "h_nonpositive") + (None,) * 6)
            continue
        if gk * gk == 0.0 or g1 * g1 == 0.0:
            terms.append((u, hk, "degenerate") + (None,) * 6)
            continue
        ag = abs(gk) * abs(g1)
        a_val = (gk * gk - fk * hk) / (gk * gk)
        b_val = (ag - f1 * hk) / ag
        c_val = (g1 * g1 - f2 * hk) / (g1 * g1)
        alpha, beta, gamma = gk * gk / fk, ag / f1, g1 * g1 / f2
        bound = (
            alpha * _xlogx(1.0 - a_val)
            - 2.0 * beta * _xlogx(1.0 - b_val)
            + gamma * _xlogx(1.0 - c_val)
            + (alpha * a_val - 2.0 * beta * b_val + gamma * c_val)
        )
        assert u - bound >= -1e-10 * max(1.0, abs(u), alpha, 2.0 * beta, gamma)
        terms.append((u, hk, "transform", a_val, b_val, c_val, alpha, beta, gamma))
    return terms


# The instance sampler as it was first written: one SplitMix64 object per
# instance, drawn one Python int at a time. The scan's array draw must give
# every instance the same bits.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """Counter-based 64-bit generator (SplitMix64).

    state_i = seed + i * 0x9E3779B97F4A7C15 (mod 2^64); output_i is state_i
    passed through the xorshift-multiply finalizer with constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB and shifts 30/27/31. Uniform
    doubles take the top 53 bits.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_open(self) -> float:
        """Uniform in (0, 1); safe under log."""
        return ((self.next_u64() >> 12) + 0.5) * 2.0**-52

    def integer(self, bound: int) -> int:
        """Integer in [0, bound) by modulo."""
        return self.next_u64() % bound

    def gaussian(self) -> float:
        u1 = self.uniform_open()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def instance_rng(seed: int, index: int) -> SplitMix64:
    """Generator for one instance; a pure function of (seed, index)."""
    return SplitMix64(_mix64((seed + (index + 1) * _GAMMA) & _MASK64))


def draw_n(rng: SplitMix64, n_range) -> int:
    """The component count: an instance stream's first draw, even when n_range is one value."""
    n_lo, n_hi = n_range
    return n_lo + rng.integer(n_hi - n_lo + 1)


def draw_slopes(rng: SplitMix64, n: int, distribution: str) -> np.ndarray:
    if distribution == "unit_sphere":
        z = np.array([rng.gaussian() for _ in range(n)])
    elif distribution == "signed_unit":
        z = np.array([2.0 * rng.uniform() - 1.0 for _ in range(n)])
    else:
        z = np.array([rng.uniform() for _ in range(n)])
    top = float(np.abs(z).max())
    if top == 0.0:
        z[0] = 1.0
        top = 1.0
    return z / top


def sample_instance(config, index: int):
    """The random_affine instance at index, drawn from its own generator."""
    from entropath.explorer import ScanInstance

    rng = instance_rng(config.seed, index)
    n = draw_n(rng, config.n_range)
    eps = config.interior_margin
    p = tuple(eps + (1.0 - 2.0 * eps) * rng.uniform() for _ in range(n))
    slopes = draw_slopes(rng, n, config.slope_distribution)
    return ScanInstance(index, p, tuple(float(v) for v in slopes), 0.0)


def family_instances(config):
    """Every instance of the configured family, in index order."""
    from entropath.explorer import ScanInstance

    indices = range(config.instance_count)
    if config.family == "random_affine":
        return [sample_instance(config, i) for i in indices]
    if config.family == "bernoulli":
        ts = np.geomspace(1e-6, 0.5, config.instance_count)
        return [ScanInstance(i, (float(ts[i]),), (1.0,), float(ts[i])) for i in indices]
    n = 2 if config.family == "binomial2" else config.n_range[1]
    ts = np.linspace(0.02, 0.98, config.instance_count)
    return [ScanInstance(i, (float(ts[i]),) * n, (1.0,) * n, float(ts[i])) for i in indices]


def stack(instances):
    """The instances' stored tuples as one Group; they must share one n."""
    from entropath.explorer import Group

    return Group(np.array([inst.p for inst in instances]),
                 np.array([inst.slopes for inst in instances]),
                 np.array([inst.index for inst in instances]),
                 np.array([inst.t for inst in instances]))


# The scan as it was first written: every instance on its own, every checker
# evaluated on it through evaluate_checker, the worst margins merged as the
# instances come. The grouped scan must give the same report byte for byte.


def scan_by_instance(config, collect_margins: bool = False):
    """The ScanReport of config, one instance at a time."""
    from entropath.explorer import (
        CHECKERS,
        OVERESTIMATE_CAVEAT,
        CounterexampleCertificate,
        ScanReport,
        evaluate_checker,
    )

    cfg_hash = config.config_hash()
    worst: dict[str, dict] = {}
    certificates = []
    rows = []
    for inst in family_instances(config):
        params = ParamVector(np.array(inst.p))
        slopes = np.array(inst.slopes)
        for cid in config.inequality_set:
            for q in config.q_grid if CHECKERS[cid].takes_q else (None,):
                report = evaluate_checker(cid, params, slopes, q)
                if report is None:
                    continue
                key = cid if q is None else f"{cid}[q={q!r}]"
                if collect_margins:
                    rows.extend((inst.index, key, k, v) for k, v in report.margins)
                if report.values.size:
                    k_worst = int(report.ks[report.worst_position])
                    entry = worst.get(key)
                    if entry is None or report.worst < entry["margin"]:
                        worst[key] = {
                            "margin": report.worst,
                            "instance_index": inst.index,
                            "k": k_worst,
                        }
                if report.worst < -10.0 * report.tolerance:  # the certificate rule
                    again = evaluate_checker(cid, ParamVector(np.array(inst.p)),
                                             np.array(inst.slopes), q)
                    certificates.append(CounterexampleCertificate(
                        config_hash=cfg_hash, instance_index=inst.index, inequality=cid,
                        p=inst.p, slopes=inst.slopes, t=inst.t, q=q, k=k_worst,
                        margin=report.worst, reeval_margin=again.worst,
                    ))
    certificates.sort(key=lambda c: (c.instance_index, c.inequality, c.q or 0.0))
    takes_q = any(CHECKERS[cid].takes_q for cid in config.inequality_set)
    return ScanReport(
        config=config,
        config_hash=cfg_hash,
        worst_margins=worst,
        certificates=tuple(certificates),
        margin_rows=tuple(rows) if collect_margins else None,
        caveat=OVERESTIMATE_CAVEAT if takes_q else None,
    )
