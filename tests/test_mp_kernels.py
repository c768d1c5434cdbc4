"""The forward f/g/h recurrence, the adjoint entropy Hessian and the q kernels pinned to mpmath.

The f/g/h oracle runs the same recurrence in mpmath on the exact binary64
inputs. The Hessian oracle forms every leave-two-out pmf explicitly and
takes its sum against w, with no adjoint. Both kernels must also give a row
the same bits in any stack. The power sums and the Renyi/Tsallis curvatures
are taken at 50 digits on the kernels' own binary64 f, g and h, and the
per-index Tsallis terms u_k at 60 digits.
"""

import warnings

import mpmath
import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import random_instance
from entropath.calculus import stacked_entropy_hessian, stacked_fgh
from entropath.explorer import ScanConfig, sample_instance
from entropath.pmf import ParamVector, _convolve_bernoullis
from entropath.qentropy import (
    EntropySpec,
    basis_power_sums,
    basis_q_curvature,
    q_basis,
    tsallis_uk,
)

EPS = np.finfo(np.float64).eps
DIGITS = 60


def _mp(values):
    return [mpmath.mpf(float(v)) for v in values]


def _conv(a, b):
    """The product of two polynomials given by their coefficient lists."""
    rb = b[::-1]
    out = []
    for k in range(len(a) + len(b) - 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        out.append(mpmath.fdot(a[lo : hi + 1], rb[len(b) - 1 - k + lo : len(b) - k + hi]))
    return out


def _mp_fgh(p, slopes):
    """f, g and h by the recurrence F <- cF, G <- cG + aF, H <- cH + 2aG, c = q + p x."""
    f, g, h = [mpmath.mpf(1)], [mpmath.mpf(0)], [mpmath.mpf(0)]
    for pt, at in zip(_mp(p), _mp(slopes)):
        c = [1 - pt, pt]
        f, g, h = (_conv(f, c), [x + at * y for x, y in zip(_conv(g, c), f + [0])],
                   [x + 2 * at * y for x, y in zip(_conv(h, c), g + [0])])
    n = len(p)
    return f, g[:n], h[: n - 1]


def _mp_hessian(p):
    """The entropy Hessian from every leave-one-out and leave-two-out pmf, formed explicitly."""
    n = len(p)
    comps = [[1 - x, x] for x in _mp(p)]
    prefix = [[mpmath.mpf(1)]]
    for c in comps:
        prefix.append(_conv(prefix[-1], c))
    suffix = [None] * n
    tail = [mpmath.mpf(1)]
    for j in range(n - 1, -1, -1):
        suffix[j] = tail
        tail = _conv(tail, comps[j])
    f = prefix[n]
    u = [mpmath.log(x) + 1 for x in f]
    w = [u[k] - 2 * u[k + 1] + u[k + 2] for k in range(n - 1)]
    zero = [mpmath.mpf(0)]
    d = []
    for i in range(n):
        single = zero + _conv(prefix[i], suffix[i]) + zero
        d.append([single[k] - single[k + 1] for k in range(n + 1)])
    hess = [[-mpmath.fsum(x * y / fk for x, y, fk in zip(d[i], d[j], f)) for j in range(n)]
            for i in range(n)]
    for i in range(n):
        kept = prefix[i]  # components below j but i
        for j in range(i + 1, n):
            cross = -mpmath.fdot(_conv(kept, suffix[j]), w)
            hess[i][j] += cross
            hess[j][i] += cross
            kept = _conv(kept, comps[j])
    return hess


def _fgh_cases():
    rng = np.random.default_rng(20261019)
    return [random_instance(rng, n_min=n, n_max=n) for n in (1, 2, 3, 4, 7, 12, 30, 60, 120)]


FGH_CASES = _fgh_cases()


@pytest.mark.parametrize("p, slopes", FGH_CASES, ids=[f"n{p.size}" for p, _ in FGH_CASES])
def test_stacked_fgh_matches_the_mpmath_recurrence(p, slopes):
    # Each step rounds q = 1 - p, two or three products and their sums: at most
    # 4 half-ulps relative to the step's absolute terms. The recurrence has
    # nonnegative weights q, p and |a|, so after n steps the error stays under
    # 4 n half-ulps of the same recurrence run on |slopes| (f is its own scale).
    n = p.size
    f, g, h = (row[0] for row in stacked_fgh(p[None], slopes[None]))
    _, scale_g, scale_h = (row[0] for row in stacked_fgh(p[None], np.abs(slopes)[None]))
    bound = 2.0 * (n + 1) * EPS
    with mpmath.workdps(DIGITS):
        for got, want, scale in zip((f, g, h), _mp_fgh(p, slopes), (f, scale_g, scale_h)):
            assert len(want) == got.size
            for x, y, s in zip(got.tolist(), want, scale.tolist()):
                assert abs(mpmath.mpf(x) - y) <= bound * s


def _hessian_cases():
    rng = np.random.default_rng(20261020)
    return [rng.uniform(1e-3, 1.0 - 1e-3, n) for n in (1, 2, 3, 5, 8, 13, 21, 40)]


@pytest.mark.parametrize("p", _hessian_cases(), ids=lambda p: f"n{p.size}")
def test_adjoint_hessian_matches_mpmath_leave_two_out_sums(p):
    # Every pmf entry carries at most 2(n + 1) ulps relative, log f then adds
    # as much absolutely, and every sum over k at most n + 1 roundings of its
    # absolute terms: 4(n + 1) ulps of oracle.hessian_scale bounds each entry.
    n = p.size
    f = _convolve_bernoullis(p)
    got = stacked_entropy_hessian(p[None], f[None])[0][0]
    scale = oracle.hessian_scale(f, oracle.kept_convolutions(p, 1), oracle.kept_convolutions(p, 2))
    bound = 4.0 * (n + 1) * EPS * scale
    with mpmath.workdps(DIGITS):
        want = _mp_hessian(p)
        err = np.array([[float(abs(mpmath.mpf(got[i, j]) - want[i][j])) for j in range(n)]
                        for i in range(n)])
    assert (err <= bound).all()


@pytest.mark.parametrize("n", (1, 2, 3, 6, 12, 40))
def test_kernel_rows_have_the_same_bits_in_any_stack(n):
    rng = np.random.default_rng(n)
    p = rng.uniform(0.02, 0.98, (7, n))
    slopes = rng.uniform(-1.0, 1.0, (7, n))
    fgh = stacked_fgh(p, slopes)
    hess, top = stacked_entropy_hessian(p, fgh[0])
    order = rng.permutation(7)[:4]
    shuffled = stacked_fgh(p[order], slopes[order])
    shuffled_hess, shuffled_top = stacked_entropy_hessian(p[order], shuffled[0])
    for at, row in enumerate(order):
        one = stacked_fgh(p[row : row + 1], slopes[row : row + 1])
        one_hess, one_top = stacked_entropy_hessian(p[row : row + 1], one[0])
        for stack, alone, again in zip(fgh, one, shuffled):
            assert stack[row].tobytes() == alone[0].tobytes() == again[at].tobytes()
        assert hess[row].tobytes() == one_hess[0].tobytes() == shuffled_hess[at].tobytes()
        assert top[row].item() == one_top[0].item() == shuffled_top[at].item()


# The q kernels on the float f, g and h of seeded rows, against the same sums
# taken at 50 digits on those inputs in the old form, T' = q sum f^(q-1) f'
# and T'' = q(q-1) sum f^(q-2) f'^2 + q sum f^(q-1) f''. The seed-0 row of
# scan --n-range 500,500 has masses near 1e-210, where f^(q-2) overflows.
Q_DIGITS = 50
KERNEL_QS = (0.5, 2.0, 3.65986, 4.0)


def _q_cases():
    rng = np.random.default_rng(20261021)
    cases = [random_instance(rng, n_min=n, n_max=n) for n in (1, 2, 3, 7, 12, 30, 60, 120, 250)]
    seed0 = sample_instance(ScanConfig(seed=0, n_range=(500, 500), instance_count=2), 0)
    return cases + [(np.array(seed0.p), np.array(seed0.slopes))]


Q_CASES = _q_cases()


def _mp_power_sums(f, g, h, q):
    """(T, T', T'') at Q_DIGITS and the sums of their absolute terms in ratio form.

    An absolute sum bounds what the kernel's roundings can move, with
    u = eps / 2: each term of T, T' and T'' carries at most 8 u relative to
    its absolute value (f^q's one ulp counted as 2 u, f'' taken at the scale
    |h_k| + 2 |h_(k-1)| + |h_(k-2)|), the sum over k at most n u of the sum,
    and the scalings by q and q - 1 at most 3 u, so the error is under
    (n + 12) u times the sum.
    """
    n = len(g)
    f, g, h = _mp(f), _mp(g), _mp(h)
    q = mpmath.mpf(q)
    gp = [0] + g + [0]
    hp = [0, 0] + h + [0, 0]
    d1 = [gp[k] - gp[k + 1] for k in range(n + 1)]
    d2 = [hp[k + 2] - 2 * hp[k + 1] + hp[k] for k in range(n + 1)]
    d2_abs = [abs(hp[k + 2]) + 2 * abs(hp[k + 1]) + abs(hp[k]) for k in range(n + 1)]
    t0 = mpmath.fsum(x**q for x in f)
    t1 = q * mpmath.fsum(x ** (q - 1) * d for x, d in zip(f, d1))
    t2 = (q * (q - 1) * mpmath.fsum(x ** (q - 2) * d * d for x, d in zip(f, d1))
          + q * mpmath.fsum(x ** (q - 1) * d for x, d in zip(f, d2)))
    m1 = abs(q) * mpmath.fsum(x ** (q - 1) * abs(d) for x, d in zip(f, d1))
    m2 = (abs(q * (q - 1)) * mpmath.fsum(x ** (q - 2) * d * d for x, d in zip(f, d1))
          + abs(q) * mpmath.fsum(x ** (q - 1) * d for x, d in zip(f, d2_abs)))
    return (t0, t1, t2), (t0, m1, m2)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("p, slopes", Q_CASES, ids=[f"n{p.size}" for p, _ in Q_CASES[:-1]]
                         + ["seed0-n500"])
def test_q_kernels_match_mpmath_power_sums(p, slopes, q):
    n = p.size
    f, g, h = stacked_fgh(p[None], slopes[None])
    basis = q_basis(f, g, h)
    sums = [x[0] for x in basis_power_sums(basis, q)]
    renyi = basis_q_curvature(basis, EntropySpec.renyi(q))[0]
    tsallis = basis_q_curvature(basis, EntropySpec.tsallis(q))[0]
    u = EPS / 2
    with mpmath.workdps(Q_DIGITS):
        (t0, t1, t2), scales = _mp_power_sums(f[0], g[0], h[0], q)
        errs = [(n + 12) * u * m for m in scales]
        for got, want, err in zip(sums, (t0, t1, t2), errs):
            assert abs(mpmath.mpf(float(got)) - want) <= err
        e0, e1, e2 = errs
        # Tsallis T''/(1-q): T'''s error, then two roundings.
        c = 1 - mpmath.mpf(q)
        want = t2 / c
        assert abs(mpmath.mpf(float(tsallis)) - want) <= e2 / abs(c) + 2 * u * abs(want)
        # Renyi A - B, A = T''/((1-q) T) and B = (T'/T)^2/(1-q): each sum's error carried
        # through to first order, three roundings in A, four in B and one in A - B.
        a, b = t2 / (c * t0), (t1 / t0) ** 2 / c
        bound = (e2 / abs(c * t0) + abs(a) * e0 / t0 + 3 * u * abs(a)
                 + 2 * abs(t1) * e1 / (t0 * t0 * abs(c)) + 2 * abs(b) * e0 / t0 + 4 * u * abs(b)
                 + u * abs(a - b))
        assert abs(mpmath.mpf(float(renyi)) - (a - b)) <= bound
        if n == 500 and q == 0.5:  # the seed-0 row, whose margin read NaN in the old form
            assert abs(a - b - mpmath.mpf("-1.9768024671693553")) <= 1e-15


def _mp_tsallis_uk(f, g, h, q):
    """(u_k, m_k, r_k), k = 0..n-2: u_k at DIGITS in the power form, and what bounds its error.

    u_k = -(h_k/(1-q)) (f_k^(q-1) - 2 f_(k+1)^(q-1) + f_(k+2)^(q-1))
          + g_k^2 f_k^(q-2) - 2 g_k g_(k+1) f_(k+1)^(q-2) + g_(k+1)^2 f_(k+2)^(q-2).
    The kernel forms each term as f_j^q times a q-independent ratio. With
    u = eps / 2, each term carries at most 6 u relative to its absolute
    value (f^q's one ulp counted as 2 u), 1/(1-q) and its product 3 u more,
    the three-term sums 2 u and the last sum u: under 12 u times m_k, the
    sum of the absolute terms. Where f_j^q is subnormal, it is off by up to
    2^-1074 absolutely, which its ratio scales; r_k sums the absolute
    ratios, and each of the at most seven roundings to a subnormal adds
    2^-1075 more, so 2^-1074 (r_k + 4) bounds that part.
    """
    f, g, h = _mp(f), _mp(g), _mp(h)
    q = mpmath.mpf(q)
    out = []
    for k in range(len(h)):
        c = h[k] / (1 - q)
        g2 = (g[k] ** 2, g[k] * g[k + 1], g[k + 1] ** 2)
        pairs = [(-c * f[k + j] ** (q - 1), -c / f[k + j]) for j in range(3)]
        pairs += [(g2[j] * f[k + j] ** (q - 2), g2[j] / f[k + j] ** 2) for j in range(3)]
        weights = (1, -2, 1, 1, -2, 1)
        u = mpmath.fsum(w * term for w, (term, _) in zip(weights, pairs))
        m = mpmath.fsum(abs(w * term) for w, (term, _) in zip(weights, pairs))
        r = mpmath.fsum(abs(w * ratio) for w, (_, ratio) in zip(weights, pairs))
        out.append((u, m, r))
    return out


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("p, slopes", Q_CASES, ids=[f"n{p.size}" for p, _ in Q_CASES[:-1]]
                         + ["seed0-n500"])
def test_tsallis_uk_matches_mpmath(p, slopes, q):
    # The per-index route forms no power but f^q, so it stays finite where
    # f^(q-2) overflows; -W error would fail on an overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tsallis_uk(ParamVector(p), slopes, q)
    f, g, h = (row[0] for row in stacked_fgh(p[None], slopes[None]))
    u = EPS / 2
    with mpmath.workdps(DIGITS):
        want = _mp_tsallis_uk(f, g, h, q)
        assert len(want) == got.size
        for x, (y, m, r) in zip(got.tolist(), want):
            assert abs(mpmath.mpf(x) - y) <= 12 * u * m + 2.0**-1074 * (r + 4)
        if p.size == 500 and q == 0.5:  # the seed-0 row, whose tail read inf in the power form
            assert abs(want[0][0] - mpmath.mpf("-2.5786144652695878e-98")) <= 1e-113
