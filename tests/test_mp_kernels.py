"""The forward f/g/h recurrence and the adjoint entropy Hessian pinned to 60-digit mpmath.

The f/g/h oracle runs the same recurrence in mpmath on the exact binary64
inputs. The Hessian oracle forms every leave-two-out pmf explicitly and
takes its sum against w, with no adjoint. Both kernels must also give a row
the same bits in any stack.
"""

import mpmath
import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import random_instance
from entropath.calculus import stacked_entropy_hessian, stacked_fgh
from entropath.pmf import _convolve_bernoullis

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
