"""Array-native checkers, mixture sequences and the Hessian pinned against scalar oracles."""

import re

import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import random_instance
from entropath.calculus import (
    AffinePath,
    _fgh,
    entropy_curvature,
    entropy_hessian,
    path_derivatives,
    stacked_entropy_curvature,
    stacked_entropy_hessian,
)
from entropath.errors import BoundaryError, ConsistencyError
from entropath.explorer import Group, evaluate_checker
from entropath.inequalities import (
    ABS_FLOOR,
    REL_TOL,
    MarginReport,
    stacked_c1bar,
    stacked_two_fold_log_concavity,
    stacked_uk,
)
from entropath.pmf import ParamVector, _convolve_bernoullis, compute_pmf
from entropath.qentropy import (
    EntropySpec,
    _tsallis_terms,
    basis_power_sums,
    basis_q_curvature,
    power_sum_derivatives,
    q_basis,
    q_curvature,
    tsallis_uk,
    tsallis_uk_tilde,
)

EPS = np.finfo(np.float64).eps
# Allowed gap between a vectorized margin and its oracle, in units of the
# checker's largest monomial: a few roundings of the cubic terms.
ULPS = 8


def _instances():
    """Seeded parameter vectors: n = 1..60, zero masses (p with 0 or 1), and n = 1, 2 edge cases."""
    rng = np.random.default_rng(20260808)
    out = [rng.random(n) for n in range(1, 61)]
    for n in (1, 2, 3, 7, 12):
        p = rng.random(n)
        p[rng.integers(n)] = 0.0
        out.append(p.copy())
        p[rng.integers(n)] = 1.0
        out.append(p)
    out += [np.array([0.0]), np.array([1.0]), np.array([0.5]), np.array([0.0, 1.0]),
            np.array([1.0, 1.0]), np.array([0.5, 0.5]), np.array([1e-3, 1.0 - 1e-3])]
    return out


INSTANCES = _instances()


def _assert_matches(report: MarginReport, expected):
    pairs, scale = expected
    assert [k for k, _ in report.margins] == [k for k, _ in pairs]
    got = np.array([v for _, v in report.margins])
    want = np.array([v for _, v in pairs])
    assert np.all(np.abs(got - want) <= ULPS * EPS * scale), report.name
    assert report.tolerance == pytest.approx(max(ABS_FLOOR, REL_TOL * scale), rel=ULPS * EPS)


@pytest.mark.parametrize("p", INSTANCES, ids=lambda p: f"n{p.size}")
def test_pmf_checkers_match_scalar_oracle(p):
    params, slopes = ParamVector(p), np.zeros(p.size)
    v = compute_pmf(params).values
    for cid, margins in (("log_concavity", oracle.log_concavity),
                         ("two_fold_log_concavity", oracle.two_fold),
                         ("c1", oracle.c1), ("c1bar", oracle.c1bar)):
        _assert_matches(evaluate_checker(cid, params, slopes), margins(v))


@pytest.mark.parametrize("p", [p for p in INSTANCES if p.size >= 2], ids=lambda p: f"n{p.size}")
def test_slope_checkers_match_scalar_oracle(p):
    rng = np.random.default_rng(p.size)
    params = ParamVector(p)
    slopes = rng.uniform(-1.0, 1.0, p.size)
    d = path_derivatives(params, slopes)
    f = compute_pmf(params).values
    _assert_matches(evaluate_checker("condition4", params, slopes), oracle.condition4(f, d.g, d.h))
    _assert_matches(evaluate_checker("corollary_fgh", params, slopes),
                    oracle.corollary_fgh(f, d.g, d.h))
    if p.size <= 24 or p.size == 60:  # the scalar sweep is O(n^3) Python calls
        _assert_matches(evaluate_checker("cij", params, slopes),
                        oracle.cij(oracle.kept_convolutions(p, 2)))


@pytest.mark.parametrize("p", [p for p in INSTANCES if p.size <= 30], ids=lambda p: f"n{p.size}")
def test_mixture_sequences_match_term_by_term_sums(p):
    rng = np.random.default_rng(p.size)
    params = ParamVector(p)
    slopes = rng.uniform(-1.0, 1.0, p.size)
    slopes[rng.integers(p.size)] = 0.0
    d = path_derivatives(params, slopes)
    singles, pairs = oracle.kept_convolutions(p, 1), oracle.kept_convolutions(p, 2)
    g, h = oracle.mixture_sequences(singles, pairs, slopes)
    scale_g = float(np.abs(singles).sum(axis=0).max())
    scale_h = 2.0 * float(np.abs(pairs).sum(axis=0).max(initial=0.0))
    assert np.all(np.abs(d.g - g) <= ULPS * EPS * scale_g)
    assert np.all(np.abs(d.h - h) <= ULPS * EPS * scale_h)


def test_c1bar_is_bit_equal_to_mirrored_formula():
    rng = np.random.default_rng(7)
    for n in list(range(1, 40)) + [80, 150]:
        v = compute_pmf(ParamVector(rng.random(n))).values
        pairs, scale = oracle.c1bar(v)
        report = stacked_c1bar(v[None]).report("c1bar")
        assert report.margins == tuple(pairs)
        assert report.tolerance == max(ABS_FLOOR, REL_TOL * scale)


def test_binomial_200_two_fold_identity_fault_persists():
    # D_k^2 - D_{k-1} D_{k+1} cancels at n = 200, and the 1e-12 relative
    # identity check still trips on it; its bound is an open item.
    v = compute_pmf(ParamVector(np.full(200, 0.02))).values
    with pytest.raises(ConsistencyError, match=r"at k=50:"):
        stacked_two_fold_log_concavity(v[None])


def _hessian_instances():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(60):
        p, _ = random_instance(rng, n_min=1, n_max=12)
        out.append(p)
    out.append(rng.uniform(1e-3, 1.0 - 1e-3, 50))
    return out


@pytest.mark.parametrize("p", _hessian_instances(), ids=lambda p: f"n{p.size}")
def test_hessian_top_eigenvalue_matches_jacobi(p):
    report = entropy_hessian(ParamVector(p))
    top = float(oracle.jacobi_eigenvalues(report.matrix)[-1])
    norm = float(np.linalg.norm(report.matrix))
    assert abs(report.max_eigenvalue - top) <= 1e-12 * norm


def test_cached_pmf_is_read_only():
    params = ParamVector(np.array([0.2, 0.5, 0.7, 0.9]))
    assert params.pmf is params.pmf
    assert not params.pmf.values.flags.writeable
    with pytest.raises(ValueError):
        params.pmf.values[0] = 0.0


@pytest.mark.parametrize("n", (1, 2, 3, 5, 12, 30, 50))
def test_hessian_stack_rows_equal_two_dimensional_products(n):
    # The adjoint pass and the leave-two-out products round differently; each
    # entry of either is within 4(n + 1) ulps of oracle.hessian_scale of the
    # exact value (tests/test_mp_kernels.py), so they differ by at most twice that.
    p = np.random.default_rng(n).uniform(0.05, 0.95, (6, n))
    f = _convolve_bernoullis(p)
    matrices, top = stacked_entropy_hessian(p, f)
    for row in range(6):
        leave_out = (f[row], oracle.kept_convolutions(p[row], 1),
                     oracle.kept_convolutions(p[row], 2))
        want = oracle.hessian_matrix(*leave_out)
        scale = oracle.hessian_scale(*leave_out)
        assert (np.abs(matrices[row] - want) <= 8.0 * (n + 1) * EPS * scale).all()
        report = entropy_hessian(ParamVector(p[row]))
        assert report.matrix.tobytes() == matrices[row].tobytes()
        assert top[row].item() == report.max_eigenvalue
        assert report.max_eigenvalue == float(np.linalg.eigvalsh(report.matrix)[-1])


# The stacked curvature kernels: one call per stack of f (m, n+1), g (m, n)
# and h (m, n-1) rows, of which the one-instance functions are one-row calls.
KERNEL_QS = (0.5, 2.0, 3.65986, 4.0)
SPECS = [EntropySpec.shannon()] + [EntropySpec(kind, q) for kind in ("renyi", "tsallis")
                                   for q in KERNEL_QS]


def _kernel_stacks():
    """Per n = 1..12: seeded (params, slopes) with some zero slopes, and their stacked f, g, h."""
    rng = np.random.default_rng(20261018)
    out = []
    for n in range(1, 13):
        cases = []
        for i in range(24):
            p, s = random_instance(rng, n_min=n, n_max=n)
            if i % 4 == 1:
                s[rng.integers(n)] = 0.0
            elif i % 4 == 2:
                s[:] = 0.0
            cases.append((ParamVector(p), s))
        rows = [_fgh(params, s) for params, s in cases]
        out.append((cases, *(np.concatenate([r[a] for r in rows]) for a in range(3))))
    return out


KERNEL_STACKS = _kernel_stacks()


def _bits(x) -> list[int]:
    return np.asarray(x, dtype=np.float64).view(np.int64).ravel().tolist()


def _stacked_curvature(f, g, h, spec):
    """Every row's curvature: the Shannon kernel, or the q basis and its per-q pass."""
    if spec.kind == "shannon":
        return stacked_entropy_curvature(f, g, h)
    return basis_q_curvature(q_basis(f, g, h), spec)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.q}")
def test_stack_rows_equal_one_instance_calls_bit_for_bit(spec):
    for cases, f, g, h in KERNEL_STACKS:
        stacked = _stacked_curvature(f, g, h, spec)
        assert _bits(stacked) == _bits([q_curvature(pv, s, spec) for pv, s in cases])
        if spec.kind == "shannon":
            assert _bits(stacked) == _bits([entropy_curvature(pv, s) for pv, s in cases])
            continue
        sums = np.stack(basis_power_sums(q_basis(f, g, h), spec.q), axis=1)
        assert _bits(sums) == _bits([power_sum_derivatives(pv, s, spec.q) for pv, s in cases])
        h_part, g_part, _ = _tsallis_terms(f, g, h, spec.q)
        assert _bits(h_part + g_part) == _bits([tsallis_uk(pv, s, spec.q) for pv, s in cases])


def test_fgh_of_a_slope_stack_equals_one_vector_calls_bit_for_bit():
    # The sign sweep of the monotone check stacks slope vectors; a vector alone keeps its bits.
    for cases, *_ in KERNEL_STACKS:
        for params, s in cases[:4]:
            signs = np.where((np.arange(8)[:, None] >> np.arange(params.n)) & 1, -1.0, 1.0)
            stack = signs * s
            f, g, h = _fgh(params, stack)
            assert g.shape == (8, params.n) and h.shape == (8, params.n - 1)
            for row, slopes in enumerate(stack):
                one_f, one_g, one_h = _fgh(params, slopes)
                assert _bits(f[row]) == _bits(one_f)
                assert _bits(g[row]) == _bits(one_g) and _bits(h[row]) == _bits(one_h)


@pytest.mark.parametrize("q", [q for q in KERNEL_QS if q != 2.0])
def test_tsallis_uk_tilde_extends_tsallis_uk(q):
    # u_k for k = 0..n-2 is tsallis_uk; the extra k = n-1 entry is g_{n-1}^2 f_{n-1}^(q-2),
    # formed as f_{n-1}^q (g_{n-1} / f_{n-1})^2.
    for cases, f, g, _ in KERNEL_STACKS:
        for row, (params, s) in enumerate(cases):
            rep = tsallis_uk_tilde(AffinePath(params, s), 0.0, q)
            assert _bits(rep.u[:-1]) == _bits(tsallis_uk(params, s, q))
            n = params.n
            last = f[row, n - 1 : n] ** q * (g[row, n - 1] / f[row, n - 1]) ** 2
            assert _bits(rep.u[-1]) == _bits(last)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.q}")
def test_stacked_curvature_matches_scalar_formulas(spec):
    for _, f, g, h in KERNEL_STACKS:
        stacked = _stacked_curvature(f, g, h, spec)
        for row, got in enumerate(stacked.tolist()):
            if spec.kind == "shannon":
                want, scale = oracle.entropy_curvature(f[row], g[row], h[row])
            elif spec.kind == "renyi":
                want, scale = oracle.renyi_curvature(f[row], g[row], h[row], spec.q)
            else:
                want, scale = oracle.tsallis_curvature(f[row], g[row], h[row], spec.q)
            assert abs(got - want) <= ULPS * EPS * scale, (spec, f.shape, row)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.q}")
def test_stacked_kernels_raise_boundary_error_as_one_row_calls_do(spec):
    # p with a 0 or a 1 has a zero mass. The q kernels reject every such row;
    # the Shannon kernel only a row whose zero mass has derivative terms.
    boundary = [
        (np.array([0.0, 0.5]), np.array([1.0, 0.0])),
        (np.array([0.0, 0.5]), np.array([0.0, 1.0])),
        (np.array([1.0, 0.3]), np.array([0.0, 1.0])),
        (np.array([1.0, 0.3]), np.array([1.0, -1.0])),
        (np.array([0.2, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        (np.array([0.2, 1.0, 0.0]), np.array([0.5, 0.0, 1.0])),
    ]
    interior = (np.array([0.3, 0.6]), np.array([0.4, -1.0]))
    for p, s in boundary:
        n = p.size
        mates = [(np.full(n, 0.4), np.ones(n)), (p, s), (np.full(n, 0.7), -np.ones(n))]
        if n == 2:
            mates.append(interior)
        rows = [_fgh(ParamVector(pp), ss) for pp, ss in mates]
        f, g, h = (np.concatenate([r[a] for r in rows]) for a in range(3))
        try:
            one = q_curvature(ParamVector(p), s, spec)
        except BoundaryError as exc:
            with pytest.raises(BoundaryError, match=re.escape(str(exc))):
                _stacked_curvature(f, g, h, spec)
            if spec.kind != "shannon":
                with pytest.raises(BoundaryError, match=re.escape(str(exc))):
                    _tsallis_terms(f, g, h, spec.q)
            continue
        assert spec.kind == "shannon"
        stacked = _stacked_curvature(f, g, h, spec)
        assert _bits(stacked[1]) == _bits(one)
        assert _bits(stacked) == _bits([q_curvature(ParamVector(pp), ss, spec)
                                        for pp, ss in mates])


def _uk_rows(dec):
    return [(t.u, t.h, t.branch.value, t.A, t.B, t.C, t.alpha, t.beta, t.gamma)
            for t in dec.terms]


def test_uk_decomposition_equals_the_scalar_loop():
    # g vanishes identically here; by the corollary g_k^2 >= h_k f_k, h_k <= 0 then.
    crafted = (ParamVector(np.array([0.5, 0.5, 0.5])), np.array([1.0, -1.0, 0.0]))
    branches = set()
    stacks = KERNEL_STACKS[1:] + [([crafted], *_fgh(*crafted))]
    for cases, f, g, h in stacks:
        stacked = stacked_uk(f, g, h)
        for row, (params, slopes) in enumerate(cases):
            want = oracle.uk_terms(f[row], g[row], h[row])
            got = _uk_rows(stacked.row(row))
            assert got == want
            assert _uk_rows(Group.row(params, slopes).uk.row(0)) == got
            branches.update(t[2] for t in got)
    assert branches == {"h_nonpositive", "transform"}
