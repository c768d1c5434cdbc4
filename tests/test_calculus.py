"""Analytic path derivatives pinned against finite differences and hand values."""

import math

import numpy as np
import pytest

from conftest import entropy_at, fd_hessian, mixture_row, random_instance
from entropath.calculus import (
    AffinePath,
    entropy_curvature,
    entropy_hessian,
    path_at,
    pmf_second_time_derivative,
    pmf_time_derivative,
    shannon_entropy,
)
from entropath.errors import BoundaryError
from entropath.pmf import ParamVector, compute_pmf
from scalar_oracle import central_first, central_second, jacobi_eigenvalues


class TestPaths:
    def test_affine_evaluation(self):
        path = AffinePath(ParamVector(np.array([0.2, 0.8])), np.array([1.0, -1.0]))
        np.testing.assert_allclose(path_at(path, 0.1).p, [0.3, 0.7], atol=1e-15)

    def test_identity_at_origin(self):
        p0 = ParamVector(np.array([0.37, 0.11, 0.92]))
        path = AffinePath(p0, np.array([0.5, -0.2, 0.01]))
        np.testing.assert_allclose(path_at(path, 0.0).p, p0.p, atol=0)

    def test_full_sweep_endpoint(self):
        path = AffinePath(ParamVector(np.array([0.0, 0.0])), np.array([1.0, 1.0]))
        assert path.t_domain == (0.0, 1.0)
        np.testing.assert_allclose(path_at(path, 1.0).p, [1.0, 1.0], atol=0)

    def test_outside_domain_rejected(self):
        path = AffinePath(ParamVector(np.array([0.2])), np.array([1.0]))
        with pytest.raises(ValueError):
            path_at(path, 0.9)

    def test_explicit_domain_validated(self):
        with pytest.raises(ValueError):
            AffinePath(ParamVector(np.array([0.2])), np.array([1.0]), (0.0, 0.9))

    def test_zero_slopes_have_unbounded_domain(self):
        path = AffinePath(ParamVector(np.array([0.2])), np.array([0.0]))
        assert path.t_domain == (-math.inf, math.inf)


class TestMixtureSequences:
    def test_g_hand_value(self):
        pv = ParamVector(np.array([0.3, 0.5]))
        np.testing.assert_allclose(mixture_row(pv, [1.0, 1.0])[0], [1.2, 0.8], atol=1e-15)

    def test_g_equal_halves(self):
        pv = ParamVector(np.array([0.5, 0.5]))
        np.testing.assert_allclose(mixture_row(pv, [1.0, 1.0])[0], [1.0, 1.0], atol=0)

    def test_g_zero_slopes(self):
        pv = ParamVector(np.array([0.3, 0.5, 0.7]))
        np.testing.assert_allclose(mixture_row(pv, [0.0, 0.0, 0.0])[0], np.zeros(3), atol=0)

    def test_h_hand_values(self):
        pv = ParamVector(np.array([0.3, 0.5]))
        np.testing.assert_allclose(mixture_row(pv, [1.0, 1.0])[1], [2.0], atol=0)
        pv5 = ParamVector(np.array([0.5, 0.5]))
        np.testing.assert_allclose(mixture_row(pv5, [1.0, -1.0])[1], [-2.0], atol=0)

    def test_h_single_active_slope(self, rng):
        pv = ParamVector(rng.random(5))
        np.testing.assert_allclose(
            mixture_row(pv, [1.0, 0.0, 0.0, 0.0, 0.0])[1], np.zeros(4), atol=0
        )

    def test_h_empty_for_single_component(self):
        assert mixture_row(ParamVector(np.array([0.4])), [1.0])[1].size == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mixture_row(ParamVector(np.array([0.3, 0.5])), [1.0])

    def test_lengths(self, rng):
        for _ in range(10):
            p, s = random_instance(rng, n_min=2, n_max=10)
            g, h = mixture_row(ParamVector(p), s)
            assert g.size == p.size
            assert h.size == p.size - 1

    def test_sum_identities(self, rng):
        for _ in range(50):
            p, s = random_instance(rng, n_min=2, n_max=10)
            g, h = mixture_row(ParamVector(p), s)
            np.testing.assert_allclose(g.sum(), s.sum(), atol=1e-12)
            np.testing.assert_allclose(h.sum(), s.sum() ** 2 - (s**2).sum(), atol=1e-12)

    def test_nonnegative_for_monotone_slopes(self, rng):
        for _ in range(25):
            p, s = random_instance(rng, n_min=2, n_max=8, signed=False)
            g, h = mixture_row(ParamVector(p), s)
            assert np.all(g >= 0.0)
            assert np.all(h >= 0.0)

    def test_bilinearity(self, rng):
        for _ in range(25):
            p, s = random_instance(rng, n_min=2, n_max=8)
            pv = ParamVector(p)
            lam = float(rng.uniform(0.1, 3.0))
            np.testing.assert_allclose(
                mixture_row(pv, lam * s)[0], lam * mixture_row(pv, s)[0], rtol=1e-12
            )
            np.testing.assert_allclose(
                mixture_row(pv, lam * s)[1], lam**2 * mixture_row(pv, s)[1], rtol=1e-12
            )
            s2 = rng.uniform(-1, 1, p.size)
            np.testing.assert_allclose(
                mixture_row(pv, s + s2)[0],
                mixture_row(pv, s)[0] + mixture_row(pv, s2)[0],
                rtol=0,
                atol=1e-12,
            )


class TestTimeDerivatives:
    def test_first_derivative_hand_value(self):
        path = AffinePath(ParamVector(np.array([0.3, 0.5])), np.array([1.0, 1.0]))
        df = pmf_time_derivative(path, 0.0)
        # product rule on f_0 = (0.7 - t)(0.5 - t) gives -1.2 at t = 0
        np.testing.assert_allclose(df, [-1.2, 0.4, 0.8], atol=1e-15)

    def test_second_derivative_hand_value(self):
        path = AffinePath(ParamVector(np.array([0.3, 0.5])), np.array([1.0, 1.0]))
        np.testing.assert_allclose(pmf_second_time_derivative(path, 0.0), [2.0, -4.0, 2.0], atol=0)

    def test_telescoping(self, rng):
        for _ in range(25):
            p, s = random_instance(rng, n_min=1, n_max=10, eps=0.05)
            path = AffinePath(ParamVector(p), s)
            assert abs(pmf_time_derivative(path, 0.0).sum()) < 1e-12
            assert abs(pmf_second_time_derivative(path, 0.0).sum()) < 1e-12

    def test_zero_slopes(self):
        path = AffinePath(ParamVector(np.array([0.3, 0.5])), np.array([0.0, 0.0]))
        np.testing.assert_allclose(pmf_time_derivative(path, 0.0), np.zeros(3), atol=0)
        np.testing.assert_allclose(pmf_second_time_derivative(path, 0.0), np.zeros(3), atol=0)

    def test_single_component_second_derivative_vanishes(self):
        path = AffinePath(ParamVector(np.array([0.4])), np.array([1.0]))
        np.testing.assert_allclose(pmf_second_time_derivative(path, 0.0), np.zeros(2), atol=0)

    def test_against_finite_differences(self, rng):
        for _ in range(50):
            p, s = random_instance(rng, n_min=1, n_max=10, eps=0.05)
            path = AffinePath(ParamVector(p), s)

            def f_of_t(t):
                return compute_pmf(path_at(path, t)).values

            np.testing.assert_allclose(
                pmf_time_derivative(path, 0.0),
                central_first(f_of_t, 0.0, 1e-5),
                atol=1e-8,
            )
            np.testing.assert_allclose(
                pmf_second_time_derivative(path, 0.0),
                central_second(f_of_t, 0.0, 1e-4),
                atol=1e-8,
            )


class TestEntropyCurvature:
    def test_one_dimensional_closed_form(self):
        # H(p) = -p log p - (1-p) log(1-p) has H'' = -1/p - 1/(1-p)
        assert entropy_curvature(ParamVector(np.array([0.5])), [1.0]) == pytest.approx(-4.0)

    def test_zero_slopes(self):
        assert entropy_curvature(ParamVector(np.array([0.3, 0.8])), [0.0, 0.0]) == 0.0

    def test_binomial_path_matches_finite_differences(self):
        path = AffinePath(ParamVector(np.array([0.0, 0.0])), np.array([1.0, 1.0]))
        analytic = entropy_curvature(path_at(path, 0.5), path.slopes)
        fd = central_second(lambda t: entropy_at(path_at(path, t).p), 0.5, 1e-4)
        assert analytic < 0.0
        assert analytic == pytest.approx(fd, abs=1e-6)

    def test_matches_finite_differences_randomized(self, rng):
        for _ in range(60):
            p, s = random_instance(rng, n_min=1, n_max=12, eps=0.05)
            path = AffinePath(ParamVector(p), s)
            analytic = entropy_curvature(path_at(path, 0.0), path.slopes)
            fd = central_second(lambda t: entropy_at(path_at(path, t).p), 0.0, 1e-4)
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_concavity_randomized(self, rng):
        for _ in range(200):
            p, s = random_instance(rng, n_min=1, n_max=12)
            assert entropy_curvature(ParamVector(p), s) <= 1e-9

    def test_boundary_degeneracy_raises(self):
        with pytest.raises(BoundaryError):
            entropy_curvature(ParamVector(np.array([0.0, 0.5])), [1.0, 0.0])

    def test_boundary_with_inactive_terms_restricts_support(self):
        # The frozen component contributes nothing, so the sum restricts cleanly.
        val = entropy_curvature(ParamVector(np.array([0.0, 0.5])), [0.0, 1.0])
        assert val == pytest.approx(-4.0)


class TestHessian:
    def test_one_dimensional(self):
        report = entropy_hessian(ParamVector(np.array([0.5])))
        np.testing.assert_allclose(report.matrix, [[-4.0]], atol=0)
        assert report.max_eigenvalue == pytest.approx(-4.0)
        assert report.psd_margin == pytest.approx(4.0)

    def test_two_dimensional_against_finite_differences(self):
        p = np.array([0.5, 0.5])
        report = entropy_hessian(ParamVector(p))
        np.testing.assert_allclose(report.matrix, fd_hessian(p), atol=1e-6)
        assert report.max_eigenvalue <= 0.0

    def test_exact_symmetry(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            report = entropy_hessian(ParamVector(rng.uniform(0.05, 0.95, n)))
            assert np.array_equal(report.matrix, report.matrix.T)

    def test_matches_fd_randomized(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            p = rng.uniform(0.2, 0.8, n)
            report = entropy_hessian(ParamVector(p))
            np.testing.assert_allclose(report.matrix, fd_hessian(p), rtol=1e-4, atol=1e-6)

    def test_negative_semidefinite_randomized(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 13))
            report = entropy_hessian(ParamVector(rng.uniform(1e-3, 1 - 1e-3, n)))
            assert report.max_eigenvalue <= 1e-9

    def test_quadratic_form_matches_path_curvature(self, rng):
        # H''(t) along a path equals s^T (Hessian) s at the path point.
        for _ in range(30):
            p, s = random_instance(rng, n_min=1, n_max=10, eps=0.01)
            report = entropy_hessian(ParamVector(p))
            quad = float(s @ report.matrix @ s)
            assert entropy_curvature(ParamVector(p), s) == pytest.approx(quad, rel=1e-8, abs=1e-10)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            entropy_hessian(ParamVector(np.array([0.0, 0.5])))

    def test_json_shape(self):
        report = entropy_hessian(ParamVector(np.array([0.4, 0.6])))
        data = report.to_dict()
        assert len(data["matrix"]) == 2 and len(data["matrix"][0]) == 2
        assert data["psd_margin"] == -data["max_eigenvalue"]


class TestJacobi:
    """The test oracle that pins the Hessian's LAPACK eigenvalue."""

    def test_against_numpy_eigvalsh(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 13))
            a = rng.normal(size=(n, n))
            a = a + a.T
            np.testing.assert_allclose(
                jacobi_eigenvalues(a), np.linalg.eigvalsh(a), rtol=1e-10, atol=1e-10
            )

    def test_diagonal_passthrough(self):
        np.testing.assert_allclose(
            jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0], atol=0
        )

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.zeros((2, 3)))


def test_shannon_entropy_values():
    assert shannon_entropy(np.array([1.0])) == 0.0
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2.0))
    assert shannon_entropy(np.array([0.0, 1.0])) == 0.0
