"""Renyi/Tsallis entropies, curvature identities, and the critical constants."""

import math

import numpy as np
import pytest

from conftest import random_instance
from entropath.calculus import AffinePath, path_at, shannon_entropy
from entropath.errors import BoundaryError
from entropath.numdiff import central_second
from entropath.pmf import ParamVector, compute_pmf
from entropath.qentropy import (
    EntropySpec,
    binomial2_tsallis_curvature,
    chain_rule_check,
    find_critical_q,
    power_sum_derivatives,
    q_curvature,
    q_entropy,
    q_entropy_second_derivative,
    tsallis_uk,
    tsallis_uk_tilde,
)

# Root of 2 - 4q + 2^q = 0, the conjectured Tsallis threshold.
Q_STAR = 3.65986


def bernoulli(p):
    return compute_pmf(ParamVector(np.array([p])))


class TestEntropySpec:
    def test_q_one_rejected(self):
        with pytest.raises(ValueError):
            EntropySpec.renyi(1.0)
        with pytest.raises(ValueError):
            EntropySpec.tsallis(1.0)

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            EntropySpec.renyi(-0.5)

    def test_shannon_carries_no_q(self):
        with pytest.raises(ValueError):
            EntropySpec("shannon", 2.0)


class TestQEntropy:
    def test_renyi_two_bernoulli(self):
        assert q_entropy(bernoulli(0.5), EntropySpec.renyi(2.0)) == pytest.approx(
            math.log(2.0), rel=1e-14
        )

    def test_point_mass_zero_for_any_spec(self):
        point = compute_pmf(ParamVector(np.array([1.0])))
        for spec in (EntropySpec.shannon(), EntropySpec.renyi(2.0), EntropySpec.tsallis(0.5)):
            assert q_entropy(point, spec) == 0.0

    def test_tsallis_two_binomial(self):
        f = compute_pmf(ParamVector(np.array([0.5, 0.5])))
        assert q_entropy(f, EntropySpec.tsallis(2.0)) == pytest.approx(0.625, rel=1e-14)

    def test_q_zero_renyi_counts_support(self):
        f = compute_pmf(ParamVector(np.array([0.0, 0.5])))
        assert q_entropy(f, EntropySpec.renyi(0.0)) == pytest.approx(math.log(2.0))

    def test_q_to_one_continuity(self, rng):
        for _ in range(40):
            f = compute_pmf(ParamVector(rng.random(int(rng.integers(1, 10)))))
            h = shannon_entropy(f)
            for q in (1.0 - 1e-6, 1.0 + 1e-6):
                assert q_entropy(f, EntropySpec.renyi(q)) == pytest.approx(h, abs=1e-4)
                assert q_entropy(f, EntropySpec.tsallis(q)) == pytest.approx(h, abs=1e-4)

    def test_renyi_tsallis_rank_pmfs_identically(self, rng):
        for _ in range(60):
            f = compute_pmf(ParamVector(rng.uniform(0.05, 0.95, int(rng.integers(2, 8)))))
            g = compute_pmf(ParamVector(rng.uniform(0.05, 0.95, int(rng.integers(2, 8)))))
            q = float(rng.choice([0.5, 2.0, 3.0]))
            dr = q_entropy(f, EntropySpec.renyi(q)) - q_entropy(g, EntropySpec.renyi(q))
            dt = q_entropy(f, EntropySpec.tsallis(q)) - q_entropy(g, EntropySpec.tsallis(q))
            assert np.sign(dr) == np.sign(dt)


class TestCurvature:
    def test_binomial2_closed_form(self):
        pv = ParamVector(np.array([0.5, 0.5]))
        slopes = np.array([1.0, 1.0])
        for q in (1.5, 3.0, 4.0):
            assert q_curvature(pv, slopes, EntropySpec.tsallis(q)) == pytest.approx(
                binomial2_tsallis_curvature(q), rel=1e-6
            )

    def test_closed_form_spot_values(self):
        assert binomial2_tsallis_curvature(3.0) == pytest.approx(-0.375, rel=1e-15)
        assert binomial2_tsallis_curvature(4.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert binomial2_tsallis_curvature(1.5) == pytest.approx(
            3.0 * (2.0**1.5 - 4.0), rel=1e-14
        )

    def test_bernoulli_renyi_near_zero_limit(self):
        # As p -> 0 with q = 3 the curvature tends to q/(q-1) = 1.5
        value = q_curvature(ParamVector(np.array([0.01])), np.array([1.0]), EntropySpec.renyi(3.0))
        assert value == pytest.approx(1.5, abs=0.1)
        assert value > 0.0

    def test_zero_slopes(self):
        pv = ParamVector(np.array([0.3, 0.6]))
        for spec in (EntropySpec.renyi(2.5), EntropySpec.tsallis(0.5), EntropySpec.shannon()):
            assert q_curvature(pv, np.zeros(2), spec) == 0.0

    def test_tsallis_u_route_equals_power_sum_route(self, rng):
        for _ in range(60):
            p, s = random_instance(rng, n_min=1, n_max=10, eps=0.02)
            pv = ParamVector(p)
            q = float(rng.uniform(0.1, 4.0))
            if abs(q - 1.0) < 1e-3:
                continue
            _, _, t2 = power_sum_derivatives(pv, s, q)
            via_t = t2 / (1.0 - q)
            via_u = q_curvature(pv, s, EntropySpec.tsallis(q))
            assert via_u == pytest.approx(via_t, rel=1e-10, abs=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(40):
            p, s = random_instance(rng, n_min=1, n_max=8, eps=0.05)
            path = AffinePath(ParamVector(p), s)
            q = float(rng.choice([0.5, 2.0, 3.0]))
            for spec in (EntropySpec.renyi(q), EntropySpec.tsallis(q)):
                analytic = q_curvature(ParamVector(p), s, spec)
                fd = central_second(
                    lambda t: q_entropy(compute_pmf(path_at(path, t)), spec), 0.0, 1e-4
                )
                assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_path_op_with_internal_cross_check(self):
        path = AffinePath(ParamVector(np.array([0.0, 0.0])), np.array([1.0, 1.0]))
        value = q_entropy_second_derivative(path, 0.5, EntropySpec.tsallis(3.0), step=1e-4)
        assert value == pytest.approx(-0.375, rel=1e-6)

    def test_boundary_t_rejected(self):
        path = AffinePath(ParamVector(np.array([0.0, 0.0])), np.array([1.0, 1.0]))
        with pytest.raises(BoundaryError):
            q_entropy_second_derivative(path, 0.0, EntropySpec.tsallis(3.0), step=1e-4)

    def test_shannon_spec_along_path(self):
        path = AffinePath(ParamVector(np.array([0.5])), np.array([1.0]))
        value = q_entropy_second_derivative(path, 0.0, EntropySpec.shannon(), step=1e-4)
        assert value == pytest.approx(-4.0, rel=1e-6)

    def test_shannon_spec_delegates(self, rng):
        p, s = random_instance(rng, n_min=1, n_max=6, eps=0.05)
        from entropath.calculus import entropy_curvature

        assert q_curvature(ParamVector(p), s, EntropySpec.shannon()) == entropy_curvature(
            ParamVector(p), s
        )


class TestChainRule:
    def test_zero_slopes(self):
        path = AffinePath(ParamVector(np.array([0.3, 0.4])), np.zeros(2))
        rep = chain_rule_check(path, 0.0, 2.0)
        assert rep.holds

    def test_correction_sign_below_one(self, rng):
        for _ in range(20):
            p, s = random_instance(rng, n_min=1, n_max=8, eps=0.02)
            rep = chain_rule_check(AffinePath(ParamVector(p), s), 0.0, 0.5)
            assert rep.holds
            assert rep.margins[1][1] >= 0.0  # correction <= 0 for q < 1

    def test_correction_sign_above_one(self, rng):
        for _ in range(20):
            p, s = random_instance(rng, n_min=1, n_max=8, eps=0.02)
            rep = chain_rule_check(AffinePath(ParamVector(p), s), 0.0, 2.0)
            assert rep.holds
            assert rep.margins[1][1] >= 0.0  # correction >= 0 for q > 1

    def test_q_one_rejected(self):
        path = AffinePath(ParamVector(np.array([0.3, 0.4])), np.zeros(2))
        with pytest.raises(ValueError):
            chain_rule_check(path, 0.0, 1.0)


class TestTsallisUk:
    def test_exact_parts_worked_example(self):
        # The exact curvature is the bare decomposition sum plus -q times the
        # two relabeling boundary terms, which do not vanish here.
        pv = ParamVector(np.array([0.5, 0.5]))
        slopes = np.array([1.0, 1.0])
        exact = q_curvature(pv, slopes, EntropySpec.tsallis(3.0))
        bare = float(-3.0 * tsallis_uk(pv, slopes, 3.0).sum())
        assert exact == pytest.approx(-0.375, rel=1e-12)
        assert bare == pytest.approx(2.625, rel=1e-12)
        assert exact - bare == pytest.approx(-3.0, rel=1e-12)

    def test_uk_supported_on_n_minus_one(self, rng):
        p, s = random_instance(rng, n_min=3, n_max=8, eps=0.02)
        assert tsallis_uk(ParamVector(p), s, 2.5).size == p.size - 1

    def test_tilde_zero_slopes(self):
        path = AffinePath(ParamVector(np.array([0.4, 0.7])), np.zeros(2))
        rep = tsallis_uk_tilde(path, 0.0, 3.0)
        np.testing.assert_allclose(rep.u, 0.0, atol=0)
        np.testing.assert_allclose(rep.u_tilde, 0.0, atol=0)
        assert rep.boundary_vanishes

    def test_tilde_worked_example(self):
        path = AffinePath(ParamVector(np.array([0.5, 0.5])), np.array([1.0, 1.0]), (-0.4, 0.4))
        rep = tsallis_uk_tilde(path, 0.0, 3.0)
        np.testing.assert_allclose(rep.u, [-0.875, 0.5], atol=1e-15)
        np.testing.assert_allclose(rep.u_tilde, [0.125, 0.0], atol=1e-15)
        assert rep.telescope_residual == pytest.approx(0.5, rel=1e-12)
        assert rep.boundary_term == pytest.approx(0.5, rel=1e-12)
        assert not rep.boundary_vanishes

    def test_tilde_single_component(self):
        # Empty h: only the squared g difference and the telescand survive.
        path = AffinePath(ParamVector(np.array([0.3])), np.array([1.0]), (-0.1, 0.1))
        rep = tsallis_uk_tilde(path, 0.0, 3.0)
        assert rep.u.size == 1 and rep.u_tilde.size == 1
        f = compute_pmf(ParamVector(np.array([0.3]))).values
        expect_u = f[0] ** 1.0  # g_0^2 f_0^{q-2} with g_0 = 1, q = 3
        assert rep.u[0] == pytest.approx(expect_u, rel=1e-14)
        expect_tilde = f[1] - (1.0 / (2.0 - 3.0)) * (f[1] - f[0])
        assert rep.u_tilde[0] == pytest.approx(expect_tilde, rel=1e-14)

    def test_telescope_residual_matches_closed_form(self, rng):
        for _ in range(50):
            p, s = random_instance(rng, n_min=1, n_max=10, eps=0.02)
            q = float(rng.choice([0.5, 2.7, 3.5]))
            path = AffinePath(ParamVector(p), s)
            rep = tsallis_uk_tilde(path, 0.0, q)  # internal assert does the check
            assert rep.telescope_residual == pytest.approx(
                rep.boundary_term, rel=1e-10, abs=1e-10
            )

    def test_excluded_q_values(self):
        path = AffinePath(ParamVector(np.array([0.4, 0.7])), np.zeros(2))
        for q in (1.0, 2.0):
            with pytest.raises(ValueError):
                tsallis_uk_tilde(path, 0.0, q)


class TestCriticalQ:
    def test_analytic_probe_root(self):
        res = find_critical_q("analytic_tsallis", (3.5, 3.8))
        assert res.root == pytest.approx(Q_STAR, abs=1e-5)
        assert res.bracket[0] <= res.root <= res.bracket[1]

    def test_closed_form_probe_matches_analytic_root(self):
        res = find_critical_q("binomial2_tsallis", (3.5, 3.8))
        ref = find_critical_q("analytic_tsallis", (3.5, 3.8))
        assert res.root == pytest.approx(ref.root, abs=1e-6)

    def test_fd_probe_root(self):
        res = find_critical_q("binomial2_tsallis_fd", (3.5, 3.8))
        assert res.root == pytest.approx(Q_STAR, abs=1e-4)

    def test_bernoulli_renyi_crossing_near_two(self):
        res = find_critical_q("bernoulli_renyi", (1.5, 2.5))
        # frozen from a development run of the p=1e-4 probe
        assert res.root == pytest.approx(2.0000487, abs=1e-3)
        assert abs(res.root - 2.0) < 0.05

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError):
            find_critical_q("analytic_tsallis", (1.0, 2.0))

    def test_sign_trace_recorded(self):
        res = find_critical_q("analytic_tsallis", (3.5, 3.8))
        assert res.sign_trace[0] == (3.5, -1)
        assert res.sign_trace[1] == (3.8, 1)
        assert len(res.sign_trace) > 10

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            find_critical_q("nope", (1.0, 2.0))

    def test_custom_probe(self):
        res = find_critical_q("custom", (0.0, 2.0), probe=lambda q: q - 1.2345)
        assert res.root == pytest.approx(1.2345, abs=1e-6)

    def test_lemma_values_reproduced(self):
        # below the threshold the two-coin Tsallis probe is concave, above convex
        assert binomial2_tsallis_curvature(3.0) < 0.0
        assert binomial2_tsallis_curvature(4.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert binomial2_tsallis_curvature(4.0) > 0.0
