"""Renyi/Tsallis entropies, curvature identities, and the critical constants."""

import math
import warnings

import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import random_instance
from entropath import qentropy
from entropath.calculus import AffinePath, _fgh, path_at, shannon_entropy
from entropath.errors import BoundaryError
from entropath.explorer import ScanConfig, sample_instance
from entropath.pmf import ParamVector, compute_pmf
from entropath.qentropy import (
    EntropySpec,
    binomial2_tsallis_curvature,
    chain_rule_check,
    find_critical_q,
    power_sum_derivatives,
    q_curvature,
    q_entropy,
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
            assert q_curvature(pv, s, EntropySpec.tsallis(q)) == via_t
            # -q (sum u_k + boundary terms), the per-index route.
            via_u, _ = oracle.tsallis_curvature(*(row[0] for row in _fgh(pv, s)), q)
            assert via_u == pytest.approx(via_t, rel=1e-10, abs=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(40):
            p, s = random_instance(rng, n_min=1, n_max=8, eps=0.05)
            path = AffinePath(ParamVector(p), s)
            q = float(rng.choice([0.5, 2.0, 3.0]))
            for spec in (EntropySpec.renyi(q), EntropySpec.tsallis(q)):
                analytic = q_curvature(ParamVector(p), s, spec)
                fd = oracle.central_second(
                    lambda t: q_entropy(compute_pmf(path_at(path, t)), spec), 0.0, 1e-4
                )
                assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @staticmethod
    def _at_path_point(path, t, spec):
        """q_curvature at path_at(path, t), cross-checked against a centred second difference."""
        value = q_curvature(path_at(path, t), path.slopes, spec)
        fd = oracle.central_second(lambda s: q_entropy(compute_pmf(path_at(path, s)), spec), t, 1e-4)
        assert abs(value - fd) <= 1e-4 * max(abs(value), abs(fd), 1.0)
        return value

    def test_tsallis_at_path_point(self):
        path = AffinePath(ParamVector(np.array([0.0, 0.0])), np.array([1.0, 1.0]))
        value = self._at_path_point(path, 0.5, EntropySpec.tsallis(3.0))
        assert value == pytest.approx(-0.375, rel=1e-6)

    def test_renyi_at_path_point(self):
        # T = sum f^2 of Bin(2, t) has T = 3/8, T' = 0 and T'' = 2 at t = 1/2, so H'' = -T''/T.
        path = AffinePath(ParamVector(np.array([0.0, 0.0])), np.array([1.0, 1.0]))
        value = self._at_path_point(path, 0.5, EntropySpec.renyi(2.0))
        assert value == pytest.approx(-16.0 / 3.0, rel=1e-6)

    def test_boundary_t_rejected(self):
        path = AffinePath(ParamVector(np.array([0.0, 0.0])), np.array([1.0, 1.0]))
        with pytest.raises(BoundaryError):
            q_curvature(path_at(path, 0.0), path.slopes, EntropySpec.tsallis(3.0))

    def test_shannon_spec_along_path(self):
        path = AffinePath(ParamVector(np.array([0.5])), np.array([1.0]))
        value = self._at_path_point(path, 0.0, EntropySpec.shannon())
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

    def test_masses_near_1e_minus_210_hold_without_a_warning(self):
        # The seed-0 row of scan --n-range 500,500: f^(q-2) overflows there at q = 0.5,
        # and the per-index route forms f^q alone.
        row = sample_instance(ScanConfig(seed=0, n_range=(500, 500), instance_count=2), 0)
        path = AffinePath(ParamVector(np.array(row.p)), np.array(row.slopes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = chain_rule_check(path, 0.0, 0.5)
            tilde = tsallis_uk_tilde(path, 0.0, 0.5)
        assert rep.holds
        assert np.isfinite(tilde.u).all() and np.isfinite(tilde.u_tilde).all()


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

    def test_zero_mass_raises_the_same_error_everywhere(self):
        # p_1 = 0 leaves f_2 = 0 at every q.
        path = AffinePath(ParamVector(np.array([0.0, 0.5])), np.array([1.0, 1.0]))
        params = path_at(path, 0.0)
        calls = [
            lambda: tsallis_uk(params, path.slopes, 3.0),
            lambda: q_curvature(params, path.slopes, EntropySpec.tsallis(3.0)),
            lambda: q_curvature(params, path.slopes, EntropySpec.renyi(3.0)),
            lambda: power_sum_derivatives(params, path.slopes, 3.0),
            lambda: tsallis_uk_tilde(path, 0.0, 3.0),
            lambda: chain_rule_check(path, 0.0, 3.0),
        ]
        for call in calls:
            with pytest.raises(BoundaryError) as info:
                call()
            assert str(info.value) == "q entropies need strictly positive masses"

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
        res = find_critical_q("binomial2_tsallis", (3.5, 3.8), probe=binomial2_tsallis_curvature)
        ref = find_critical_q("analytic_tsallis", (3.5, 3.8))
        assert res.root == pytest.approx(ref.root, abs=1e-6)

    def test_fd_probe_root(self):
        res = find_critical_q(
            "binomial2_tsallis_fd", (3.5, 3.8), probe=oracle.binomial2_tsallis_fd_probe
        )
        assert res.root == pytest.approx(Q_STAR, abs=1e-4)

    def test_bernoulli_renyi_crossing_near_two(self):
        res = find_critical_q("bernoulli_renyi", (1.5, 2.5))
        # frozen from a development run of the p=1e-4 probe
        assert res.root == pytest.approx(2.0000487, abs=1e-3)
        assert abs(res.root - 2.0) < 0.05

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError):
            find_critical_q("analytic_tsallis", (1.0, 2.0))

    def test_analytic_probe_bisects_like_the_unscaled_form(self):
        # The probe divides 2 - 4q + 2^q by 2^max(q, 0); where 2^q is finite the signs,
        # and so the trace and root, are those of the unscaled form, bit for bit.
        res = find_critical_q("analytic_tsallis", (3.5, 3.8))
        ref = find_critical_q("analytic_tsallis", (3.5, 3.8), lambda q: 2.0 - 4.0 * q + 2.0**q)
        assert res.sign_trace == ref.sign_trace
        assert res.root.hex() == ref.root.hex()

    def test_analytic_probe_takes_any_finite_q(self):
        # 2.0**q overflows past q = 1024; the scaled probe keeps the sign at any finite q.
        res = find_critical_q("analytic_tsallis", (3.5, 2000.0))
        assert abs(res.root - 3.6598611779191823) <= 1e-7  # mpmath's root of 2 - 4q + 2^q
        res = find_critical_q("analytic_tsallis", (-2000.0, 3.5))
        assert res.sign_trace[:2] == ((-2000.0, 1), (3.5, -1))
        assert abs(res.root - 1.0) <= 1e-7  # 2 - 4q + 2^q also vanishes at q = 1
        probe = qentropy.CRITICAL_Q_PROBES["analytic_tsallis"]
        assert [qentropy._sign(probe(q)) for q in (-1.7e308, 1.0, 2.0, 1.7e308)] == [1, 0, -1, 1]

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

    @staticmethod
    def _step_at_1_3(limit=200):
        """A probe that steps from -1 to +1 past q = 1.3 and raises on call limit + 1."""
        calls = []

        def probe(q):
            calls.append(q)
            if len(calls) > limit:
                raise RuntimeError(f"bisection still probing after {limit} calls")
            return 1.0 if q > 1.3 else -1.0

        return probe, calls

    def test_zero_tol_stops_at_adjacent_floats(self):
        probe, calls = self._step_at_1_3()
        res = find_critical_q("step", (1.0, 2.0), probe=probe, tol=0.0)
        assert res.root in (1.3, math.nextafter(1.3, 2.0))
        assert len(calls) == len(res.sign_trace)

    @pytest.mark.parametrize("tol", [math.nan, -1e-7, -math.inf])
    def test_nan_or_negative_tol_rejected(self, tol):
        probe, calls = self._step_at_1_3()
        with pytest.raises(ValueError, match="tol must be a nonnegative number"):
            find_critical_q("step", (1.0, 2.0), probe=probe, tol=tol)
        assert calls == []

    @pytest.mark.parametrize("family, per_call, bracket", [
        ("binomial2_tsallis", oracle.binomial2_tsallis_probe, (3.5, 3.8)),
        ("bernoulli_renyi", oracle.bernoulli_renyi_probe, (1.5, 2.5)),
    ])
    def test_cached_probe_point_bisects_like_the_per_call_probe(self, family, per_call, bracket):
        got = find_critical_q(family, bracket)
        want = find_critical_q(family, bracket, probe=per_call)
        assert (got.root, got.sign_trace) == (want.root, want.sign_trace)
        probe = qentropy.CRITICAL_Q_PROBES[family]
        for q in np.linspace(0.1, 6.0, 37).tolist():
            assert probe(q) == per_call(q), q

    def test_cached_probe_point_is_read_only(self):
        for point in (((0.5, 0.5), (1.0, 1.0)), ((1e-4,), (1.0,))):
            basis = qentropy._probe_point(*point)
            assert qentropy._probe_point(*point) is basis
            for array in basis:
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1.0

    @pytest.mark.parametrize("family, unscaled, factor, bracket", [
        ("binomial2_tsallis", oracle.binomial2_tsallis_unscaled_probe, lambda q: 2.0**q,
         (3.5, 3.8)),
        ("bernoulli_renyi", oracle.bernoulli_renyi_unscaled_probe, lambda q: 1.0, (1.5, 2.5)),
        ("bernoulli_renyi", oracle.bernoulli_renyi_unscaled_probe, lambda q: 1.0, (1.5, 1000.0)),
    ])
    def test_scaled_probe_bisects_like_the_unscaled_curvature(self, family, unscaled, factor,
                                                              bracket):
        # Dividing by max_k f_k^q keeps every sign (the Renyi curvature is a ratio and keeps
        # its value), so the trace and root keep their bits.
        got = find_critical_q(family, bracket)
        want = find_critical_q(family, bracket, probe=unscaled)
        assert got.sign_trace == want.sign_trace
        assert got.root.hex() == want.root.hex()
        probe = qentropy.CRITICAL_Q_PROBES[family]
        for q in np.linspace(0.1, 40.0, 57).tolist():
            assert probe(q) == pytest.approx(unscaled(q) * factor(q), rel=1e-13, abs=1e-13), q

    def test_two_coin_probe_takes_a_bracket_to_2000(self):
        # Unscaled, every f_k^q underflows past q ~ 1075 and the curvature reads -0.0 there;
        # over (1/2)^q the middle mass alone still gives 8q/(q-1).
        probe = qentropy.CRITICAL_Q_PROBES["binomial2_tsallis"]
        assert oracle.binomial2_tsallis_unscaled_probe(1100.0) == 0.0
        assert probe(2000.0) == pytest.approx(8.0 * 2000.0 / 1999.0, rel=1e-14)
        res = find_critical_q("binomial2_tsallis", (3.5, 2000.0))
        assert res.sign_trace[:2] == ((3.5, -1), (2000.0, 1))
        assert abs(res.root - 3.6598611779191823) <= 1e-7  # mpmath's root of 2 - 4q + 2^q

    def test_one_coin_probe_takes_a_bracket_to_1e7(self):
        # Unscaled, every f_k^q underflows past q ~ 7.4e6 and the curvature reads NaN (0/0);
        # over the largest mass f_0 reads 1, so T stays near 1.
        with np.errstate(invalid="ignore"):
            assert math.isnan(oracle.bernoulli_renyi_unscaled_probe(1e7))
        res = find_critical_q("bernoulli_renyi", (1.5, 1e7))
        assert res.sign_trace[:2] == ((1.5, -1), (1e7, 1))
        assert abs(res.root - find_critical_q("bernoulli_renyi", (1.5, 2.5)).root) <= 1e-7

    def test_lemma_values_reproduced(self):
        # below the threshold the two-coin Tsallis probe is concave, above convex
        assert binomial2_tsallis_curvature(3.0) < 0.0
        assert binomial2_tsallis_curvature(4.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert binomial2_tsallis_curvature(4.0) > 0.0
