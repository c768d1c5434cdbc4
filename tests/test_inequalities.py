"""The inequality ladder: hand-checked margins, algebraic identities, property sweeps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_instance
from entropath import explorer
from entropath.calculus import entropy_curvature, path_derivatives
from entropath.errors import BoundaryError, LemmaHypothesisError
from entropath.explorer import Group, evaluate_checker
from entropath.inequalities import (
    ABS_FLOOR,
    REL_TOL,
    MarginReport,
    Margins,
    UkBranch,
    X_LOG_X,
    c1_product_identity_residual,
    check_functional_lemma,
    check_monotone_worst_case,
    check_quadratic_decomposition_n2,
    compute_cij,
    margin_rows,
    rows_to_csv,
    stacked_c1,
    stacked_c1bar,
    stacked_cij,
    stacked_log_concavity,
    stacked_two_fold_log_concavity,
)
from entropath.inequalities import _tolerance, _two_fold, _verdict
from entropath.pmf import ParamVector, Pmf, _masses, compute_pmf
from scalar_oracle import leave_two_out

BINOMIAL2 = Pmf(np.array([0.25, 0.5, 0.25]))
BINOMIAL4 = Pmf(np.array([1, 4, 6, 4, 1]) / 16.0)
POINT = Pmf(np.array([1.0]))


def random_pmf(rng, n_max=12):
    n = int(rng.integers(1, n_max + 1))
    return compute_pmf(ParamVector(rng.random(n)))


def row0(kernel, f, name="x") -> MarginReport:
    """A pmf-only stacked kernel run on the masses of one pmf, as a MarginReport."""
    return kernel(_masses(f)[None]).report(name)


def uk(params, slopes):
    """The u_k decomposition of one instance, as a one-row group builds it."""
    return Group.row(params, slopes).uk.row(0)


class TestMarginReport:
    def test_invariants(self):
        rep = MarginReport.from_array("x", np.array([0.5, -0.2]), 1e-10)
        assert rep.worst == -0.2
        assert not rep.holds
        rep2 = MarginReport.from_array("x", np.array([0.5, -1e-12]), 1e-10)
        assert rep2.holds

    def test_empty_margins_hold(self):
        rep = MarginReport.from_array("x", np.zeros(0), 1e-10)
        assert rep.holds
        assert math.isinf(rep.worst)
        assert rep.to_dict()["worst"] is None
        assert rep.margins == ()

    def test_worst_position_is_first_minimum(self):
        values, ks = np.array([0.5, -0.2, 0.1, -0.2]), np.array([0, 3, 4, 7])
        rep = MarginReport.from_array("x", values, 1e-10, ks)
        assert rep.worst_position == 1
        assert rep.margins[rep.worst_position] == (3, -0.2)
        assert MarginReport.from_array("x", np.zeros(0), 1e-10).worst_position is None

    def test_worst_position_follows_min_with_nan(self):
        # Python's min() keeps a leading NaN and skips later ones.
        for values in (
            [1.0, float("nan"), -1.0, -1.0],
            [float("nan"), -1.0],
            [0.0, -0.0],
            [float("nan")],
        ):
            rep = MarginReport.from_array("x", np.array(values), 1e-10)
            expected = min(range(len(values)), key=lambda t: values[t])
            assert rep.worst_position == expected
            assert math.copysign(1.0, rep.worst) == math.copysign(1.0, values[expected])

    def test_arrays_are_read_only(self):
        values, ks = np.array([0.5, -0.2]), np.array([4, 9])
        for rep in (
            MarginReport.from_array("x", values, 1e-10, ks),
            MarginReport.from_array("x", values, 1e-10),
            MarginReport.from_array("x", np.arange(5000.0), 1e-10),
        ):
            assert isinstance(rep.ks, np.ndarray) and isinstance(rep.values, np.ndarray)
            assert rep.ks.dtype == np.int64 and rep.values.dtype == np.float64
            assert rep.ks.ndim == 1 and rep.ks.shape == rep.values.shape
            with pytest.raises(ValueError):
                rep.values[0] = 1.0
            with pytest.raises(ValueError):
                rep.ks[0] = 1
            assert isinstance(rep.margins, tuple)
        values[0] = 2.0  # the caller's arrays stay writable
        ks[0] = 3
        assert MarginReport.from_array("x", np.arange(5000.0), 1e-10).ks.tolist() == list(
            range(5000)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MarginReport.from_array("x", np.zeros(3), 1e-10, np.arange(2))
        with pytest.raises(ValueError):
            MarginReport.from_array("x", np.zeros((2, 2)), 1e-10)

    def test_rows_equal_the_pairs(self):
        # The (k, margin) pairs of the hand cases, as plain ints and floats.
        pv = ParamVector(np.array([0.5, 0.5]))
        cases = [
            (row0(stacked_log_concavity, BINOMIAL2), [(0, 0.25 - 0.0625)]),
            (row0(stacked_log_concavity, POINT), []),
            (row0(stacked_two_fold_log_concavity, POINT), [(0, 1.0), (1, 0.0)]),
            (evaluate_checker("condition4", pv, [1.0, -1.0]), [(0, 0.375)]),
            (evaluate_checker("corollary_fgh", pv, [1.0, 1.0]), [(0, 0.5), (0, 0.5)]),
            (check_monotone_worst_case(pv, [1.0, 1.0]), [(0, 0.0)]),
            (MarginReport.from_array("ineq", np.array([0.5, 0.25]), 1e-10, [0, 2]),
             [(0, 0.5), (2, 0.25)]),
        ]
        for rep, pairs in cases:
            assert rep.margins == tuple(pairs)
            margins = rep.to_dict()["margins"]
            assert margins == [[k, v] for k, v in pairs]
            assert [(type(k), type(v)) for k, v in margins] == [(int, float)] * len(pairs)
            rows = margin_rows(rep, instance_id=3)
            assert rows == [(3, rep.name, k, v) for k, v in pairs]
            assert rows_to_csv(rows).splitlines()[1:] == [
                f"3,{rep.name},{k},{v!r}" for k, v in pairs
            ]

    def test_csv_rows(self):
        rep = MarginReport.from_array("ineq", np.array([0.5, 0.25]), 1e-10, np.array([0, 2]))
        text = rows_to_csv(margin_rows(rep, instance_id=7))
        lines = text.strip().split("\n")
        assert lines[0] == "instance_id,inequality,k,margin"
        assert lines[1] == "7,ineq,0,0.5"
        assert lines[2] == "7,ineq,2,0.25"

    def test_cij_report_retains_only_its_arrays(self):
        pv = ParamVector(np.random.default_rng(60).uniform(0.05, 0.95, 60))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = evaluate_checker("cij", pv, np.zeros(60))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rep.values.size == 1770 * 60
        assert retained < 2 * (rep.values.nbytes + rep.ks.nbytes)


class TestVerdictRule:
    """The boundaries of _tolerance and _verdict, the one rule behind holds and cut."""

    TOL = 3e-10

    def test_tolerance_from_the_largest_scale(self):
        scale = np.array([[1.0, 7.0, 2.0], [1e-5, 0.0, 1e-4], [0.0, 0.0, 0.0]])
        assert _tolerance(scale).tolist() == [REL_TOL * 7.0, ABS_FLOOR, ABS_FLOOR]
        assert _tolerance(np.zeros((2, 0))).tolist() == [ABS_FLOOR] * 2
        assert _tolerance(None) == 1e-9
        assert Margins(np.zeros((3, 3)), scale).tolerance.tolist() == _tolerance(scale).tolist()
        assert Margins(np.zeros((2, 1)), None).tolerance.tolist() == [1e-9] * 2

    def test_boundaries(self):
        tol = self.TOL
        below_cut = np.nextafter(-10.0 * tol, -np.inf)
        rows = {  # worst margin -> (holds, cut)
            -tol: (True, False),
            np.nextafter(-tol, -np.inf): (False, False),
            -10.0 * tol: (False, False),  # the cut rule's < is strict
            below_cut: (False, True),
            math.nan: (False, False),
        }
        values = np.array([[w, 1.0, w] for w in rows])  # a NaN is the worst only when it leads
        verdict = _verdict(values, tol)
        assert verdict.pos.tolist() == [0] * len(rows)
        assert np.array_equal(verdict.worst, values[:, 0], equal_nan=True)
        assert verdict.holds.tolist() == [h for h, _ in rows.values()]
        assert verdict.cut.tolist() == [c for _, c in rows.values()]
        for worst, (holds, _) in rows.items():
            assert MarginReport.from_array("x", np.array([worst, 1.0]), tol).holds is holds
        per_row = _verdict(np.array([[-tol], [-tol]]), np.array([tol, tol / 2.0]))
        assert per_row.holds.tolist() == [True, False]  # each row under its own tolerance

    def test_nan_worst(self):
        verdict = _verdict(np.array([[math.nan, -1.0], [-1.0, math.nan]]), self.TOL)
        assert verdict.pos.tolist() == [0, 0]
        assert math.isnan(verdict.worst[0]) and verdict.worst[1] == -1.0
        assert verdict.holds.tolist() == [False, False]
        assert verdict.cut.tolist() == [False, True]

    def test_empty_rows_hold(self):
        verdict = _verdict(np.zeros((2, 0)), self.TOL)
        assert verdict.worst.tolist() == [math.inf] * 2
        assert verdict.holds.tolist() == [True, True]
        assert verdict.cut.tolist() == [False, False]
        rep = Margins(np.zeros((1, 0)), np.zeros((1, 0))).report("x")
        assert (rep.worst, rep.holds, rep.worst_position) == (math.inf, True, None)

    def test_theorem_margin_at_its_tolerance_holds(self):
        for worst, holds, cut in ((-1e-9, True, False),
                                  (np.nextafter(-1e-9, -np.inf), False, False),
                                  (-10.0 * 1e-9, False, False),
                                  (np.nextafter(-1e-8, -np.inf), False, True)):
            margins = Margins(np.array([[worst]]), None)
            verdict = _verdict(margins.values, _tolerance(margins.scale))
            assert (verdict.holds[0], verdict.cut[0]) == (holds, cut), worst
            assert margins.report("x").holds is holds

    def test_scan_cuts_exactly_the_verdict_rows(self, monkeypatch):
        # A kernel whose margin is -p under tolerance REL_TOL; p sits at each boundary.
        def kernel(grp, q):
            return Margins(-grp.p.copy(), np.ones(grp.p.shape))

        checker = explorer.CHECKERS["c1"]._replace(kernel=kernel)
        monkeypatch.setitem(explorer.CHECKERS, "c1", checker)
        p = np.array([REL_TOL, 10.0 * REL_TOL, np.nextafter(10.0 * REL_TOL, 1.0), 0.5])
        group = Group(p[:, None], np.ones((4, 1)), np.arange(4), np.zeros(4))
        minima = {}
        [(scanned, group_cuts)] = explorer._scan([("c1", None, "c1")], [group], minima)
        cuts = explorer._recheck(scanned, group_cuts)
        assert minima["c1"].entry() == {"margin": -0.5, "instance_index": 3, "k": 0}
        assert [cut.rows.index.tolist() for cut in cuts] == [[2, 3]]
        assert cuts[0].reeval.tolist() == [-p[2], -0.5]


class TestLogConcavity:
    def test_binomial2_hand_value(self):
        rep = row0(stacked_log_concavity, BINOMIAL2)
        assert rep.margins == ((0, 0.25 - 0.0625),)
        assert rep.holds

    def test_point_mass_empty(self):
        rep = row0(stacked_log_concavity, POINT)
        assert rep.margins == ()
        assert rep.holds

    def test_bernoulli_sum_sweep(self, rng):
        f = compute_pmf(ParamVector(np.array([0.2, 0.4, 0.9])))
        assert row0(stacked_log_concavity, f).holds
        for _ in range(100):
            assert row0(stacked_log_concavity, random_pmf(rng)).holds


class TestTwoFold:
    def test_binomial4_hand_fractions(self):
        rep = row0(stacked_two_fold_log_concavity, BINOMIAL4)
        # cubic margin at k=2 is 50/4096; the gap form D_2^2 - D_1 D_3 is
        # 300/65536 = pi_2 * 50/4096 with D = [1, 10, 20, 10, 1]/256
        assert rep.margins[2] == (2, pytest.approx(50.0 / 4096.0, rel=1e-14))
        v = BINOMIAL4.values
        d = [v[k] ** 2 - (v[k - 1] * v[k + 1] if 0 < k < 4 else 0.0) for k in range(5)]
        assert d[2] ** 2 - d[1] * d[3] == pytest.approx(300.0 / 65536.0, rel=1e-14)
        assert d[2] ** 2 - d[1] * d[3] == pytest.approx(v[2] * rep.margins[2][1], rel=1e-12)

    def test_point_mass(self):
        # Every product vanishes except the lone cube at the atom itself.
        rep = row0(stacked_two_fold_log_concavity, POINT)
        assert dict(rep.margins) == {0: 1.0, 1: 0.0}
        assert rep.holds

    def test_covers_support_plus_one(self):
        rep = row0(stacked_two_fold_log_concavity, BINOMIAL2)
        assert [k for k, _ in rep.margins] == [0, 1, 2, 3]

    def test_property_sweep(self, rng):
        for _ in range(150):
            assert row0(stacked_two_fold_log_concavity, random_pmf(rng)).holds


class TestCubicC1:
    def test_binomial2_hand_value(self):
        rep = row0(stacked_c1, BINOMIAL2)
        margins = dict(rep.margins)
        assert margins[1] == pytest.approx(0.03125, abs=1e-15)
        assert row0(stacked_c1bar, BINOMIAL2).holds

    def test_point_mass_zero(self):
        for rep in (row0(stacked_c1, POINT), row0(stacked_c1bar, POINT)):
            assert all(m == 0.0 for _, m in rep.margins)

    def test_product_identity(self, rng):
        assert c1_product_identity_residual(BINOMIAL4) < 1e-12
        for _ in range(100):
            assert c1_product_identity_residual(random_pmf(rng)) < 1e-10

    def test_property_sweep(self, rng):
        for _ in range(150):
            f = random_pmf(rng)
            assert row0(stacked_c1, f).holds
            assert row0(stacked_c1bar, f).holds


class TestCondition4:
    def test_hand_values(self):
        pv = ParamVector(np.array([0.5, 0.5]))
        assert evaluate_checker("condition4", pv, [1.0, 1.0]).margins == ((0, 0.125),)
        assert evaluate_checker("condition4", pv, [1.0, -1.0]).margins == ((0, 0.375),)
        assert evaluate_checker("condition4", pv, [0.0, 0.0]).margins == ((0, 0.0),)

    def test_property_sweep(self, rng):
        for _ in range(200):
            p, s = random_instance(rng, n_min=2, n_max=10)
            assert evaluate_checker("condition4", ParamVector(p), s).holds


class TestCorollary:
    def test_hand_value(self):
        rep = evaluate_checker("corollary_fgh", ParamVector(np.array([0.5, 0.5])), [1.0, 1.0])
        assert rep.margins == ((0, 0.5), (0, 0.5))

    def test_zero_slopes(self):
        rep = evaluate_checker("corollary_fgh", ParamVector(np.array([0.3, 0.8])), [0.0, 0.0])
        assert all(m == 0.0 for _, m in rep.margins)

    def test_property_sweep(self, rng):
        for _ in range(200):
            p, s = random_instance(rng, n_min=2, n_max=10, signed=False)
            rep = evaluate_checker("corollary_fgh", ParamVector(p), s)
            assert rep.worst >= -1e-12

    def test_signed_sweep(self, rng):
        for _ in range(200):
            p, s = random_instance(rng, n_min=2, n_max=10)
            assert evaluate_checker("corollary_fgh", ParamVector(p), s).holds

    def test_corollary_algebraic_identity(self, rng):
        # (gain) f_k - (newton gap) g_k^2 collapses to -(f_{k+1} g_k - f_k g_{k+1})^2
        for _ in range(100):
            p, s = random_instance(rng, n_min=2, n_max=10)
            pv = ParamVector(p)
            f = compute_pmf(pv).values
            d = path_derivatives(pv, s)
            g, h = d.g, d.h
            for k in range(h.size):
                gain = (
                    2.0 * g[k] * g[k + 1] * f[k + 1]
                    - g[k] ** 2 * f[k + 2]
                    - g[k + 1] ** 2 * f[k]
                )
                lhs = gain * f[k] - (f[k + 1] ** 2 - f[k] * f[k + 2]) * g[k] ** 2
                rhs = -((f[k + 1] * g[k] - f[k] * g[k + 1]) ** 2)
                scale = max(abs(lhs), abs(rhs), 1e-300)
                assert abs(lhs - rhs) / scale < 1e-10 or abs(lhs - rhs) < 1e-15


class TestUkDecomposition:
    def test_transform_branch_hand_values(self):
        dec = uk(ParamVector(np.array([0.5, 0.5])), [1.0, 1.0])
        term = dec.terms[0]
        assert term.u == pytest.approx(4.0 + 2.0 * math.log(0.25), rel=1e-12)
        assert term.branch is UkBranch.TRANSFORM
        assert (term.A, term.B, term.C) == (0.5, 0.0, 0.5)
        assert term.B**2 <= term.A * term.C
        assert (term.alpha, term.beta, term.gamma) == (4.0, 2.0, 4.0)

    def test_h_nonpositive_branch(self):
        dec = uk(ParamVector(np.array([0.5, 0.5])), [1.0, -1.0])
        term = dec.terms[0]
        assert term.branch is UkBranch.H_NONPOSITIVE
        assert term.u == pytest.approx(-2.0 * math.log(0.25), rel=1e-12)

    def test_degenerate_branch_recorded(self):
        # g_0 = 0.5*1 - 0.5*1 = 0 while h_0 = 2 * (1 * 1) * f^{(01)} > 0 needs
        # mixed slopes on asymmetric parameters; craft g_k = 0 directly.
        pv = ParamVector(np.array([0.5, 0.5, 0.5]))
        # slopes (1, -1, 0): g_k = f^{(0)}_k - f^{(1)}_k = 0 identically, h != 0
        dec = uk(pv, [1.0, -1.0, 0.0])
        assert any(t.branch is UkBranch.DEGENERATE for t in dec.terms) or all(
            t.h <= 0.0 for t in dec.terms
        )

    def test_nonnegativity_sweep(self, rng):
        for _ in range(300):
            p, s = random_instance(rng, n_min=2, n_max=12)
            dec = uk(ParamVector(p), s)
            assert all(t.u >= -1e-9 for t in dec.terms)

    def test_transform_constraints_sweep(self, rng):
        seen_transform = False
        for _ in range(200):
            p, s = random_instance(rng, n_min=2, n_max=10)
            for t in uk(ParamVector(p), s).terms:
                if t.branch is UkBranch.TRANSFORM:
                    seen_transform = True
                    assert t.A >= -1e-12 and t.C >= -1e-12
                    assert t.B**2 <= t.A * t.C + 1e-10
                    assert t.beta**2 <= t.alpha * t.gamma * (1.0 + 1e-12)
        assert seen_transform

    def test_curvature_bounded_by_uk_sum(self, rng):
        # H'' <= -sum u_k, the two dropped boundary terms being nonpositive;
        # with them restored the relabeling is an exact identity.
        for _ in range(150):
            p, s = random_instance(rng, n_min=2, n_max=12)
            pv = ParamVector(p)
            curv = entropy_curvature(pv, s)
            dec = uk(pv, s)
            total = float(dec.u.sum())
            assert curv <= -total + 1e-9
            f = compute_pmf(pv).values
            d = path_derivatives(pv, s)
            exact = -total - d.g[-1] ** 2 / f[-2] - d.g[0] ** 2 / f[1]
            assert curv == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_boundary_mass_rejected(self):
        with pytest.raises(BoundaryError):
            uk(ParamVector(np.array([0.0, 0.5])), [1.0, 1.0])

    def test_json_round_trip(self):
        import json

        dec = uk(ParamVector(np.array([0.5, 0.5])), [1.0, 1.0])
        data = json.loads(dec.to_json())
        assert data["terms"][0]["branch"] == "transform"


class TestFunctionalLemma:
    def test_symmetric_equality_case(self):
        rep = check_functional_lemma(X_LOG_X, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0)
        assert rep.margins[0][1] == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_worked_margin(self):
        rep = check_functional_lemma(X_LOG_X, 0.5, 0.0, 0.5, 1.0, 0.0, 1.0)
        assert rep.margins[0][1] == pytest.approx(1.0 - math.log(2.0), rel=1e-12)

    def test_hypothesis_gate(self):
        with pytest.raises(LemmaHypothesisError) as err:
            check_functional_lemma(X_LOG_X, 0.9, 0.9, 0.5, 1.0, 1.0, 1.0)
        assert err.value.condition == "B_square"
        with pytest.raises(LemmaHypothesisError):
            check_functional_lemma(X_LOG_X, 1.5, 0.0, 0.5, 1.0, 0.0, 1.0)
        with pytest.raises(LemmaHypothesisError):
            check_functional_lemma(X_LOG_X, 0.5, 0.0, 0.5, 1.0, 5.0, 1.0)

    def test_bad_u_rejected(self):
        from entropath.inequalities import SmoothFunction

        # x^2 has U(1) = 1 != 0
        square = SmoothFunction(
            value=lambda x: np.asarray(x) ** 2,
            d1=lambda x: 2.0 * np.asarray(x),
            d2=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
            d3=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        with pytest.raises(LemmaHypothesisError) as err:
            check_functional_lemma(square, 0.5, 0.0, 0.5, 1.0, 0.0, 1.0)
        assert err.value.condition == "U_at_one"

    def test_random_admissible_tuples(self, rng):
        for _ in range(500):
            a = rng.uniform(0.01, 0.99)
            c = rng.uniform(0.01, 0.99)
            b = math.sqrt(a * c) * rng.uniform(-0.999, 0.999)
            alpha = rng.uniform(0.0, 10.0)
            gamma = rng.uniform(0.0, 10.0)
            beta = math.sqrt(alpha * gamma) * rng.uniform(0.0, 0.999)
            rep = check_functional_lemma(X_LOG_X, a, b, c, alpha, beta, gamma)
            assert rep.margins[0][1] >= -1e-12
            assert rep.margins[1][1] >= -1e-12


class TestCij:
    def test_point_mass_pair(self):
        assert compute_cij(ParamVector(np.array([0.5, 0.5])), 0, 1, 0) == -1.0

    def test_far_outside_support(self):
        assert compute_cij(ParamVector(np.array([0.5, 0.5])), 0, 1, 10) == 0.0

    def test_three_component_hand_value(self):
        value = compute_cij(ParamVector(np.array([0.2, 0.4, 0.9])), 0, 2, 0)
        assert value == pytest.approx(-0.216, rel=1e-12)

    def test_equals_negated_two_fold_margin(self, rng):
        for _ in range(50):
            p, _ = random_instance(rng, n_min=2, n_max=8)
            pv = ParamVector(p)
            i, j = sorted(rng.choice(p.size, size=2, replace=False))
            rep = row0(stacked_two_fold_log_concavity, leave_two_out(pv, int(i), int(j)))
            for k, margin in rep.margins:
                assert compute_cij(pv, int(i), int(j), k) == -margin

    def test_equals_negated_sweep_margin(self, rng):
        # compute_cij and the sweep run one kernel on one pmf, so the negation is exact.
        for _ in range(60):
            p, s = random_instance(rng, n_min=2, n_max=11)
            pv = ParamVector(p)
            rows, cols = np.triu_indices(pv.n, 1)
            values = evaluate_checker("cij", pv, s).values.reshape(rows.size, -1)
            for row, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
                for k in range(values.shape[1]):
                    assert compute_cij(pv, i, j, k) == -values[row, k]

    def test_sweep_nonpositive(self, rng):
        for _ in range(150):
            p, s = random_instance(rng, n_min=2, n_max=10)
            assert evaluate_checker("cij", ParamVector(p), s).holds

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            compute_cij(ParamVector(np.array([0.5, 0.5])), 1, 1, 0)
        with pytest.raises(IndexError):
            compute_cij(ParamVector(np.array([0.5, 0.5])), 0, 2, 0)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def _assert_equals_pair_oracle(p: np.ndarray) -> None:
    """stacked_cij(p) against _two_fold of each row's leave-two-out oracle pmfs, bit for bit."""
    m, n = p.shape
    got = stacked_cij(p)
    for row in range(m):
        pv = ParamVector(p[row])
        pairs = np.array([leave_two_out(pv, i, j).values
                          for i, j in itertools.combinations(range(n), 2)])
        margin, scale = _two_fold(pairs)
        assert _bits(got.values[row]) == _bits(margin), (n, m, row)
        assert _bits(got.scale[row]) == _bits(scale), (n, m, row)
        want = max(ABS_FLOOR, REL_TOL * float(scale.max()))
        assert float(got.tolerance[row]) == want, (n, m, row)


class TestStackedCij:
    """stacked_cij builds its own leave-two-out rows; each has the bits of the oracle's pmf."""

    @pytest.mark.parametrize("degenerate", (False, True), ids=("interior", "zeros_and_ones"))
    def test_equals_two_fold_of_each_oracle_pair_bit_for_bit(self, degenerate):
        rng = np.random.default_rng(70 + degenerate)
        for n in range(2, 13):
            for m in (1, 4, 15):
                # Off the 2^-53 grid of rng.random, where 1 - (1 - p) == p would hide a slip.
                p = rng.uniform(1e-3, 1.0 - 1e-3, (m, n))
                if degenerate:  # about a third of the entries exactly 0 or 1
                    hit = rng.random((m, n)) < 0.3
                    p[hit] = rng.integers(0, 2, int(hit.sum()))
                _assert_equals_pair_oracle(p)

    @pytest.mark.parametrize("n", (20, 30, 50))
    def test_equals_the_pair_oracle_at_large_n(self, n):
        p = np.random.default_rng(80 + n).uniform(1e-3, 1.0 - 1e-3, (2, n))
        p[1, ::6] = 0.0
        p[1, 1::6] = 1.0
        _assert_equals_pair_oracle(p)

    def test_one_component_has_no_pairs(self):
        got = stacked_cij(np.array([[0.3], [1.0], [0.0]]))
        assert got.values.shape == got.scale.shape == (3, 0)
        assert got.tolerance.tolist() == [ABS_FLOOR] * 3

    @pytest.mark.parametrize("n", (30, 50))
    def test_stack_rows_equal_one_row_calls(self, n):
        p = np.random.default_rng(n).uniform(1e-3, 1.0 - 1e-3, (3, n))
        p[1, ::7] = 0.0
        p[2, ::5] = 1.0
        stacked = stacked_cij(p)
        for row in range(3):
            alone = stacked_cij(p[row : row + 1])
            assert _bits(stacked.values[row]) == _bits(alone.values[0]), row
            assert _bits(stacked.scale[row]) == _bits(alone.scale[0]), row
            assert float(stacked.tolerance[row]) == float(alone.tolerance[0]), row

    def test_rejects_invalid_stacks(self):
        with pytest.raises(ValueError):
            stacked_cij(np.array([0.3, 0.5]))
        with pytest.raises(ValueError):
            stacked_cij(np.array([[0.3, 1.5]]))
        with pytest.raises(ValueError):
            stacked_cij(np.zeros((2, 0)))


class TestQuadraticDecomposition:
    def test_symmetric_point(self):
        rep = check_quadratic_decomposition_n2(ParamVector(np.array([0.5, 0.5])), 0)
        margins = dict(rep.margins)
        # b01 = b10 = 0.5, c = -1: bound is 0.25, discriminant 0.25 - 0.0625
        assert margins[0] == pytest.approx(0.25, rel=1e-12)
        assert margins[1] == pytest.approx(0.25, rel=1e-12)
        assert margins[2] == pytest.approx(0.1875, rel=1e-12)
        assert margins[3] == pytest.approx(0.1875, rel=1e-12)
        assert rep.holds

    def test_asymmetric_point_sharper_floor(self):
        rep = check_quadratic_decomposition_n2(ParamVector(np.array([0.3, 0.7])), 0)
        assert rep.holds
        margins = dict(rep.margins)
        assert margins[3] <= margins[2]

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError):
            check_quadratic_decomposition_n2(ParamVector(np.array([0.5, 0.5, 0.5])), 0)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            check_quadratic_decomposition_n2(ParamVector(np.array([0.0, 0.5])), 0)

    def test_sweep(self, rng):
        for _ in range(100):
            p = rng.uniform(0.01, 0.99, 2)
            for k in range(2):
                assert check_quadratic_decomposition_n2(ParamVector(p), k).holds


class TestMonotoneWorstCase:
    def test_two_component_hand_values(self):
        rep = check_monotone_worst_case(ParamVector(np.array([0.5, 0.5])), [1.0, 1.0])
        # Q(+,+) = 0.125 is the minimum; Q(+,-) = 0.375
        assert rep.margins == ((0, 0.0),)
        assert rep.holds

    def test_zero_slopes_tie(self):
        rep = check_monotone_worst_case(ParamVector(np.array([0.3, 0.8])), [0.0, 0.0])
        assert rep.margins == ((0, 0.0),)

    def test_three_component_exhaustive(self, rng):
        for _ in range(50):
            p = rng.uniform(0.05, 0.95, 3)
            a = rng.random(3)
            assert check_monotone_worst_case(ParamVector(p), a).holds

    def test_sweep(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = rng.uniform(1e-3, 1 - 1e-3, n)
            a = rng.random(n)
            assert check_monotone_worst_case(ParamVector(p), a).holds

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            check_monotone_worst_case(ParamVector(np.full(13, 0.5)), np.ones(13))

    def test_negative_abs_slopes_rejected(self):
        with pytest.raises(ValueError):
            check_monotone_worst_case(ParamVector(np.array([0.5, 0.5])), [-1.0, 1.0])
