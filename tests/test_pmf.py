"""Mass-function construction against the enumeration oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropath import calculus, pmf
from entropath.pmf import (
    ParamVector,
    Pmf,
    _block_pairs,
    _convolve_bernoullis,
    _leave_two_out_blocks,
    _pair_lex,
    compute_pmf,
)
from conftest import BLOCK_BUDGETS
from scalar_oracle import brute_force_pmf, kept_convolutions, leave_one_out, leave_two_out

prob_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=8
)


class TestComputePmf:
    def test_single_fair_bernoulli(self):
        f = compute_pmf(ParamVector(np.array([0.5])))
        np.testing.assert_allclose(f.values, [0.5, 0.5], atol=0)

    def test_two_components_enumerated_by_hand(self):
        # 2^2 outcomes of p=[0.3, 0.5]: 0.7*0.5, 0.3*0.5 + 0.7*0.5, 0.3*0.5
        f = compute_pmf(ParamVector(np.array([0.3, 0.5])))
        np.testing.assert_allclose(f.values, [0.35, 0.50, 0.15], atol=1e-15)

    def test_binomial_four_halves(self):
        f = compute_pmf(ParamVector(np.array([0.5] * 4)))
        np.testing.assert_allclose(f.values, np.array([1, 4, 6, 4, 1]) / 16.0, atol=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ParamVector(np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            ParamVector(np.array([-0.1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParamVector(np.array([]))

    def test_matches_oracle_randomized(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 17))
            p = rng.random(n)
            pv = ParamVector(p)
            np.testing.assert_allclose(
                compute_pmf(pv).values, brute_force_pmf(pv).values, atol=1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(prob_lists)
    def test_matches_oracle_hypothesis(self, probs):
        pv = ParamVector(np.array(probs))
        np.testing.assert_allclose(
            compute_pmf(pv).values, brute_force_pmf(pv).values, atol=1e-12
        )

    def test_permutation_invariance(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            p = rng.random(n)
            base = compute_pmf(ParamVector(p)).values
            perm = compute_pmf(ParamVector(rng.permutation(p))).values
            np.testing.assert_allclose(perm, base, atol=1e-14)

    def test_newton_log_concavity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 13))
            f = compute_pmf(ParamVector(rng.random(n))).values
            for k in range(n - 1):
                scale = max(f[k + 1] ** 2, f[k] * f[k + 2])
                assert f[k + 1] ** 2 - f[k] * f[k + 2] >= -1e-15 * scale

    def test_degenerate_closure(self, rng):
        # A deterministic component shifts (p_i = 1) or keeps (p_i = 0) the rest.
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = rng.random(n)
            i = int(rng.integers(0, n))
            rest = compute_pmf(ParamVector(np.delete(p, i))).values
            p_zero = p.copy()
            p_zero[i] = 0.0
            np.testing.assert_allclose(
                compute_pmf(ParamVector(p_zero)).values, np.append(rest, 0.0), atol=1e-15
            )
            p_one = p.copy()
            p_one[i] = 1.0
            np.testing.assert_allclose(
                compute_pmf(ParamVector(p_one)).values, np.insert(rest, 0, 0.0), atol=1e-15
            )

    def test_total_is_reported_not_fixed(self, rng):
        f = compute_pmf(ParamVector(rng.random(10)))
        assert abs(f.values.sum() - 1.0) <= 1e-12


class TestLeaveOut:
    def test_leave_one_out_two_components(self):
        pv = ParamVector(np.array([0.3, 0.5]))
        np.testing.assert_allclose(leave_one_out(pv, 0).values, [0.5, 0.5], atol=0)
        np.testing.assert_allclose(leave_one_out(pv, 1).values, [0.7, 0.3], atol=0)

    def test_leave_one_out_matches_direct(self):
        pv = ParamVector(np.array([0.2, 0.4, 0.9]))
        expect = brute_force_pmf(ParamVector(np.array([0.2, 0.4]))).values
        np.testing.assert_allclose(leave_one_out(pv, 2).values, expect, atol=1e-15)

    def test_leave_one_out_single_component(self):
        pv = ParamVector(np.array([0.7]))
        np.testing.assert_allclose(leave_one_out(pv, 0).values, [1.0], atol=0)

    def test_leave_one_out_bad_index(self):
        with pytest.raises(IndexError):
            leave_one_out(ParamVector(np.array([0.3, 0.5])), 2)

    def test_leave_two_out_point_mass(self):
        pv = ParamVector(np.array([0.3, 0.5]))
        np.testing.assert_allclose(leave_two_out(pv, 0, 1).values, [1.0], atol=0)

    def test_leave_two_out_symmetric_and_correct(self):
        pv = ParamVector(np.array([0.1, 0.2, 0.3, 0.4]))
        expect = brute_force_pmf(ParamVector(np.array([0.1, 0.3]))).values
        np.testing.assert_allclose(leave_two_out(pv, 1, 3).values, expect, atol=1e-15)
        np.testing.assert_allclose(
            leave_two_out(pv, 3, 1).values, leave_two_out(pv, 1, 3).values, atol=0
        )

    def test_leave_two_out_single_survivor(self):
        pv = ParamVector(np.array([0.2, 0.4, 0.9]))
        np.testing.assert_allclose(leave_two_out(pv, 0, 1).values, [0.1, 0.9], atol=1e-15)

    def test_leave_two_out_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            leave_two_out(ParamVector(np.array([0.3, 0.5])), 1, 1)

    def test_structures_match_direct_ops(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 10))
            pv = ParamVector(rng.random(n))
            pairs = _pairs(pv.p[None])[0]
            for row, (i, j) in enumerate(itertools.combinations(range(n), 2)):
                np.testing.assert_allclose(pairs[row], leave_two_out(pv, j, i).values, atol=1e-14)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _pairs(p) -> np.ndarray:
    """The leave-two-out pmfs of each row of p (m, n), read out of the builder's blocks.

    As (m, n(n-1)/2, n-1): one row per pair i < j in lexicographic order, each
    cut to its support.
    """
    m, n = p.shape
    colex = np.zeros((0, max(n - 1, 0), m))
    for buf in _leave_two_out_blocks(p):
        colex = np.concatenate((colex, buf[n:-1, : n - 1]))
    pairs = np.empty_like(colex)
    pairs[_pair_lex(n)] = colex
    return pairs.transpose(2, 0, 1)


class TestLeaveTwoOutBuilder:
    """The masked recurrence against one-removal-at-a-time oracles, bit for bit."""

    def test_stacked_convolution_equals_compute_pmf(self, rng):
        for n in range(1, 61):
            p = rng.random((5, n))
            stacked = _convolve_bernoullis(p)
            for row in range(5):
                assert _bits(stacked[row]) == _bits(compute_pmf(ParamVector(p[row])).values)

    @pytest.mark.parametrize("degenerate", (False, True), ids=("interior", "zeros_and_ones"))
    def test_rows_equal_oracles_and_one_row_calls(self, degenerate, monkeypatch):
        for budget in BLOCK_BUDGETS.values():
            monkeypatch.setattr(pmf, "_BLOCK_BYTES", budget)
            rng = np.random.default_rng(60 + degenerate)
            for n in range(1, 61):
                # Every stack size up to n = 24. Above that the stacks stay small:
                # a 49-row stack at n = 60 alone takes most of a second to build.
                m = (1, 4, 15, 49)[n % 4] if n <= 24 else (1, 4)[n % 2]
                # Off the 2^-53 grid of rng.random, where 1 - (1 - p) == p would hide a slip.
                p = rng.uniform(1e-3, 1.0 - 1e-3, (m, n))
                if degenerate:  # about a third of the entries exactly 0 or 1
                    hit = rng.random((m, n)) < 0.3
                    p[hit] = rng.integers(0, 2, int(hit.sum()))
                pairs = _pairs(p)
                assert pairs.shape == (m, n * (n - 1) // 2, max(n - 1, 0))
                for row in range(m):
                    alone = _pairs(p[row : row + 1])[0]
                    assert _bits(pairs[row]) == _bits(alone), (budget, n, m, row)
                for row in {0, m - 1}:
                    pv = ParamVector(p[row])
                    assert _bits(pairs[row]) == _bits(kept_convolutions(p[row], 2)), (n, row)
                    if n <= 8:
                        for r, (i, j) in enumerate(itertools.combinations(range(n), 2)):
                            assert _bits(pairs[row, r]) == _bits(leave_two_out(pv, j, i).values)

    @pytest.mark.parametrize("degenerate", (False, True), ids=("interior", "zeros_and_ones"))
    def test_rows_are_zero_past_their_support(self, degenerate, monkeypatch):
        # stacked_cij reads its windows as shifted slices of each block's flattened
        # pair rows, so every column past a row's support must hold exactly +0.0.
        for budget in BLOCK_BUDGETS.values():
            monkeypatch.setattr(pmf, "_BLOCK_BYTES", budget)
            rng = np.random.default_rng(62 + degenerate)
            for n in range(1, 31):
                m = (1, 4, 15)[n % 3]
                p = rng.uniform(1e-3, 1.0 - 1e-3, (m, n))
                if degenerate:
                    hit = rng.random((m, n)) < 0.3
                    p[hit] = rng.integers(0, 2, int(hit.sum()))
                bufs = [buf.copy() for buf in _leave_two_out_blocks(p)]
                assert sum(len(buf) - n - 1 for buf in bufs) == n * (n - 1) // 2
                for buf in bufs:
                    assert buf.shape[1:] == (n + 2, m)
                    for pad in (buf[:n, n:], buf[n:-1, n - 1 :], buf[-1]):
                        assert _bits(pad) == _bits(np.zeros(pad.shape)), (budget, n)
                # After the last block the leave-one-out rows are the kept convolutions too.
                for row in {0, m - 1} if bufs else ():
                    loo = bufs[-1][:n, :n, row]
                    assert _bits(loo) == _bits(kept_convolutions(p[row], 1)), (n, row)

    def test_blocks_hold_whole_js_within_the_budget(self, monkeypatch):
        for budget in BLOCK_BUDGETS.values():
            monkeypatch.setattr(pmf, "_BLOCK_BYTES", budget)
            for n in range(2, 41):
                sizes = [len(buf) - n - 1 for buf in _leave_two_out_blocks(np.full((1, n), 0.5))]
                # Blocks take j = 1, 2, ... in turn, each whole, so the running pair
                # counts are the triangular numbers j(j - 1)/2 of the blocks' ends.
                ends = (1 + np.sqrt(1 + 8 * np.cumsum(sizes))) / 2
                assert ends.tolist() == np.round(ends).tolist(), (budget, n, sizes)
                assert ends[-1] == n and max(sizes) <= _block_pairs(n)
                whole = 8 * (n + 2) * (n + 1 + n * (n - 1) // 2)  # a buffer of every pair
                assert (len(sizes) == 1) == (whole <= budget or n == 2), (budget, n)
                if not budget:
                    assert _block_pairs(n) == n - 1

    def test_one_block_up_to_n_24(self):
        one_block = [n for n in range(2, 60) if _block_pairs(n) == n * (n - 1) // 2]
        assert one_block == list(range(2, 25))


class TestOneBernoulliStep:
    """Every recurrence applies its Bernoulli factors through pmf._step."""

    def test_a_fault_planted_in_the_step_reaches_every_recurrence(self, monkeypatch):
        rng = np.random.default_rng(18)
        p = rng.uniform(0.1, 0.9, (3, 5))
        slopes = rng.uniform(-1.0, 1.0, (3, 5))
        f = _convolve_bernoullis(p).copy()  # the Hessian's pmfs stay sound

        def outputs():
            fgh = calculus.stacked_fgh(p, slopes)
            return {
                "convolve": _convolve_bernoullis(p),
                "f": fgh[0],
                "g": fgh[1],
                "h": fgh[2],
                "leave_two_out": _pairs(p),
                "hessian": calculus.stacked_entropy_hessian(p, f)[0],
            }

        def up_before_q(live, p, q):
            up = live[:-1] * p
            live[1:] += up
            live *= q

        sound = outputs()
        monkeypatch.setattr(pmf, "_step", up_before_q)
        faulty = outputs()
        assert [key for key in sound if np.array_equal(sound[key], faulty[key])] == []


class TestBruteForce:
    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_pmf(ParamVector(np.full(21, 0.5)))

    def test_degenerate_components(self):
        f = brute_force_pmf(ParamVector(np.array([1.0, 0.0])))
        np.testing.assert_allclose(f.values, [0.0, 1.0, 0.0], atol=0)

    def test_binomial_ten(self):
        from math import comb

        f = brute_force_pmf(ParamVector(np.full(10, 0.5)))
        np.testing.assert_allclose(
            f.values, [comb(10, k) / 1024.0 for k in range(11)], atol=1e-15
        )


class TestPmfType:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mass(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Pmf(np.array([bad, 1.0]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.4]))

    def test_values_are_immutable(self):
        f = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            f.values[0] = 0.3
