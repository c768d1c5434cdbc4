"""Scan determinism, certificate soundness, and empirical critical q."""

import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import scalar_oracle as oracle
from entropath import calculus, cli, explorer, inequalities, pmf, qentropy
from entropath.errors import BoundaryError, ConsistencyError
from entropath.explorer import (
    CHECKER_IDS,
    CHECKERS,
    SHANNON_SUITE,
    ScanConfig,
    estimate_critical_q,
    evaluate_checker,
    run_scan,
    sample_instance,
)
from entropath.pmf import ParamVector

LADDER_CHECKS = ("log_concavity", "two_fold_log_concavity", "c1", "c1bar", "cij", "condition4",
                 "corollary_fgh")


class TestSplitMix64:
    def test_reference_stream_for_seed_zero(self):
        # First outputs of the published generator for seed 0.
        rng = oracle.SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniform_range(self):
        rng = oracle.SplitMix64(12345)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        draws_open = [rng.uniform_open() for _ in range(1000)]
        assert all(0.0 < u < 1.0 for u in draws_open)

    def test_instance_streams_are_counter_based(self):
        a = oracle.instance_rng(99, 5).next_u64()
        b = oracle.instance_rng(99, 5).next_u64()
        c = oracle.instance_rng(99, 6).next_u64()
        assert a == b
        assert a != c

    def test_unit_sphere_slopes_are_box_muller_draws(self):
        # Restated from the raw stream: n, then n p draws, then per slope a
        # Box-Muller pair u1 in (0, 1) from the top 52 bits and u2 in [0, 1)
        # from the top 53; the slopes are scaled so the largest |slope| is 1.
        cfg = ScanConfig(seed=21, n_range=(1, 9), instance_count=40,
                         slope_distribution="unit_sphere")
        for index in range(cfg.instance_count):
            inst = sample_instance(cfg, index)
            rng = oracle.instance_rng(cfg.seed, index)
            n = 1 + rng.next_u64() % 9
            for _ in range(n):
                rng.next_u64()
            z = []
            for _ in range(n):
                u1 = ((rng.next_u64() >> 12) + 0.5) * 2.0**-52
                u2 = (rng.next_u64() >> 11) * 2.0**-53
                z.append(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
            top = max(abs(v) for v in z)
            assert inst.slopes == tuple(v / top for v in z)
            assert max(abs(v) for v in inst.slopes) == 1.0


# Seeds at both ends of 64 bits, and indices past 2^32, so that the uint64
# arithmetic of the array draw wraps.
WRAP_SEEDS = (0, 2**63, 2**64 - 1)
WIDE_INDICES = (0, 1, 17, 2**32 + 3, 2**40 + 12345)


def _bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


class TestArrayDrawMatchesTheGenerator:
    """The scan's array draw against one SplitMix64 object per instance."""

    @pytest.mark.parametrize("seed", WRAP_SEEDS)
    def test_streams(self, seed):
        want = []
        for index in WIDE_INDICES:
            rng = oracle.instance_rng(seed, index)
            want.append([rng.next_u64() for _ in range(7)])
        assert explorer._streams(seed, np.array(WIDE_INDICES), 7).tolist() == want

    @pytest.mark.parametrize("seed", WRAP_SEEDS)
    @pytest.mark.parametrize("n_range", [(1, 1), (4, 4), (1, 12), (3, 7)])
    def test_family_sizes(self, seed, n_range):
        cfg = ScanConfig(seed=seed, n_range=n_range, instance_count=50)
        want = [oracle.draw_n(oracle.instance_rng(seed, i), n_range) for i in range(50)]
        assert explorer._family_sizes(cfg).tolist() == want

    @pytest.mark.parametrize("seed", WRAP_SEEDS)
    @pytest.mark.parametrize("n_range", [(5, 5), (1, 9)])
    @pytest.mark.parametrize("distribution", ["unit_sphere", "signed_unit", "monotone_unit"])
    def test_sample_instance(self, seed, n_range, distribution):
        cfg = ScanConfig(seed=seed, n_range=n_range, slope_distribution=distribution,
                         interior_margin=0.01)
        for index in WIDE_INDICES + tuple(range(2, 40)):
            got, want = sample_instance(cfg, index), oracle.sample_instance(cfg, index)
            assert (got.index, got.t) == (want.index, want.t)
            assert _bits(got.p) == _bits(want.p)
            assert _bits(got.slopes) == _bits(want.slopes)

    @pytest.mark.parametrize("family", ["random_affine", "bernoulli", "binomial2", "binomial_n"])
    @pytest.mark.parametrize("distribution", ["unit_sphere", "signed_unit", "monotone_unit"])
    def test_scan_groups(self, family, distribution):
        cfg = ScanConfig(seed=2**64 - 1, n_range=(1, 30), instance_count=300, family=family,
                         slope_distribution=distribution)
        want = {inst.index: inst for inst in oracle.family_instances(cfg)}
        seen = []
        for group in explorer._groups(cfg):
            for row, index in enumerate(group.index.tolist()):
                inst = want[index]
                assert group.t[row].item() == inst.t
                assert group.p[row].tobytes() == _bits(inst.p)
                assert group.slopes[row].tobytes() == _bits(inst.slopes)
                seen.append(index)
        assert sorted(seen) == list(range(cfg.instance_count))


class TestScanConfig:
    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, instance_count=0)

    def test_integer_fields_are_not_truncated(self):
        for kwargs in ({"seed": 1.5}, {"n_range": (2.7, 3.9)}, {"instance_count": 2.5},
                       {"instance_count": math.inf}, {"seed": math.nan}):
            with pytest.raises(ValueError, match="must be integral"):
                ScanConfig(**{"seed": 1, **kwargs})
        exact = ScanConfig(seed=3, n_range=(2, 4), instance_count=9)
        floats = ScanConfig(seed=3.0, n_range=[2.0, 4.0], instance_count=9.0)
        assert floats.to_dict() == exact.to_dict()
        assert floats.config_hash() == exact.config_hash()

    @pytest.mark.parametrize("q, message", [
        (math.nan, "q must be a finite nonnegative real"),
        (math.inf, "q must be a finite nonnegative real"),
        (-0.5, "q must be a finite nonnegative real"),
        (1.0, "q = 1 is the Shannon point; use kind='shannon'"),
    ])
    def test_every_q_of_the_grid_follows_the_entropy_spec_rule(self, q, message):
        for checks in (("log_concavity",), ("renyi_concavity",)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ScanConfig(seed=1, inequality_set=checks, q_grid=(2.5, q))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qentropy.EntropySpec("renyi", q)

    def test_an_integer_q_past_the_float_range_is_refused(self):
        # float() of it overflows; the grid rule refuses it as it refuses inf.
        with pytest.raises(ValueError, match="^q must be a finite nonnegative real$"):
            ScanConfig(seed=1, inequality_set=("renyi_concavity",), q_grid=(2.5, 10**400))

    def test_estimator_errors_for_a_rejected_q_keep_their_message(self):
        cfg = ScanConfig(seed=0, n_range=(1, 2), instance_count=5)
        with pytest.raises(ValueError, match="^q = 1 is the Shannon point; use kind='shannon'$"):
            estimate_critical_q(cfg, "binomial2", "tsallis", (0.5, 1.0))

    def test_unknown_checker_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, inequality_set=("not_a_checker",))

    def test_q_checker_needs_grid(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, inequality_set=("renyi_concavity",))

    def test_numpy_scalars_stay_valid(self):
        plain = ScanConfig(seed=3, n_range=(2, 4), instance_count=9, interior_margin=0.01,
                           q_grid=(2.5,))
        numpy = ScanConfig(seed=np.uint64(3), n_range=np.array([2, 4]),
                           instance_count=np.int32(9), interior_margin=np.float64(0.01),
                           q_grid=np.array([2.5]))
        assert numpy.config_hash() == plain.config_hash()

    def test_bad_interior_margin(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, interior_margin=0.6)

    def test_interior_margin_is_a_float(self, capsys, tmp_path):
        configs = [ScanConfig(seed=1, interior_margin=m) for m in (0, 0.0, np.float64(0.0))]
        assert {type(c.interior_margin) for c in configs} == {float}
        assert len({c.config_hash() for c in configs}) == 1
        hashes = []
        for margin in (0, 0.0):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"seed": 1, "n_range": [2, 3], "instance_count": 4,
                                        "interior_margin": margin}))
            assert cli.main(["scan", "--config", str(path), "--format", "json"]) == 0
            hashes.append(json.loads(capsys.readouterr().out)["config_hash"])
        assert hashes[0] == hashes[1]

    def test_round_trip(self):
        cfg = ScanConfig(seed=7, n_range=(1, 4), instance_count=10, q_grid=(2.0,),
                         inequality_set=("renyi_concavity",))
        assert ScanConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig.from_dict({"seed": 1, "bogus": 2})

    def test_all_checker_ids_evaluate(self):
        cfg = ScanConfig(
            seed=11,
            n_range=(2, 3),
            instance_count=3,
            inequality_set=CHECKER_IDS,
            q_grid=(2.0,),
        )
        report = run_scan(cfg)
        assert len(report.worst_margins) == len(CHECKER_IDS)


def _refuse_leave_two_out(monkeypatch, what: str) -> None:
    """Make the leave-two-out builder raise wherever the package binds it."""
    def refuse(p):
        raise AssertionError(f"leave-two-out rows built for {what}")

    for module in (pmf, inequalities):
        monkeypatch.setattr(module, "_leave_two_out", refuse)


class TestCheckerTable:
    def test_ids_follow_the_table(self):
        assert tuple(CHECKERS) == CHECKER_IDS
        assert SHANNON_SUITE == (
            "log_concavity",
            "two_fold_log_concavity",
            "c1",
            "c1bar",
            "cij",
            "condition4",
            "corollary_fgh",
            "uk_nonneg",
            "entropy_concavity",
            "hessian_psd",
        )

    def test_report_names_follow_the_table(self, capsys):
        assert {cid: c.name for cid, c in CHECKERS.items() if c.name != cid} == {
            "cij": "cij_nonpositive"
        }
        assert cli.main(["verify", "--p", "0.2,0.5,0.7", "--format", "json"]) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert names == [CHECKERS[cid].name for cid in SHANNON_SUITE]

    def test_a_renamed_row_renames_its_reports(self, monkeypatch):
        monkeypatch.setitem(CHECKERS, "c1", CHECKERS["c1"]._replace(name="lower_cubic"))
        params, slopes = ParamVector(np.array([0.3, 0.6])), np.array([1.0, -0.5])
        assert evaluate_checker("c1", params, slopes).name == "lower_cubic"
        # A scan keys its worst margins by checker id, not by report name.
        assert set(run_scan(ScanConfig(seed=0, instance_count=3,
                                       inequality_set=("c1",))).worst_margins) == {"c1"}

    def test_takes_q_drives_the_keys_the_grid_rule_and_the_caveat(self, monkeypatch):
        assert [cid for cid, c in CHECKERS.items() if c.takes_q] == [
            "renyi_concavity", "tsallis_concavity"
        ]
        cfg = ScanConfig(seed=0, n_range=(2, 3), instance_count=4,
                         inequality_set=("log_concavity",), q_grid=(2.5, 4.0))
        report = run_scan(cfg)
        assert (set(report.worst_margins), report.caveat) == ({"log_concavity"}, None)
        monkeypatch.setitem(CHECKERS, "log_concavity",
                            CHECKERS["log_concavity"]._replace(takes_q=True))
        with pytest.raises(ValueError, match="need a q_grid"):
            ScanConfig(seed=0, inequality_set=("log_concavity",))
        report = run_scan(cfg)
        assert set(report.worst_margins) == {"log_concavity[q=2.5]", "log_concavity[q=4.0]"}
        assert report.caveat == explorer.OVERESTIMATE_CAVEAT

    @pytest.mark.parametrize("checks, n, chunk", [
        (LADDER_CHECKS, 12, 59),
        (("uk_nonneg", "entropy_concavity", "hessian_psd"), 12, 48),
        (SHANNON_SUITE, 8, 101),
        (SHANNON_SUITE, 20, 14),
        (("log_concavity", "two_fold_log_concavity"), 200, 10),
    ])
    def test_group_chunks_follow_the_largest_row_bytes(self, checks, n, chunk):
        cfg = ScanConfig(seed=0, n_range=(n, n), instance_count=2 * chunk + 1,
                         inequality_set=checks)
        assert [g.index.tolist() for g in explorer._groups(cfg)] == [
            list(range(chunk)), list(range(chunk, 2 * chunk)), [2 * chunk]
        ]
        assert chunk == explorer._GROUP_BYTES // max(CHECKERS[c].row_bytes(n) for c in checks)

    def test_row_bytes(self):
        floats = {cid: c.row_bytes(12) // 8 for cid, c in CHECKERS.items()}
        assert floats == {cid: 32 * 13 for cid in CHECKERS} | {
            "hessian_psd": 8 * 13 * 13, "cij": (1 + 12 + 66) * 14
        }

    def test_pair_checkers_skip_n_one(self):
        params, slopes = ParamVector(np.array([0.3])), np.array([0.7])
        skipped = {cid for cid in CHECKER_IDS if evaluate_checker(cid, params, slopes, 2.5) is None}
        assert skipped == {"cij", "condition4", "corollary_fgh", "uk_nonneg"}

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            evaluate_checker("not_a_checker", ParamVector(np.array([0.3])), np.zeros(1))

    @pytest.mark.parametrize("cid", [c for c in CHECKER_IDS if c != "cij"] + [
        "entropy_hessian", "path_derivatives", "check_monotone_worst_case", "compute_cij",
        "estimate_critical_q",
    ])
    def test_pmf_only_checker_never_builds_leave_structures(self, cid, monkeypatch):
        # Only cij reads leave-two-out pmfs; everything else runs on f, g, h and the
        # Hessian's adjoint pass, and compute_cij convolves its one pair's kept components.
        _refuse_leave_two_out(monkeypatch, cid)
        params, slopes = ParamVector(np.array([0.3, 0.6, 0.45])), np.array([1.0, -0.5, 0.2])
        if cid in CHECKERS:
            report = evaluate_checker(cid, params, slopes, 2.5)
            if cid in ("log_concavity", "two_fold_log_concavity", "c1", "c1bar"):
                f = pmf.compute_pmf(params).values[None]
                want = getattr(inequalities, f"stacked_{cid}")(f).values[0]
                assert report.values.tobytes() == want.tobytes()
        elif cid == "entropy_hessian":
            assert calculus.entropy_hessian(params).max_eigenvalue < 0.0
        elif cid == "path_derivatives":
            assert calculus.path_derivatives(params, slopes).h.shape == (2,)
        elif cid == "check_monotone_worst_case":
            assert inequalities.check_monotone_worst_case(params, np.abs(slopes)).holds
        elif cid == "compute_cij":
            assert inequalities.compute_cij(params, 2, 0, 1) <= 0.0
        else:
            cfg = ScanConfig(seed=0, n_range=(1, 2), instance_count=9)
            result = estimate_critical_q(cfg, "binomial2", "tsallis", (3.5, 3.8))
            assert 3.5 < result.root < 3.8

    def test_cij_builds_its_rows_through_the_refused_builder(self, monkeypatch):
        _refuse_leave_two_out(monkeypatch, "cij")
        with pytest.raises(AssertionError, match="built for cij"):
            evaluate_checker("cij", ParamVector(np.array([0.3, 0.6])), np.ones(2))

    def test_functions_looked_up_at_call_time(self, monkeypatch):
        # A tracer rebinds module attributes; the table must call the rebound kernels.
        marker = inequalities.Margins(np.array([[1.0]]), None)
        monkeypatch.setattr(inequalities, "stacked_c1", lambda f: marker)
        monkeypatch.setattr(qentropy, "basis_q_curvature", lambda *args: np.array([42.0]))
        params, slopes = ParamVector(np.array([0.3, 0.6])), np.array([1.0, -0.5])
        report = evaluate_checker("c1", params, slopes)
        assert (report.name, report.values.tolist(), report.tolerance) == ("c1", [1.0], 1e-9)
        assert evaluate_checker("tsallis_concavity", params, slopes, 3.0).worst == -42.0


class TestSampling:
    def test_deterministic_in_seed_and_index(self):
        cfg = ScanConfig(seed=5, n_range=(1, 12))
        a = sample_instance(cfg, 17)
        b = sample_instance(cfg, 17)
        assert a.p == b.p and a.slopes == b.slopes

    def test_respects_interior_margin_and_norm(self):
        cfg = ScanConfig(seed=5, n_range=(1, 12), interior_margin=0.2)
        for i in range(50):
            inst = sample_instance(cfg, i)
            assert all(0.2 <= v <= 0.8 for v in inst.p)
            assert max(abs(s) for s in inst.slopes) == pytest.approx(1.0)

    def test_monotone_distribution_nonnegative(self):
        cfg = ScanConfig(seed=5, slope_distribution="monotone_unit")
        for i in range(20):
            assert all(s >= 0.0 for s in sample_instance(cfg, i).slopes)


class TestRunScan:
    def test_shannon_suite_finds_nothing(self):
        cfg = ScanConfig(seed=42, n_range=(2, 8), instance_count=300)
        report = run_scan(cfg)
        assert report.certificates == ()
        for key, entry in report.worst_margins.items():
            assert entry["margin"] > -1e-9, key

    def test_byte_identical_reports(self):
        cfg = ScanConfig(seed=42, n_range=(2, 6), instance_count=100)
        assert run_scan(cfg).to_json() == run_scan(cfg).to_json()

    def test_renyi_violation_found_near_boundary(self):
        cfg = ScanConfig(
            seed=1,
            n_range=(1, 1),
            instance_count=25,
            family="bernoulli",
            inequality_set=("renyi_concavity",),
            q_grid=(2.5,),
        )
        report = run_scan(cfg)
        assert len(report.certificates) >= 1
        assert any(c.p[0] <= 1e-3 for c in report.certificates)
        assert report.caveat is not None

    def test_tsallis_violation_found_above_threshold(self):
        cfg = ScanConfig(
            seed=1,
            n_range=(2, 2),
            instance_count=49,
            family="binomial2",
            inequality_set=("tsallis_concavity",),
            q_grid=(4.0,),
        )
        report = run_scan(cfg)
        assert len(report.certificates) >= 1
        worst = report.worst_margins["tsallis_concavity[q=4.0]"]["margin"]
        assert worst == pytest.approx(-1.0 / 12.0, rel=1e-6)

    def test_certificates_reevaluate_exactly(self):
        cfg = ScanConfig(
            seed=9,
            n_range=(1, 1),
            instance_count=12,
            family="bernoulli",
            inequality_set=("renyi_concavity",),
            q_grid=(2.5,),
        )
        report = run_scan(cfg)
        assert report.certificates
        for cert in report.certificates:
            assert cert.reeval_margin == cert.margin
            assert abs(oracle.reevaluate_certificate(cert) - cert.margin) <= 1e-12

    def test_margin_rows_collected_on_demand(self):
        cfg = ScanConfig(seed=3, n_range=(2, 3), instance_count=5,
                         inequality_set=("log_concavity",))
        assert run_scan(cfg).margin_rows is None
        rows = run_scan(cfg, collect_margins=True).margin_rows
        assert rows and all(len(r) == 4 for r in rows)

    def test_n_one_instances_skip_pair_checkers(self):
        cfg = ScanConfig(seed=3, n_range=(1, 1), instance_count=5,
                         inequality_set=SHANNON_SUITE)
        report = run_scan(cfg)
        assert "condition4" not in report.worst_margins
        assert "entropy_concavity" in report.worst_margins


class TestEstimateCriticalQ:
    def test_tsallis_binomial2(self):
        cfg = ScanConfig(seed=3, instance_count=49, n_range=(1, 2))
        res = estimate_critical_q(cfg, "binomial2", "tsallis", (3.5, 3.8))
        assert res.root == pytest.approx(3.65986, abs=1e-3)
        assert res.caveat is not None

    def test_renyi_bernoulli(self):
        cfg = ScanConfig(seed=3, instance_count=25, n_range=(1, 1))
        res = estimate_critical_q(cfg, "bernoulli", "renyi", (1.5, 2.5))
        assert res.root == pytest.approx(2.0, abs=1e-3)

    def test_shannon_predicate_constant(self):
        cfg = ScanConfig(seed=3, instance_count=9, n_range=(1, 2))
        with pytest.raises(ValueError):
            estimate_critical_q(cfg, "binomial2", "shannon", (0.5, 2.0))

    def test_sign_trace_brackets_root(self):
        cfg = ScanConfig(seed=3, instance_count=49, n_range=(1, 2))
        res = estimate_critical_q(cfg, "binomial2", "tsallis", (3.5, 3.8))
        assert res.sign_trace[0][1] == -1
        assert res.sign_trace[1][1] == 1
        assert res.bracket[0] <= res.root <= res.bracket[1]


class TestPlantedFaultsAreCaught:
    """A kernel whose margins depend on the stack height fails the re-check of its cut rows."""

    def test_q_kernel(self, monkeypatch):
        kernel = qentropy.basis_q_curvature

        def faulty(basis, spec):
            return kernel(basis, spec) + 1e-9 * len(basis.f)

        cfg = ScanConfig(seed=9, n_range=(1, 1), instance_count=12, family="bernoulli",
                         inequality_set=("renyi_concavity",), q_grid=(2.5,))
        # Some rows but not all are cut, so the re-checked stack is lower.
        assert 0 < len(run_scan(cfg).certificates) < cfg.instance_count
        monkeypatch.setattr(qentropy, "basis_q_curvature", faulty)
        with pytest.raises(ConsistencyError, match="^certificate does not reproduce"):
            run_scan(cfg)
        # The estimator re-checks the cuts of its last +1 probe, in one group or in two.
        for case, family, kind, bracket in (
            (cfg, "bernoulli", "renyi", (1.5, 2.5)),
            (replace(cfg, instance_count=49), "binomial2", "tsallis", (3.5, 3.8)),
            (replace(cfg, n_range=(1, 2)), "random_affine", "renyi", (1.5, 2.5)),
        ):
            with pytest.raises(ConsistencyError, match="^certificate does not reproduce"):
                estimate_critical_q(case, family, kind, bracket)

    def test_ladder_kernel(self, monkeypatch):
        kernel = inequalities.stacked_condition4

        def faulty(f, g, h):
            margins = kernel(f, g, h)
            values = margins.values.copy()
            values[0] -= len(values)  # row 0 alone is cut, by as much as the stack is high
            return margins._replace(values=values)

        cfg = ScanConfig(seed=4, n_range=(6, 6), instance_count=3,
                         inequality_set=("condition4",))
        assert not run_scan(cfg).certificates
        monkeypatch.setattr(inequalities, "stacked_condition4", faulty)
        with pytest.raises(ConsistencyError, match="^certificate does not reproduce"):
            run_scan(cfg)

    def test_a_certificate_checks_its_margin_as_the_recheck_does(self):
        fields = dict(config_hash="0" * 64, instance_index=0, inequality="condition4", p=(0.5,),
                      slopes=(1.0,), t=0.0, q=None, k=0)
        explorer.CounterexampleCertificate(**fields, margin=-1.0, reeval_margin=-1.0 + 1e-13)
        with pytest.raises(ConsistencyError) as caught:
            explorer.CounterexampleCertificate(**fields, margin=-1.0, reeval_margin=-0.5)
        assert str(caught.value) == "certificate does not reproduce: -1.0 vs -0.5"
        with pytest.raises(ConsistencyError, match="^certificate does not reproduce: -1.0 vs nan$"):
            explorer.CounterexampleCertificate(**fields, margin=-1.0, reeval_margin=math.nan)

    def test_a_nan_reevaluation_does_not_reproduce(self, monkeypatch):
        kernel = inequalities.stacked_condition4

        def faulty(f, g, h):
            margins = kernel(f, g, h)
            values = margins.values.copy()
            values[0] = -1.0 if len(values) > 1 else math.nan  # NaN on the rebuilt cut row
            return margins._replace(values=values)

        cfg = ScanConfig(seed=4, n_range=(6, 6), instance_count=3,
                         inequality_set=("condition4",))
        monkeypatch.setattr(inequalities, "stacked_condition4", faulty)
        with pytest.raises(ConsistencyError, match="^certificate does not reproduce: -1.0 vs nan$"):
            run_scan(cfg)


def _outcome(fn, *args):
    """(root, sign trace) of a bisection, or the type and message of what it raised."""
    try:
        result = fn(*args)
    except ValueError as exc:  # BoundaryError included
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result
    return result.root, result.sign_trace


# (family, n_range): binomial_n takes n = max(n_range), up to 8.
ORACLE_FAMILIES = [
    ("bernoulli", (1, 1)),
    ("binomial2", (1, 2)),
    ("random_affine", (1, 4)),
    ("binomial_n", (1, 3)),
    ("binomial_n", (1, 5)),
    ("binomial_n", (1, 8)),
]
ORACLE_BRACKETS = {"renyi": (1.5, 3.5), "tsallis": (3.0, 5.0)}


class TestEstimatorMatchesScanBisection:
    """The stacked estimator against the bisection driven by one run_scan per step."""

    @pytest.mark.parametrize("seed", (0, 3, 7))
    @pytest.mark.parametrize("kind", ("renyi", "tsallis"))
    @pytest.mark.parametrize("family,n_range", ORACLE_FAMILIES)
    def test_same_root_trace_and_certificates(self, family, n_range, kind, seed):
        cfg = ScanConfig(seed=seed, n_range=n_range, instance_count=17)
        bracket = ORACLE_BRACKETS[kind]
        steps = []
        want = _outcome(oracle.bisect_by_scans, cfg, family, kind, bracket, 1e-7, steps)
        assert _outcome(estimate_critical_q, cfg, family, kind, bracket) == want
        base = replace(cfg, family=family)
        groups = list(explorer._groups(base))
        for q, certificates in steps:
            scan = replace(base, inequality_set=(f"{kind}_concavity",), q_grid=(q,))
            cuts = [cut for group, group_cuts in explorer._scan(explorer._keys(scan), groups, {})
                    for cut in explorer._recheck(group, group_cuts)]
            got = explorer._certificates(scan.config_hash(), cuts)
            assert [c.to_dict() for c in got] == [c.to_dict() for c in certificates], q

    @pytest.mark.parametrize(
        "family,kind,bracket,n_range,count",
        [
            ("binomial2", "shannon", (0.5, 2.0), (1, 2), 17),
            ("bernoulli", "shannon", (0.5, 2.0), (1, 1), 17),
            ("bernoulli", "tsallis", (3.0, 4.5), (1, 1), 17),  # constant predicate
            ("binomial2", "tsallis", (0.2, 0.4), (1, 2), 17),  # constant predicate
            ("bernoulli", "renyi", (-1.0, 2.5), (1, 1), 17),  # EntropySpec rejects q
            ("bernoulli", "renyi", (2.5, 1.5), (1, 1), 17),  # empty bracket
            # t = 0.02 and n = 200: the top mass underflows to zero.
            ("binomial_n", "renyi", (1.5, 3.5), (1, 200), 2),
            ("binomial_n", "tsallis", (3.0, 5.0), (1, 200), 2),
            ("binomial_n", "shannon", (0.5, 2.0), (1, 200), 2),
        ],
    )
    def test_same_exception(self, family, kind, bracket, n_range, count):
        cfg = ScanConfig(seed=3, n_range=n_range, instance_count=count)
        want = _outcome(oracle.bisect_by_scans, cfg, family, kind, bracket)
        assert isinstance(want[0], type)
        assert _outcome(estimate_critical_q, cfg, family, kind, bracket) == want

    def test_per_root_state_holds_no_leave_structures(self, monkeypatch):
        # A root builds no leave-out structure (~0.9 MB an instance at n = 60). What
        # it holds grows with the instance count only by each instance's rows: its p,
        # slopes, f, g and h and the curvature kernel's temporaries, which _groups
        # budgets as 32 rows of n + 1 floats.
        _refuse_leave_two_out(monkeypatch, "a critical-q root")

        def peak(count: int) -> int:
            cfg = ScanConfig(seed=0, n_range=(1, 60), instance_count=count)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="constant"):
                    estimate_critical_q(cfg, "binomial_n", "tsallis", (3.0, 5.0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(9)  # first-call caches out of the way
        growth = peak(49) - peak(9)
        assert growth <= 40 * 32 * 8 * 61

    def test_kernel_looked_up_at_call_time(self, monkeypatch):
        # A tracer rebinds module attributes; the estimator must call the rebound kernel.
        calls = []

        def kernel(basis, spec):
            calls.append(basis.f.shape)
            return -np.ones(basis.f.shape[0])

        monkeypatch.setattr(qentropy, "basis_q_curvature", kernel)
        cfg = ScanConfig(seed=0, n_range=(1, 2), instance_count=5)
        with pytest.raises(ValueError, match="constant"):
            estimate_critical_q(cfg, "binomial2", "tsallis", (3.5, 3.8))
        assert calls == [(5, 3), (5, 3)]


def _scan_outputs(scan, config):
    """The JSON report and the CSV rows of a scan, or the type and message of what it raised."""
    try:
        report = scan(config, collect_margins=True)
    except (ValueError, RuntimeError) as exc:  # BoundaryError and ConsistencyError included
        return type(exc), str(exc)
    return report.to_json(), inequalities.rows_to_csv(report.margin_rows)


GROUPED_SCAN_CASES = {
    # Interleaved n, so the groups come back in a different order than the instances.
    "random_affine_1_12": ScanConfig(seed=5, n_range=(1, 12), instance_count=120),
    "random_affine_2_8": ScanConfig(seed=6, n_range=(2, 8), instance_count=90),
    # q checkers that cut certificates, re-evaluated per group.
    "renyi_bernoulli": ScanConfig(seed=1, n_range=(1, 1), instance_count=25, family="bernoulli",
                                  inequality_set=("renyi_concavity",), q_grid=(2.5, 1.5)),
    "tsallis_binomial2": ScanConfig(seed=1, n_range=(2, 2), instance_count=49,
                                    family="binomial2", inequality_set=CHECKER_IDS,
                                    q_grid=(4.0, 3.0)),
    "q_grid_random": ScanConfig(seed=3, n_range=(1, 5), instance_count=60,
                                inequality_set=("renyi_concavity", "tsallis_concavity",
                                                "uk_nonneg", "cij"),
                                q_grid=(1.5, 2.5, 3.9, 4.5)),
    # Fixed t grids: on binomial2 all 49 hessian_psd margins tie at -ln 4.
    "bernoulli": ScanConfig(seed=1, n_range=(1, 1), instance_count=49, family="bernoulli"),
    "binomial2": ScanConfig(seed=1, n_range=(2, 2), instance_count=49, family="binomial2"),
    "binomial_n": ScanConfig(seed=1, n_range=(1, 7), instance_count=49, family="binomial_n"),
    # Raise at n = 200: the two-fold identity check, and at t = 0.02 underflowed masses.
    "two_fold_n200": ScanConfig(seed=0, n_range=(200, 200), instance_count=20,
                                family="binomial_n",
                                inequality_set=("log_concavity", "two_fold_log_concavity")),
    "uk_n200": ScanConfig(seed=0, n_range=(200, 200), instance_count=2, family="binomial_n",
                          inequality_set=("uk_nonneg",)),
}


class TestGroupedScanMatchesInstanceLoop:
    """run_scan against the scan written as a loop over instances and evaluate_checker."""

    @pytest.mark.parametrize("case", GROUPED_SCAN_CASES)
    def test_same_json_and_csv(self, case):
        config = GROUPED_SCAN_CASES[case]
        want = _scan_outputs(oracle.scan_by_instance, config)
        assert _scan_outputs(run_scan, config) == want

    def test_cases_cover_certificates_ties_and_errors(self):
        assert run_scan(GROUPED_SCAN_CASES["renyi_bernoulli"]).certificates
        assert run_scan(GROUPED_SCAN_CASES["tsallis_binomial2"]).certificates
        binomial2 = oracle.scan_by_instance(GROUPED_SCAN_CASES["binomial2"])
        assert binomial2.worst_margins["hessian_psd"]["margin"] == pytest.approx(-np.log(0.25))
        with pytest.raises(ConsistencyError, match="two-fold margin forms disagree at k=50"):
            run_scan(GROUPED_SCAN_CASES["two_fold_n200"])
        with pytest.raises(BoundaryError, match="^zero mass on the support"):
            run_scan(GROUPED_SCAN_CASES["uk_n200"])

    def test_checker_kernels_give_every_row_its_one_row_bits(self):
        cfg = ScanConfig(seed=8, n_range=(5, 5), instance_count=7,
                         inequality_set=CHECKER_IDS, q_grid=(2.5,))
        insts = oracle.family_instances(cfg)
        group = oracle.stack(insts)
        for cid in CHECKER_IDS:
            stacked = CHECKERS[cid].kernel(group, 2.5)
            for row, inst in enumerate(insts):
                alone = evaluate_checker(cid, ParamVector(np.array(inst.p)),
                                         np.array(inst.slopes), 2.5)
                assert stacked.values[row].tobytes() == alone.values.tobytes(), cid
                assert float(stacked.tolerance[row]) == alone.tolerance, cid
                one_row = CHECKERS[cid].kernel(
                    explorer.Group.row(ParamVector(np.array(inst.p)), np.array(inst.slopes)), 2.5)
                if stacked.scale is None:
                    assert one_row.scale is None, cid
                else:
                    assert stacked.scale.shape == stacked.values.shape, cid
                    assert stacked.scale[row].tobytes() == one_row.scale[0].tobytes(), cid


class TestGroupMemory:
    def test_pmf_only_scan_never_builds_leave_structures(self, monkeypatch):
        _refuse_leave_two_out(monkeypatch, "pmf-only checkers")
        cfg = ScanConfig(seed=0, n_range=(200, 200), instance_count=5, family="binomial_n",
                         inequality_set=("log_concavity", "c1", "c1bar"))
        assert set(run_scan(cfg).worst_margins) == {"log_concavity", "c1", "c1bar"}
        with pytest.raises(ConsistencyError):
            run_scan(replace(cfg, inequality_set=("two_fold_log_concavity",)))

    def test_scan_peak_does_not_grow_with_instance_count(self):
        def peak(count: int) -> int:
            cfg = ScanConfig(seed=0, n_range=(40, 40), instance_count=count)
            tracemalloc.start()
            try:
                run_scan(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400) <= 1.5 * peak(10)


class TestVerifyDecomposesOnce:
    def test_one_uk_decomposition_per_verify(self, monkeypatch, capsys):
        calls = []
        kernel = inequalities.stacked_uk

        def counting(f, g, h):
            calls.append(f.shape)
            return kernel(f, g, h)

        monkeypatch.setattr(inequalities, "stacked_uk", counting)
        argv = ["verify", "--p", "0.2,0.5,0.7", "--slopes", "1,-0.5,0.3", "--format", "json"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert calls == [(1, 4)]
        uk = next(c for c in report["checks"] if c["name"] == "uk_nonneg")
        assert [m for _, m in uk["margins"]] == [t["u"] for t in report["uk"]["terms"]]


class TestRowMinima:
    def test_rows_with_nan_follow_first_min(self):
        rng = np.random.default_rng(12)
        values = rng.choice([-1.0, 0.5, 2.0, np.nan], (400, 5))
        values[:, 0] = np.where(rng.random(400) < 0.5, np.nan, values[:, 0])
        pos, worst = inequalities._verdict(values, 0.0)[:2]
        assert pos.tolist() == [oracle.min_position(row) for row in values.tolist()]
        assert worst.tobytes() == values[np.arange(len(values)), pos].tobytes()
        assert any(np.isnan(v).any() and not np.isnan(v[p]) for v, p in zip(values, pos))

    def test_a_cut_ladder_margin_is_evaluated_again(self):
        cfg = ScanConfig(seed=4, n_range=(6, 6), instance_count=3,
                         inequality_set=("condition4",))
        group = oracle.stack(oracle.family_instances(cfg))
        margins = CHECKERS["condition4"].kernel(group, None).values
        pos = inequalities._verdict(margins, 0.0).pos
        rows = np.arange(len(margins))[::-1]
        worst = margins[rows, pos[rows]]
        cuts = explorer._recheck(group, [("condition4", None, rows, pos[rows], worst)])
        assert cuts[0].reeval.tolist() == worst.tolist()
        assert cuts[0].rows.index.tolist() == group.index[rows].tolist()
        assert not {"f", "fgh", "uk"} & cuts[0].rows.__dict__.keys()
        certificates = explorer._certificates(cfg.config_hash(), cuts)
        assert [c.instance_index for c in certificates] == sorted(group.index.tolist())
        assert [c.reeval_margin for c in certificates] == [
            oracle.reevaluate_certificate(c) for c in certificates
        ]

    def test_keys_cutting_different_rows_of_one_group(self):
        cfg = ScanConfig(seed=5, n_range=(6, 6), instance_count=5,
                         inequality_set=("condition4", "cij"))
        group = oracle.stack(oracle.family_instances(cfg))
        picks = {"condition4": np.array([3, 0, 4]), "cij": np.array([1, 3])}
        cuts = []
        for cid, rows in picks.items():
            margins = CHECKERS[cid].kernel(group, None).values
            pos = inequalities._verdict(margins, 0.0).pos
            cuts.append((cid, None, rows, pos[rows], margins[rows, pos[rows]]))
        records = explorer._recheck(group, cuts)
        assert [r.cid for r in records] == list(picks)
        for record, (cid, _, rows, k, worst) in zip(records, cuts):
            assert record.reeval.tobytes() == worst.tobytes()
            assert record.rows.index.tolist() == group.index[rows].tolist()
            assert record.k.tolist() == k.tolist()


class TestWorstMarginMerge:
    def test_groups_in_any_order_give_the_sequential_pick(self):
        # The scan keeps the first row and replaces it by any smaller margin:
        # a leading NaN sticks, later NaNs never win, ties go to the lowest index.
        rng = np.random.default_rng(11)
        for trial in range(300):
            count = int(rng.integers(1, 12))
            worst = rng.choice([-1.0, -0.5, 0.0, -0.0, 2.0, np.nan], count)
            want = None
            for i, w in enumerate(worst.tolist()):
                if want is None or w < want[1]:
                    want = (i, w)
            cuts = np.sort(rng.choice(np.arange(1, count), int(rng.integers(0, count)),
                                      replace=False)) if count > 1 else []
            groups = np.split(np.arange(count), cuts)
            rng.shuffle(groups)
            minimum = explorer._Minimum()
            for index in groups:
                minimum.add(index, worst[index], 10 * index)
            got = minimum.entry()
            assert got["instance_index"] == want[0], (worst, groups)
            assert got["k"] == 10 * want[0]
            assert np.array_equal(got["margin"], want[1], equal_nan=True)


# Rows of margins that exercise the row-minimum rule: K = 1 rows with NaNs,
# all-NaN rows and ties, -0.0 against 0.0 included.
ROW_MINIMUM_CASES = {
    "one_margin_rows_with_nans": [[np.nan], [-1.0], [np.nan], [2.0], [-1.0]],
    "all_nan_rows": [[np.nan, np.nan, np.nan], [np.nan, np.nan, np.nan]],
    "ties": [[0.5, -1.0, -1.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 3.0], [2.0, 2.0, 2.0]],
    "nan_rows_among_ties": [[np.nan, -1.0, -1.0], [-1.0, np.nan, -1.0], [-1.0, -1.0, np.nan]],
}


class TestRowMinimaMatchTheScalarOracle:
    @pytest.mark.parametrize("case", ROW_MINIMUM_CASES)
    def test_first_mins(self, case):
        values = np.array(ROW_MINIMUM_CASES[case])
        pos, worst = inequalities._verdict(values, 0.0)[:2]
        want = [oracle.min_position(row) for row in values.tolist()]
        assert pos.tolist() == want
        assert worst.tobytes() == np.array([row[p] for row, p in zip(values, want)]).tobytes()

    @pytest.mark.parametrize("case", ROW_MINIMUM_CASES)
    @pytest.mark.parametrize("column", (0, -1))
    def test_minimum_folds_groups_as_the_sequential_scan(self, case, column):
        # Each row's worst margin is one column of the case, folded in groups of two
        # rows, last group first: the merged pick is the scan's in index order.
        worst = np.array(ROW_MINIMUM_CASES[case])[:, column]
        index = np.arange(len(worst))
        minimum = explorer._Minimum()
        for rows in reversed(np.array_split(index, (len(worst) + 1) // 2)):
            minimum.add(rows, worst[rows], 10 * rows)
        got = minimum.entry()
        want = oracle.min_position(worst.tolist())
        assert (got["instance_index"], got["k"]) == (want, 10 * want)
        assert np.array(got["margin"]).tobytes() == worst[want].tobytes()

    def test_an_all_nan_group_keeps_the_least_of_the_others(self):
        minimum = explorer._Minimum()
        minimum.add(np.array([3, 4]), np.array([np.nan, np.nan]), np.array([0, 1]))
        minimum.add(np.array([0, 1, 2]), np.array([0.5, -2.0, -2.0]), np.array([5, 6, 7]))
        assert minimum.entry() == {"margin": -2.0, "instance_index": 1, "k": 6}


class TestFOncePerGroup:
    """A group checked by an f/g/h kernel takes its f from f, g and h and convolves p never."""

    def test_pmf_only_checker_first(self, monkeypatch):
        calls = []
        convolve = pmf._convolve_bernoullis

        def counting(p):
            calls.append(p.shape)
            return convolve(p)

        cfg = ScanConfig(seed=5, n_range=(1, 6), instance_count=40,
                         inequality_set=("log_concavity", "hessian_psd", "condition4"))
        want = run_scan(replace(cfg, inequality_set=cfg.inequality_set[::-1])).worst_margins
        monkeypatch.setattr(pmf, "_convolve_bernoullis", counting)
        report = run_scan(cfg)
        assert report.worst_margins == want
        # condition4 starts at n = 2, so the n = 1 group alone convolves its p.
        assert [shape[1] for shape in calls] == [1]
        calls.clear()
        run_scan(replace(cfg, inequality_set=("log_concavity",)))
        assert sorted({shape[1] for shape in calls}) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("argv", [
        ["--p", "0.2,0.5,0.7", "--slopes", "1,-0.5,0.3"],
        ["--p", "0.3"],
        ["--p", "0.1,0.4,0.6,0.9", "--slopes", "1,1,-1,0.25", "--t", "0.05"],
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_verify_never_convolves(self, monkeypatch, capsys, argv, fmt):
        calls = []
        convolve = pmf._convolve_bernoullis

        def counting(p):
            calls.append(p.shape)
            return convolve(p)

        monkeypatch.setattr(pmf, "_convolve_bernoullis", counting)
        assert cli.main(["verify", *argv, "--format", fmt]) == 0
        shared = capsys.readouterr().out
        assert calls == []
        # Without Group.prepare each checker that reads f convolves p; the bytes are the same.
        monkeypatch.setattr(explorer.Group, "prepare", lambda group, cids: group)
        assert cli.main(["verify", *argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == shared
        assert calls

    def test_checker_table_names_what_each_kernel_reads(self):
        assert {cid: c.reads for cid, c in CHECKERS.items() if c.reads != "fgh"} == {
            "log_concavity": "f", "two_fold_log_concavity": "f", "c1": "f", "c1bar": "f",
            "cij": "p", "hessian_psd": "f",
        }


class TestEstimatorBuildsOneConfigPerRoot:
    @pytest.mark.parametrize("family,kind,bracket", [
        ("bernoulli", "renyi", (1.5, 2.5)),
        ("binomial2", "tsallis", (3.5, 3.8)),
    ])
    def test_one_scan_config_per_root(self, monkeypatch, family, kind, bracket):
        cfg = ScanConfig(seed=0, n_range=(1, 2), instance_count=49)
        built = []
        post_init = ScanConfig.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ScanConfig, "__post_init__", counting)
        result = estimate_critical_q(cfg, family, kind, bracket)
        assert len(result.sign_trace) > 20
        assert [(c.family, c.inequality_set) for c in built] == [(family, (f"{kind}_concavity",))]


class TestEstimatorRechecksItsRootOnce:
    """The estimator re-checks the cuts of its last +1 probe, the ones run_scan certifies there."""

    @pytest.mark.parametrize("family,kind,bracket", [
        ("bernoulli", "renyi", (1.5, 2.5)),
        ("binomial2", "tsallis", (3.5, 3.8)),
        ("random_affine", "renyi", (1.5, 2.5)),  # two groups, n = 1 and n = 2
    ])
    def test_one_recheck_per_root_of_the_cuts_run_scan_certifies(
        self, monkeypatch, family, kind, bracket
    ):
        cfg = ScanConfig(seed=0, n_range=(1, 2), instance_count=49)
        cid = f"{kind}_concavity"
        groups = explorer._groups(replace(cfg, family=family, inequality_set=(cid,), q_grid=(2.0,)))
        assert len(list(groups)) == (2 if family == "random_affine" else 1)
        calls = []
        recheck = explorer._recheck

        def spy(group, cuts):
            calls.append([(cid, q, group.index[rows], k) for cid, q, rows, k, _ in cuts])
            return recheck(group, cuts)

        monkeypatch.setattr(explorer, "_recheck", spy)
        result = estimate_critical_q(cfg, family, kind, bracket)
        monkeypatch.undo()
        assert len(calls) == 1
        last = [q for q, sign in result.sign_trace if sign == 1][-1]
        report = run_scan(replace(cfg, family=family, inequality_set=(cid,), q_grid=(last,)))
        [(got_cid, got_q, index, k)] = calls[0]
        assert (got_cid, got_q) == (cid, last)
        assert index.tolist() == [c.instance_index for c in report.certificates]
        assert k.tolist() == [c.k for c in report.certificates]


def _spy_on_q_basis(monkeypatch) -> list:
    """The f of every q basis built from here on, in build order."""
    built = []
    q_basis = qentropy.q_basis

    def counting(f, g, h):
        built.append(f)
        return q_basis(f, g, h)

    monkeypatch.setattr(qentropy, "q_basis", counting)
    return built


class TestEachGroupBuildsItsQBasisOnce:
    @pytest.mark.parametrize("family,kind,bracket", [
        ("bernoulli", "renyi", (1.5, 2.5)),
        ("binomial2", "tsallis", (3.5, 3.8)),
    ])
    def test_one_basis_per_root_and_one_per_recheck(self, monkeypatch, family, kind, bracket):
        cfg = ScanConfig(seed=0, n_range=(1, 2), instance_count=49)
        scan = replace(cfg, family=family, inequality_set=(f"{kind}_concavity",),
                       q_grid=(bracket[0],))
        assert len(list(explorer._groups(scan))) == 1
        built = _spy_on_q_basis(monkeypatch)
        result = estimate_critical_q(cfg, family, kind, bracket)
        # The group's basis once, then one for the re-check of the last +1 step's cut rows.
        assert 0 < sum(sign == 1 for _, sign in result.sign_trace) < len(result.sign_trace) - 1
        assert built[0].shape[0] == 49
        assert len(built) == 2
        assert built[1].shape[0] < 49
        assert len({id(f) for f in built}) == len(built)

    def test_a_q_grid_scan_builds_each_group_basis_once(self, monkeypatch):
        cfg = ScanConfig(seed=5, n_range=(1, 3), instance_count=80,
                         inequality_set=("tsallis_concavity", "renyi_concavity"),
                         q_grid=(0.5, 4.0, 10.0))
        groups = list(explorer._groups(cfg))
        assert [g.n for g in groups] == [1, 2, 3]
        built = _spy_on_q_basis(monkeypatch)
        report = run_scan(cfg)
        # One basis per group for all six keys, then one per key whose rows the group cuts,
        # built from those rows alone.
        cut = [(c.inequality, c.q, len(c.p)) for c in report.certificates]
        want = []
        for g in groups:
            want.append((g.p.shape[0], g.n + 1))
            for cid, q, _ in explorer._keys(cfg):
                rows = cut.count((cid, q, g.n))
                want += [(rows, g.n + 1)] if rows else []
        assert len(want) > len(groups)
        assert [f.shape for f in built] == want
        assert len({id(f) for f in built}) == len(built)
