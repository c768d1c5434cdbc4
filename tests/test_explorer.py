"""Scan determinism, certificate soundness, and empirical critical q."""

import numpy as np
import pytest

from entropath import inequalities, qentropy
from entropath.explorer import (
    CHECKER_IDS,
    CHECKERS,
    SHANNON_SUITE,
    ScanConfig,
    SplitMix64,
    estimate_critical_q,
    evaluate_checker,
    instance_rng,
    reevaluate_certificate,
    run_scan,
    sample_instance,
)
from entropath.pmf import ParamVector


class TestSplitMix64:
    def test_reference_stream_for_seed_zero(self):
        # First outputs of the published generator for seed 0.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniform_range(self):
        rng = SplitMix64(12345)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        draws_open = [rng.uniform_open() for _ in range(1000)]
        assert all(0.0 < u < 1.0 for u in draws_open)

    def test_instance_streams_are_counter_based(self):
        a = instance_rng(99, 5).next_u64()
        b = instance_rng(99, 5).next_u64()
        c = instance_rng(99, 6).next_u64()
        assert a == b
        assert a != c


class TestScanConfig:
    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, instance_count=0)

    def test_unknown_checker_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, inequality_set=("not_a_checker",))

    def test_q_checker_needs_grid(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, inequality_set=("renyi_concavity",))

    def test_bad_interior_margin(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, interior_margin=0.6)

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

    def test_pair_checkers_skip_n_one(self):
        params, slopes = ParamVector(np.array([0.3])), np.array([0.7])
        skipped = {cid for cid in CHECKER_IDS if evaluate_checker(cid, params, slopes, 2.5) is None}
        assert skipped == {"cij", "condition4", "corollary_fgh", "uk_nonneg"}

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            evaluate_checker("not_a_checker", ParamVector(np.array([0.3])), np.zeros(1))

    def test_functions_looked_up_at_call_time(self, monkeypatch):
        # A tracer rebinds module attributes; the table must call the rebound ones.
        marker = inequalities.MarginReport.build("marker", [(0, 1.0)], 1e-9)
        monkeypatch.setattr(inequalities, "check_c1", lambda f: marker)
        monkeypatch.setattr(qentropy, "q_curvature", lambda params, slopes, spec: 42.0)
        params, slopes = ParamVector(np.array([0.3, 0.6])), np.array([1.0, -0.5])
        assert evaluate_checker("c1", params, slopes) is marker
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
            assert abs(reevaluate_certificate(cert) - cert.margin) <= 1e-12

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
