"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1 and 2 share one seeded stream of 10^4 instances with n in [1, 12]
and interior margin 1e-3. Run with `pytest -v` (the pyproject addopts surface
the printed lines for passing tests too).
"""

import math
import time

import numpy as np
import pytest

from entropath.calculus import (
    AffinePath,
    entropy_curvature,
    entropy_hessian,
    path_at,
    shannon_entropy,
)
from entropath.errors import LemmaHypothesisError
from entropath.explorer import Group, ScanConfig, group_report, run_scan, sample_instance
from entropath.inequalities import (
    X_LOG_X,
    c1_product_identity_residual,
    check_functional_lemma,
    check_monotone_worst_case,
)
from entropath.numdiff import central_first, central_second
from entropath.pmf import ParamVector, compute_pmf
from scalar_oracle import binomial2_tsallis_fd_probe, brute_force_pmf, reevaluate_certificate
from entropath.qentropy import (
    EntropySpec,
    binomial2_tsallis_curvature,
    find_critical_q,
    power_sum_derivatives,
    q_curvature,
)

ACCEPTANCE_SEED = 20260808
INSTANCE_COUNT = 10_000
Q_STAR = 3.65986
LADDER = ("log_concavity", "two_fold_log_concavity", "c1", "c1bar", "condition4",
          "corollary_fgh", "cij")


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


@pytest.fixture(scope="module")
def theorem_instances():
    cfg = ScanConfig(
        seed=ACCEPTANCE_SEED,
        n_range=(1, 12),
        instance_count=INSTANCE_COUNT,
        interior_margin=1e-3,
    )
    return [sample_instance(cfg, i) for i in range(cfg.instance_count)]


def _rel_gap(a, b, floor=1.0) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), floor)
    return float(np.abs(a - b).max()) / scale


def test_criterion_1_theorem_reproduction(theorem_instances):
    """u_k >= -1e-9, H'' <= 1e-9 and Hessian top eigenvalue <= 1e-9, under 60 s."""
    started = time.perf_counter()
    worst_u = math.inf
    worst_curvature = -math.inf
    worst_eigenvalue = -math.inf
    for inst in theorem_instances:
        params = ParamVector(np.array(inst.p))
        slopes = np.array(inst.slopes)
        if params.n >= 2:
            dec = Group.row(params, slopes).uk.row(0)
            if dec.terms:
                worst_u = min(worst_u, min(t.u for t in dec.terms))
        worst_curvature = max(worst_curvature, entropy_curvature(params, slopes))
        worst_eigenvalue = max(worst_eigenvalue, entropy_hessian(params).max_eigenvalue)
    elapsed = time.perf_counter() - started
    ok = worst_u >= -1e-9 and worst_curvature <= 1e-9 and worst_eigenvalue <= 1e-9
    ok = ok and elapsed < 60.0
    _verdict(
        ok,
        "criterion 1 (theorem reproduction)",
        f"{INSTANCE_COUNT} instances, min u_k={worst_u:.3e}, max H''={worst_curvature:.3e}, "
        f"max eigenvalue={worst_eigenvalue:.3e}, {elapsed:.1f}s",
    )
    assert worst_u >= -1e-9
    assert worst_curvature <= 1e-9
    assert worst_eigenvalue <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_inequality_ladder(theorem_instances):
    """The full ladder holds on the same instances; product identity to 1e-10."""
    worst_margin = math.inf
    worst_residual = 0.0
    all_hold = True
    for inst in theorem_instances:
        params = ParamVector(np.array(inst.p))
        slopes = np.array(inst.slopes)
        f = compute_pmf(params)
        group = Group.row(params, slopes)
        reports = [group_report(cid, group) for cid in LADDER]
        for rep in filter(None, reports):  # the pair checkers skip n = 1
            all_hold = all_hold and rep.holds
            if rep.margins:
                worst_margin = min(worst_margin, rep.worst)
        worst_residual = max(worst_residual, c1_product_identity_residual(f))
    ok = all_hold and worst_residual <= 1e-10
    _verdict(
        ok,
        "criterion 2 (inequality ladder)",
        f"all checkers hold={all_hold}, worst margin={worst_margin:.3e}, "
        f"product identity residual={worst_residual:.3e}",
    )
    assert all_hold
    assert worst_residual <= 1e-10


def test_criterion_3_derivative_oracles():
    """Analytic df/dt, d2f/dt2, H'', T', T'' vs centered differences, 1e-5 relative."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    q_cycle = (0.5, 1.7, 2.5)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 11))
        p = rng.uniform(0.05, 0.95, n)
        s = rng.uniform(-1.0, 1.0, n)
        s /= max(np.abs(s).max(), 1e-12)
        path = AffinePath(ParamVector(p), s)

        def pmf_at(t):
            return compute_pmf(path_at(path, t)).values

        from entropath.calculus import pmf_second_time_derivative, pmf_time_derivative

        worst = max(worst, _rel_gap(pmf_time_derivative(path, 0.0), central_first(pmf_at, 0.0, 1e-5)))
        worst = max(
            worst,
            _rel_gap(pmf_second_time_derivative(path, 0.0), central_second(pmf_at, 0.0, 1e-4)),
        )
        worst = max(
            worst,
            _rel_gap(
                entropy_curvature(ParamVector(p), s),
                central_second(lambda t: shannon_entropy(compute_pmf(path_at(path, t))), 0.0, 1e-4),
            ),
        )
        q = q_cycle[i % 3]

        def power_sum(t):
            return float((pmf_at(t) ** q).sum())

        _, t1, t2 = power_sum_derivatives(ParamVector(p), s, q)
        worst = max(worst, _rel_gap(t1, central_first(power_sum, 0.0, 1e-5)))
        worst = max(worst, _rel_gap(t2, central_second(power_sum, 0.0, 1e-4)))
    ok = worst <= 1e-5
    _verdict(
        ok,
        "criterion 3 (derivative oracles)",
        f"1000 paths, worst relative finite-difference gap={worst:.3e}",
    )
    assert worst <= 1e-5


def test_criterion_4_critical_constants():
    """Both probes hit the Tsallis threshold; the closed form matches at q = 1.5, 3, 4."""
    analytic = find_critical_q("analytic_tsallis", (3.5, 3.8))
    fd = find_critical_q("binomial2_tsallis_fd", (3.5, 3.8), probe=binomial2_tsallis_fd_probe)
    closed = find_critical_q("binomial2_tsallis", (3.5, 3.8), probe=binomial2_tsallis_curvature)
    pv = ParamVector(np.array([0.5, 0.5]))
    slopes = np.array([1.0, 1.0])
    gaps = {
        q: _rel_gap(
            q_curvature(pv, slopes, EntropySpec.tsallis(q)),
            binomial2_tsallis_curvature(q),
            floor=1e-12,
        )
        for q in (1.5, 3.0, 4.0)
    }
    ok = (
        abs(analytic.root - Q_STAR) <= 1e-5
        and abs(fd.root - Q_STAR) <= 1e-4
        and abs(closed.root - analytic.root) <= 1e-6
        and all(g <= 1e-6 for g in gaps.values())
        and binomial2_tsallis_curvature(3.0) == pytest.approx(-0.375, rel=1e-12)
        and binomial2_tsallis_curvature(4.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
    )
    _verdict(
        ok,
        "criterion 4 (critical constants)",
        f"analytic root={analytic.root:.7f}, fd root={fd.root:.7f}, "
        f"closed-form gaps={max(gaps.values()):.2e}",
    )
    assert abs(analytic.root - Q_STAR) <= 1e-5
    assert abs(fd.root - Q_STAR) <= 1e-4
    assert abs(closed.root - analytic.root) <= 1e-6
    for q, gap in gaps.items():
        assert gap <= 1e-6, f"closed form mismatch at q={q}"


def test_criterion_5_counterexample_existence():
    """Scans surface the known violations and their certificates reproduce."""
    renyi_cfg = ScanConfig(
        seed=ACCEPTANCE_SEED,
        n_range=(1, 1),
        instance_count=25,
        family="bernoulli",
        inequality_set=("renyi_concavity",),
        q_grid=(2.5,),
    )
    renyi_report = run_scan(renyi_cfg)
    renyi_hits = [c for c in renyi_report.certificates if c.p[0] <= 1e-3]
    tsallis_cfg = ScanConfig(
        seed=ACCEPTANCE_SEED,
        n_range=(2, 2),
        instance_count=49,
        family="binomial2",
        inequality_set=("tsallis_concavity",),
        q_grid=(4.0,),
    )
    tsallis_report = run_scan(tsallis_cfg)
    certs = list(renyi_report.certificates) + list(tsallis_report.certificates)
    reproduce = all(
        c.reeval_margin == c.margin and abs(reevaluate_certificate(c) - c.margin) <= 1e-12
        for c in certs
    )
    ok = len(renyi_hits) >= 1 and len(tsallis_report.certificates) >= 1 and reproduce
    _verdict(
        ok,
        "criterion 5 (counterexample existence)",
        f"renyi q=2.5 certificates at p<=1e-3: {len(renyi_hits)}, "
        f"tsallis q=4 certificates: {len(tsallis_report.certificates)}, reproduce={reproduce}",
    )
    assert len(renyi_hits) >= 1
    assert len(tsallis_report.certificates) >= 1
    assert reproduce


def test_criterion_6_functional_lemma():
    """10^4 admissible tuples pass at -1e-12; inadmissible ones are rejected."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst_margin = math.inf
    worst_xi = math.inf
    for _ in range(10_000):
        a = rng.uniform(0.01, 0.99)
        c = rng.uniform(0.01, 0.99)
        b = math.sqrt(a * c) * rng.uniform(-0.999, 0.999)
        alpha = rng.uniform(0.0, 10.0)
        gamma = rng.uniform(0.0, 10.0)
        beta = math.sqrt(alpha * gamma) * rng.uniform(0.0, 0.999)
        rep = check_functional_lemma(X_LOG_X, a, b, c, alpha, beta, gamma)
        worst_margin = min(worst_margin, rep.margins[0][1])
        worst_xi = min(worst_xi, rep.margins[1][1])
    rejected = 0
    for bad in ((0.9, 0.9, 0.5, 1.0, 1.0, 1.0), (1.5, 0.0, 0.5, 1.0, 0.0, 1.0),
                (0.5, 0.0, 0.5, 1.0, 9.0, 1.0)):
        try:
            check_functional_lemma(X_LOG_X, *bad)
        except LemmaHypothesisError:
            rejected += 1
    ok = worst_margin >= -1e-12 and worst_xi >= -1e-12 and rejected == 3
    _verdict(
        ok,
        "criterion 6 (functional lemma)",
        f"10000 tuples, min margin={worst_margin:.3e}, min xi''={worst_xi:.3e}, "
        f"violations rejected={rejected}/3",
    )
    assert worst_margin >= -1e-12
    assert worst_xi >= -1e-12
    assert rejected == 3


def test_criterion_7_oracle_equivalence():
    """Convolution equals 2^n enumeration to 1e-12; permutation invariant to 1e-14."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst_gap = 0.0
    worst_perm = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        p = rng.random(n)
        pv = ParamVector(p)
        fast = compute_pmf(pv).values
        worst_gap = max(worst_gap, float(np.abs(fast - brute_force_pmf(pv).values).max()))
        shuffled = compute_pmf(ParamVector(rng.permutation(p))).values
        worst_perm = max(worst_perm, float(np.abs(fast - shuffled).max()))
    ok = worst_gap <= 1e-12 and worst_perm <= 1e-14
    _verdict(
        ok,
        "criterion 7 (oracle equivalence)",
        f"1000 cases n<=16, max |convolution - enumeration|={worst_gap:.3e}, "
        f"max permutation gap={worst_perm:.3e}",
    )
    assert worst_gap <= 1e-12
    assert worst_perm <= 1e-14


def test_criterion_8_worst_case_sign():
    """All-equal slope signs minimize the condition4 gap on 10^3 instances."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst = math.inf
    all_hold = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = rng.uniform(1e-3, 1.0 - 1e-3, n)
        magnitudes = rng.random(n)
        rep = check_monotone_worst_case(ParamVector(p), magnitudes)
        all_hold = all_hold and rep.holds
        worst = min(worst, rep.worst)
    ok = all_hold
    _verdict(
        ok,
        "criterion 8 (worst-case sign)",
        f"1000 instances n<=8, all patterns checked, worst margin={worst:.3e}",
    )
    assert all_hold


def test_criterion_9_scan_determinism():
    """Identical (seed, config) produce byte-identical JSON scan reports."""
    shannon_cfg = ScanConfig(seed=ACCEPTANCE_SEED, n_range=(2, 6), instance_count=200)
    q_cfg = ScanConfig(
        seed=ACCEPTANCE_SEED,
        n_range=(1, 1),
        instance_count=25,
        family="bernoulli",
        inequality_set=("renyi_concavity",),
        q_grid=(2.5,),
    )
    same_shannon = run_scan(shannon_cfg).to_json() == run_scan(shannon_cfg).to_json()
    same_q = run_scan(q_cfg).to_json() == run_scan(q_cfg).to_json()
    ok = same_shannon and same_q
    _verdict(
        ok,
        "criterion 9 (determinism)",
        f"shannon report byte-identical={same_shannon}, q report byte-identical={same_q}",
    )
    assert same_shannon
    assert same_q
