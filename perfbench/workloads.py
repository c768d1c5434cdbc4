"""The four benchmark workloads and the correctness checks run on their outputs.

Every timed operation is one in-process call of ``entropath.cli.main`` (a
``scan`` or a ``critical-q`` command), so the benchmark depends only on the
command line and the JSON reports, not on checker signatures. A workload is
a fixed list of operations (a round) built from the seed; a run repeats the
same round, so every run attempts whole rounds of the same operations.

The checks run after the timed region. They compare the reports against
facts derived apart from the program (an mpmath convolution, numpy's
eigensolver, mpmath's root of 2 - 4q + 2^q) or against properties the method
must have (the Shannon theorem cuts no certificates; the scan estimator of a
critical q can only overestimate it).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

# Seed of the acceptance criterion-1 stream; a run uses 20260808 + --seed.
STREAM_SEED = 20260808
THEOREM_CHECKS = "uk_nonneg,entropy_concavity,hessian_psd"
LADDER_CHECKS = ("log_concavity,two_fold_log_concavity,c1,c1bar,cij,"
                 "condition4,corollary_fgh")
# Instances per n in one round of the theorem and ladder workloads. Each round
# scans every n in 1..12 with the same count: the mix of sizes sets the cost,
# and stratifying it keeps that cost from moving with the seed.
PER_N = 15
# Sizes where cij's O(n^3) loop already dominates, with ops short enough
# (under a second) that a 20 s run holds 15-20 rounds; n = 30, 60, 90 took
# 4-5 s a round and its run-to-run spread was twice as wide.
LARGE_NS = (20, 30, 40, 50)
# Fails on every run today: check_two_fold_log_concavity's 1e-12 identity
# check loses to cancellation in D_k^2 - D_{k-1} D_{k+1} at n = 200. The
# binomial_n family ignores the seed, so this input is the same in every run.
FAILING_SCAN = ["scan", "--seed", "0", "--family", "binomial_n", "--n-range", "200,200",
                "--checks", "log_concavity,two_fold_log_concavity", "--format", "json"]
# Instances per bisection scan of the critical-q scan estimator (its default).
CRITICAL_Q_INSTANCES = 49
EPS = 2.0**-52


@dataclass
class Op:
    """One timed entropath command; expect_error names the exception it raises today."""

    argv: list[str]
    expect_error: str | None = None


@dataclass
class OpResult:
    op: Op
    rc: int | None = None
    report: dict | None = None
    text: str | None = None
    error: BaseException | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def instances(self) -> int:
        """Instances whose every configured checker completed within this command."""
        if self.failed or self.report is None:
            return 0
        if self.report.get("subcommand") == "scan":
            return int(self.report["instance_count"])
        if "--estimator" in self.op.argv:  # the scan estimator: one scan per trace entry
            return CRITICAL_Q_INSTANCES * len(self.report["sign_trace"])
        return 0


@dataclass
class Workload:
    round_ops: list[Op]
    warmup_ops: list[Op]
    check: object  # callable(results, problems) for one round's results


def run_op(cli, op: Op) -> OpResult:
    """Run one command in-process with stdout captured; failures are recorded, not raised."""
    buf = io.StringIO()
    result = OpResult(op)
    try:
        with contextlib.redirect_stdout(buf):
            result.rc = cli.main(op.argv)
    except Exception as exc:  # counted as a failed operation
        result.error = exc
        return result
    result.text = buf.getvalue()
    # Usage errors print nothing to stdout; rc tells the checks what happened.
    result.report = json.loads(result.text) if result.text else None
    return result


def _scan(seed: int, n_range: str, instances: int, checks: str | None) -> Op:
    argv = ["scan", "--seed", str(STREAM_SEED + seed), "--n-range", n_range,
            "--instances", str(instances), "--interior-margin", "1e-3", "--format", "json"]
    if checks:
        argv += ["--checks", checks]
    return Op(argv)


def build(name: str, seed: int) -> Workload:
    if name in ("theorem", "ladder"):
        checks = THEOREM_CHECKS if name == "theorem" else LADDER_CHECKS
        ops = [_scan(seed, f"{n},{n}", PER_N, checks) for n in range(1, 13)]
        return Workload(ops, [_scan(seed, "12,12", 2, checks)],
                        _theorem_checks if name == "theorem" else _ladder_checks)
    if name == "scan_large_n":
        ops = [_scan(seed, f"{n},{n}", 1, None) for n in LARGE_NS]
        ops.append(Op(FAILING_SCAN, expect_error="ConsistencyError"))
        return Workload(ops, [_scan(seed, "8,8", 1, None), ops[-1]], _large_n_checks)
    if name == "critical_q":
        # Fixed brackets. Moving them with the seed moves the bisection path,
        # and with it the number of certificates the scans cut (121 to 426 per
        # round for ends moved by under 0.01), which is work the seed should
        # not decide. The seed goes to --seed; the binomial2 and bernoulli
        # families are fixed t grids, so it changes only the scan config.
        tsallis, renyi = "3.5,3.8", "1.5,2.5"
        crit = ["critical-q", "--format", "json"]
        ops = [
            Op(crit + ["--family", "binomial2", "--kind", "tsallis", "--bracket", tsallis,
                       "--estimator", "scan", "--seed", str(seed)]),
            Op(crit + ["--family", "binomial2", "--kind", "tsallis", "--bracket", tsallis]),
            Op(crit + ["--family", "analytic", "--kind", "tsallis", "--bracket", tsallis]),
            Op(crit + ["--family", "bernoulli", "--kind", "renyi", "--bracket", renyi,
                       "--estimator", "scan", "--seed", str(seed)]),
            Op(crit + ["--family", "bernoulli", "--kind", "renyi", "--bracket", renyi]),
        ]
        return Workload(ops, ops[1:3] + ops[4:], _critical_q_checks)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("theorem", "ladder", "scan_large_n", "critical_q")


def _mp_pmf(p):
    """Mass function of the Bernoulli sum by convolution in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        f = [mpmath.mpf(1)]
        for pi in p:
            pi = mpmath.mpf(pi)
            qi = 1 - pi
            g = [mpmath.mpf(0)] * (len(f) + 1)
            for k, v in enumerate(f):
                g[k] += v * qi
                g[k + 1] += v * pi
            f = g
        return [float(v) for v in f]


def _check_scans(results, problems) -> None:
    """Exit 0, no certificates, and every worst margin holds when re-verified alone."""
    from entropath import cli, explorer

    verified = set()
    for res in results:
        if res.op.expect_error:
            continue
        label = " ".join(res.op.argv[:6])
        if res.failed or res.rc != 0:
            problems.append(f"{label}: rc={res.rc} error={res.error!r}")
            continue
        if res.report["certificate_count"] != 0:
            problems.append(f"{label}: {res.report['certificate_count']} certificates cut")
        cfg = explorer.ScanConfig.from_dict(res.report["config"])
        for cid, worst in res.report["worst_margins"].items():
            key = (cfg.config_hash(), worst["instance_index"])
            if key in verified:
                continue
            verified.add(key)
            inst = explorer.sample_instance(cfg, worst["instance_index"])
            verify = run_op(cli, Op(["verify", "--p=" + ",".join(map(repr, inst.p)),
                                     "--slopes=" + ",".join(map(repr, inst.slopes)),
                                     "--format", "json"]))
            if verify.failed or verify.rc != 0 or not verify.report["holds"]:
                problems.append(f"{label}: verify of worst instance {key[1]} for {cid} "
                                f"does not hold (rc={verify.rc}, error={verify.error!r})")
                continue
            for chk in verify.report["checks"]:
                # worst is null when the check had no margins at this n.
                if chk["worst"] is not None and chk["worst"] < -chk["tolerance"]:
                    problems.append(f"{label}: {chk['name']} worst {chk['worst']!r} "
                                    f"< -tolerance {chk['tolerance']!r}")


def _check_pmf_mpmath(instances, problems) -> None:
    """compute_pmf against a 50-digit convolution.

    Every step adds two positive products with a rounded 1 - p, so each mass
    carries at most about 3 roundings per step: 4(n+1) ulps relative bounds it.
    """
    import numpy as np
    from entropath.pmf import ParamVector, compute_pmf

    for inst in instances:
        f = compute_pmf(ParamVector(np.array(inst.p))).values
        ref = _mp_pmf(inst.p)
        bound = 4.0 * (len(inst.p) + 1) * EPS
        rel = max(abs(a - b) / b for a, b in zip(f, ref))
        if not rel <= bound:
            problems.append(f"compute_pmf n={len(inst.p)} off the mpmath pmf by {rel:.3e} "
                            f"relative (bound {bound:.1e})")


def _check_hessian(instances, problems) -> None:
    """Top eigenvalue against numpy.linalg.eigvalsh; s^T H s against entropy_curvature."""
    import numpy as np
    from entropath.calculus import entropy_curvature, entropy_hessian
    from entropath.pmf import ParamVector

    for inst in instances:
        params = ParamVector(np.array(inst.p))
        slopes = np.array(inst.slopes)
        rep = entropy_hessian(params)
        m = np.asarray(rep.matrix)
        scale = max(1.0, float(np.linalg.norm(m)))
        top = float(np.linalg.eigvalsh(m)[-1])
        if abs(rep.max_eigenvalue - top) > 1e-10 * scale:
            problems.append(f"hessian n={params.n}: top eigenvalue {rep.max_eigenvalue!r} "
                            f"vs eigvalsh {top!r}")
        quad = float(slopes @ m @ slopes)
        curv = entropy_curvature(params, slopes)
        if abs(quad - curv) > 1e-10 * scale * max(1.0, float(slopes @ slopes)):
            problems.append(f"hessian n={params.n}: s^T H s = {quad!r} vs H'' = {curv!r}")


def _check_c1_identity(instances, problems) -> None:
    import numpy as np
    from entropath.inequalities import c1_product_identity_residual
    from entropath.pmf import ParamVector, compute_pmf

    for inst in instances:
        residual = c1_product_identity_residual(compute_pmf(ParamVector(np.array(inst.p))))
        if not residual <= 1e-10:
            problems.append(f"c1 product identity residual {residual:.3e} > 1e-10 "
                            f"at n={len(inst.p)}")


def _round_instances(results, per_scan: int):
    """The first per_scan instances of every scan in the round, rebuilt from its config."""
    from entropath import explorer

    out = []
    for res in results:
        if res.report is not None and res.report.get("subcommand") == "scan":
            cfg = explorer.ScanConfig.from_dict(res.report["config"])
            out.extend(explorer.sample_instance(cfg, i)
                       for i in range(min(per_scan, cfg.instance_count)))
    return out


def _theorem_checks(results, problems) -> None:
    _check_scans(results, problems)
    sample = _round_instances(results, 2)
    _check_pmf_mpmath(sample, problems)
    _check_hessian(sample, problems)


def _ladder_checks(results, problems) -> None:
    _check_scans(results, problems)
    _check_pmf_mpmath(_round_instances(results, 2), problems)
    _check_c1_identity(_round_instances(results, PER_N), problems)


def _large_n_checks(results, problems) -> None:
    _check_scans(results, problems)
    sample = _round_instances(results, 1)
    _check_pmf_mpmath(sample, problems)
    _check_c1_identity(sample, problems)
    _check_hessian(sample, problems)
    for res in results:
        if res.op.expect_error and res.failed:
            if type(res.error).__name__ != res.op.expect_error:
                problems.append(f"failing scan raised {res.error!r}, "
                                f"expected {res.op.expect_error}")
        elif res.op.expect_error and (res.rc != 0 or res.report["certificate_count"]):
            problems.append(f"binomial_n n=200 scan: rc={res.rc}")


def _tsallis_critical_q() -> float:
    """Root of 2 - 4q + 2^q near 3.66, by mpmath at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        return float(mpmath.findroot(lambda q: 2 - 4 * q + mpmath.power(2, q), 3.66))


def _critical_q_checks(results, problems) -> None:
    q_star = _tsallis_critical_q()
    for res in results:
        label = " ".join(res.op.argv[3:])
        if res.failed or res.rc != 0:
            problems.append(f"critical-q {label}: rc={res.rc} error={res.error!r}")
            continue
        root = res.report["root"]
        scan_estimator = "--estimator" in res.op.argv
        if res.op.argv[res.op.argv.index("--kind") + 1] == "tsallis":
            if scan_estimator:
                # The scan estimator can only overestimate the threshold.
                ok = root >= q_star - 1e-7
            else:
                # The finite-difference probe carries ~1e-7 of differencing error.
                ok = abs(root - q_star) <= 1e-5
            if not ok:
                problems.append(f"critical-q {label}: root {root!r} vs q_T* {q_star!r}")
        elif abs(root - 2.0) > 1e-3:
            problems.append(f"critical-q {label}: Renyi root {root!r} not near 2")


def warm_up(cli, workload: Workload) -> None:
    for op in workload.warmup_ops:
        run_op(cli, op)

