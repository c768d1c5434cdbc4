"""Command-line front end: verify instances, run scans, estimate critical q.

Exit codes: 0 when every checked margin holds, 1 when a margin fails, 2 on
parse or validation errors. Machine-readable output is JSON (schema_version 1)
or CSV with columns instance_id,inequality,k,margin; the human format is for
eyes only and is never parsed by tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import explorer, inequalities, qentropy
from .calculus import entropy_hessian
from .errors import BoundaryError, LemmaHypothesisError
from .inequalities import X_LOG_X, margin_rows, rows_to_csv
from .pmf import ParamVector

SCHEMA_VERSION = 1

_PROBE_BY_FAMILY_KIND = {
    ("analytic", "tsallis"): "analytic_tsallis",
    ("binomial2", "tsallis"): "binomial2_tsallis_fd",
    ("bernoulli", "renyi"): "bernoulli_renyi",
}


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {text!r} as a comma-separated list") from exc


def _emit(args, payload: dict, rows) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = rows_to_csv(rows)
    else:
        text = _human(payload)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _human(payload: dict) -> str:
    lines = [f"{payload.get('subcommand', 'report')}:"]

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, (dict, list)):
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}- {value}")

    walk(payload, 1)
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    params = ParamVector(np.array(_parse_floats(args.p)))
    n = params.n
    slopes = np.array(_parse_floats(args.slopes)) if args.slopes else np.zeros(n)
    if slopes.shape != (n,):
        raise ValueError(f"expected {n} slopes, got {slopes.size}")
    point = params.p + args.t * slopes
    params = ParamVector(point)
    by_id = {cid: explorer.evaluate_checker(cid, params, slopes) for cid in explorer.SHANNON_SUITE}
    reports = [r for r in by_id.values() if r is not None]
    holds = all(r.holds for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "verify",
        "p": [float(v) for v in params.p],
        "slopes": [float(v) for v in slopes],
        "t": args.t,
        "suite": args.suite,
        "checks": [r.to_dict() for r in reports],
        "uk": inequalities.compute_uk(params, slopes).to_dict() if n >= 2 else None,
        "entropy_second_derivative": -by_id["entropy_concavity"].worst,
        "holds": holds,
    }
    rows = [row for r in reports for row in margin_rows(r)]
    _emit(args, payload, rows)
    return 0 if holds else 1


def _load_config(args) -> explorer.ScanConfig:
    inline = {}
    if args.seed is not None:
        inline["seed"] = args.seed
    if args.n_range:
        lo, hi = (int(v) for v in _parse_floats(args.n_range))
        inline["n_range"] = (lo, hi)
    if args.instances is not None:
        inline["instance_count"] = args.instances
    if args.checks:
        inline["inequality_set"] = tuple(args.checks.split(","))
    if args.q_grid:
        inline["q_grid"] = tuple(_parse_floats(args.q_grid))
    if args.family:
        inline["family"] = args.family
    if args.interior_margin is not None:
        inline["interior_margin"] = args.interior_margin
    if args.config:
        if args.strict and inline:
            raise ValueError("--strict forbids mixing --config with inline flags")
        path = Path(args.config)
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError as exc:
                raise ValueError("TOML configs need Python 3.11+; use JSON") from exc
            data = tomllib.loads(path.read_text())
        else:
            data = json.loads(path.read_text())
        merged = dict(inline)
        merged.update(data)  # config file wins over inline flags
        return explorer.ScanConfig.from_dict(merged)
    if "seed" not in inline:
        raise ValueError("scan needs --seed or --config")
    return explorer.ScanConfig(**inline)


def cmd_scan(args) -> int:
    config = _load_config(args)
    report = explorer.run_scan(config, collect_margins=(args.format == "csv"))
    payload = dict(report.to_dict())
    payload["subcommand"] = "scan"
    rows = list(report.margin_rows or ())
    _emit(args, payload, rows)
    return 0 if not report.certificates else 1


def cmd_critical_q(args) -> int:
    lo, hi = _parse_floats(args.bracket)
    if args.estimator == "scan":
        config = explorer.ScanConfig(
            seed=args.seed if args.seed is not None else 0,
            n_range=(1, 2),
            instance_count=args.instances if args.instances is not None else 49,
        )
        result = explorer.estimate_critical_q(config, args.family, args.kind, (lo, hi))
    else:
        probe_id = _PROBE_BY_FAMILY_KIND.get((args.family, args.kind))
        if probe_id is None:
            raise ValueError(
                f"no probe for family {args.family!r} with kind {args.kind!r}; "
                f"known combinations: {sorted(_PROBE_BY_FAMILY_KIND)}"
            )
        result = qentropy.find_critical_q(probe_id, (lo, hi))
    payload = dict(result.to_dict())
    payload["schema_version"] = SCHEMA_VERSION
    payload["subcommand"] = "critical-q"
    rows = [(i, payload["family"], i, float(s)) for i, (q, s) in enumerate(result.sign_trace)]
    _emit(args, payload, rows)
    return 0


def cmd_hessian(args) -> int:
    params = ParamVector(np.array(_parse_floats(args.p)))
    report = entropy_hessian(params)
    payload = dict(report.to_dict())
    payload["schema_version"] = SCHEMA_VERSION
    payload["subcommand"] = "hessian"
    payload["p"] = [float(v) for v in params.p]
    payload["holds"] = report.max_eigenvalue <= 1e-9
    rows = [(0, "hessian_psd", 0, report.psd_margin)]
    _emit(args, payload, rows)
    return 0 if payload["holds"] else 1


def cmd_lemma_check(args) -> int:
    report = inequalities.check_functional_lemma(
        X_LOG_X, args.A, args.B, args.C, args.alpha, args.beta, args.gamma,
        grid_points=args.grid,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": "lemma-check",
        "inputs": {
            "A": args.A,
            "B": args.B,
            "C": args.C,
            "alpha": args.alpha,
            "beta": args.beta,
            "gamma": args.gamma,
        },
        "report": report.to_dict(),
        "margin": report.margins[0][1],
        "xi_second_derivative_min": report.margins[1][1],
        "holds": report.holds,
    }
    _emit(args, payload, margin_rows(report))
    return 0 if report.holds else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropath",
        description="Verify entropy concavity margins for Bernoulli sums.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "human"), default="human")
        p.add_argument("--output", help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run the checker suite on one instance")
    p_verify.add_argument("--p", required=True, help="comma-separated parameters in [0,1]")
    p_verify.add_argument("--slopes", help="comma-separated slope vector (default zeros)")
    p_verify.add_argument("--t", type=float, default=0.0, help="evaluate at p + t*slopes")
    p_verify.add_argument("--suite", choices=("shannon",), default="shannon")
    common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_scan = sub.add_parser("scan", help="seeded randomized or family scan")
    p_scan.add_argument("--config", help="JSON (or TOML on 3.11+) scan config file")
    p_scan.add_argument("--seed", type=int)
    p_scan.add_argument("--n-range", dest="n_range", help="min,max component count")
    p_scan.add_argument("--instances", type=int)
    p_scan.add_argument("--checks", help="comma-separated checker ids")
    p_scan.add_argument("--q-grid", dest="q_grid", help="comma-separated q values")
    p_scan.add_argument("--family", choices=explorer.FAMILIES)
    p_scan.add_argument("--interior-margin", dest="interior_margin", type=float)
    p_scan.add_argument(
        "--strict", action="store_true", help="forbid mixing --config with inline flags"
    )
    common(p_scan)
    p_scan.set_defaults(handler=cmd_scan)

    p_crit = sub.add_parser("critical-q", help="bisect a critical q for a family")
    p_crit.add_argument("--family", required=True)
    p_crit.add_argument("--kind", required=True, choices=("shannon", "renyi", "tsallis"))
    p_crit.add_argument("--bracket", required=True, help="q_lo,q_hi")
    p_crit.add_argument("--estimator", choices=("probe", "scan"), default="probe")
    p_crit.add_argument("--seed", type=int)
    p_crit.add_argument("--instances", type=int)
    common(p_crit)
    p_crit.set_defaults(handler=cmd_critical_q)

    p_hess = sub.add_parser("hessian", help="entropy Hessian at a parameter point")
    p_hess.add_argument("--p", required=True)
    common(p_hess)
    p_hess.set_defaults(handler=cmd_hessian)

    p_lemma = sub.add_parser("lemma-check", help="three-point concavity lemma margin")
    for flag in ("--A", "--B", "--C", "--alpha", "--beta", "--gamma"):
        p_lemma.add_argument(flag, type=float, required=True)
    p_lemma.add_argument("--grid", type=int, default=1001)
    common(p_lemma)
    p_lemma.set_defaults(handler=cmd_lemma_check)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (ValueError, BoundaryError, LemmaHypothesisError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
