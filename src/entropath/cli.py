"""Command-line front end: verify instances, run scans, estimate critical q.

Exit codes: 0 when every checked margin holds, 1 when a margin fails, 2 on
parse or validation errors, a non-finite ``lemma-check`` input among them.
An internal consistency failure (``ConsistencyError``, e.g. ``scan --seed 0
--family binomial_n --n-range 200,200 --checks
log_concavity,two_fold_log_concavity``) is not caught: it leaves
``main`` as an exception, so the ``entropath`` process ends in a traceback
with exit 1, the same code as a failed margin. ``verify`` runs the Shannon suite.
``scan`` merges inline flags with a ``--config`` file (JSON, or TOML on Python
3.11+); a field set in both places exits 2, naming it, as does ``critical-q``
given ``--seed`` or ``--instances`` with the probe estimator. Machine-readable output is
JSON (schema_version 1) or CSV with columns instance_id,inequality,k,margin;
the human format is for eyes only and is never parsed by tests.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import explorer, inequalities, qentropy
from .calculus import _check_slopes, entropy_hessian
from .errors import BoundaryError, LemmaHypothesisError
from .explorer import SCHEMA_VERSION
from .inequalities import X_LOG_X, Margins, margin_rows, rows_to_csv
from .pmf import ParamVector


def _parse_floats(text: str, parse=float) -> list:
    try:
        return [parse(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {text!r} as a comma-separated list") from exc


def _int_or_float(text: str):
    """An int when the text is one, so that no bound past 2^53 is rounded; a float otherwise."""
    return int(text) if text.strip().lstrip("+-").isdigit() else float(text)


def _parse_pair(flag: str, text: str, parse=float) -> tuple:
    values = _parse_floats(text, parse)
    if len(values) != 2:
        raise ValueError(f"{flag} takes two comma-separated values, got {text!r}")
    return values[0], values[1]


def _emit(args, payload: dict, rows) -> None:
    payload = {**payload, "schema_version": SCHEMA_VERSION, "subcommand": args.subcommand}
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
    slopes = _check_slopes(params, slopes)
    point = params.p + args.t * slopes
    params = ParamVector(point)
    # One group for the whole suite: its f, g and h and its u_k decomposition feed every
    # checker and the payload.
    group = explorer.Group.row(params, slopes).prepare(explorer.SHANNON_SUITE)
    by_id = {cid: explorer.group_report(cid, group) for cid in explorer.SHANNON_SUITE}
    reports = [r for r in by_id.values() if r is not None]
    holds = all(r.holds for r in reports)
    payload = {
        "p": [float(v) for v in params.p],
        "slopes": [float(v) for v in slopes],
        "t": args.t,
        "suite": "shannon",
        "checks": [r.to_dict() for r in reports],
        "uk": group.uk.row(0).to_dict() if n >= 2 else None,
        "entropy_second_derivative": -by_id["entropy_concavity"].worst,
        "holds": holds,
    }
    rows = [row for r in reports for row in margin_rows(r)]
    _emit(args, payload, rows)
    return 0 if holds else 1


def _load_config(args) -> explorer.ScanConfig:
    inline, data = {}, {}
    if args.seed is not None:
        inline["seed"] = args.seed
    if args.n_range:
        inline["n_range"] = _parse_pair("--n-range", args.n_range, _int_or_float)
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
        path = Path(args.config)
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError as exc:
                raise ValueError("TOML configs need Python 3.11+; use JSON") from exc
            data = tomllib.loads(path.read_text())
        else:
            data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ValueError(f"a config must map field names to values, got {data!r}")
        clash = [field for field in inline if field in data]
        if clash:
            raise ValueError(f"set both inline and in --config: {', '.join(clash)}")
    elif "seed" not in inline:
        raise ValueError("scan needs --seed or --config")
    return explorer.ScanConfig.from_dict({**inline, **data})


def cmd_scan(args) -> int:
    config = _load_config(args)
    report = explorer.run_scan(config, collect_margins=(args.format == "csv"))
    _emit(args, report.to_dict(), list(report.margin_rows or ()))
    return 0 if not report.certificates else 1


def cmd_critical_q(args) -> int:
    lo, hi = _parse_pair("--bracket", args.bracket)
    if args.estimator == "scan":
        config = explorer.ScanConfig(
            seed=args.seed if args.seed is not None else 0,
            n_range=(1, 2),
            instance_count=args.instances if args.instances is not None else 49,
        )
        result = explorer.estimate_critical_q(config, args.family, args.kind, (lo, hi))
    else:
        unused = [flag for flag, value in (("--seed", args.seed), ("--instances", args.instances))
                  if value is not None]
        if unused:
            raise ValueError(f"only the scan estimator takes {', '.join(unused)}")
        # CRITICAL_Q_PROBES names each probe "<family>_<kind>".
        probe_id = f"{args.family}_{args.kind}"
        if probe_id not in qentropy.CRITICAL_Q_PROBES:
            known = sorted(tuple(key.rsplit("_", 1)) for key in qentropy.CRITICAL_Q_PROBES)
            raise ValueError(
                f"no probe for family {args.family!r} with kind {args.kind!r}; "
                f"known combinations: {known}"
            )
        result = qentropy.find_critical_q(probe_id, (lo, hi))
    rows = [(i, result.family, i, float(s)) for i, (q, s) in enumerate(result.sign_trace)]
    _emit(args, result.to_dict(), rows)
    return 0


def cmd_hessian(args) -> int:
    params = ParamVector(np.array(_parse_floats(args.p)))
    report = entropy_hessian(params)
    payload = dict(report.to_dict())
    payload["p"] = [float(v) for v in params.p]
    psd = Margins(np.array([[report.psd_margin]]), None).report("hessian_psd")
    payload["holds"] = psd.holds
    _emit(args, payload, margin_rows(psd))
    return 0 if psd.holds else 1


def cmd_lemma_check(args) -> int:
    report = inequalities.check_functional_lemma(
        X_LOG_X, args.A, args.B, args.C, args.alpha, args.beta, args.gamma,
        grid_points=args.grid,
    )
    payload = {
        "inputs": {
            "A": args.A,
            "B": args.B,
            "C": args.C,
            "alpha": args.alpha,
            "beta": args.beta,
            "gamma": args.gamma,
        },
        "report": report.to_dict(),
        "margin": float(report.values[0]),
        "xi_second_derivative_min": float(report.values[1]),
        "holds": report.holds,
    }
    _emit(args, payload, margin_rows(report))
    return 0 if report.holds else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    Parsing keeps no state in the parser: each ``parse_args`` returns a fresh
    namespace, and argparse looks up ``sys.stdout``/``sys.stderr`` when it
    prints. Each subcommand's handler is bound here, when the parser is
    built (``set_defaults(handler=cmd_*)``), so rebinding a ``cmd_*``
    function afterwards does not change what ``main`` runs.
    """
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
    common(p_scan)
    p_scan.set_defaults(handler=cmd_scan)

    p_crit = sub.add_parser("critical-q", help="bisect a critical q for a family")
    p_crit.add_argument("--family", required=True)
    p_crit.add_argument("--kind", required=True, choices=qentropy._KINDS)
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
