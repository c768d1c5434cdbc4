"""Compare the command-line outputs of two entropath source trees, command by command.

Usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``entropath`` package, such as a
checkout's ``src``. Both trees are named ``entropath``, so each runs in a
subprocess of its own: it imports the package from its tree, runs every
command of the fixed list below through ``entropath.cli.main`` in process,
and reports each command's exit code, stdout, stderr and raised exception.
This script prints the command count and every command whose results
differ, and exits 1 on any difference. It needs only the standard library
and the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The benchmark's scan workloads (perfbench/workloads.py), restated: seed
# 20260808 + s, 15 instances per n over n = 1..12, one instance per large n.
STREAM_SEED = 20260808
THEOREM_CHECKS = "uk_nonneg,entropy_concavity,hessian_psd"
LADDER_CHECKS = "log_concavity,two_fold_log_concavity,c1,c1bar,cij,condition4,corollary_fgh"
SEEDS = range(10)

# Runs in the subprocess, with the tree's directory first on sys.path.
_RUNNER = """
import contextlib, io, json, sys
import entropath
from entropath import cli

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as e:
        exc = f"{type(e).__name__}: {e}"
    results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "exception": exc})
json.dump({"package": entropath.__file__, "results": results}, sys.stdout)
"""


def _scan(seed: int, n_range: str, instances: int, checks: str | None, fmt: str) -> list[str]:
    argv = ["scan", "--seed", str(STREAM_SEED + seed), "--n-range", n_range,
            "--instances", str(instances), "--interior-margin", "1e-3", "--format", fmt]
    return argv + ["--checks", checks] if checks else argv


def _spread(n: int) -> str:
    """n parameters spread over (0, 1), as a --p argument."""
    return ",".join(f"{(2 * i + 1) / (2 * n) * 0.9 + 0.05:.6g}" for i in range(n))


def commands(config_dir: Path) -> list[list[str]]:
    """The fixed command list; config files it needs are written into config_dir."""
    cmds = []
    for fmt in ("json", "csv"):
        for seed in SEEDS:
            for checks in (THEOREM_CHECKS, LADDER_CHECKS):
                cmds += [_scan(seed, f"{n},{n}", 15, checks, fmt) for n in range(1, 13)]
            cmds += [_scan(seed, f"{n},{n}", 1, None, fmt) for n in (20, 30, 40, 50)]

    # random_affine configs: every slope distribution, seeds that wrap 2^64.
    configs = [
        {"seed": seed, "n_range": [1, 12], "instance_count": 120, "slope_distribution": dist}
        for dist in ("unit_sphere", "monotone_unit", "signed_unit")
        for seed in (0, 7, 2**63, 2**64 - 1)
    ]
    configs += [
        {"seed": 3, "n_range": [1, 4], "instance_count": 60, "slope_distribution": dist,
         "inequality_set": ["renyi_concavity", "tsallis_concavity"],
         "q_grid": [0.5, 2.5, 4.0, 10.0]}
        for dist in ("unit_sphere", "monotone_unit", "signed_unit")
    ]
    for i, config in enumerate(configs):
        path = config_dir / f"config{i}.json"
        path.write_text(json.dumps(config))
        cmds += [["scan", "--config", str(path), "--format", fmt] for fmt in ("json", "csv")]

    # Family scans, and q-grid scans that cut certificates.
    for fmt in ("json", "csv"):
        cmds += [
            ["scan", "--seed", "0", "--family", "bernoulli", "--n-range", "1,1",
             "--instances", "40", "--format", fmt],
            ["scan", "--seed", "0", "--family", "binomial2", "--n-range", "2,2",
             "--instances", "49", "--format", fmt],
            ["scan", "--seed", "0", "--family", "binomial_n", "--n-range", "2,9",
             "--instances", "30", "--format", fmt],
            ["scan", "--seed", "1", "--family", "bernoulli", "--instances", "25",
             "--checks", "renyi_concavity", "--q-grid", "2.5,3", "--format", fmt],
            ["scan", "--seed", "1", "--family", "binomial2", "--instances", "49",
             "--checks", "tsallis_concavity,renyi_concavity", "--q-grid", "4,10", "--format", fmt],
            ["scan", "--seed", "5", "--n-range", "1,3", "--instances", "80",
             "--checks", "tsallis_concavity,log_concavity", "--q-grid", "4,10", "--format", fmt],
        ]

    # The scan estimator of a critical q, and the probe roots.
    for family in ("random_affine", "bernoulli", "binomial2", "binomial_n"):
        for kind, bracket in (("renyi", "1.5,2.5"), ("tsallis", "3.5,3.8")):
            cmds += [["critical-q", "--family", family, "--kind", kind, "--bracket", bracket,
                      "--estimator", "scan", "--seed", str(seed), "--format", "json"]
                     for seed in SEEDS]
    cmds += [
        ["critical-q", "--family", "binomial2", "--kind", "shannon", "--bracket", "1.5,2.5",
         "--estimator", "scan", "--format", "json"],
        ["critical-q", "--family", "binomial2", "--kind", "tsallis", "--bracket", "3.5,3.8",
         "--format", "json"],
        ["critical-q", "--family", "analytic", "--kind", "tsallis", "--bracket", "3.5,3.8",
         "--format", "json"],
        ["critical-q", "--family", "analytic", "--kind", "tsallis", "--bracket", "3.5,2000",
         "--format", "json"],
        ["critical-q", "--family", "bernoulli", "--kind", "renyi", "--bracket", "1.5,2.5",
         "--format", "json"],
        ["critical-q", "--family", "binomial2", "--kind", "tsallis", "--bracket", "3.5,2000",
         "--format", "json"],
        ["critical-q", "--family", "bernoulli", "--kind", "renyi", "--bracket", "1.5,1000",
         "--format", "json"],
        # The scan estimator's flags, which the probe estimator refuses.
        ["critical-q", "--family", "binomial2", "--kind", "tsallis", "--bracket", "3.5,3.8",
         "--seed", "5", "--instances", "3", "--format", "json"],
    ]

    for fmt in ("json", "csv", "human"):
        cmds += [
            ["verify", "--p", "0.2,0.5,0.7", "--slopes", "1,-0.5,0.3", "--format", fmt],
            ["verify", "--p", "0.3", "--format", fmt],
            ["verify", "--p", "0.1,0.4,0.6,0.9", "--slopes", "1,1,-1,0.25", "--t", "0.05",
             "--format", fmt],
            ["hessian", "--p", "0.2,0.5,0.7", "--format", fmt],
            ["lemma-check", "--A", "0.5", "--B", "0.4", "--C", "0.6", "--alpha", "1",
             "--beta", "0.5", "--gamma", "1", "--format", fmt],
        ]
        # The full Hessian matrix from one up to many steps of its forward pass,
        # and verify at a size where every recurrence takes many steps.
        cmds += [["hessian", "--p", _spread(n), "--format", fmt] for n in (1, 12, 20)]
        cmds.append(["verify", "--p", _spread(12), "--slopes",
                     ",".join(f"{(-1) ** i * (1 - i / 12):g}" for i in range(12)),
                     "--format", fmt])

    # Config files of the wrong shape or with fields of the wrong type.
    malformed = [
        {"seed": 1, "interior_margin": "0.1"},
        {"seed": 1, "inequality_set": 5},
        {"seed": 1, "inequality_set": "log_concavity"},
        {"seed": 1, "q_grid": 5},
        {"seed": 1, "q_grid": "4"},
        {"seed": 1, "q_grid": [None]},
        {"seed": 1, "instance_count": None},
        {"seed": 1, "n_range": "25"},
        {"seed": True},
        [1, 2],
    ]
    for i, config in enumerate(malformed):
        path = config_dir / f"malformed{i}.json"
        path.write_text(json.dumps(config))
        cmds.append(["scan", "--config", str(path), "--format", "json"])

    # One config with an integer and with a float interior margin. A default-suite
    # scan whose n = 8 instances span several chunks.
    for i, margin in enumerate((0, 0.0)):
        path = config_dir / f"margin{i}.json"
        path.write_text(json.dumps({"seed": 1, "interior_margin": margin}))
        cmds.append(["scan", "--config", str(path), "--format", "json"])
    cmds.append(["scan", "--seed", "2", "--n-range", "8,8", "--instances", "400",
                 "--format", "json"])

    # A config without a seed merged with --seed, and one whose seed clashes with --seed,
    # which exits 2.
    for name, config, seed in (("seedless", {}, "3"), ("seeded", {"seed": 3}, "99")):
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps({**config, "n_range": [2, 4], "instance_count": 10}))
        cmds.append(["scan", "--config", str(path), "--seed", seed, "--format", "json"])

    # cij at n = 100, where its leave-two-out buffer is large; alone at the benchmark's
    # n = 20 and 50; and every margin of 70 instances at n = 12, which span two chunks.
    # A config whose q_grid holds an integer past the float range, which exits 2
    # naming the q rule.
    cmds += [["scan", "--seed", "0", "--n-range", "100,100", "--instances", "1",
              "--checks", "cij", "--format", fmt] for fmt in ("json", "csv")]
    cmds += [_scan(0, f"{n},{n}", 1, "cij", fmt) for n in (20, 50) for fmt in ("json", "csv")]
    cmds.append(["scan", "--seed", "0", "--n-range", "12,12", "--instances", "70",
                 "--checks", "cij", "--format", "csv"])
    # cij past n = 24, where its leave-two-out rows come in several pair blocks: random
    # n = 60..90, binomial_n at n = 40 (every pair ties), and verify on repeated values.
    cmds += [["scan", "--seed", "4", "--n-range", "60,90", "--instances", "3",
              "--checks", "cij", "--format", fmt] for fmt in ("json", "csv")]
    cmds += [["scan", "--seed", "0", "--family", "binomial_n", "--n-range", "40,40",
              "--instances", "5", "--checks", "cij", "--format", fmt] for fmt in ("json", "csv")]
    cmds += [["verify", "--p", ",".join(["0.2", "0.7", "0.7"] * 10), "--format", fmt]
             for fmt in ("json", "csv")]
    # lemma-check at and just past its hypothesis boundaries: B^2 = AC and
    # beta^2 = alpha*gamma exactly (either sign), zero weights, A and C at the
    # ends of (0, 1), a one-point grid, and the inputs one step outside, which exit 2.
    lemma = [
        ("0.25", "0.25", "0.25", "4", "2", "1", "1001"),
        ("0.25", "-0.25", "0.25", "4", "-2", "1", "1001"),
        ("0.5", "0.5", "0.5", "1", "1", "1", "1"),
        ("0.5", "0", "0.5", "0", "0", "0", "1001"),
        ("1e-9", "0", "0.999999", "1", "0", "1", "1"),
        ("0.25", "0.2500001", "0.25", "4", "2", "1", "1001"),
        ("0.25", "0.25", "0.25", "4", "2.0000001", "1", "1001"),
        ("0", "0", "0.5", "1", "0", "1", "1001"),
        ("0.5", "0", "1", "1", "0", "1", "1001"),
        ("0.5", "0", "0.5", "-1", "0", "1", "1001"),
    ]
    for fmt in ("json", "csv"):
        for a, b, c, alpha, beta, gamma, grid in lemma:
            cmds.append(["lemma-check", "--A", a, "--B", b, "--C", c, "--alpha", alpha,
                         "--beta", beta, "--gamma", gamma, "--grid", grid, "--format", fmt])
    path = config_dir / "huge_q.json"
    path.write_text('{"seed": 1, "inequality_set": ["renyi_concavity"], "q_grid": [1'
                    + "0" * 400 + "]}")
    cmds.append(["scan", "--config", str(path), "--format", "json"])

    # Scan-estimator brackets whose bisection would reach q = 1: constant over
    # the bracket, and an upper end at q = 1.
    cmds += [
        ["critical-q", "--family", family, "--kind", kind, "--bracket", bracket,
         "--estimator", "scan", "--seed", "0", "--format", "json"]
        for family, kind, bracket in (("bernoulli", "renyi", "0.5,1.5"),
                                      ("random_affine", "renyi", "0.5,1.5"),
                                      ("binomial2", "tsallis", "0.5,1"))
    ]

    # The q checkers at n = 500, whose smallest masses are near 1e-210.
    cmds.append(["scan", "--seed", "0", "--n-range", "500,500", "--instances", "2",
                 "--checks", "renyi_concavity,tsallis_concavity", "--q-grid", "0.5",
                 "--format", "json"])

    # Inputs that end in an error: the internal-consistency failure at
    # n = 200 and the underflowed masses at n = 400.
    cmds += [
        ["scan", "--seed", "0", "--family", "binomial_n", "--n-range", "200,200",
         "--checks", "log_concavity,two_fold_log_concavity", "--format", "json"],
        ["scan", "--seed", "0", "--family", "binomial_n", "--n-range", "400,400",
         "--checks", "uk_nonneg", "--format", "json"],
    ]
    return cmds


def run_tree(src: Path, cmds: list[list[str]]) -> list[dict]:
    """Every command's results under the package in src, from one subprocess."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _RUNNER], input=json.dumps(cmds), env=env,
                          cwd=src, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"runner failed under {src}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    if not Path(out["package"]).resolve().is_relative_to(src):
        raise SystemExit(f"{src}: imported entropath from {out['package']}")
    return out["results"]


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python tools/compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in sys.argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp))
        before = run_tree(parent, cmds)
        after = run_tree(change, cmds)
    differ = [(cmd, a, b) for cmd, a, b in zip(cmds, before, after) if a != b]
    print(f"{len(cmds)} commands, {len(differ)} differ")
    for cmd, a, b in differ:
        fields = [key for key in a if a[key] != b[key]]
        print(f"differs in {', '.join(fields)}: entropath {' '.join(cmd)}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
