"""entropath benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload theorem --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One workload runs in this process; ``all`` runs each workload in its own
process in turn and prints a table. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
NPROC = len(os.sched_getaffinity(0))

END_TO_END_UNITS = {"instances_per_s": "1/s", "op_s": "s", "peak_rss_mib": "MiB",
                    "setup_s": "s"}


def _cap_blas_threads() -> int:
    """Cap the BLAS/OpenMP pools at nproc before numpy is imported."""
    current = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    threads = min(int(current), NPROC) if current and current.isdigit() else NPROC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _environment(blas_threads: int) -> dict:
    import numpy

    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((SRC / "entropath").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "blas_threads": blas_threads,
    }


def _setup(name: str, seed: int):
    """Import the package, build the round and warm up: what precedes the first timed op."""
    sys.path.insert(0, str(SRC))
    from entropath import cli

    workload = workloads.build(name, seed)
    workloads.warm_up(cli, workload)
    return cli, workload


def _measure_setup(args) -> float:
    """Median, over fresh processes, of the time from spawn to ready for the first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return statistics.median(samples)


@dataclass
class Round:
    """What one round did. Only the runner's first round keeps its reports."""

    seconds: float
    instances: int
    ops: int
    failed: int
    unexpected: str | None  # the first error of an operation not expected to fail
    differs: str | None  # the first command whose report differs from the first round's


class RoundRunner:
    """Runs whole rounds of one workload and keeps the first round's results for the checks."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.first = None

    def one(self) -> Round:
        t0 = time.perf_counter()
        results = [workloads.run_op(self.cli, op) for op in self.workload.round_ops]
        seconds = time.perf_counter() - t0
        # Each command leaves cyclic garbage (argparse parsers, tracebacks) that
        # a one-command process never accumulates; collecting it between rounds
        # keeps the peak RSS from growing with the number of rounds.
        gc.collect()
        if self.first is None:
            self.first = results
        differs = next((" ".join(a.op.argv[:6]) for a, b in zip(self.first, results)
                        if a.text != b.text or type(a.error) is not type(b.error)), None)
        unexpected = next((repr(r.error) for r in results
                           if r.failed and not r.op.expect_error), None)
        return Round(seconds, sum(r.instances for r in results), len(results),
                     sum(r.failed for r in results), unexpected, differs)

    def run(self, seconds: float) -> list[Round]:
        """Whole rounds until `seconds` have passed, at least one."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(self.one())
        return rounds

    def run_pairs(self, seconds: float, tracer) -> tuple[list[Round], list[Round]]:
        """Untraced and traced rounds in turn, so both see the same machine states."""
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(self.one())
            with tracer:
                traced.append(self.one())
        return untraced, traced


def _slow_side(values, higher_is_better: bool) -> float:
    """The 2nd percentile of per-round values on the slow side.

    The reference box is a shared virtual machine whose speed changes by up
    to 2x with its neighbours' load, in bursts of seconds and in spells of
    minutes. Nearly every run meets the slow state in some rounds, so its
    slowest rounds read much the same from run to run, while a median moves
    with the share of the run spent in fast spells. The 2nd percentile rather
    than the extreme keeps one stalled round from setting the figure.
    """
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=50, method="inclusive")
    return cuts[0] if higher_is_better else cuts[-1]


def _end_to_end(rounds, setup_s: float) -> dict:
    metrics = {
        "instances_per_s": _slow_side([r.instances / r.seconds for r in rounds], True),
        "op_s": _slow_side([r.seconds / r.ops for r in rounds], False),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def _per_layer(tracer, traced_rounds, untraced_rounds) -> dict:
    count = len(traced_rounds)
    summary = tracer.summary()
    instances = sum(r.instances for r in traced_rounds)
    metrics = {}
    for name in spans.span_names():
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (entry["calls"] / count, "count")
        metrics[f"{name}.self_s"] = (entry["self_s"] / count, "s")
    leave_calls = summary.get("pmf.leave_structures", {"calls": 0})["calls"]
    metrics["pmf.leave_structures.calls_per_instance"] = (
        leave_calls / instances if instances else 0.0, "count")
    metrics["inequalities.margins"] = (tracer.margins / count, "count")
    metrics["explorer.scans_per_root"] = (tracer.scans_per_root(), "count")
    metrics["explorer.certificates"] = (tracer.certificates / count, "count")
    ratios = [t.seconds / u.seconds for t, u in zip(traced_rounds, untraced_rounds)]
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    metrics["trace.absent_functions"] = (float(len(tracer.absent)), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_workload(args) -> int:
    blas_threads = _cap_blas_threads()
    setup_s = _measure_setup(args)
    cli, workload = _setup(args.workload, args.seed)

    runner = RoundRunner(cli, workload)
    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = runner.run_pairs(args.seconds, tracer)
        rounds = untraced + traced
    else:
        rounds = runner.run(args.seconds)
        metrics = _end_to_end(rounds, setup_s)

    problems: list[str] = []
    workload.check(runner.first, problems)
    differs = [r.differs for r in rounds if r.differs]
    if differs:
        problems.append(f"{differs[0]}: report differs from the first round's "
                        f"in {len(differs)} rounds")
    unexpected = [r.unexpected for r in rounds if r.unexpected]
    if unexpected:
        problems.append(f"operations failed unexpectedly in {len(unexpected)} rounds, "
                        f"first: {unexpected[0]}")

    print("env " + json.dumps(_environment(blas_threads), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(workload.round_ops)} operations, setup {setup_s:.3f} s")
    print("round seconds " + json.dumps([r.seconds for r in rounds]))
    print("round instances " + json.dumps([r.instances for r in rounds]))
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        metrics = _per_layer(tracer, traced, untraced)
        print(f"trace: {len(tracer.spans)} spans over {len(traced)} rounds written to "
              f"{path.relative_to(ROOT)}; absent functions: {tracer.absent or 'none'}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    status = 0
    rows = []
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, result))
    print("\nworkload      attempted failed correct  metric")
    for name, result in rows:
        for metric, value in result["metrics"].items():
            print(f"{name:13s} {result['attempted']:9d} {result['failed']:6d} "
                  f"{str(result['correct']):7s}  {metric} = {value['value']:.6g} {value['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "entropath" / "__init__.py").is_file():
        print(f"error: no entropath sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _cap_blas_threads()
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
