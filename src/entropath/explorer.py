"""Seeded scans over (n, p, slopes, q) hunting for concavity violations.

Instance streams come from SplitMix64, a published counter-based generator
small enough to restate completely (see the class docstring), so an
independent implementation can reproduce every scan bit for bit. The Shannon
suite is expected to produce no certificates; the Renyi/Tsallis checks do
produce them above the conjectured thresholds, and every certificate is
re-evaluated from its stored tuple before it is emitted.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import calculus, inequalities, qentropy
from .errors import ConsistencyError
from .pmf import ParamVector
from .qentropy import CriticalQResult, EntropySpec

__all__ = [
    "CHECKERS",
    "CHECKER_IDS",
    "CounterexampleCertificate",
    "FAMILIES",
    "OVERESTIMATE_CAVEAT",
    "SHANNON_SUITE",
    "ScanConfig",
    "ScanInstance",
    "ScanReport",
    "SplitMix64",
    "estimate_critical_q",
    "evaluate_checker",
    "run_scan",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """Counter-based 64-bit generator (SplitMix64).

    state_i = seed + i * 0x9E3779B97F4A7C15 (mod 2^64); output_i is state_i
    passed through the xorshift-multiply finalizer with constants
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB and shifts 30/27/31. Uniform
    doubles take the top 53 bits. This is enough to reimplement the stream
    exactly in any language.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_open(self) -> float:
        """Uniform in (0, 1); safe under log."""
        return ((self.next_u64() >> 12) + 0.5) * 2.0**-52

    def integer(self, bound: int) -> int:
        """Integer in [0, bound) by modulo; the bias is irrelevant at desk scale."""
        return self.next_u64() % bound

    def gaussian(self) -> float:
        u1 = self.uniform_open()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def instance_rng(seed: int, index: int) -> SplitMix64:
    """Generator for one instance; a pure function of (seed, index)."""
    return SplitMix64(_mix64((seed + (index + 1) * _GAMMA) & _MASK64))


_SLOPE_DISTRIBUTIONS = ("unit_sphere", "signed_unit", "monotone_unit")


def _single(name: str, margin: float) -> inequalities.MarginReport:
    return inequalities.MarginReport.build(name, [(0, margin)], 1e-9)


def _uk_report(pv: ParamVector, s: np.ndarray, q) -> inequalities.MarginReport:
    pairs = [(term.k, term.u) for term in inequalities.compute_uk(pv, s).terms]
    return inequalities.MarginReport.build("uk_nonneg", pairs, 1e-9)


def _q_report(kind: str):
    name = f"{kind}_concavity"
    return lambda pv, s, q: _single(name, -qentropy.q_curvature(pv, s, EntropySpec(kind, q)))


# Checker id -> (smallest n it applies to, report function of (params, slopes, q)).
# Every entry looks its function up on the module at call time, so a rebound
# module attribute (a tracer's wrapper, a test's monkeypatch) is the one called.
CHECKERS = {
    "log_concavity": (1, lambda pv, s, q: inequalities.check_log_concavity(pv.pmf)),
    "two_fold_log_concavity": (
        1, lambda pv, s, q: inequalities.check_two_fold_log_concavity(pv.pmf)
    ),
    "c1": (1, lambda pv, s, q: inequalities.check_c1(pv.pmf)),
    "c1bar": (1, lambda pv, s, q: inequalities.check_c1bar(pv.pmf)),
    "cij": (2, lambda pv, s, q: inequalities.check_cij_nonpositive(pv)),
    "condition4": (2, lambda pv, s, q: inequalities.check_condition4(pv, s)),
    "corollary_fgh": (2, lambda pv, s, q: inequalities.check_corollary_fgh(pv, s)),
    "uk_nonneg": (2, _uk_report),
    "entropy_concavity": (
        1, lambda pv, s, q: _single("entropy_concavity", -calculus.entropy_curvature(pv, s))
    ),
    "hessian_psd": (
        1, lambda pv, s, q: _single("hessian_psd", calculus.entropy_hessian(pv).psd_margin)
    ),
    "renyi_concavity": (1, _q_report("renyi")),
    "tsallis_concavity": (1, _q_report("tsallis")),
}

CHECKER_IDS = tuple(CHECKERS)

_Q_CHECKERS = ("renyi_concavity", "tsallis_concavity")

SHANNON_SUITE = tuple(cid for cid in CHECKER_IDS if cid not in _Q_CHECKERS)


def evaluate_checker(cid: str, params: ParamVector, slopes: np.ndarray, q: float | None = None):
    """MarginReport for one checker on one instance, or None when n is below its minimum."""
    if cid not in CHECKERS:
        raise ValueError(f"unknown checker id {cid!r}")
    min_n, report = CHECKERS[cid]
    return report(params, slopes, q) if params.n >= min_n else None


# Families and the t grids they are evaluated on:
#   random_affine - sampled (p, slopes), evaluated at t = 0
#   bernoulli     - n=1, p(t) = t, geometric t grid from 1e-6 up to 1/2
#   binomial2     - n=2, p_i(t) = t, uniform t grid over [0.02, 0.98]
#   binomial_n    - as binomial2 with n = max of n_range
FAMILIES = ("random_affine", "bernoulli", "binomial2", "binomial_n")

OVERESTIMATE_CAVEAT = (
    "empirical critical q: violations above the true threshold may be rare, "
    "so this estimate can only overestimate it"
)


@dataclass(frozen=True)
class ScanConfig:
    """Deterministic description of one scan."""

    seed: int
    n_range: tuple[int, int] = (2, 8)
    instance_count: int = 1000
    interior_margin: float = 1e-3
    inequality_set: tuple[str, ...] = SHANNON_SUITE
    q_grid: tuple[float, ...] | None = None
    slope_distribution: str = "signed_unit"
    family: str = "random_affine"

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "n_range", (int(self.n_range[0]), int(self.n_range[1])))
        object.__setattr__(self, "instance_count", int(self.instance_count))
        object.__setattr__(self, "inequality_set", tuple(self.inequality_set))
        if self.q_grid is not None:
            object.__setattr__(self, "q_grid", tuple(float(q) for q in self.q_grid))
        if self.instance_count < 1:
            raise ValueError("instance_count must be at least 1")
        if not 0.0 <= self.interior_margin < 0.5:
            raise ValueError("interior_margin must lie in [0, 0.5)")
        if not 1 <= self.n_range[0] <= self.n_range[1]:
            raise ValueError("n_range must satisfy 1 <= min <= max")
        if self.slope_distribution not in _SLOPE_DISTRIBUTIONS:
            raise ValueError(f"unknown slope distribution {self.slope_distribution!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for cid in self.inequality_set:
            if cid not in CHECKER_IDS:
                raise ValueError(f"unknown checker id {cid!r}")
        if any(cid in _Q_CHECKERS for cid in self.inequality_set) and not self.q_grid:
            raise ValueError("q-dependent checkers need a q_grid")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_range": list(self.n_range),
            "instance_count": self.instance_count,
            "interior_margin": self.interior_margin,
            "inequality_set": list(self.inequality_set),
            "q_grid": None if self.q_grid is None else list(self.q_grid),
            "slope_distribution": self.slope_distribution,
            "family": self.family,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanConfig":
        known = {field.name for field in fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        if "seed" not in data:
            raise ValueError("config needs a seed")
        kwargs = dict(data)
        if "n_range" in kwargs:
            kwargs["n_range"] = tuple(kwargs["n_range"])
        return cls(**kwargs)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class ScanInstance:
    index: int
    p: tuple[float, ...]
    slopes: tuple[float, ...]
    t: float


def _draw_slopes(rng: SplitMix64, n: int, distribution: str) -> np.ndarray:
    if distribution == "unit_sphere":
        z = np.array([rng.gaussian() for _ in range(n)])
    elif distribution == "signed_unit":
        z = np.array([2.0 * rng.uniform() - 1.0 for _ in range(n)])
    else:
        z = np.array([rng.uniform() for _ in range(n)])
    top = float(np.abs(z).max())
    if top == 0.0:
        z[0] = 1.0
        top = 1.0
    return z / top


def sample_instance(config: ScanConfig, index: int) -> ScanInstance:
    """Random instance for the given index; pure in (seed, config, index)."""
    rng = instance_rng(config.seed, index)
    n_lo, n_hi = config.n_range
    n = n_lo + rng.integer(n_hi - n_lo + 1)
    eps = config.interior_margin
    p = np.array([eps + (1.0 - 2.0 * eps) * rng.uniform() for _ in range(n)])
    slopes = _draw_slopes(rng, n, config.slope_distribution)
    return ScanInstance(
        index=index,
        p=tuple(float(v) for v in p),
        slopes=tuple(float(v) for v in slopes),
        t=0.0,
    )


def _family_instances(config: ScanConfig) -> list[ScanInstance]:
    fam = config.family
    count = config.instance_count
    if fam == "random_affine":
        return [sample_instance(config, i) for i in range(count)]
    if fam == "bernoulli":
        ts = np.geomspace(1e-6, 0.5, count)
        return [
            ScanInstance(index=i, p=(float(t),), slopes=(1.0,), t=float(t))
            for i, t in enumerate(ts)
        ]
    n = 2 if fam == "binomial2" else config.n_range[1]
    ts = np.linspace(0.02, 0.98, count)
    return [
        ScanInstance(index=i, p=(float(t),) * n, slopes=(1.0,) * n, t=float(t))
        for i, t in enumerate(ts)
    ]


@dataclass(frozen=True)
class CounterexampleCertificate:
    """A reproducible violation: the full tuple plus its re-evaluated margin."""

    config_hash: str
    instance_index: int
    inequality: str
    p: tuple[float, ...]
    slopes: tuple[float, ...]
    t: float
    q: float | None
    k: int
    margin: float
    reeval_margin: float

    def __post_init__(self):
        if abs(self.margin - self.reeval_margin) > 1e-12:
            raise ConsistencyError(
                f"certificate does not reproduce: {self.margin!r} vs {self.reeval_margin!r}"
            )

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "instance_index": self.instance_index,
            "inequality": self.inequality,
            "p": list(self.p),
            "slopes": list(self.slopes),
            "t": self.t,
            "q": self.q,
            "k": self.k,
            "margin": self.margin,
            "reeval_margin": self.reeval_margin,
        }


def reevaluate_certificate(cert: CounterexampleCertificate) -> float:
    """Worst margin recomputed from the stored tuple alone."""
    cid = cert.inequality
    params = ParamVector(np.array(cert.p))
    report = evaluate_checker(cid, params, np.array(cert.slopes), cert.q)
    return report.worst


@dataclass(frozen=True, eq=False)
class ScanReport:
    config: ScanConfig
    config_hash: str
    worst_margins: dict
    certificates: tuple[CounterexampleCertificate, ...]
    margin_rows: tuple | None = None
    caveat: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "config": self.config.to_dict(),
            "config_hash": self.config_hash,
            "instance_count": self.config.instance_count,
            "worst_margins": self.worst_margins,
            "certificate_count": len(self.certificates),
            "certificates": [c.to_dict() for c in self.certificates],
            "caveat": self.caveat,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def run_scan(config: ScanConfig, collect_margins: bool = False) -> ScanReport:
    """Evaluate the configured checkers over the instance stream.

    Deterministic in (seed, config): rerunning yields a byte-identical JSON
    report. A certificate is cut only when a margin falls below ten times the
    checker tolerance, and it is re-evaluated from its stored tuple before
    being emitted. With collect_margins the full per-instance margin rows are
    kept for CSV dumps.
    """
    cfg_hash = config.config_hash()
    instances = _family_instances(config)
    worst: dict[str, dict] = {}
    certificates: list[CounterexampleCertificate] = []
    rows: list[tuple] = []
    for inst in instances:
        params = ParamVector(np.array(inst.p))
        slopes = np.array(inst.slopes)
        for cid in config.inequality_set:
            q_values = config.q_grid if cid in _Q_CHECKERS else (None,)
            for q in q_values:
                report = evaluate_checker(cid, params, slopes, q)
                if report is None:
                    continue
                key = cid if q is None else f"{cid}[q={q!r}]"
                if collect_margins:
                    for k, margin in report.margins:
                        rows.append((inst.index, key, k, margin))
                if report.margins:
                    k_worst = report.margins[report.worst_position][0]
                    entry = worst.get(key)
                    if entry is None or report.worst < entry["margin"]:
                        worst[key] = {
                            "margin": report.worst,
                            "instance_index": inst.index,
                            "k": k_worst,
                        }
                if report.worst < -10.0 * report.tolerance:
                    fresh = evaluate_checker(cid, params, slopes, q)
                    certificates.append(
                        CounterexampleCertificate(
                            config_hash=cfg_hash,
                            instance_index=inst.index,
                            inequality=cid,
                            p=inst.p,
                            slopes=inst.slopes,
                            t=inst.t,
                            q=q,
                            k=k_worst,
                            margin=report.worst,
                            reeval_margin=fresh.worst,
                        )
                    )
    certificates.sort(key=lambda c: (c.instance_index, c.inequality, c.q or 0.0))
    caveat = OVERESTIMATE_CAVEAT if any(c in _Q_CHECKERS for c in config.inequality_set) else None
    return ScanReport(
        config=config,
        config_hash=cfg_hash,
        worst_margins=worst,
        certificates=tuple(certificates),
        margin_rows=tuple(rows) if collect_margins else None,
        caveat=caveat,
    )


def _violation_found(config: ScanConfig, kind: str, q: float) -> bool:
    if kind == "shannon":
        scan = replace(config, inequality_set=("entropy_concavity",), q_grid=None)
    else:
        scan = replace(config, inequality_set=(f"{kind}_concavity",), q_grid=(q,))
    return len(run_scan(scan).certificates) > 0


def estimate_critical_q(
    config: ScanConfig,
    family: str,
    kind: str,
    bracket: tuple[float, float],
    tol: float = 1e-7,
) -> CriticalQResult:
    """Bisect the q where the scan first finds a violation for the family.

    The violation predicate is assumed monotone in q, per the shape of the
    conjecture; that assumption is recorded in the caveat, not enforced. The
    Shannon kind never produces violations, so it surfaces the constant
    predicate error.
    """
    if kind not in ("shannon", "renyi", "tsallis"):
        raise ValueError(f"unknown entropy kind {kind!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    base = replace(config, family=family)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy q_lo < q_hi")
    v_lo = _violation_found(base, kind, lo)
    v_hi = _violation_found(base, kind, hi)
    trace = [(lo, 1 if v_lo else -1), (hi, 1 if v_hi else -1)]
    if v_lo == v_hi:
        raise ValueError("violation predicate is constant over the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v_mid = _violation_found(base, kind, mid)
        trace.append((mid, 1 if v_mid else -1))
        if v_mid == v_lo:
            lo = mid
        else:
            hi = mid
    return CriticalQResult(
        family=f"{family}:{kind}",
        bracket=(float(bracket[0]), float(bracket[1])),
        root=0.5 * (lo + hi),
        sign_trace=tuple(trace),
        caveat=OVERESTIMATE_CAVEAT,
    )
