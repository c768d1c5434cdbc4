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
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import calculus, inequalities, pmf, qentropy
from .errors import ConsistencyError
from .pmf import ParamVector
from .qentropy import CriticalQResult, EntropySpec

__all__ = [
    "CHECKERS",
    "CHECKER_IDS",
    "Checker",
    "CounterexampleCertificate",
    "FAMILIES",
    "Group",
    "OVERESTIMATE_CAVEAT",
    "SCHEMA_VERSION",
    "SHANNON_SUITE",
    "ScanConfig",
    "ScanInstance",
    "ScanReport",
    "SplitMix64",
    "estimate_critical_q",
    "evaluate_checker",
    "group_report",
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


# Fixed tolerance of the theorem-level checkers: u_k, H'', the Hessian, q-entropy concavity.
_THEOREM_TOLERANCE = 1e-9


def _cuts_certificate(margin, tolerance):
    """The certificate rule: a margin below ten times its checker's tolerance (arrays too)."""
    return margin < -10.0 * tolerance


# Bytes of leave-out buffer one group may take. A scan holds one group at a
# time, so its memory does not grow with instance_count; and the builder ran
# fastest per instance with buffers of 0.1-0.6 MB (n = 6..30, 2-vCPU x86-64).
_GROUP_BYTES = 1 << 19


class Group:
    """Instances of one n, stacked row by row for the checkers' group kernels.

    p and slopes are (m, n). f, the leave-out structures, g and h and the
    u_k decomposition are built on first use and shared by every kernel run
    on the group, so a group whose kernels read only f never builds singles
    or pairs. f is its own convolution; fgh takes the builder's f, which has
    the same bits, so a group that builds the leave-out structures need not
    convolve again.
    """

    def __init__(self, p: np.ndarray, slopes: np.ndarray, instances=()):
        self.p = p
        self.slopes = slopes
        self.instances = tuple(instances)

    @classmethod
    def of(cls, instances) -> "Group":
        """The instances' stored tuples, stacked; they must share one n."""
        p = np.array([inst.p for inst in instances])
        slopes = np.array([inst.slopes for inst in instances])
        return cls(p, slopes, instances)

    @classmethod
    def row(cls, params: ParamVector, slopes) -> "Group":
        """One instance as a one-row group, its slopes checked against it."""
        return cls(params.p[None], calculus._check_slopes(params, slopes)[None])

    @property
    def n(self) -> int:
        return self.p.shape[1]

    @cached_property
    def leave(self) -> pmf.LeaveStructures:
        return pmf.leave_structures(self.p)

    @cached_property
    def f(self) -> np.ndarray:
        return pmf._convolve_bernoullis(self.p)

    @cached_property
    def fgh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ls = self.leave
        return (ls.f, *calculus.stacked_mixtures(ls.singles, ls.pairs, self.slopes))

    @cached_property
    def uk(self) -> inequalities.UkDecomposition:
        return inequalities.stacked_uk(*self.fgh)


def _theorem(values: np.ndarray) -> inequalities.Margins:
    """Theorem-level margins (m, K) under the fixed tolerance."""
    return inequalities.Margins(values, np.full(len(values), _THEOREM_TOLERANCE))


def _hessian_psd(grp: Group, q) -> inequalities.Margins:
    """Minus the top eigenvalue of every row's entropy Hessian."""
    ls = grp.leave
    top = calculus.stacked_entropy_hessian(grp.p, ls.f, ls.singles, ls.pairs)[1]
    return _theorem(-top[:, None])


def _q_kernel(kind: str):
    def kernel(grp: Group, q: float) -> inequalities.Margins:
        return _theorem(-qentropy.stacked_q_curvature(*grp.fgh, EntropySpec(kind, q))[:, None])

    return kernel


class Checker(NamedTuple):
    """The smallest n a checker applies to and its group kernel (group, q) -> Margins."""

    min_n: int
    kernel: Callable


# Checker id -> Checker. Every kernel looks its function up on the module at
# call time, so a rebound module attribute (a tracer's wrapper, a test's
# monkeypatch) is the one called.
CHECKERS = {
    "log_concavity": Checker(1, lambda grp, q: inequalities.stacked_log_concavity(grp.f)),
    "two_fold_log_concavity": Checker(
        1, lambda grp, q: inequalities.stacked_two_fold_log_concavity(grp.f)
    ),
    "c1": Checker(1, lambda grp, q: inequalities.stacked_c1(grp.f)),
    "c1bar": Checker(1, lambda grp, q: inequalities.stacked_c1bar(grp.f)),
    "cij": Checker(2, lambda grp, q: inequalities.stacked_cij(grp.leave.pairs)),
    "condition4": Checker(2, lambda grp, q: inequalities.stacked_condition4(*grp.fgh)),
    "corollary_fgh": Checker(2, lambda grp, q: inequalities.stacked_corollary_fgh(*grp.fgh)),
    "uk_nonneg": Checker(2, lambda grp, q: _theorem(grp.uk.u)),
    "entropy_concavity": Checker(
        1, lambda grp, q: _theorem(-calculus.stacked_entropy_curvature(*grp.fgh)[:, None])
    ),
    "hessian_psd": Checker(1, _hessian_psd),
    "renyi_concavity": Checker(1, _q_kernel("renyi")),
    "tsallis_concavity": Checker(1, _q_kernel("tsallis")),
}

CHECKER_IDS = tuple(CHECKERS)

_Q_CHECKERS = ("renyi_concavity", "tsallis_concavity")

SHANNON_SUITE = tuple(cid for cid in CHECKER_IDS if cid not in _Q_CHECKERS)

# Report names that differ from the checker id.
_REPORT_NAMES = {"cij": "cij_nonpositive"}


def group_report(cid: str, group: Group, q: float | None = None):
    """Row 0 of the checker's kernel on the group as a MarginReport; None when n is too small."""
    if cid not in CHECKERS:
        raise ValueError(f"unknown checker id {cid!r}")
    checker = CHECKERS[cid]
    if group.n < checker.min_n:
        return None
    return checker.kernel(group, q).report(_REPORT_NAMES.get(cid, cid))


def evaluate_checker(cid: str, params: ParamVector, slopes: np.ndarray, q: float | None = None):
    """MarginReport for one checker on one instance, a one-row group; None when n is too small."""
    return group_report(cid, Group.row(params, slopes), q)


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


def _draw_n(rng: SplitMix64, n_range: tuple[int, int]) -> int:
    """The component count: an instance stream's first draw."""
    n_lo, n_hi = n_range
    return n_lo + rng.integer(n_hi - n_lo + 1)


def sample_instance(config: ScanConfig, index: int) -> ScanInstance:
    """Random instance for the given index; pure in (seed, config, index)."""
    rng = instance_rng(config.seed, index)
    n = _draw_n(rng, config.n_range)
    eps = config.interior_margin
    p = np.array([eps + (1.0 - 2.0 * eps) * rng.uniform() for _ in range(n)])
    slopes = _draw_slopes(rng, n, config.slope_distribution)
    return ScanInstance(
        index=index,
        p=tuple(float(v) for v in p),
        slopes=tuple(float(v) for v in slopes),
        t=0.0,
    )


def _family_sizes(config: ScanConfig) -> np.ndarray:
    """The component count of every instance of the configured family, by index."""
    count = config.instance_count
    n_lo, n_hi = config.n_range
    if config.family == "random_affine" and n_lo < n_hi:
        streams = (instance_rng(config.seed, i) for i in range(count))
        return np.array([_draw_n(rng, config.n_range) for rng in streams])
    n = {"random_affine": n_lo, "bernoulli": 1, "binomial2": 2}.get(config.family, n_hi)
    return np.full(count, n)


def _family_instances(config: ScanConfig, indices=None) -> list[ScanInstance]:
    """The configured family's instances at the given indices, all of them by default."""
    indices = range(config.instance_count) if indices is None else [int(i) for i in indices]
    fam = config.family
    if fam == "random_affine":
        return [sample_instance(config, i) for i in indices]
    if fam == "bernoulli":
        ts = np.geomspace(1e-6, 0.5, config.instance_count)
        return [ScanInstance(i, (float(ts[i]),), (1.0,), float(ts[i])) for i in indices]
    n = 2 if fam == "binomial2" else config.n_range[1]
    ts = np.linspace(0.02, 0.98, config.instance_count)
    return [ScanInstance(i, (float(ts[i]),) * n, (1.0,) * n, float(ts[i])) for i in indices]


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


def _certificates(config: ScanConfig, cuts) -> list[CounterexampleCertificate]:
    """Certificates for cut margins of one n, each margin evaluated again from its stored tuple.

    cuts lists (instance, checker id, q, k, margin). The cut instances are
    rebuilt from their stored tuples as one group, and each checker's kernel
    runs once on it. A row has the same bits in any stack, so the margin
    comes back with the bits it was cut with. The config is hashed only when
    a margin is cut.
    """
    if not cuts:
        return []
    cfg_hash = config.config_hash()
    insts = {inst.index: inst for inst, *_ in cuts}
    group = Group.of(list(insts.values()))
    row_of = {index: r for r, index in enumerate(insts)}
    again = {}
    for cid, q in dict.fromkeys((cid, q) for _, cid, q, *_ in cuts):
        values = CHECKERS[cid].kernel(group, q).values
        again[cid, q] = values[np.arange(len(values)), inequalities._first_mins(values)]
    return [
        CounterexampleCertificate(
            config_hash=cfg_hash,
            instance_index=inst.index,
            inequality=cid,
            p=inst.p,
            slopes=inst.slopes,
            t=inst.t,
            q=q,
            k=k,
            margin=margin,
            reeval_margin=again[cid, q][row_of[inst.index]].item(),
        )
        for inst, cid, q, k, margin in cuts
    ]


# Version of every JSON report's key set; the CLI stamps it on each payload.
SCHEMA_VERSION = 1


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
            "schema_version": SCHEMA_VERSION,
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


def _groups(config: ScanConfig) -> Iterator[Group]:
    """The configured family's instances grouped by n, ascending, and chunked.

    A chunk holds at most _GROUP_BYTES of leave-out buffer and keeps the
    index order of its instances. Only one chunk's instances are sampled at
    a time.
    """
    sizes = _family_sizes(config)
    for n in np.unique(sizes).tolist():
        indices = np.flatnonzero(sizes == n)
        chunk = max(1, _GROUP_BYTES // (8 * (n + 1) * (1 + n + n * (n - 1) // 2)))
        for lo in range(0, indices.size, chunk):
            yield Group.of(_family_instances(config, indices[lo : lo + chunk]))


class _Minimum:
    """The worst margin of one key as a scan in instance-index order reports it.

    That scan keeps the first row it sees and replaces it by every later row
    with a smaller margin. So the lowest-indexed row wins if its margin is
    NaN; otherwise the smallest non-NaN margin does, a tie going to the
    lowest index. Groups may come in any order; only two rows are kept.
    """

    def __init__(self):
        self.first = None  # (index, margin, k) of the lowest index seen
        self.least = None  # (margin, index, k), the least by (margin, index) without NaN

    def add(self, index: np.ndarray, worst: np.ndarray, ks: np.ndarray) -> None:
        """Fold in a group's row minima; its rows are in index order."""
        if self.first is None or index[0] < self.first[0]:
            self.first = (int(index[0]), worst[0].item(), int(ks[0]))
        live = np.flatnonzero(~np.isnan(worst))
        if live.size:
            r = live[worst[live].argmin()]
            row = (worst[r].item(), int(index[r]), int(ks[r]))
            if self.least is None or row[:2] < self.least[:2]:
                self.least = row

    def entry(self) -> dict:
        index, margin, k = self.first
        if not math.isnan(margin):
            margin, index, k = self.least
        return {"margin": margin, "instance_index": index, "k": k}


def _scan(config: ScanConfig, groups, rows_of: dict | None = None):
    """The scan loop: (worst margins by report key, certificates) of the config's checkers.

    Each checker's kernel runs once per group, once per q of the grid for
    the q-dependent ones. A row's worst margin and its k come from _first_min
    and are merged in instance-index order, so a tie goes to the lowest index.
    A certificate is cut only when a margin falls below ten times the checker
    tolerance, and it is evaluated again from its stored tuple before being
    emitted. With rows_of, every margin row is appended under its instance
    index, for CSV dumps.
    """
    keys = [
        (cid, q, cid if q is None else f"{cid}[q={q!r}]")
        for cid in config.inequality_set
        for q in (config.q_grid if cid in _Q_CHECKERS else (None,))
    ]
    minima: dict[str, _Minimum] = {}
    certificates: list[CounterexampleCertificate] = []
    for group in groups:
        index = np.array([inst.index for inst in group.instances])
        rows = np.arange(index.size)
        cuts = []
        for cid, q, key in keys:
            if group.n < CHECKERS[cid].min_n:
                continue
            margins = CHECKERS[cid].kernel(group, q)
            values = margins.values
            ks = np.arange(values.shape[1]) if margins.ks is None else margins.ks
            if rows_of is not None:
                k_list = ks.tolist()
                for inst, v in zip(group.instances, values.tolist()):
                    rows_of.setdefault(inst.index, []).extend(
                        (inst.index, key, k, m) for k, m in zip(k_list, v)
                    )
            if not values.shape[1]:
                continue
            pos = inequalities._first_mins(values)
            worst = values[rows, pos]
            minima.setdefault(key, _Minimum()).add(index, worst, ks[pos])
            cut = np.flatnonzero(_cuts_certificate(worst, margins.tolerance))
            for r, k, margin in zip(cut.tolist(), ks[pos[cut]].tolist(), worst[cut].tolist()):
                cuts.append((group.instances[r], cid, q, k, margin))
        certificates.extend(_certificates(config, cuts))
    certificates.sort(key=lambda c: (c.instance_index, c.inequality, c.q or 0.0))
    return {key: minimum.entry() for key, minimum in minima.items()}, certificates


def run_scan(config: ScanConfig, collect_margins: bool = False) -> ScanReport:
    """Evaluate the configured checkers over the instance stream.

    Instances are grouped by n and chunked (_groups), and _scan runs each
    checker's kernel once per group. Deterministic in (seed, config):
    rerunning yields a byte-identical JSON report. With collect_margins the
    full per-instance margin rows are kept for CSV dumps, in instance order.
    """
    rows_of = {} if collect_margins else None
    worst_margins, certificates = _scan(config, _groups(config), rows_of)
    caveat = OVERESTIMATE_CAVEAT if any(c in _Q_CHECKERS for c in config.inequality_set) else None
    return ScanReport(
        config=config,
        config_hash=config.config_hash(),
        worst_margins=worst_margins,
        certificates=tuple(certificates),
        margin_rows=tuple(r for i in sorted(rows_of) for r in rows_of[i])
        if collect_margins
        else None,
        caveat=caveat,
    )


def estimate_critical_q(
    config: ScanConfig,
    family: str,
    kind: str,
    bracket: tuple[float, float],
    tol: float = 1e-7,
) -> CriticalQResult:
    """Bisect the q where the scan first finds a violation for the family.

    qentropy.find_critical_q bisects a probe that reads +1 where a scan of
    the family on the kind's curvature checker cuts a certificate, and -1
    where it cuts none. The family's groups, with their f, g and h, are
    built once per root, on the probe's first call. The violation predicate
    is assumed monotone in q, per the shape of the conjecture; that
    assumption is recorded in the caveat, not enforced. The Shannon kind
    never produces violations, so it surfaces the constant predicate error.
    """
    if kind not in ("shannon", "renyi", "tsallis"):
        raise ValueError(f"unknown entropy kind {kind!r}")
    base = replace(config, family=family)
    cid = "entropy_concavity" if kind == "shannon" else f"{kind}_concavity"
    groups: list[Group] = []

    def probe(q: float) -> float:
        if not groups:
            groups.extend(_groups(base))
            for group in groups:
                # The curvature kernels read only f, g and h. Build them while the
                # leave-out structures are alive, then drop those: a root at large n
                # cannot hold every group's at once.
                group.fgh
                del group.leave
        scan = replace(base, inequality_set=(cid,), q_grid=None if kind == "shannon" else (q,))
        return 1.0 if _scan(scan, groups)[1] else -1.0

    result = qentropy.find_critical_q(f"{family}:{kind}", bracket, probe, tol)
    return replace(result, caveat=OVERESTIMATE_CAVEAT)
