"""Seeded scans over (n, p, slopes, q) hunting for concavity violations.

Instance streams come from SplitMix64, a published counter-based generator
small enough to restate completely (see _streams), so an independent
implementation can reproduce every scan bit for bit. The Shannon
suite is expected to produce no certificates; the Renyi/Tsallis checks do
produce them above the conjectured thresholds, and every certificate is
re-evaluated from its stored tuple before it is emitted.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import calculus, inequalities, pmf, qentropy
from .errors import ConsistencyError
from .inequalities import Margins
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
    "estimate_critical_q",
    "evaluate_checker",
    "group_report",
    "run_scan",
]

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, elementwise on a uint64 array."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _streams(seed: int, index, count: int) -> np.ndarray:
    """The first count outputs of each indexed instance's stream, as an (m, count) uint64 array.

    Every stream is SplitMix64, a counter-based 64-bit generator: from a
    start s, state_j = s + j * 0x9E3779B97F4A7C15 (mod 2^64) for j = 1, 2, ...,
    and output_j is state_j passed through the xorshift-multiply finalizer
    with constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB and shifts
    30/27/31. Instance i of a seed starts from the finalizer of
    seed + (i + 1) * 0x9E3779B97F4A7C15 (mod 2^64). This is enough to
    reimplement the stream exactly in any language. Every operand is uint64,
    and uint64 arrays wrap mod 2^64 without a warning.
    """
    index = np.asarray(index, dtype=np.uint64).reshape(-1)
    start = _mix64(np.uint64(seed) + (index + np.uint64(1)) * _GAMMA)
    return _mix64(start[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA)


def _uniform(draws: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of each draw."""
    return (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53


_SLOPE_DISTRIBUTIONS = ("unit_sphere", "signed_unit", "monotone_unit")


# Bytes of kernel buffers one group may take, each instance counted at the largest
# Checker.row_bytes(n) of the configured checkers. A scan holds one group at a time, so its
# memory does not grow with instance_count; cij's leave-two-out builder ran fastest with
# 0.1-0.6 MB (n = 6..30, 2 vCPUs).
_GROUP_BYTES = 1 << 19


@dataclass(eq=False)
class Group:
    """Instances of one n, stacked row by row for the checkers' group kernels.

    p and slopes are (m, n); index holds each row's instance index and t its
    family parameter (0 for random_affine). f, fgh (calculus.stacked_fgh), the
    u_k decomposition and the q checkers' basis (qentropy.q_basis) are built
    on first use and shared by every kernel run on the group, so each q of a
    grid or a bisection pays only the per-q pass; once fgh is built, f is its
    f, which has the convolution's bits.
    """

    p: np.ndarray
    slopes: np.ndarray
    index: np.ndarray
    t: np.ndarray

    @classmethod
    def row(cls, params: ParamVector, slopes) -> "Group":
        """One instance as a one-row group, its slopes checked against it."""
        slopes = calculus._check_slopes(params, slopes)
        return cls(params.p[None], slopes[None], np.zeros(1, dtype=np.int64), np.zeros(1))

    @property
    def n(self) -> int:
        return self.p.shape[1]

    @cached_property
    def f(self) -> np.ndarray:
        return self.fgh[0] if "fgh" in self.__dict__ else pmf._convolve_bernoullis(self.p)

    @cached_property
    def fgh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return calculus.stacked_fgh(self.p, self.slopes)

    @cached_property
    def uk(self) -> inequalities.UkDecomposition:
        return inequalities.stacked_uk(*self.fgh)

    @cached_property
    def q_basis(self) -> qentropy.QBasis:
        return qentropy.q_basis(*self.fgh)

    def prepare(self, cids) -> "Group":
        """The group, with f, g and h built first when a checker of cids applies and reads them.

        Group.f then takes fgh's f, so p is never convolved on its own.
        """
        if any(CHECKERS[cid].reads == "fgh" and self.n >= CHECKERS[cid].min_n for cid in cids):
            self.fgh
        return self


def _q_kernel(kind: str):
    def kernel(grp: Group, q: float) -> Margins:
        curvature = qentropy.basis_q_curvature(grp.q_basis, EntropySpec(kind, q))
        return Margins(-curvature[:, None], None)

    return kernel


class Checker(NamedTuple):
    """One row of the checker table.

    name is the checker's report name, min_n the smallest n it applies to and
    kernel its group kernel (group, q) -> Margins, whose verdict() judges each
    row by inequalities._tolerance and inequalities._verdict; the theorem-level
    kernels (u_k, H'', the Hessian, the q curvatures) give no scale, so they
    get the fixed theorem tolerance. cij's kernel gives inequalities.CijMargins,
    whose verdict() folds its pair blocks and builds no dense margins. reads
    names the group structure the kernel builds on: "f" (the pmf rows), "fgh"
    (f, g and h, or the u_k decomposition made of them) or "p" (the parameter
    rows alone). takes_q says that a scan runs the checker once for each q of
    its grid. row_bytes(n) is the bytes of kernel buffer one instance of n
    components takes: the f/g/h kernels at most 32 rows of n + 1 floats, the
    Hessian 8 arrays of (n + 1)^2 floats, and cij one pair block of
    pmf._leave_two_out_blocks.
    """

    name: str
    min_n: int
    reads: str
    kernel: Callable
    takes_q: bool = False
    row_bytes: Callable[[int], int] = lambda n: 8 * 32 * (n + 1)


# Checker id -> Checker. Every kernel looks its function up on the module at
# call time, so a rebound module attribute (a tracer's wrapper, a test's
# monkeypatch) is the one called.
CHECKERS = {
    "log_concavity": Checker(
        "log_concavity", 1, "f", lambda grp, q: inequalities.stacked_log_concavity(grp.f)
    ),
    "two_fold_log_concavity": Checker(
        "two_fold_log_concavity", 1, "f",
        lambda grp, q: inequalities.stacked_two_fold_log_concavity(grp.f),
    ),
    "c1": Checker("c1", 1, "f", lambda grp, q: inequalities.stacked_c1(grp.f)),
    "c1bar": Checker("c1bar", 1, "f", lambda grp, q: inequalities.stacked_c1bar(grp.f)),
    "cij": Checker(
        "cij_nonpositive", 2, "p", lambda grp, q: inequalities.CijMargins(grp.p),
        row_bytes=lambda n: 8 * (1 + n + pmf._block_pairs(n)) * (n + 2),
    ),
    "condition4": Checker(
        "condition4", 2, "fgh", lambda grp, q: inequalities.stacked_condition4(*grp.fgh)
    ),
    "corollary_fgh": Checker(
        "corollary_fgh", 2, "fgh", lambda grp, q: inequalities.stacked_corollary_fgh(*grp.fgh)
    ),
    "uk_nonneg": Checker("uk_nonneg", 2, "fgh", lambda grp, q: Margins(grp.uk.u, None)),
    "entropy_concavity": Checker(
        "entropy_concavity", 1, "fgh",
        lambda grp, q: Margins(-calculus.stacked_entropy_curvature(*grp.fgh)[:, None], None),
    ),
    "hessian_psd": Checker(  # minus the top eigenvalue of each row's entropy Hessian
        "hessian_psd", 1, "f",
        lambda grp, q: Margins(-calculus.stacked_entropy_hessian(grp.p, grp.f)[1][:, None], None),
        row_bytes=lambda n: 8 * 8 * (n + 1) * (n + 1),
    ),
    "renyi_concavity": Checker("renyi_concavity", 1, "fgh", _q_kernel("renyi"), takes_q=True),
    "tsallis_concavity": Checker("tsallis_concavity", 1, "fgh", _q_kernel("tsallis"), takes_q=True),
}

CHECKER_IDS = tuple(CHECKERS)

SHANNON_SUITE = tuple(cid for cid, checker in CHECKERS.items() if not checker.takes_q)


def group_report(cid: str, group: Group, q: float | None = None):
    """Row 0 of the checker's kernel on the group as a MarginReport; None when n is too small."""
    if cid not in CHECKERS:
        raise ValueError(f"unknown checker id {cid!r}")
    checker = CHECKERS[cid]
    if group.n < checker.min_n:
        return None
    return checker.kernel(group, q).report(checker.name)


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


def _real(name: str, value):
    """value if it is a real number; a bool, a string or None is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _integer(name: str, value) -> int:
    """value as an int; a non-integral number is refused, where int() would truncate it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{name} must be integral, got {value!r}")
    return int(value)


def _sequence(name: str, value, what: str) -> tuple:
    """value as a tuple; a string, a mapping or a scalar is refused, where tuple() would split it."""
    if isinstance(value, (str, bytes, dict)):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be {what}, got {value!r}") from None


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
        object.__setattr__(self, "seed", _integer("seed", self.seed) & _MASK64)
        n_range = _sequence("n_range", self.n_range, "two integers")
        if len(n_range) != 2:
            raise ValueError(f"n_range must be two integers, got {self.n_range!r}")
        object.__setattr__(self, "n_range", tuple(_integer("n_range", n) for n in n_range))
        object.__setattr__(self, "instance_count", _integer("instance_count", self.instance_count))
        object.__setattr__(self, "inequality_set",
                           _sequence("inequality_set", self.inequality_set, "a list of checker ids"))
        if self.q_grid is not None:
            grid = _sequence("q_grid", self.q_grid, "a list of q values")
            object.__setattr__(self, "q_grid",
                               tuple(qentropy._checked_q(_real("q_grid entry", q)) for q in grid))
        if self.instance_count < 1:
            raise ValueError("instance_count must be at least 1")
        if not 0.0 <= _real("interior_margin", self.interior_margin) < 0.5:
            raise ValueError("interior_margin must lie in [0, 0.5)")
        object.__setattr__(self, "interior_margin", float(self.interior_margin))
        if not 1 <= self.n_range[0] <= self.n_range[1]:
            raise ValueError("n_range must satisfy 1 <= min <= max")
        if self.n_range[1] >= 1 << 63:
            raise ValueError(f"n_range must fit in int64, got {list(self.n_range)!r}")
        if self.slope_distribution not in _SLOPE_DISTRIBUTIONS:
            raise ValueError(f"unknown slope distribution {self.slope_distribution!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for cid in self.inequality_set:
            if cid not in CHECKER_IDS:
                raise ValueError(f"unknown checker id {cid!r}")
        if any(CHECKERS[cid].takes_q for cid in self.inequality_set) and not self.q_grid:
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
        return cls(**data)

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


def _component_counts(config: ScanConfig, index: np.ndarray) -> np.ndarray:
    """The n of each indexed random_affine instance: its stream's first output, drawn always."""
    n_lo, n_hi = config.n_range
    first = _streams(config.seed, index, 1)[:, 0]
    return n_lo + (first % np.uint64(n_hi - n_lo + 1)).astype(np.int64)


def _random_affine(config: ScanConfig, index: np.ndarray, n: int) -> Group:
    """The random_affine instances at index, all of component count n, drawn as one array.

    Output 0 of each stream drew n. Outputs 1..n give p_i = eps + (1 - 2 eps) u
    with u uniform in [0, 1) from the top 53 bits. The slopes follow:
    signed_unit 2u - 1, monotone_unit u, and unit_sphere one Box-Muller pair
    per slope, sqrt(-2 ln u1) cos(2 pi u2), with u1 in (0, 1) from the top 52
    bits plus one half and u2 as u. Each row of slopes is scaled so that its
    largest |slope| is 1; an all-zero row becomes (1, 0, ..., 0). ln and cos
    are math's, one element at a time: numpy's differ in the last bits.
    """
    sphere = config.slope_distribution == "unit_sphere"
    draws = _streams(config.seed, index, 1 + n + (2 * n if sphere else n))
    eps = config.interior_margin
    p = eps + (1.0 - 2.0 * eps) * _uniform(draws[:, 1 : n + 1])
    rest = draws[:, n + 1 :]
    if sphere:
        u1 = ((rest[:, 0::2] >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
        u2 = _uniform(rest[:, 1::2])
        z = np.array([math.sqrt(-2.0 * math.log(a)) * math.cos(2.0 * math.pi * b)
                      for a, b in zip(u1.ravel().tolist(), u2.ravel().tolist())]).reshape(u1.shape)
    elif config.slope_distribution == "signed_unit":
        z = 2.0 * _uniform(rest) - 1.0
    else:
        z = _uniform(rest)
    top = np.abs(z).max(axis=1)
    z[top == 0.0, 0] = 1.0
    return Group(p, z / np.where(top == 0.0, 1.0, top)[:, None], index, np.zeros(index.size))


def sample_instance(config: ScanConfig, index: int) -> ScanInstance:
    """Random instance for the given index; pure in (seed, config, index). A one-row scan draw."""
    rows = np.array([index])
    group = _random_affine(config, rows, int(_component_counts(config, rows)[0]))
    return ScanInstance(index, tuple(group.p[0].tolist()), tuple(group.slopes[0].tolist()), 0.0)


def _family_sizes(config: ScanConfig) -> np.ndarray:
    """The component count of every instance of the configured family, by index."""
    count = config.instance_count
    if config.family == "random_affine":
        return _component_counts(config, np.arange(count))
    n = {"bernoulli": 1, "binomial2": 2}.get(config.family, config.n_range[1])
    return np.full(count, n)


def _require_reproduced(margin: np.ndarray, reeval: np.ndarray) -> None:
    """Raise ConsistencyError at the first margin not within 1e-12 of its re-evaluation, or NaN."""
    bad = np.flatnonzero(~(np.abs(margin - reeval) <= 1e-12))
    if bad.size:
        raise ConsistencyError(
            f"certificate does not reproduce: {margin[bad[0]].item()!r} vs "
            f"{reeval[bad[0]].item()!r}"
        )


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
        _require_reproduced(np.array([self.margin]), np.array([self.reeval_margin]))

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


class _Cut(NamedTuple):
    """One checker key's cut rows of one group, as arrays.

    rows holds the cut rows, with the bits a certificate stores; k, margin
    and reeval hold each row's k, cut margin and margin evaluated again on
    rows.
    """

    cid: str
    q: float | None
    rows: Group
    k: np.ndarray
    margin: np.ndarray
    reeval: np.ndarray


def _recheck(group: Group, cuts) -> list[_Cut]:
    """Each key's cut rows of one group, their margins evaluated again from the stored tuples.

    cuts lists (checker id, q, rows, k, margin), the last three arrays over
    that key's cut rows. Each key's cut rows, indexed out of the group (a
    copy with the bits a certificate stores), are one group of their own, on
    which the key's kernel runs and judges (verdict()). A row has the same
    bits in any stack, so each margin comes back with the bits it was cut
    with; _require_reproduced checks each pair as it checks a certificate's.
    A record keeps only the cut rows' arrays, not the caches the kernel
    built on them. run_scan re-checks every group's cuts as _scan yields
    them, each cut row becoming a certificate; estimate_critical_q re-checks
    only the cuts of its last +1 probe, once per root.
    """
    records = []
    for cid, q, rows, k, margin in cuts:
        stored = Group(group.p[rows], group.slopes[rows], group.index[rows], group.t[rows])
        reeval = CHECKERS[cid].kernel(stored, q).verdict().worst
        _require_reproduced(margin, reeval)
        records.append(_Cut(cid, q, Group(stored.p, stored.slopes, stored.index, stored.t),
                            k, margin, reeval))
    return records


def _certificates(config_hash: str, cuts: list[_Cut]) -> list[CounterexampleCertificate]:
    """The certificates of the cut records, sorted by instance index, checker and q."""
    certificates = [
        CounterexampleCertificate(
            config_hash=config_hash,
            instance_index=index,
            inequality=cut.cid,
            p=tuple(p),
            slopes=tuple(slopes),
            t=t,
            q=cut.q,
            k=k,
            margin=margin,
            reeval_margin=reeval,
        )
        for cut in cuts
        for index, p, slopes, t, k, margin, reeval in zip(
            cut.rows.index.tolist(), cut.rows.p.tolist(), cut.rows.slopes.tolist(),
            cut.rows.t.tolist(), cut.k.tolist(), cut.margin.tolist(), cut.reeval.tolist(),
        )
    ]
    certificates.sort(key=lambda c: (c.instance_index, c.inequality, c.q or 0.0))
    return certificates


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

    A chunk holds at most _GROUP_BYTES of kernel buffer, each instance
    counted at the largest row_bytes(n) of the configured checkers, and keeps
    the index order of its instances. Where cij's rows of one instance take
    more than one pair block, a chunk is one instance: a stack of a few rows
    steps its blocks slower per row than one row does, its instance axis
    being innermost. Only one chunk's instances are sampled at a time.
    """
    sizes = _family_sizes(config)
    count = config.instance_count
    if config.family == "bernoulli":
        ts = np.geomspace(1e-6, 0.5, count)
    elif config.family != "random_affine":
        ts = np.linspace(0.02, 0.98, count)
    for n in np.unique(sizes).tolist():
        indices = np.flatnonzero(sizes == n)
        chunk = max(1, _GROUP_BYTES // max(CHECKERS[cid].row_bytes(n)
                                           for cid in config.inequality_set))
        if "cij" in config.inequality_set and pmf._block_pairs(n) < n * (n - 1) // 2:
            chunk = 1
        for lo in range(0, indices.size, chunk):
            index = indices[lo : lo + chunk]
            if config.family == "random_affine":
                yield _random_affine(config, index, n)
            else:
                t = ts[index]
                yield Group(np.repeat(t[:, None], n, axis=1), np.ones((index.size, n)), index, t)


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
        r = worst.argmin()
        if math.isnan(worst[r]):  # argmin lands on the first NaN; the least is among the others
            live = np.flatnonzero(~np.isnan(worst))
            if not live.size:
                return
            r = live[worst[live].argmin()]
        row = (worst[r].item(), int(index[r]), int(ks[r]))
        if self.least is None or row[:2] < self.least[:2]:
            self.least = row

    def entry(self) -> dict:
        index, margin, k = self.first
        if not math.isnan(margin):
            margin, index, k = self.least
        return {"margin": margin, "instance_index": index, "k": k}


def _keys(config: ScanConfig) -> list[tuple[str, float | None, str]]:
    """(checker id, q, report key) of every configured checker, for each q of the grid."""
    return [
        (cid, q, cid if q is None else f"{cid}[q={q!r}]")
        for cid in config.inequality_set
        for q in (config.q_grid if CHECKERS[cid].takes_q else (None,))
    ]


def _scan(keys, groups, minima: dict, rows_of: dict | None = None):
    """The scan loop: yields each group with its cut tuples, folding worst margins into minima.

    keys lists (checker id, q, report key); q is None for the checkers that
    take none. Each key's kernel runs once per group, after Group.prepare has
    built what the keys' checkers share. A row's worst margin, its k and
    whether it is cut come from the kernel's verdict(); its dense margins are
    read only with rows_of, so cij's are never built otherwise. The worst
    margins are folded into minima (report key -> _Minimum) in instance-index
    order, so a tie goes to the lowest index. Each group is yielded with its cuts,
    (checker id, q, rows, k, margin) per key that cuts a row, before the next
    group is drawn; the loop re-checks none of them, its caller does
    (_recheck). With rows_of, every margin row is appended under its instance
    index, for CSV dumps.
    """
    cids = [cid for cid, _, _ in keys]
    for group in groups:
        group.prepare(cids)
        group_cuts = []
        for cid, q, key in keys:
            if group.n < CHECKERS[cid].min_n:
                continue
            margins = CHECKERS[cid].kernel(group, q)
            if rows_of is not None:
                values = margins.values
                ks = range(values.shape[1]) if margins.ks is None else margins.ks.tolist()
                for i, v in zip(group.index.tolist(), values.tolist()):
                    rows_of.setdefault(i, []).extend((i, key, k, m) for k, m in zip(ks, v))
            verdict = margins.verdict()
            if verdict is None:
                continue
            pos, worst, _, cut = verdict
            k = pos if margins.ks is None else margins.ks[pos]
            minima.setdefault(key, _Minimum()).add(group.index, worst, k)
            cut = np.flatnonzero(cut)
            if cut.size:
                group_cuts.append((cid, q, cut, k[cut], worst[cut]))
        yield group, group_cuts


def run_scan(config: ScanConfig, collect_margins: bool = False) -> ScanReport:
    """Evaluate the configured checkers over the instance stream.

    Instances are grouped by n and chunked (_groups), and _scan runs each
    checker's kernel once per group. Deterministic in (seed, config):
    rerunning yields a byte-identical JSON report. With collect_margins the
    full per-instance margin rows are kept for CSV dumps, in instance order.
    """
    rows_of = {} if collect_margins else None
    minima: dict[str, _Minimum] = {}
    cuts = [cut for group, group_cuts in _scan(_keys(config), _groups(config), minima, rows_of)
            for cut in _recheck(group, group_cuts)]
    config_hash = config.config_hash()
    takes_q = any(CHECKERS[cid].takes_q for cid in config.inequality_set)
    return ScanReport(
        config=config,
        config_hash=config_hash,
        worst_margins={key: minimum.entry() for key, minimum in minima.items()},
        certificates=tuple(_certificates(config_hash, cuts)),
        margin_rows=tuple(r for i in sorted(rows_of) for r in rows_of[i])
        if collect_margins
        else None,
        caveat=OVERESTIMATE_CAVEAT if takes_q else None,
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
    the family on the kind's curvature checker cuts a row, and -1 where it
    cuts none. No certificate is made and no config hashed. The family's
    groups, chunked for the one checker, and their f, g and h are built once
    per root from one config, on the probe's first call, and each group's q
    basis on the first step; each step then passes the scan loop its one
    key, (checker id, q), and builds no config. Only the cuts of the last
    probe that read +1 are kept: that q is the +1 end of the final bracket,
    so it sets the root, and every cut row of it, in every group, is
    evaluated again (_recheck) once find_critical_q returns. The violation
    predicate is assumed monotone in q, per the shape of the conjecture, so
    every earlier +1 step lies beyond that q; that assumption is recorded in
    the caveat, not enforced. The Shannon kind never produces violations, so
    it surfaces the constant predicate error.
    """
    if kind not in qentropy._KINDS:
        raise ValueError(f"unknown entropy kind {kind!r}")
    cid = "entropy_concavity" if kind == "shannon" else f"{kind}_concavity"
    groups: list[Group] = []
    last_cut: list = []  # (group, cuts) of each group the last +1 probe cut

    def probe(q: float) -> float:
        if kind == "shannon":
            q = None
        if not groups:
            scan = replace(config, family=family, inequality_set=(cid,),
                           q_grid=None if q is None else (q,))
            groups.extend(_groups(scan))
        # EntropySpec checks q in the kernel with ScanConfig's rule and message.
        cut = [(group, cuts) for group, cuts in _scan([(cid, q, cid)], groups, {}) if cuts]
        if cut:
            last_cut[:] = cut
        return 1.0 if cut else -1.0

    result = qentropy.find_critical_q(f"{family}:{kind}", bracket, probe, tol)
    for group, cuts in last_cut:
        _recheck(group, cuts)
    return replace(result, caveat=OVERESTIMATE_CAVEAT)
