"""In-memory span tracing around entropath's public functions, from outside.

Each traced function is replaced by a wrapper at every place the package
binds it (a function imported with ``from .pmf import leave_structures`` is
bound in the importing module too), so calls made inside the package are
seen as well as calls made by the benchmark. Spans record name, start, end
and parent; self time is a span's duration minus that of its direct
children. Nothing here is imported by entropath itself.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "entropath"

# (module, function) pairs; each becomes the span name "<module>.<function>".
TRACED = (
    ("pmf", "compute_pmf"),
    ("pmf", "leave_structures"),
    ("calculus", "entropy_hessian"),
    ("calculus", "jacobi_eigenvalues"),
    ("calculus", "entropy_curvature"),
    ("inequalities", "check_log_concavity"),
    ("inequalities", "check_two_fold_log_concavity"),
    ("inequalities", "check_c1"),
    ("inequalities", "check_c1bar"),
    ("inequalities", "check_cij_nonpositive"),
    ("inequalities", "check_condition4"),
    ("inequalities", "check_corollary_fgh"),
    ("inequalities", "compute_uk"),
    ("qentropy", "q_curvature"),
    ("qentropy", "power_sum_derivatives"),
    ("qentropy", "find_critical_q"),
    ("explorer", "run_scan"),
    ("explorer", "sample_instance"),
    ("explorer", "estimate_critical_q"),
    ("cli", "main"),
)

# q_curvature is reported per entropy kind, since Renyi and Tsallis take
# different code paths.
SPLIT_BY_KIND = {"qentropy.q_curvature": ("renyi", "tsallis")}


def span_names() -> list[str]:
    names = []
    for module, func in TRACED:
        name = f"{module}.{func}"
        kinds = SPLIT_BY_KIND.get(name)
        if kinds:
            names.extend(f"{name}.{k}" for k in kinds)
        else:
            names.append(name)
    return names


class Tracer:
    """Collects spans while entered; every original binding is restored on exit.

    The binding sites are found once, when the tracer is made, so it can be
    entered and left around each traced round.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span: [name id, start, end, parent index or -1].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.margins = 0
        self.certificates = 0
        self.absent: list[str] = []
        self.binding_sites: dict[str, int] = {}
        # (module, attribute, original, wrapper) for every binding site.
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, func in TRACED:
            name = f"{module_name}.{func}"
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            sites = [(module, attr) for module in modules
                     for attr, value in vars(module).items() if value is original]
            self._sites.extend((module, attr, original, wrapper) for module, attr in sites)
            self.binding_sites[name] = len(sites)

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, name: str, fn):
        tracer = self
        is_checker = name.startswith("inequalities.")
        kinds = SPLIT_BY_KIND.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if kinds:
                spec = kwargs.get("spec", args[2] if len(args) > 2 else None)
                span_name = f"{name}.{getattr(spec, 'kind', 'other')}"
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [tracer._name_id(span_name), time.perf_counter(), 0.0, parent]
            tracer.spans.append(record)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if is_checker:
                tracer.margins += len(getattr(result, "margins", None) or getattr(result, "terms", ()))
            elif name == "explorer.run_scan":
                tracer.certificates += len(result.certificates)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name."""
        self_s = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self_s):
            entry = out.setdefault(self.names[s[0]], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        return out

    def scans_per_root(self) -> float:
        """run_scan spans nested under estimate_critical_q, per estimate_critical_q span."""
        root_id = self._name_ids.get("explorer.estimate_critical_q")
        scan_id = self._name_ids.get("explorer.run_scan")
        if root_id is None or scan_id is None:
            return 0.0
        roots = 0
        scans = 0
        for s in self.spans:
            if s[0] == root_id:
                roots += 1
            elif s[0] == scan_id:
                parent = s[3]
                while parent >= 0 and self.spans[parent][0] != root_id:
                    parent = self.spans[parent][3]
                scans += parent >= 0
        return scans / roots if roots else 0.0

    def dump(self, path) -> None:
        """Write names and spans (name id, start, end, parent) as JSON."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "binding_sites": self.binding_sites,
                       "spans": self.spans}, fh, separators=(",", ":"))
