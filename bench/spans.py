"""Traced run: timing wrappers around the public functions of each module.

The wrappers are installed from here, at every place an ``nctori`` module
holds a reference to a target function, and removed again afterwards; the
package itself is not changed.  Each call records a span (id, parent id,
function, item key, start, end).  Spans stay in memory until the run ends.

A function's self time is its span minus the spans of its children.  Sizes
(``max_bits``, ``max_rows``) and verdicts are read from the returned value
after the span has closed; that reading is recorded as a ``bench.measure``
child of the caller, so it is charged to no function.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from collections import defaultdict

TARGETS = {
    "cli": ("parse_problem", "main"),
    "exactlin": (
        "hnf", "snf", "integral_solution_lattice", "left_kernel", "saturate",
        "complete_to_basis", "int_inverse_unimodular", "solve_row_system",
        "smat_mul", "smat_inv", "smat_det", "smat_rank",
    ),
    "hyperlattice": ("complete_isotropic_basis", "select_transversal", "choose_sign_vector"),
    "reduction": ("degeneracy_subgroup", "canonical_form", "act", "is_in_onn"),
    "invariants": ("pfaffian", "trace_range", "range_equal_up_to_scaling", "morita_equivalent"),
    "twisted": ("hsigma", "simple_quotient", "trace_range_tga", "morita_equivalent_tga"),
}
MODULES = tuple(TARGETS)
VERDICTS = ("equal", "scaled", "rank", "ratio-field", "multiplier-order", "center", "dimension", "unknown")

# the per-layer metrics, per pass of the workload
PER_LAYER = (
    *(f"{m}.self_ms" for m in MODULES),
    "trace.overhead_ratio",
    "cli.parse_problem.calls", "cli.parse_problem.self_ms", "cli.main.self_ms",
    "exactlin.hnf.calls", "exactlin.hnf.self_ms", "exactlin.hnf.max_rows", "exactlin.hnf.max_bits",
    "exactlin.snf.calls", "exactlin.snf.self_ms", "exactlin.snf.max_bits",
    "exactlin.integral_solution_lattice.calls", "exactlin.integral_solution_lattice.total_ms",
    "exactlin.left_kernel.total_ms", "exactlin.saturate.total_ms",
    "exactlin.complete_to_basis.total_ms", "exactlin.int_inverse_unimodular.total_ms",
    "exactlin.solve_row_system.calls", "exactlin.solve_row_system.total_ms",
    "exactlin.smat_mul.calls", "exactlin.smat_mul.self_ms",
    "exactlin.smat_inv.calls", "exactlin.smat_inv.self_ms",
    "exactlin.smat_det.calls", "exactlin.smat_det.self_ms", "exactlin.smat_rank.self_ms",
    "hyperlattice.complete_isotropic_basis.self_ms", "hyperlattice.complete_isotropic_basis.total_ms",
    "hyperlattice.select_transversal.self_ms", "hyperlattice.select_transversal.total_ms",
    "hyperlattice.choose_sign_vector.total_ms",
    "reduction.degeneracy_subgroup.total_ms", "reduction.canonical_form.self_ms",
    "reduction.canonical_form.total_ms", "reduction.act.total_ms", "reduction.is_in_onn.total_ms",
    "invariants.pfaffian.calls", "invariants.pfaffian.self_ms",
    "invariants.trace_range.self_ms", "invariants.trace_range.total_ms",
    "invariants.range_equal_up_to_scaling.total_ms", "invariants.morita_equivalent.total_ms",
    *(f"invariants.verdict.{v}" for v in VERDICTS),
    "invariants.unknown_ratio",
    "twisted.hsigma.calls", "twisted.hsigma.total_ms", "twisted.simple_quotient.total_ms",
    "twisted.trace_range_tga.self_ms", "twisted.trace_range_tga.total_ms",
    "twisted.morita_equivalent_tga.total_ms",
)

ITEM = "bench.item"
MEASURE = "bench.measure"


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


def _verdict(v) -> str:
    if v.is_unknown:
        return "unknown"
    if v.is_equivalent:
        return "equal" if v.mu == 1 else "scaled"
    return v.reason


def _sizes(args, result):
    """(max_bits, max_rows) of an hnf/snf call: bits over every returned
    matrix, rows of the input (the side of the square row transform)."""
    return _max_bits(result), len(args[0])


MEASURES = {
    "exactlin.hnf": _sizes,
    "exactlin.snf": _sizes,
    "invariants.morita_equivalent": lambda args, result: _verdict(result),
    "twisted.morita_equivalent_tga": lambda args, result: _verdict(result),
}


class Tracer:
    def __init__(self):
        self.names = [ITEM, MEASURE] + [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.spans: list[tuple] = []     # (id, parent, name, item, t0, t1, nested)
        self.measured: list[tuple] = []  # (name, item, value)
        self._stack = [0]
        self._depth = [0] * len(self.names)
        self._ids = itertools.count(1)
        self._item = -1
        self._patched: list[tuple] = []

    # --- installation -----------------------------------------------------

    def install(self):
        mods = [m for name, m in sys.modules.items() if name == "nctori" or name.startswith("nctori.")]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"nctori.{mod_name}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        idx = self.index[name]
        measure = MEASURES.get(name)
        spans, stack, depth, ids = self.spans, self._stack, self._depth, self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            depth[idx] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[idx] -= 1
                stack.pop()
                spans.append((sid, parent, idx, self._item, t0, t1, depth[idx] > 0))
            if measure is not None:
                self.measured.append((idx, self._item, measure(args, result)))
                spans.append((next(ids), parent, 1, self._item, t1, clock(), False))
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # --- per item ---------------------------------------------------------

    def call(self, key, fn):
        """Run fn() as the root span of item ``key``."""
        self._item = key
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, 0, 0, key, t0, t1, False))

    # --- aggregation ------------------------------------------------------

    def aggregate(self, group_of):
        """Per group (``group_of(item key)``, e.g. the pass number): for every
        function its calls, self ns and total ns (outermost calls only), and
        the measured maxima and verdict counts."""
        child = defaultdict(int)
        for sid, parent, idx, item, t0, t1, nested in self.spans:
            child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": defaultdict(int), "self": defaultdict(int),
                                   "total": defaultdict(int), "max_bits": defaultdict(int),
                                   "max_rows": defaultdict(int), "verdicts": defaultdict(int)})
        for sid, parent, idx, item, t0, t1, nested in self.spans:
            g = out[group_of(item)]
            name = self.names[idx]
            if idx > 1:
                g["calls"][name] += 1
                g["self"][name] += (t1 - t0) - child[sid]
                if not nested:
                    g["total"][name] += t1 - t0
        for idx, item, value in self.measured:
            g = out[group_of(item)]
            name = self.names[idx]
            if isinstance(value, str):
                g["verdicts"][value] += 1
            else:
                bits, rows = value
                g["max_bits"][name] = max(g["max_bits"][name], bits)
                g["max_rows"][name] = max(g["max_rows"][name], rows)
        return out

    def dump(self) -> dict:
        return {
            "names": self.names,
            "fields": ["id", "parent", "name", "item", "start_ns", "end_ns", "nested"],
            "spans": [list(s) for s in self.spans],
        }


def layer_metrics(groups: list[dict], unknown_ratio_base: int) -> dict:
    """Every function's numbers for one pass, the median over the traced
    passes (counts and sizes repeat exactly from pass to pass)."""

    def med(fn):
        return statistics.median(fn(g) for g in groups)

    ms = 1e-6
    m = {}
    for mod in MODULES:
        m[f"{mod}.self_ms"] = med(lambda g: sum(v for k, v in g["self"].items() if k.startswith(mod + ".")) * ms)
    for mod, funcs in TARGETS.items():
        for f in funcs:
            name = f"{mod}.{f}"
            m[f"{name}.calls"] = med(lambda g: g["calls"][name])
            m[f"{name}.self_ms"] = med(lambda g: g["self"][name] * ms)
            m[f"{name}.total_ms"] = med(lambda g: g["total"][name] * ms)
    for name in ("exactlin.hnf", "exactlin.snf"):
        m[f"{name}.max_bits"] = med(lambda g: g["max_bits"][name])
    m["exactlin.hnf.max_rows"] = med(lambda g: g["max_rows"]["exactlin.hnf"])
    for v in VERDICTS:
        m[f"invariants.verdict.{v}"] = med(lambda g: g["verdicts"][v])
    m["invariants.unknown_ratio"] = m["invariants.verdict.unknown"] / unknown_ratio_base if unknown_ratio_base else 0.0
    return m
