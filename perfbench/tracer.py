"""Span recorder for the benchmark's traced runs.

``install()`` replaces public functions and methods of ``gradedlimits`` with
wrappers that record one span per call (name, start, end, parent span).  A
function is replaced in every module namespace that holds it, so a call
through ``families.colength`` is seen as well as one through
``monomial.colength``.  Spans stay in memory; ``summary()`` derives calls,
inclusive time and self time per span name, plus the counters the wrappers
take where the work happens.  Nothing inside ``gradedlimits`` is edited.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute); "Class.method" patches a class attribute.
TARGETS = (
    ("monomial.minimal_generators", "monomial", "minimal_generators"),
    ("monomial.mul", "monomial", "MonomialIdeal.__mul__"),
    ("monomial.contains", "monomial", "MonomialIdeal.contains"),
    ("monomial.colength", "monomial", "colength"),
    ("monomial.saturation_quotient_colength", "monomial", "saturation_quotient_colength"),
    ("monomial.multiplicity", "monomial", "multiplicity"),
    ("families.valuation_gens", "families", "valuation_gens"),
    ("families.check_graded", "families", "check_graded"),
    ("families.ideal", "families", "GradedFamily.ideal"),
    ("semigroup.level", "semigroup", "GradedSemigroup.level"),
    ("semigroup.invariants", "semigroup", "invariants"),
    ("series.closure_violations", "series", "closure_violations"),
    ("series.level", "series", "MonomialLinearSeries.level"),
    ("series.kodaira_iitaka", "series", "kodaira_iitaka"),
    ("lattice.convex_hull", "lattice", "convex_hull"),
    ("lattice.lattice_volume", "lattice", "lattice_volume"),
    ("lattice.hermite_basis", "lattice", "hermite_basis"),
    ("experiments.sequence", "experiments", "length_sequence"),
    ("experiments.sequence", "experiments", "dim_sequence"),
    ("experiments.sequence", "experiments", "saturation_gap_sequence"),
    ("experiments.convergence_report", "experiments", "convergence_report"),
    ("specfiles", "specfiles", "load_spec"),
    ("specfiles", "specfiles", "load_ideal"),
    ("specfiles", "specfiles", "build_semigroup"),
    ("specfiles", "specfiles", "build_family"),
    ("specfiles", "specfiles", "build_series"),
)

MODULES = ("lattice", "monomial", "semigroup", "families", "series",
           "experiments", "specfiles", "cli")


class Recorder:
    """Spans as parallel arrays; a stack of open spans gives each its parent."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._ids: dict[str, int] = {}
        self._depth: dict[int, int] = defaultdict(int)
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name_of[idx]] -= 1

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds (outermost spans), self seconds."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for i, nid in enumerate(self.name_of):
            dur = self.end[i] - self.start[i]
            agg = spans[self.names[nid]]
            agg["calls"] += 1
            agg["self_s"] += dur - child[i]
            if self.outer[i]:
                agg["s"] += dur
        return {"spans": spans, "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.keys.items()}}


def _wrapper(rec: Recorder, name: str, fn):
    counts, keys = rec.counts, rec.keys
    if name == "monomial.minimal_generators":
        def traced(candidates):
            candidates = tuple(candidates)
            out = rec.span(name, fn, candidates)
            counts["candidates"] += len(candidates)
            counts["kept"] += len(out)
            return out
    elif name == "families.check_graded":
        def traced(family, horizon):
            report = rec.span(name, fn, family, horizon)
            counts["pairs"] += report.checked_pairs
            return report
    elif name in ("families.ideal", "series.level"):
        def traced(self, n):
            keys[name].add((id(self), n))
            return rec.span(name, fn, self, n)
    elif name == "semigroup.level":
        def traced(self, n):
            out = rec.span(name, fn, self, n)
            key = (id(self), n)
            if key not in keys[name]:
                keys[name].add(key)
                counts["points"] += len(out)
            return out
    else:
        def traced(*args, **kwargs):
            return rec.span(name, fn, *args, **kwargs)
    traced.__wrapped__ = fn
    return traced


def install() -> Recorder:
    """Wrap every target wherever gradedlimits' modules refer to it."""
    rec = Recorder()
    mods = [importlib.import_module(f"gradedlimits.{m}") for m in MODULES]
    mods.append(sys.modules["gradedlimits"])
    for name, module, attr in TARGETS:
        owner = sys.modules[f"gradedlimits.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _wrapper(rec, name, getattr(cls, meth)))
            continue
        fn = getattr(owner, attr)
        traced = _wrapper(rec, name, fn)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, traced)
    return rec
