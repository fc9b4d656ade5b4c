"""In-memory spans around the public functions of each aqsteiner layer.

``install`` replaces module attributes with recording wrappers at every
place a caller binds the name (``construct`` binds ``side_view`` and
calls itself recursively through its own global; ``cli`` binds the
constructor as ``build_family``), and ``uninstall`` puts the originals
back.  A span is (name, start, end, parent, note): ``parent`` is the
index of the enclosing span or -1, and ``note`` holds what the wrapper
read off the result (None when the call raised).  Nothing is written anywhere until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

import aq

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index][START] = start
        self.spans[index][END] = end

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start)

    @contextlib.contextmanager
    def paused(self):
        """Run checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start)
            if note is not None:
                self.spans[index][NOTE] = note(self, result, args)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function where its callers look it up."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, note, bindings in _TRACED:
            fn = getattr(bindings[0][0], bindings[0][1])
            wrapper = self.wrap(name, fn, note)
            for module, attr in bindings:
                self._restore.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def _view_size(view) -> int:
    return view.cube.order if view.allowed is None else len(view.allowed)


def _note_paths(tracer: Tracer, result, args) -> None:
    tracer.counts["topology.view_vertices"] += _view_size(args[0])
    if isinstance(result, aq.paths.MinCut):
        tracer.counts["paths.disjoint_paths.mincut"] += 1
    else:
        tracer.counts["paths.path_vertices"] += sum(len(p) for p in result.paths)


def _note_connector(tracer: Tracer, result, args) -> None:
    tracer.counts["topology.view_vertices"] += _view_size(args[0])


def _note_family(tracer: Tracer, family, args) -> tuple[str, bool, int]:
    return family.provenance[0].case.value, family.fallback_used, sum(len(t.edges) for t in family.trees)


def _note_verify(tracer: Tracer, report, args) -> None:
    tracer.counts["verify.edges"] += sum(len(t.edges) for t in args[1].trees)


# (span name, note, [(module, attribute), ...]); the first binding is the definition
_TRACED = (
    ("topology.side_view", None, [(aq.topology, "side_view"), (aq.construct, "side_view")]),
    ("paths.disjoint_paths", _note_paths, [(aq.paths, "disjoint_paths")]),
    ("paths.reorder_paths", None, [(aq.paths, "reorder_paths")]),
    ("paths.map_path_system", None, [(aq.paths, "map_path_system")]),
    ("paths.connector_tree", _note_connector, [(aq.paths, "connector_tree")]),
    ("construct.construct", _note_family, [(aq.construct, "construct"), (aq.cli, "build_family")]),
    ("construct.base_case_search", None, [(aq.construct, "base_case_search")]),
    ("verify.verify_family", _note_verify, [(aq.verify, "verify_family")]),
    ("cli.run_sweep", None, [(aq.cli, "run_sweep")]),
)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        s[END] - s[START] - covered(s[START], s[END], children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer, triples: int, cases) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one traced pass over ``triples`` triples.

    ``cases`` lists the case names that get a per-case latency entry.
    """
    spans = tracer.spans
    counts = tracer.counts
    calls: Counter[str] = Counter()
    busy: Counter[str] = Counter()
    for s in spans:
        calls[s[NAME]] += 1
        busy[s[NAME]] += s[END] - s[START]
    own = self_times(spans)
    top = [i for i, s in enumerate(spans) if s[NAME] == "construct.construct" and not _has_ancestor(spans, i, s[NAME])]
    noted = [i for i in top if spans[i][NOTE] is not None]
    by_case: dict[str, list[float]] = defaultdict(list)
    for i in noted:
        by_case[spans[i][NOTE][0]].append(1000.0 * (spans[i][END] - spans[i][START]))
    construct_s = sum(spans[i][END] - spans[i][START] for i in top)

    def share(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in ("topology.side_view", "paths.disjoint_paths", "paths.reorder_paths",
                  "paths.map_path_system", "paths.connector_tree"):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.s"] = (busy[layer], "s")
    out["topology.view_vertices"] = (counts["topology.view_vertices"], "count")
    out["paths.disjoint_paths.mincut"] = (counts["paths.disjoint_paths.mincut"], "count")
    out["paths.path_vertices"] = (counts["paths.path_vertices"], "count")
    out["paths.disjoint_paths.construct_share"] = (
        100.0 * share(busy["paths.disjoint_paths"], construct_s), "%")
    out["construct.construct.calls"] = (calls["construct.construct"], "count")
    out["construct.s"] = (construct_s, "s")
    out["construct.self_s"] = (
        sum(t for t, s in zip(own, spans) if s[NAME] == "construct.construct"), "s")
    out["construct.base_case_search.calls"] = (calls["construct.base_case_search"], "count")
    out["construct.base_case_search.s"] = (busy["construct.base_case_search"], "s")
    out["construct.fallback_fraction"] = (share(sum(spans[i][NOTE][1] for i in noted), len(noted)), "ratio")
    out["construct.cert_edges"] = (share(sum(spans[i][NOTE][2] for i in noted), len(noted)), "count")
    for case in cases:
        samples = by_case.get(case)
        out[f"construct.case.{case}.ms_p50"] = (statistics.median(samples) if samples else 0.0, "ms")
    out["verify.verify_family.calls"] = (calls["verify.verify_family"], "count")
    out["verify.verify_family.s"] = (busy["verify.verify_family"], "s")
    out["verify.calls_per_triple"] = (share(calls["verify.verify_family"], triples), "count")
    out["verify.edges_per_s"] = (share(counts["verify.edges"], busy["verify.verify_family"]), "1/s")
    out["cli.serialise.s"] = (busy["cli.serialise"], "s")
    out["cli.parse.s"] = (busy["cli.parse"], "s")
    out["cli.cert_bytes"] = (share(counts["cli.cert_bytes"], counts["cli.certs"]), "bytes")
    out["cli.run_sweep.s"] = (busy["cli.run_sweep"], "s")
    out["trace.spans"] = (len(spans), "count")
    return out
