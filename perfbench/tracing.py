"""Spans recorded at the module boundaries of ``koszul`` for the traced run.

The program itself is not changed: :meth:`Tracer.install` replaces the
public functions at each module boundary by wrappers that record a span
(layer, start, end, parent) and restores them on exit.  Calls are caught
where the caller looks the name up, so e.g. ``koszul.hilbert.rank`` is
wrapped in the ``koszul.hilbert`` namespace, where ``w_dim`` finds it.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Spans started on a worker thread with no
open span of their own take as parent the innermost open span of the
thread that installed the tracer; the only pool in the program is the
degree-level one inside ``hilbert_profile``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field

# The layers the per-layer metrics are made from, and their self-time names.
SELF_TIME_METRICS = {
    "subspaces": "subspaces.canon_s",
    "hilbert": "hilbert.self_s",
    "hilbert.build": "hilbert.build_s",
    "linalg.rank": "linalg.modp_s",
    "linalg.oracle": "linalg.oracle_s",
    "linalg.key": "linalg.key_s",
    "linalg.cache_get": "linalg.cache_get_s",
    "linalg.cache_put": "linalg.cache_put_s",
    "resonance": "resonance.self_s",
    "resonance.pencil": "resonance.pencil_s",
    "cli": "cli.self_s",
}


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    phase: object
    start: float
    end: float = 0.0
    info: object = None  # what the layer's counts need, taken from the call
    children: list = field(default_factory=list)


class Tracer:
    """Keeps spans in memory; the benchmark reads them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase: object = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, describe=None):
        """Wrap ``fn`` in a span; ``describe(args, result)`` gives the span's
        ``info``, so that no argument or result outlives the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            elif threading.get_ident() != tracer._owner and tracer._owner_stack:
                parent = tracer._owner_stack[-1].id
            else:
                parent = None
            span = Span(next(tracer._ids), parent, layer, tracer.phase, time.perf_counter())
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if describe is not None:
                    span.info = describe(args, result)
                tracer.spans.append(span)

        return traced

    def _patch(self, owner, name: str, layer: str, describe=None):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, describe))

    def install(self):
        """Wrap the module boundaries of ``koszul``; undo with :meth:`remove`."""
        import koszul.cli as cli
        import koszul.hilbert as hilbert
        import koszul.linalg as linalg
        import koszul.resonance as resonance
        import koszul.subspaces as subspaces

        for owner in (subspaces, cli):
            self._patch(owner, "weyman_K", "subspaces")
        self._patch(subspaces, "random_K", "subspaces")
        self._patch(subspaces, "subspace_from_rows", "subspaces")
        for owner in (hilbert, cli):
            self._patch(owner, "hilbert_profile", "hilbert")
        for owner in (hilbert, resonance):
            self._patch(owner, "w_dim", "hilbert")
        self._patch(hilbert, "restricted_delta2", "hilbert.build", _describe_build)
        self._patch(hilbert, "rank", "linalg.rank", _describe_rank)
        self._patch(linalg, "rational_rank", "linalg.oracle")
        self._patch(linalg.SparseMatrix, "canonical_key", "linalg.key")
        self._patch(linalg.RankCache, "get", "linalg.cache_get", _describe_get)
        self._patch(linalg.RankCache, "put", "linalg.cache_put")
        self._patch(resonance, "resonance_vanishes", "resonance")
        self._patch(resonance, "pencil_decomposable", "resonance.pencil")
        self._patch(cli, "main", "cli")
        return self

    def remove(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def span_cost_s(self, calls: int = 20000) -> float:
        """Measured cost of one span: a wrapped no-op against a bare one."""

        def noop():
            return None

        wrapped = self.wrap("calibration", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        self.spans = [s for s in self.spans if s.layer != "calibration"]
        return max(traced - bare, 0.0) / calls


def _describe_build(args, matrix):
    return None if matrix is None else matrix.nnz


def _describe_rank(args, certificate):
    matrix, fieldspec = args[0], args[1]
    modular = hasattr(fieldspec, "p")
    exact = certificate is not None and certificate.certified_exact
    return matrix.nrows * matrix.ncols, modular, exact


def _describe_get(args, value):
    return value is not None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children."""
    by_id = {s.id: s for s in spans}
    for s in spans:
        s.children = []
    for s in spans:
        if s.parent in by_id:
            by_id[s.parent].children.append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(s.children, key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Self time and counts of one phase (one pass, or the set-up)."""
    own = self_times(spans)
    totals = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    counts = {
        "hilbert.matrices": 0,
        "hilbert.nnz": 0,
        "linalg.modp_calls": 0,
        "linalg.modp_cells": 0,
        "linalg.oracle_calls": 0,
        "linalg.cache_hits": 0,
        "linalg.cache_misses": 0,
        "rank_calls": 0,
        "certified": 0,
        "spans": len(spans),
        "root_s": sum(s.end - s.start for s in spans if s.parent is None),
    }
    for s in spans:
        totals[SELF_TIME_METRICS[s.layer]] += own[s.id]
        if s.layer == "hilbert.build" and s.info is not None:
            counts["hilbert.matrices"] += 1
            counts["hilbert.nnz"] += s.info
        elif s.layer == "linalg.oracle":
            counts["linalg.oracle_calls"] += 1
        elif s.layer == "linalg.cache_get":
            counts["linalg.cache_hits" if s.info else "linalg.cache_misses"] += 1
        elif s.layer == "linalg.rank":
            cells, modular, exact = s.info
            counts["rank_calls"] += 1
            counts["certified"] += int(exact)
            hit = any(c.layer == "linalg.cache_get" and c.info for c in s.children)
            if modular and not hit:
                counts["linalg.modp_calls"] += 1
                counts["linalg.modp_cells"] += cells
    totals.update(counts)
    return totals
