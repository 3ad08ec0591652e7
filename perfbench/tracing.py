"""In-memory spans around the engine's public calls, for the traced run.

The engine is not edited.  While a `Tracer` is installed it replaces the
public functions named in `LAYERS` on their modules (and two constructors
and one method on their classes) with wrappers that record a span per call.
Calls between engine modules go through module attributes, so a wrapper
also sees the calls one layer makes into another: `Skeleton.__init__`
calls `trees.enumerate_maximal_nestings`, `decide_coherence` calls
`word_to_path`, `HomotopyBuilder.general` and `verify_certificate`.

A span is ``(span_id, parent_id, op_id, name, start_ns, end_ns)``.  Self
time is a span's duration minus the durations of its direct children.
Only calls and collections inside an operation's (or a set-up's) root span
are recorded, so the benchmark's own checks and its collections between
operations leave no trace.
"""

import gc
import json
import time
from contextlib import contextmanager

from operahedra import coherence, complexes, homotopy, skeleton, trees

# (metric prefix, owner object, attribute); the prefix names the layer.
LAYERS = (
    ("trees.enumerate_ordered_trees", trees, "enumerate_ordered_trees"),
    ("trees.parse_expression", trees, "parse_expression"),
    ("trees.enumerate_maximal_nestings", trees, "enumerate_maximal_nestings"),
    ("skeleton.Skeleton", skeleton.Skeleton, "__init__"),
    ("complexes.morse_certificate", complexes, "morse_certificate"),
    ("complexes.homology", complexes, "homology"),
    ("coherence.maclane_parse", coherence, "maclane_parse"),
    ("coherence.parse_word_text", coherence, "parse_word_text"),
    ("coherence.decide_coherence", coherence, "decide_coherence"),
    ("coherence.word_to_path", coherence, "word_to_path"),
    ("homotopy.HomotopyBuilder", homotopy.HomotopyBuilder, "__init__"),
    ("homotopy.general", homotopy.HomotopyBuilder, "general"),
    # decide_coherence looks verify_certificate up in its own module
    ("homotopy.verify_certificate", coherence, "verify_certificate"),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


def _out_degrees(c, orientation):
    degree = [0] * c.vertex_count
    for e, (a, b) in enumerate(c.edges):
        degree[a if orientation[e] == 0 else b] += 1
    return degree


def _count(counters, args, result, name):
    """Work counters of one call, taken from its arguments and result."""
    if name == "trees.enumerate_maximal_nestings":
        counters["trees.nestings"] += len(result)
    elif name == "skeleton.Skeleton":
        sk = args[0]
        counters["skeleton.cells"] += len(sk.vertices) + len(sk.edges) + len(sk.faces)
    elif name == "complexes.morse_certificate":
        c, orientation = args
        degree = _out_degrees(c, orientation)
        counters["complexes.morse_cells"] += c.vertex_count + len(c.edges) + len(c.cells)
        counters["complexes.link_max"] = max(counters["complexes.link_max"], max(degree))
        counters["complexes.link_total"] += sum(degree)
        counters["complexes.link_vertices"] += len(degree)
    elif name == "complexes.homology":
        (c,) = args
        V, E, F = c.vertex_count, len(c.edges), len(c.cells)
        counters["complexes.homology_cells"] += V + E + F
        counters["complexes.dense_entries"] += V * E + E * F
    elif name == "coherence.parse_word_text":
        counters["coherence.parsed_moves"] += len(result.moves)
    elif name == "coherence.word_to_path":
        counters["coherence.replayed_moves"] += len(args[0].moves)
    elif name == "homotopy.general":
        moves = result.moves
        counters["homotopy.cert_moves"] += len(moves)
        counters["homotopy.face_moves"] += sum(
            isinstance(m, homotopy.FaceSubstitute) for m in moves
        )
    elif name == "homotopy.verify_certificate":
        counters["homotopy.verified_moves"] += len(args[1].moves)


class Tracer:
    """Spans, work counters and collector pauses of the traced rounds."""

    def __init__(self):
        self.spans = []
        self.counters = None
        self._stack = []
        self._op = None
        self._gc_start = None

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self._op, name, time.perf_counter_ns(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][5] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, op_id):
        """Root span of one benchmark operation (or of a set-up)."""
        self._op = op_id
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)
            self._op = None

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self._op is None:  # the benchmark's own checks, not an operation
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            _count(self.counters, args, result, name)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if self._op is None:  # a collection between operations is not theirs
            self._gc_start = None
        elif phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start is not None:
            self.counters["gc.collections"] += 1
            self.counters["gc.pause_ns"] += time.perf_counter_ns() - self._gc_start
            self._gc_start = None

    @contextmanager
    def installed(self, counters):
        """Wrap every layer and watch the collector; `counters`, a
        `collections.Counter`, collects the work counts of the calls and the
        collections made meanwhile."""
        self.counters = counters
        saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in LAYERS]
        for (name, owner, attr), (_, _, fn) in zip(LAYERS, saved):
            setattr(owner, attr, self._wrap(name, fn))
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def self_times_ns(self, first_span=0):
        """Self time per span name over spans[first_span:]."""
        child_ns = {}
        for sid, parent, _, _, start, end in self.spans[first_span:]:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        totals = {}
        for sid, _, _, name, start, end in self.spans[first_span:]:
            own = end - start - child_ns.get(sid, 0)
            totals[name] = totals.get(name, 0) + own
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
