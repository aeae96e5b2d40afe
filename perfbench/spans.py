"""Span and count recorders around the package's layer entry points.

``install`` rebinds the public functions of each layer, as the modules
``catalogue``, ``enumeration``, ``matroid`` and ``tutte`` look them up at
call time, to wrappers that record one span per call: name, start, end,
nesting depth and an outcome value (for instance whether a canonicity test
kept the candidate).  The default thread pool runs the per-candidate work on
worker threads, so every thread appends to its own buffer, tagged with its
thread id; the only lock guards the registration of a new buffer.

Spans stay in memory until ``summarize`` turns them into per-layer metrics
and ``dump`` writes them out, both after the timed calls have returned.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter_ns

# layers with a <layer>.self_s metric; catalogue.self_s is computed apart
LAYERS = ("enumeration", "matroid", "regularity", "tutte", "gf2")
ROOT = "catalogue.main"


class _ThreadBuffer:
    __slots__ = ("thread_id", "depth", "spans")

    def __init__(self) -> None:
        self.thread_id = threading.get_ident()
        self.depth = 0
        # (name id, start ns, end ns, depth, outcome), appended at exit, so
        # each thread's list is in post-order
        self.spans: list[tuple[int, int, int, int, int]] = []


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name, fn, outcome=None):
        """fn with one span per call; outcome maps the result to an int."""
        nid = self._name_id(name)
        buffer = self._buffer

        def traced(*args, **kwargs):
            buf = buffer()
            depth = buf.depth
            buf.depth = depth + 1
            value = -1  # stays -1 when fn raises
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    value = int(outcome(result))
                else:
                    value = 0
                return result
            finally:
                t1 = perf_counter_ns()
                buf.depth = depth
                buf.spans.append((nid, t0, t1, depth, value))

        return traced

    def wrap_iter(self, name, fn):
        """Generator function fn with one span per item drawn (outcome 1) and
        one for the final exhausted draw (outcome 0)."""
        nid = self._name_id(name)
        buffer = self._buffer

        def draw(it):
            while True:
                # the generator may be drained on any thread
                buf = buffer()
                depth = buf.depth
                buf.depth = depth + 1
                value = -1
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                    value = 1
                except StopIteration:
                    value = 0
                finally:
                    t1 = perf_counter_ns()
                    buf.depth = depth
                    buf.spans.append((nid, t0, t1, depth, value))
                if value == 0:
                    return
                yield item

        def traced(*args, **kwargs):
            return draw(iter(fn(*args, **kwargs)))

        return traced

    def threads(self) -> list[_ThreadBuffer]:
        with self._lock:
            return list(self._buffers)

    def dump(self, path: str) -> None:
        """Write every span, grouped by thread, as one JSON document."""
        doc = {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "depth", "outcome"],
            "threads": [
                {"thread_id": b.thread_id, "spans": b.spans} for b in self.threads()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Rebind the layer entry points of an imported matroidcat to traced ones."""
    from matroidcat import catalogue, enumeration, matroid, tutte
    from matroidcat.gf2 import Gf2Matrix
    from matroidcat.matroid import BinaryMatroid

    # enumeration's own generate() looks these up in its module, catalogue's
    # scans in catalogue's; both names are bound to the same wrapper
    shared = {
        "candidate_functions": tracer.wrap_iter(
            "enumeration.candidate_iter", enumeration.candidate_functions
        ),
        "_lex_larger_witness_columns": tracer.wrap(
            "enumeration.canonicity",
            enumeration._lex_larger_witness_columns,
            outcome=lambda witness: witness is None,
        ),
        "label_vector_of": tracer.wrap(
            "enumeration.label_vector", enumeration.label_vector_of
        ),
    }
    for module in (catalogue, enumeration):
        for attr, traced in shared.items():
            setattr(module, attr, traced)
    catalogue.generate = tracer.wrap_iter("enumeration.generate", enumeration.generate)

    catalogue.main = tracer.wrap(ROOT, catalogue.main)
    catalogue.compute_flags = tracer.wrap("catalogue.compute_flags", catalogue.compute_flags)
    catalogue._write_entries = tracer.wrap("catalogue.write", catalogue._write_entries)
    catalogue.matroid_of_labels = tracer.wrap("matroid.build", catalogue.matroid_of_labels)
    catalogue.is_regular = tracer.wrap(
        "regularity.is_regular", catalogue.is_regular, outcome=lambda r: r[0]
    )
    catalogue.tutte_by_activities = tracer.wrap(
        "tutte.tutte_by_activities",
        catalogue.tutte_by_activities,
        outcome=lambda t: t.total(),
    )
    BinaryMatroid.is_connected = tracer.wrap(
        "matroid.is_connected", BinaryMatroid.is_connected, outcome=bool
    )
    BinaryMatroid.dual = tracer.wrap("matroid.dual", BinaryMatroid.dual)
    BinaryMatroid.flats_of_corank = tracer.wrap(
        "matroid.flats_of_corank", BinaryMatroid.flats_of_corank
    )
    Gf2Matrix.rref = tracer.wrap("gf2.rref", Gf2Matrix.rref)
    tutte.solve_in_basis = tracer.wrap("gf2.solve_in_basis", tutte.solve_in_basis)
    matroid.span_labels = tracer.wrap("gf2.span_labels", matroid.span_labels)


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    ``<name>.s`` is the wall time during which at least one thread was inside
    a span of that name (the union of its intervals), so it is comparable to
    the pass's wall time even when pool threads overlap.  Per-call figures
    divide the summed span durations, which include time a thread waited for
    the interpreter lock.  A span's self time is its interval minus those of
    its children on the same thread, and ``<layer>.self_s`` is the union of
    these pieces over the layer's spans on every thread.  ``catalogue.self_s``
    is the duration of the ``main`` calls minus the union of every other span
    on any thread, which is where the thread pool's own overhead shows.
    """
    names = tracer.names
    intervals: dict[str, list[tuple[int, int]]] = defaultdict(list)
    self_pieces: dict[str, list[tuple[int, int]]] = defaultdict(list)
    calls: dict[str, int] = defaultdict(int)
    outcome: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    spans = 0
    for buf in tracer.threads():
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for nid, t0, t1, depth, value in buf.spans:
            name = names[nid]
            spans += 1
            calls[name] += 1
            outcome[name] += max(value, 0)
            total_ns[name] += t1 - t0
            intervals[name].append((t0, t1))
            # post-order: the spans one level deeper that ended since this
            # one's previous sibling are exactly its children, in time order
            layer = self_pieces[name.split(".")[0]] if name != ROOT else []
            cursor = t0
            for c0, c1 in children.pop(depth + 1, ()):
                if c0 > cursor:
                    layer.append((cursor, c0))
                cursor = max(cursor, c1)
            if t1 > cursor:
                layer.append((cursor, t1))
            children[depth].append((t0, t1))

    def s(name: str) -> float:
        return _union_ns(intervals[name]) / 1e9

    root_ns = total_ns[ROOT]
    covered_ns = _union_ns(
        [iv for name, ivs in intervals.items() if name != ROOT for iv in ivs]
    )

    cand = "enumeration.candidate_iter"
    canon = "enumeration.canonicity"
    isreg = "regularity.is_regular"
    tut = "tutte.tutte_by_activities"
    out = {
        "enumeration.candidates": outcome[cand],
        "enumeration.candidate_iter.s": s(cand),
        "enumeration.canonicity.calls": calls[canon],
        "enumeration.canonicity.s": s(canon),
        "enumeration.canonicity.us_per_call": _ratio(total_ns[canon] / 1e3, calls[canon]),
        "enumeration.kept_ratio": _ratio(outcome[canon], outcome[cand]),
        "enumeration.label_vector.s": s("enumeration.label_vector"),
        "tutte.calls": calls[tut],
        "tutte.bases": outcome[tut],
        "tutte.s": s(tut),
        "tutte.us_per_basis": _ratio(total_ns[tut] / 1e3, outcome[tut]),
        "regularity.is_regular.calls": calls[isreg],
        "regularity.is_regular.s": s(isreg),
        "regularity.is_regular.ms_per_call": _ratio(total_ns[isreg] / 1e6, calls[isreg]),
        "regularity.regular_ratio": _ratio(outcome[isreg], calls[isreg]),
        "matroid.connected_ratio": _ratio(
            outcome["matroid.is_connected"], calls["matroid.is_connected"]
        ),
        "catalogue.self_s": (root_ns - covered_ns) / 1e9,
        "trace.spans": spans,
    }
    for name in (
        "gf2.solve_in_basis",
        "matroid.flats_of_corank",
        "matroid.build",
        "matroid.is_connected",
        "matroid.dual",
        "gf2.rref",
        "gf2.span_labels",
        "catalogue.compute_flags",
    ):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = s(name)
    out["catalogue.write.s"] = s("catalogue.write")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _union_ns(self_pieces[layer]) / 1e9
    return out
