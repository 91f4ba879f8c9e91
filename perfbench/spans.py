"""Spans and counters around the calls into each eulerparts module.

The tracer wraps public names where the package looks them up (the modules
import names directly, so ``eulerparts.verify.bounded_partitions`` and
``eulerparts.series.bounded_partitions`` are patched separately), the
registry runners, and two ``Partition`` and one ``Series`` method that are
only counted.  Only the lookups the workloads reach are patched.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out at the end of the pass.  A span's self time is its length minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import dataclasses
import itertools
import marshal
import threading
from array import array
from time import perf_counter

COUNTERS = ("enumeration.calls", "enumeration.partitions",
            "partition.constructions", "partition.multiplicities_calls",
            "bijections.maps", "bijections.inverses", "series.mul.calls")

# Span name prefix -> layer whose self time it adds to.
LAYERS = (("cli.", "cli"), ("verify.", "verify"),
          ("enumeration.", "enumeration"), ("bijections.", "bijections"),
          ("series.enumerated", "series.enumerated"),
          ("series.product", "series.product"),
          ("series.compare", "series.compare"))


class _Buffer:
    """The spans one thread opened.  A span id is the buffer number shifted
    left by 32 bits plus the span's index in the buffer, so threads never
    share a buffer and need no lock per span."""

    __slots__ = ("no", "name", "parent", "start", "end", "stack")

    def __init__(self, no: int):
        self.no = no
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    """Span store for one pass.  Spans opened on a worker thread whose own
    stack is empty take the main thread's innermost span as parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()
        self.counters = {key: itertools.count() for key in COUNTERS}
        self.elapsed_ms: list[int] = []
        self.product_terms: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, nid: int, buf: _Buffer) -> int:
        stack = buf.stack
        if stack:
            parent = stack[-1]
        else:
            main = self._main.stack
            parent = main[-1] if main else -1
        sid = (buf.no << 32) | len(buf.name)
        buf.name.append(nid)
        buf.parent.append(parent)
        buf.end.append(0.0)
        stack.append(sid)
        buf.start.append(perf_counter())
        return sid

    @staticmethod
    def _close(sid: int, buf: _Buffer):
        buf.end[sid & 0xFFFFFFFF] = perf_counter()
        buf.stack.pop()

    def flat(self):
        """(names, name ids, parents, starts, ends) over all threads, with
        parents as indices into the same arrays (-1 for none)."""
        offsets = {}
        total = 0
        for buf in self._buffers:
            offsets[buf.no] = total
            total += len(buf.name)
        name, parent, start, end = array("i"), array("q"), array("d"), array("d")
        for buf in self._buffers:
            name.extend(buf.name)
            start.extend(buf.start)
            end.extend(buf.end)
            parent.extend(-1 if p < 0 else offsets[p >> 32] + (p & 0xFFFFFFFF)
                          for p in buf.parent)
        return self.names, name, parent, start, end

    # -- wrappers -----------------------------------------------------------

    def call(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result)`` runs outside the span."""
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            buf = self._buffer()
            sid = self._open(nid, buf)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, buf)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator(self, name: str, fn, calls, items):
        """Wrap a generator function: one span for the call that creates the
        generator and one for each ``next()``."""
        create = self.call(name, fn)
        next_id = self._id(name + ".next")

        def iterate(gen):
            while True:
                buf = self._buffer()
                sid = self._open(next_id, buf)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(sid, buf)
                    return
                except BaseException:
                    self._close(sid, buf)
                    raise
                self._close(sid, buf)
                next(items)
                yield item

        def wrapper(*args, **kwargs):
            next(calls)
            return iterate(create(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def counting(counter, fn):
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ---------------------------------------------------------------

    def dump(self, path: str):
        """Write every span: names, then name id, parent, start and end
        arrays."""
        names, name, parent, start, end = self.flat()
        with open(path, "wb") as fh:
            marshal.dump((names, name.tobytes(), parent.tobytes(),
                          start.tobytes(), end.tobytes()), fh)

    def layer_metrics(self, verify_ids) -> dict:
        """Per-layer counts and times of the pass."""
        names, name, parent, start, end = self.flat()
        n = len(name)
        dur = [end[i] - start[i] for i in range(n)]
        children: dict[int, list[int]] = {}
        for i, p in enumerate(parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        self_time = dur[:]
        for p, kids in children.items():
            self_time[p] -= _covered(start, end, kids)

        layer_of = [_layer(label) for label in names]
        self_by_layer = dict.fromkeys((layer for _, layer in LAYERS), 0.0)
        total_by_name = dict.fromkeys(names, 0.0)
        calls_by_name = dict.fromkeys(names, 0)
        for i in range(n):
            nid = name[i]
            self_by_layer[layer_of[nid]] += self_time[i]
            total_by_name[names[nid]] += dur[i]
            calls_by_name[names[nid]] += 1

        runner_spans = [i for i in range(n) if layer_of[name[i]] == "verify"]
        runner_cover = _covered(start, end, runner_spans)
        # next() on an itertools.count returns how many times it ran before.
        counts = {key: next(counter) for key, counter in self.counters.items()}
        enum_s = self_by_layer["enumeration"]
        bij_s = self_by_layer["bijections"]
        out = dict(counts)
        out.update({
            "enumeration.self_s": enum_s,
            "enumeration.partitions_per_s":
                counts["enumeration.partitions"] / enum_s if enum_s else 0.0,
            "bijections.self_s": bij_s,
            "bijections.round_trips_per_s":
                counts["bijections.inverses"] / bij_s if bij_s else 0.0,
            "series.enumerated.calls": calls_by_name.get("series.enumerated", 0),
            "series.enumerated.self_s": self_by_layer["series.enumerated"],
            "series.product.calls": calls_by_name.get("series.product", 0),
            "series.product.s": total_by_name.get("series.product", 0.0),
            "series.product.terms": sum(self.product_terms),
            "series.compare.calls": calls_by_name.get("series.compare", 0),
            "series.compare.s": total_by_name.get("series.compare", 0.0),
            "verify.runs": len(runner_spans),
            "verify.self_s": self_by_layer["verify"],
            "verify.elapsed_ratio":
                sum(self.elapsed_ms) / 1000 / runner_cover if runner_cover else 0.0,
            "cli.calls": calls_by_name.get("cli.main", 0),
            "cli.self_s": self_by_layer["cli"],
            "trace.self_sum_s": sum(self_by_layer.values()),
            "trace.spans": n,
        })
        for vid in verify_ids:
            out["verify.%s.s" % vid] = total_by_name.get("verify." + vid, 0.0)
        return out


def unit(key: str) -> str:
    """The unit of a layer metric, from its name."""
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith(("_ratio", ".overhead")):
        return "ratio"
    if key.endswith(("_s", ".s")):
        return "s"
    return "count"


def _layer(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise ValueError("span %r belongs to no layer" % name)


def _covered(start, end, spans) -> float:
    """Length of the union of the given spans' intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((start[i], end[i]) for i in spans):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def install(tracer: Tracer) -> None:
    """Patch the package's lookups so that every call the workloads make
    into enumeration, bijections, series and the registry runners opens a
    span, and ``cli.main`` opens the outermost one."""
    from eulerparts import cli, enumeration, series, verify
    from eulerparts.partition import Partition
    from eulerparts.series import Series

    c = tracer.counters
    bounded = tracer.generator("enumeration.bounded_partitions",
                               enumeration.bounded_partitions,
                               c["enumeration.calls"], c["enumeration.partitions"])
    for module in (enumeration, verify, series):
        module.bounded_partitions = bounded
    verify.count_by_statistic = tracer.call("enumeration.count_by_statistic",
                                            enumeration.count_by_statistic)

    for name in ("pairing_map", "binary_map", "sylvester_distinct_to_odd"):
        setattr(verify, name, tracer.counting(
            c["bijections.maps"], tracer.call("bijections." + name, getattr(verify, name))))
    for name in ("pairing_inverse", "binary_inverse", "sylvester_odd_to_distinct"):
        setattr(verify, name, tracer.counting(
            c["bijections.inverses"], tracer.call("bijections." + name, getattr(verify, name))))

    verify.enumerated_series = tracer.call("series.enumerated", verify.enumerated_series)
    verify.series_equal = tracer.call("series.compare", verify.series_equal)
    series.product_series = tracer.call(
        "series.product", series.product_series,
        after=lambda s: tracer.product_terms.append(len(s.terms)))
    Series.__mul__ = tracer.counting(c["series.mul.calls"], Series.__mul__)
    Partition.__init__ = tracer.counting(c["partition.constructions"], Partition.__init__)
    Partition.multiplicities = tracer.counting(c["partition.multiplicities_calls"],
                                               Partition.multiplicities)

    def record_elapsed(report):
        tracer.elapsed_ms.append(report.elapsed_ms)

    for vid, check in list(verify.REGISTRY.items()):
        verify.REGISTRY[vid] = dataclasses.replace(
            check, runner=tracer.call("verify." + vid, check.runner, after=record_elapsed))
    cli.main = tracer.call("cli.main", cli.main)
