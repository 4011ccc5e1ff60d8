"""Span recorder that wraps hubtrends' public functions from outside.

The program is not edited: :meth:`Tracer.install` replaces each traced
function at every module attribute that binds it (``iqr_filter`` is
bound in ``series``, ``reports`` and ``cli``), so calls through any of
those names open a span.  Spans stay in memory as
``[name, start, end, parent, op_id, read_bytes, write_bytes, items]``
and are written out when the process ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, READ, WRITE, ITEMS = range(8)

# (module, function, span name).  Every binding of the function inside
# hubtrends is replaced.
FUNCTIONS = [
    ("hubtrends.ingest", "import_history", "ingest.import_history"),
    ("hubtrends.ingest", "history_points", "ingest.history_points"),
    ("hubtrends.ingest", "history_to_monthly", "ingest.history_to_monthly"),
    ("hubtrends.series", "iqr_filter", "series.iqr_filter"),
    ("hubtrends.series", "monthly_rollup", "series.monthly_rollup"),
    ("hubtrends.series", "aggregate_group", "series.aggregate_group"),
    ("hubtrends.series", "splice", "series.splice"),
    ("hubtrends.series", "combine_series", "series.combine_series"),
    ("hubtrends.ram", "select_top10", "ram.select_top10"),
    ("hubtrends.ram", "build_reference_curve", "ram.build_reference_curve"),
    ("hubtrends.ram", "ram_trajectory", "ram.ram_trajectory"),
    ("hubtrends.derivatives", "load_derivatives_csv", "derivatives.load_derivatives_csv"),
    ("hubtrends.derivatives", "filter_derivatives", "derivatives.filter_derivatives"),
    ("hubtrends.derivatives", "monthly_share_table", "derivatives.monthly_share_table"),
    ("hubtrends.benchmarks", "load_elo_csv", "benchmarks.load.elo"),
    ("hubtrends.benchmarks", "load_index_csv", "benchmarks.load.index"),
    ("hubtrends.benchmarks", "load_tokens_csv", "benchmarks.load.tokens"),
    ("hubtrends.benchmarks", "adjust_all", "benchmarks.compute.adjust_all"),
    ("hubtrends.benchmarks", "elo_frontier", "benchmarks.compute.elo_frontier"),
    ("hubtrends.benchmarks", "fit_linear_trend", "benchmarks.compute.fit_linear_trend"),
    ("hubtrends.benchmarks", "token_share", "benchmarks.compute.token_share"),
    ("hubtrends.reports", "run_report", "reports.run_report"),
    ("hubtrends.reports", "emit_plot_data", "reports.emit_plot_data"),
]

# (module, class, method, span name, count file I/O).
METHODS = [
    ("hubtrends.store", "SnapshotStore", "__init__", "store.open", True),
    ("hubtrends.store", "SnapshotStore", "model_ids", "store.model_ids", True),
    ("hubtrends.store", "SnapshotStore", "load_all", "store.load_all", True),
    ("hubtrends.store", "SnapshotStore", "load_series", "store.load_series", True),
    ("hubtrends.store", "SnapshotStore", "append", "store.append", True),
    ("hubtrends.store", "InMemoryStore", "model_ids", "store.mem.model_ids", False),
    ("hubtrends.store", "InMemoryStore", "load_all", "store.mem.load_all", False),
    ("hubtrends.store", "InMemoryStore", "load_series", "store.mem.load_series", False),
    ("hubtrends.store", "InMemoryStore", "append", "store.mem.append", False),
    ("hubtrends.registry", "Registry", "load", "registry.load", False),
]


# What a span counts as its items, from the traced call's result.
COUNTERS = {
    "store.load_series": len,
    "store.mem.load_series": len,
    "store.load_all": lambda result: sum(len(s) for s in result.values()),
    "store.mem.load_all": lambda result: sum(len(s) for s in result.values()),
    "store.append": lambda result: result.added,
    "store.mem.append": lambda result: result.added,
    "series.iqr_filter": lambda result: len(result.flagged),
}


class _ProcIO:
    """Reads ``rchar``/``wchar`` from ``/proc/self/io``.

    Reading the file itself adds to ``rchar``; :attr:`own_reads` counts
    those bytes so callers can take them back out of a delta.
    """

    def __init__(self):
        self._fd = os.open("/proc/self/io", os.O_RDONLY)
        self.own_reads = 0

    def sample(self) -> tuple[int, int, int]:
        """``(rchar, wchar, own bytes read before this sample)``."""
        before = self.own_reads
        data = os.pread(self._fd, 4096, 0)
        self.own_reads += len(data)
        fields = dict(line.split(b": ") for line in data.splitlines())
        return int(fields[b"rchar"]), int(fields[b"wchar"]), before

    def close(self) -> None:
        os.close(self._fd)


class Tracer:
    def __init__(self, clock=time.monotonic):
        self.spans: list[list] = []
        self.op_id = 0  # stamped on new spans; the runner sets it per op
        self._clock = clock
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._io: _ProcIO | None = None

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), None, parent, self.op_id, 0, 0, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = self._clock()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, name: str, fn, count_io: bool = False):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            io = tracer._io if count_io else None
            if io is not None:
                r0, w0, own0 = io.sample()
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    tracer.spans[index][ITEMS] = counter(result)
                return result
            finally:
                tracer._close(index)
                if io is not None:
                    r1, w1, own1 = io.sample()
                    tracer.spans[index][READ] = r1 - r0 - (own1 - own0)
                    tracer.spans[index][WRITE] = w1 - w0

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded hubtrends."""
        import hubtrends.cli  # noqa: F401  (loads every module the CLI binds)

        self._io = _ProcIO()
        modules = [m for n, m in sys.modules.items() if n == "hubtrends" or n.startswith("hubtrends.")]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, traced)
        for module_name, cls_name, attr, name, count_io in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__, count_io))
            else:
                traced = self.wrap(name, raw, count_io)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        if self._io is not None:
            self._io.close()
            self._io = None


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans on one stack never overlap their siblings, so the children's
    durations add up to the covered part of the parent.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]
