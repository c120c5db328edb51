"""Stdlib span tracer for the pstwalk benchmark.

``Tracer.install`` wraps selected package functions and rebinds every name
the package bound to them (``verify.pst_certificate``, ``pst.decompose``,
``spectral.xp.charpoly`` through the module object, the re-exports in
``pstwalk/__init__``), so calls made inside the package reach the wrapper.
``uninstall`` puts the originals back.

A span is (id, parent id, name, start, end, run id), times in microseconds
from the tracer's creation.  Closed spans are kept in memory until
``flush`` appends them to a gzip-compressed CSV file; the caller flushes
between operations, outside any timed region.  Self time (span duration
minus the time its child spans cover) and call counts are aggregated as
spans close.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time


class Tracer:
    def __init__(self, spans_path):
        self.stats: dict[str, list] = {}  # name -> [spans, self seconds]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # closed, not yet flushed
        self.spans_written = 0
        self.run_id = None
        self._origin = time.perf_counter()
        self._file = gzip.open(spans_path, "wt", compresslevel=1)
        self._file.write("id,parent,name,start_us,end_us,run\n")
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        duration = end - frame[2]
        stat = self.stats.setdefault(frame[1], [0, 0.0])
        stat[0] += 1
        stat[1] += duration - frame[3]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((frame[0], parent[0] if parent else "", frame[1], frame[2], end, self.run_id))

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        """Span around each call; ``before(tracer, args, kwargs)`` runs ahead
        of the span, ``after(tracer, result)`` once it has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str, yields_key: str | None = None):
        """One span per resumption of the generator, so work done between
        yields is charged to the generator and not to its consumer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(frame)
                if yields_key is not None:
                    self.count(yields_key)
                yield item

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, package: str, targets: dict) -> None:
        """``targets`` maps "module.function" to a wrapper factory
        ``make(tracer, fn, name)``; every binding of each original function
        in the package's loaded modules is replaced."""
        replacement = {}
        for name, make in targets.items():
            module, attr = name.rsplit(".", 1)
            fn = getattr(sys.modules[f"{package}.{module}"], attr)
            replacement[id(fn)] = (fn, make(self, fn, name))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replacement.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, val = self._undo.pop()
            setattr(mod, attr, val)

    # -- output ----------------------------------------------------------

    def flush(self) -> None:
        origin = self._origin
        self._file.writelines(
            f"{i},{parent},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},{run}\n"
            for i, parent, name, start, end, run in self.spans
        )
        self.spans_written += len(self.spans)
        self.spans.clear()

    def close(self) -> None:
        self.flush()
        self._file.close()
