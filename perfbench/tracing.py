"""Span tracing of rctv's module-level functions, installed from outside.

Tracer.install() replaces every public module-level function of each rctv
module, plus the private names in EXTRA, with a recording wrapper.  The
wrapper is set on every module that holds the name, because a caller looks
the name up in its own module (solver calls rctv.solver.soft_threshold, not
rctv.linalg.soft_threshold).  uninstall() puts every original back.

Each call records a span (id, parent, name, start, end) in memory; the name
is <defining module>.<function>.  A span's self time is its duration minus
the durations of its direct children, so the self times of all spans add up
to the summed duration of the root spans.  Bytes are computed, not
measured: the nbytes of ndarray arguments and results (and of ndarray
fields of dataclass arguments and results such as HsiCube).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

# Private functions traced anyway: the manifest writer is a cost of every
# CLI command.  Other private helpers stay inside their caller's self time
# (solve's self time covers _check_v_orthonormal, for example).
EXTRA = frozenset({"cli._write_manifest"})

HOOK_SPAN = "trace.hooks"
SOLVE_SPAN = "solver.solve"


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float


def _nbytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (tuple, list)):
            total += _nbytes(v)
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            total += _nbytes(vars(v).values())
    return total


def rctv_modules() -> list:
    import rctv

    return [rctv] + [
        importlib.import_module(f"rctv.{info.name}")
        for info in pkgutil.iter_modules(rctv.__path__)
    ]


class Tracer:
    """Records spans of rctv calls while installed (use as a context manager).

    mn_rows is the pixel count M*N of the workload's cube, used to count
    thin SVDs of full Casorati matrices.
    """

    def __init__(self, run_id: str, mn_rows: int):
        self.run_id = run_id
        self.mn_rows = mn_rows
        self.spans: list[Span] = []
        self.bytes: Counter = Counter()
        self.counters: Counter = Counter()
        self.alloc_peaks: list[float] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in rctv_modules():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("rctv."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in EXTRA:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _wrap(self, fn, name: str):
        after = _AFTER.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc = _alloc_start() if name == SOLVE_SPAN else None
            sid = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end))
                peak = _alloc_stop(*alloc) if alloc is not None else None
            self.bytes[name] += _nbytes(args) + _nbytes(kwargs.values()) + _nbytes((result,))
            if peak is not None:
                cube = args[0]
                self.alloc_peaks.append(peak / (cube.height * cube.width * cube.bands * 8))
            if after is not None:
                after(self, args, result)
            # Bookkeeping is a child of the caller, so it stays out of the
            # caller's self time.
            self.spans.append(Span(self._new_id(), parent, HOOK_SPAN, end, perf_counter()))
            return result

        return traced

    def total_self_s(self) -> float:
        """Sum of all self times, i.e. the summed duration of root spans."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def stats(self) -> dict[str, float]:
        """Per-function and per-layer self seconds, calls, bytes and counters."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            self_s = s.end - s.start - child[s.id]
            layer = s.name.split(".", 1)[0]
            out[f"{s.name}.self_s"] += self_s
            out[f"{s.name}.total_s"] += s.end - s.start
            out[f"{s.name}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
        for name, nbytes in self.bytes.items():
            out[f"{name}.computed_bytes"] += nbytes
            out[f"{name.split('.', 1)[0]}.computed_bytes"] += nbytes
        out.update(self.counters)
        if self.counters["solver.update_s.elems"]:
            out["solver.update_s.nonzero_frac"] = (
                self.counters["solver.update_s.nonzero"] / self.counters["solver.update_s.elems"]
            )
        if self.alloc_peaks:
            out["solver.peak_alloc_x"] = max(self.alloc_peaks)
        return dict(out)

    def span_records(self):
        for s in sorted(self.spans, key=lambda s: s.id):
            yield {"run": self.run_id, **s._asdict()}


# tracemalloc runs only inside solve(): it slows every Python allocation, and
# the CLI workload spends much of its time in allocation-heavy Python code.
def _alloc_start() -> tuple[int, bool]:
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0], False
    tracemalloc.start()
    return 0, True


def _alloc_stop(base: int, owned: bool) -> int:
    """Peak bytes allocated since the matching _alloc_start."""
    peak = tracemalloc.get_traced_memory()[1] - base
    if owned:
        tracemalloc.stop()
    return peak


def _after_thin_svd(tracer: Tracer, args, result) -> None:
    if np.shape(args[0])[0] == tracer.mn_rows:
        tracer.counters["linalg.thin_svd.mnb_calls"] += 1


def _after_soft_threshold(tracer: Tracer, args, result) -> None:
    tracer.counters["linalg.soft_threshold.elems"] += result.size


def _after_update_s(tracer: Tracer, args, result) -> None:
    tracer.counters["solver.update_s.nonzero"] += int(np.count_nonzero(result))
    tracer.counters["solver.update_s.elems"] += result.size


def _after_read_cube(tracer: Tracer, args, result) -> None:
    # .hsic payloads are float32: four bytes per element.
    tracer.counters["cube.bytes_read"] += 4 * result.data.size


def _after_write_cube(tracer: Tracer, args, result) -> None:
    tracer.counters["cube.bytes_written"] += 4 * args[0].data.size


_AFTER = {
    "linalg.thin_svd": _after_thin_svd,
    "linalg.soft_threshold": _after_soft_threshold,
    "solver.update_s": _after_update_s,
    "cube.read_cube": _after_read_cube,
    "cube.write_cube": _after_write_cube,
}


def write_spans(path: str, env: dict, tracers) -> None:
    """Write the environment, then one JSON object per span, one per line."""
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(json.dumps({"env": env}) + "\n")
        for tracer in tracers:
            for record in tracer.span_records():
                fp.write(json.dumps(record) + "\n")
