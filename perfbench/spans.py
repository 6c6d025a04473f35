"""In-memory span recorder and the statistics the benchmark derives from
spans and samples.

A span is one timed call at a layer boundary: its name, start, end (ns,
``time.perf_counter_ns``), parent span, job id and thread.  Spans are
appended to flat arrays under a lock (worker threads record kernel spans
too) and written out once, when the run ends.

Parents come from a per-thread stack.  A span opened on a thread whose
stack is empty (a worker thread running a kernel) takes the current job's
root span as parent, so it carries the job id, but it lives on another
thread and therefore never subtracts from a main-thread span's self time.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Tracer",
    "merged_length",
    "self_times",
    "tail_percentile",
]


class Tracer:
    """Span store for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.thread = array("i")
        #: Per-span work counters (SpMV spans: computed bytes and flops).
        self.nbytes = array("d")
        self.flops = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = 0
        #: Set by the benchmark around each job; read by every thread.
        self.job_id = -1
        self.job_root = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _state(self) -> Tuple[List[int], int]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            with self._lock:
                local.index = self._threads
                self._threads += 1
            stack = local.stack = []
        return stack, local.index

    def open(self, name_id: int) -> int:
        stack, thread = self._state()
        parent = stack[-1] if stack else self.job_root
        t = time.perf_counter_ns()
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.start.append(t)
            self.end.append(t)
            self.parent.append(parent)
            self.job.append(self.job_id)
            self.thread.append(thread)
            self.nbytes.append(0.0)
            self.flops.append(0.0)
        stack.append(idx)
        return idx

    def close(self, idx: int, nbytes: float = 0.0, flops: float = 0.0) -> None:
        self.end[idx] = time.perf_counter_ns()
        if nbytes or flops:
            self.nbytes[idx] = nbytes
            self.flops[idx] = flops
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        """``fn`` recorded as a span named ``name`` on every call."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "job": np.frombuffer(self.job, dtype=np.int64),
            "thread": np.frombuffer(self.thread, dtype=np.int32),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.float64),
            "flops": np.frombuffer(self.flops, dtype=np.float64),
        }

    def write(self, path: Path, meta: Dict[str, object]) -> None:
        """Write every span (compressed columns) plus the name table and
        ``meta`` to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps({"names": self.names, **meta})
        np.savez_compressed(path, header=np.array(header), **self.arrays())


def merged_length(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(
    start: Sequence[int],
    end: Sequence[int],
    parent: Sequence[int],
    thread: Sequence[int],
) -> List[int]:
    """Each span's duration minus the part of it covered by its children
    on the same thread.  Children may overlap one another (their union
    is subtracted once) and are clipped to the parent's interval; a child
    on another thread subtracts nothing."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for i, p in enumerate(parent):
        if p >= 0 and thread[i] == thread[p]:
            children.setdefault(p, []).append(
                (max(start[i], start[p]), min(end[i], end[p]))
            )
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        out[p] -= merged_length([(s, e) for s, e in kids if e > s])
    return out


def tail_percentile(
    values: Sequence[float], target: float = 90.0, min_beyond: int = 10
) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile no higher than
    ``target`` that has at least ``min_beyond`` samples beyond it.

    With too few samples for any percentile at or above the median to
    qualify, the median is returned (percentile 50) and the tail is
    unresolved; callers print the sample count next to it."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = (n - 1) // 2
    i = min(int(target / 100.0 * (n - 1)), n - 1 - min_beyond)
    if i < mid:
        return 50.0, float(np.median(xs))
    return (100.0 * i / (n - 1) if n > 1 else 100.0), float(xs[i])
