"""The ``procs`` execution backend: a persistent shared-memory process pool.

The GIL caps what the threaded backend can win: every accessor slice,
every dispatch bookkeeping step, and every small kernel reacquires the
interpreter, so at realistic task granularities threads *lose* to
serial.  This backend sidesteps the interpreter entirely:

* **Shared-memory regions** — under ``backend="procs"`` the runtime's
  store is a :class:`SharedRegionStore`, which backs every physical
  field instance with a ``multiprocessing.shared_memory`` segment.  The
  parent's NumPy views are unchanged (``get_array``/``snapshot``/fault
  corruption all work as before), and worker processes map the *same*
  pages — task messages carry segment names and subset indices, never
  array payloads.
* **Portable task bodies** — planner operations describe their bodies
  as :class:`~repro.runtime.kernels.KernelBody` registry entries, so a
  task ships to a worker as a :class:`~repro.runtime.kernels.TaskInvocation`
  (kernel name + picklable payload + scalar kwargs).  Workers resolve
  the name against the same registry: there is exactly one definition
  of every kernel, which is what keeps serial-vs-procs bitwise
  identical.
* **Ownership pinning** — each task is dispatched to the worker that
  owns its piece (``owner_hint % n_workers``, the MSREP per-device
  ownership model), so a piece's pages stay hot in one worker's cache.
* **The commit path is unchanged** — :class:`ProcPoolExecutor` is a
  subclass of :class:`~repro.runtime.executor.DependenceScheduler`, the
  scheduler :class:`~repro.runtime.executor.ThreadedExecutor` runs on,
  so dependence tracking, launch-order serialization of same-redop
  overlapping reductions, dependent release, helping waits and deadlock
  diagnosis are the same code.  This module only decides how a claimed
  node runs: shipped to its pinned worker, or in the parent for host
  tasks (future reductions) and non-portable bodies, against the same
  shared pages; :meth:`ProcPoolExecutor.stats` counts those separately
  (the equivalence matrix asserts the fallback count stays zero).

Workers are expensive to spawn (a fresh interpreter imports NumPy and
the library), so pools are *persistent*: a module-level registry keyed
by worker count keeps them alive across executor instances, and each
executor gets an *epoch* that namespaces its worker-side caches.
"""

from __future__ import annotations

import atexit
import itertools
import pickle
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import multiprocessing as mp
import numpy as np
from multiprocessing import shared_memory

from .executor import DependenceScheduler, ExecutorError, _Node
from .kernels import KERNEL_REGISTRY, TaskInvocation
from .region import LogicalRegion, RegionStore
from .task import TaskRecord

__all__ = ["ProcPoolExecutor", "SharedRegionStore", "shutdown_worker_pools"]


# ---------------------------------------------------------------------------
# Shared-memory region store
# ---------------------------------------------------------------------------


def _release_segments(segments: List[shared_memory.SharedMemory]) -> None:
    """Close + unlink every segment.  Live NumPy views keep their pages
    mapped (``shm_unlink`` semantics): only the name goes away; the
    memory itself is freed when the last mapping dies."""
    for shm in segments:
        try:
            shm.close()
        except BufferError:
            # A view still exports the buffer; the mapping stays valid
            # and unlinking below still releases the name.
            pass
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
    segments.clear()


class SharedRegionStore(RegionStore):
    """A :class:`RegionStore` whose physical instances live in named
    shared-memory segments, so worker processes can map them directly.

    ``attach`` necessarily *copies* the user array into a segment (an
    in-place adoption cannot cross address spaces); every other store
    semantic is unchanged.  Segment lifetime is owned by the parent:
    :meth:`release` (or garbage collection of the store) unlinks every
    segment."""

    def __init__(self) -> None:
        super().__init__()
        self._segments: List[shared_memory.SharedMemory] = []
        self._descriptors: Dict[Tuple[int, str], Tuple[str, str, int]] = {}
        self._finalizer = weakref.finalize(self, _release_segments, self._segments)

    def _new_shared_array(self, region: LogicalRegion, field: str) -> np.ndarray:
        dtype = region.fspace.dtype(field)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, region.volume * dtype.itemsize)
        )
        self._segments.append(shm)
        self._descriptors[(region.uid, field)] = (shm.name, dtype.str, region.volume)
        return np.ndarray((region.volume,), dtype=dtype, buffer=shm.buf)

    def allocate(self, region: LogicalRegion, field: str, fill: float = 0.0) -> np.ndarray:
        arr = self._new_shared_array(region, field)
        arr[:] = fill
        self._data.setdefault(region.uid, {})[field] = arr
        return arr

    def attach(self, region: LogicalRegion, field: str, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array).reshape(-1)
        if array.size != region.volume:
            raise ValueError(
                f"array of size {array.size} cannot back region of volume {region.volume}"
            )
        if array.dtype != region.fspace.dtype(field):
            raise TypeError(
                f"dtype {array.dtype} does not match field {field} "
                f"({region.fspace.dtype(field)})"
            )
        arr = self._new_shared_array(region, field)
        arr[:] = array
        self._data.setdefault(region.uid, {})[field] = arr

    def descriptor(self, region: LogicalRegion, field: str) -> Optional[Tuple[str, str, int]]:
        """``(segment name, dtype str, volume)`` of a field instance, or
        None when the field has no shared backing."""
        return self._descriptors.get((region.uid, field))

    def release(self) -> None:
        """Unlink every segment now (idempotent)."""
        self._data.clear()
        self._descriptors.clear()
        self._finalizer()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _ShmAccessor:
    """The worker-side twin of :class:`~repro.runtime.region.RegionAccessor`:
    identical read/write/reduce expressions over the mapped segment, so a
    kernel computes bitwise the same values in a worker as in-process."""

    __slots__ = ("arr", "sel")

    def __init__(self, arr: np.ndarray, sel: Any):
        self.arr = arr
        self.sel = sel

    def read(self) -> np.ndarray:
        return self.arr[self.sel]

    def write(self, values: np.ndarray) -> None:
        self.arr[self.sel] = values

    def reduce_add(self, values: np.ndarray) -> None:
        if isinstance(self.sel, slice):
            self.arr[self.sel] += values
        else:
            np.add.at(self.arr, self.sel, values)

    def scatter_add(self, indices: np.ndarray, values: np.ndarray) -> None:
        np.add.at(self.arr, indices, values)

    @property
    def n_points(self) -> int:
        if isinstance(self.sel, slice):
            return self.sel.stop - self.sel.start
        return int(self.sel.size)


class _WorkerContext:
    """The worker-side twin of :class:`~repro.runtime.task.TaskContext`."""

    __slots__ = ("accessors", "args", "kwargs", "point")

    def __init__(self, accessors: List[_ShmAccessor], kwargs: Dict[str, Any], point: Any):
        self.accessors = accessors
        self.args = ()
        self.kwargs = kwargs
        self.point = point

    def __getitem__(self, i: int) -> _ShmAccessor:
        return self.accessors[i]

    def __len__(self) -> int:
        return len(self.accessors)


def _picklable_exc(exc: BaseException) -> BaseException:
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class _WorkerState:
    """Per-process caches of one pool worker."""

    def __init__(self) -> None:
        self.regions: Dict[str, np.ndarray] = {}
        self.shms: Dict[str, shared_memory.SharedMemory] = {}
        self.subsets: Dict[Tuple[int, int], Any] = {}
        self.payloads: Dict[Tuple[int, int], Any] = {}

    def attach(self, name: str, dtype_str: str, volume: int) -> np.ndarray:
        arr = self.regions.get(name)
        if arr is not None:
            return arr
        # Python < 3.13 has no track=False: attaching would register the
        # segment with the (shared) resource tracker, which then unlinks
        # it behind the parent's back — the parent owns the segment
        # lifecycle.  Suppress the registration for the duration of the
        # attach instead of unregistering after (an unregister races the
        # parent's own unlink-time unregister in the tracker).
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register

        def _no_shm_register(rname: str, rtype: str) -> None:
            if rtype != "shared_memory":
                orig_register(rname, rtype)  # pragma: no cover

        resource_tracker.register = _no_shm_register  # type: ignore[assignment]
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register  # type: ignore[assignment]
        self.shms[name] = shm
        arr = np.ndarray((volume,), dtype=np.dtype(dtype_str), buffer=shm.buf)
        self.regions[name] = arr
        return arr

    def clear(self, epoch: int) -> None:
        """Drop one epoch's subset/payload caches and *every* cached
        region mapping (stores are per-executor, so an executor's
        shutdown is the natural point to release segment mappings; a
        still-live segment simply re-attaches on next use)."""
        for cache in (self.subsets, self.payloads):
            for key in [k for k in cache if k[0] == epoch]:
                del cache[key]
        self.regions.clear()
        for shm in self.shms.values():
            try:
                shm.close()
            except Exception:
                pass
        self.shms.clear()

    def run_part(self, part: Dict[str, Any], epoch: int) -> Any:
        accessors: List[_ShmAccessor] = []
        for name, dtype_str, volume, subset_uid, desc in part["reqs"]:
            arr = self.attach(name, dtype_str, volume)
            key = (epoch, subset_uid)
            sel = self.subsets.get(key)
            if sel is None:
                if desc is None:
                    raise RuntimeError(
                        f"subset {subset_uid} was never shipped to this worker"
                    )
                if desc[0] == "s":
                    sel = slice(desc[1], desc[2])
                else:
                    sel = np.asarray(desc[1], dtype=np.int64)
                self.subsets[key] = sel
            accessors.append(_ShmAccessor(arr, sel))
        payload = None
        pkey = part["payload_key"]
        if pkey is not None:
            if part["payload"] is not None:
                self.payloads[(epoch, pkey)] = part["payload"]
            payload = self.payloads[(epoch, pkey)]
        ctx = _WorkerContext(accessors, part["kwargs"], part["point"])
        return KERNEL_REGISTRY[part["kernel"]](ctx, payload)


def _worker_main(conn: Any, results: Any, worker_idx: int) -> None:
    """Entry point of one pool worker (spawned process)."""
    state = _WorkerState()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        tag = msg[0]
        if tag == "task":
            _, epoch, task_id, stall_ms, parts, want_spans = msg
            # Span batching: the body time is measured here and shipped
            # back WITH the result — one message per task, never
            # per-event traffic.  Sampling is decided parent-side so the
            # unsampled path pays nothing beyond the boolean.
            t0 = time.perf_counter() if want_spans else 0.0
            if stall_ms:
                time.sleep(stall_ms / 1000.0)
            try:
                values = [state.run_part(part, epoch) for part in parts]
                body_s = time.perf_counter() - t0 if want_spans else None
                results.put((epoch, task_id, True, values, body_s))
            except BaseException as exc:  # noqa: BLE001 - shipped to the parent
                body_s = time.perf_counter() - t0 if want_spans else None
                results.put((epoch, task_id, False, _picklable_exc(exc), body_s))
        elif tag == "clear":
            state.clear(msg[1])
        elif tag == "stop":
            break
    state.clear(-1)


# ---------------------------------------------------------------------------
# The persistent pool
# ---------------------------------------------------------------------------


class _WorkerPool:
    """``n`` spawned workers + one parent-side collector thread routing
    results to the executor (epoch) that dispatched them."""

    def __init__(self, n_workers: int):
        ctx = mp.get_context("spawn")
        self.n_workers = n_workers
        self.results = ctx.SimpleQueue()
        self.workers: List[Tuple[Any, Any]] = []
        for i in range(n_workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, self.results, i),
                daemon=True,
                name=f"repro-proc-{i}",
            )
            proc.start()
            child_conn.close()
            self.workers.append((proc, parent_conn))
        self._send_locks = [threading.Lock() for _ in range(n_workers)]
        self._routes: Dict[int, Callable[[int, bool, Any, Optional[float]], None]] = {}
        self._routes_lock = threading.Lock()
        self._stopped = False
        self._collector = threading.Thread(
            target=self._collect, daemon=True, name="repro-proc-collector"
        )
        self._collector.start()

    def alive(self) -> bool:
        return not self._stopped and all(p.is_alive() for p, _ in self.workers)

    def _collect(self) -> None:
        while True:
            try:
                msg = self.results.get()
            except (EOFError, OSError):
                return
            if msg is None:
                return
            epoch, task_id, ok, payload, body_s = msg
            with self._routes_lock:
                route = self._routes.get(epoch)
            if route is not None:
                route(task_id, ok, payload, body_s)

    def register(
        self, epoch: int, route: Callable[[int, bool, Any, Optional[float]], None]
    ) -> None:
        with self._routes_lock:
            self._routes[epoch] = route

    def unregister(self, epoch: int) -> None:
        with self._routes_lock:
            self._routes.pop(epoch, None)

    def send(self, worker_idx: int, msg: Any) -> None:
        with self._send_locks[worker_idx]:
            self.workers[worker_idx][1].send(msg)

    def broadcast(self, msg: Any) -> None:
        for i in range(self.n_workers):
            try:
                self.send(i, msg)
            except Exception:
                pass

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.broadcast(("stop",))
        try:
            self.results.put(None)
        except Exception:
            pass
        for proc, conn in self.workers:
            try:
                conn.close()
            except Exception:
                pass
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()


_pools: Dict[int, _WorkerPool] = {}
_pools_lock = threading.Lock()
_epoch_counter = itertools.count(1)


def _get_pool(n_workers: int) -> _WorkerPool:
    with _pools_lock:
        pool = _pools.get(n_workers)
        if pool is None or not pool.alive():
            pool = _WorkerPool(n_workers)
            _pools[n_workers] = pool
        return pool


def shutdown_worker_pools() -> None:
    """Stop every persistent worker pool (tests / interpreter exit)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.stop()


atexit.register(shutdown_worker_pools)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class _Directives:
    """Fault events deposited for one node, translated into its dispatch
    behaviour (a wrapper closure cannot cross the process boundary)."""

    __slots__ = ("injector", "stall_ms", "stall_events", "corrupt_events")

    def __init__(self, injector: Any) -> None:
        self.injector = injector
        self.stall_ms = 0.0
        #: ``(record, event)`` pairs applied around dispatch/completion.
        self.stall_events: List[Tuple[TaskRecord, Any]] = []
        self.corrupt_events: List[Tuple[TaskRecord, Any]] = []


class ProcPoolExecutor(DependenceScheduler):
    """The shared dependence scheduler, dispatching portable task bodies
    to a persistent pool of worker processes over shared-memory regions."""

    name = "procs"

    #: The runtime derives a :class:`TaskInvocation` per launch for
    #: executors advertising this flag.
    wants_invocations = True

    def __init__(
        self,
        n_workers: Optional[int] = None,
        store: Optional[RegionStore] = None,
    ):
        super().__init__(n_workers)
        self.store = store
        self._pool = _get_pool(self._n_workers)
        self._epoch = next(_epoch_counter)
        self._pool.register(self._epoch, self._on_result)
        #: Node ids shipped to a worker whose result has not come back.
        self._inflight: Set[int] = set()
        self._shutdown = False
        # Per-worker shipping caches — what each worker has already been
        # sent — guarded by a per-worker dispatch lock so the
        # build-then-send step is atomic (marks commit only after a
        # successful send).
        self._dispatch_locks = [threading.Lock() for _ in range(self._n_workers)]
        self._sent_subsets: List[Set[int]] = [set() for _ in range(self._n_workers)]
        self._sent_payloads: List[Set[int]] = [set() for _ in range(self._n_workers)]
        self._payload_keys: Dict[int, int] = {}
        self._payload_refs: List[Any] = []  # keeps id() keys stable
        #: Deposited by the fault injector instead of wrapping thunks
        #: (a wrapper closure cannot cross the process boundary):
        #: ``task_id -> (events, injector)``.
        self.fault_directives: Dict[int, Tuple[List[Any], Any]] = {}
        #: Set by the runtime when the attached compiled plan carries a
        #: static portability certificate: every requirement-bearing
        #: body was proven shippable, so a silent inline fallback would
        #: mask a real defect — fail loudly at drain instead.  Host
        #: tasks (no region requirements) stay inline; the certificate
        #: exempts them explicitly.
        self.strict_portable = False
        # Dispatch statistics beyond the shared ones; updated under the
        # executor lock (the application and collector threads both
        # dispatch).
        self.n_inline_host = 0
        self.n_inline_fallback = 0

    # -- fault directives -------------------------------------------------

    def _submit_node(self, node: _Node, deps_per_part: Sequence[Set[int]]) -> None:
        if self.fault_directives:
            self._apply_directives(node)
        super()._submit_node(node, deps_per_part)

    def _apply_directives(self, node: _Node) -> None:
        """Translate deposited fault events into the node's dispatch
        behaviour (the injector cannot wrap thunks that never run in
        this process)."""
        for i, (record, thunk, on_done, inv) in enumerate(node.parts):
            deposit = self.fault_directives.pop(record.task_id, None)
            if deposit is None:
                continue
            events, injector = deposit
            if node.directives is None:
                node.directives = _Directives(injector)
            directives = node.directives
            crashes = [e for e in events if e.kind == "crash"]
            if crashes and not injector.plan.retry_crashes:
                # A fatal crash must interrupt the body stream exactly
                # where the wrapped thunk would raise: run this part
                # in-parent through the injector's own wrapper (the
                # node then takes the inline path).
                node.parts[i] = (
                    record, injector._wrap(record, thunk, events), on_done, None
                )
                continue
            for event in crashes:
                # Retry policy: the first attempt dies before committing
                # anything and the body is relaunched — under procs the
                # relaunch IS the single worker-side run.
                event.applied = True
                event.detected = True
                event.detected_by = "retry"
                event.recovered = True
                event.recovery = "retry"
                event.detail = "task body lost once, relaunched"
            for event in events:
                if event.kind == "stall":
                    directives.stall_ms += event.spec.stall_ms
                    directives.stall_events.append((record, event))
                elif event.kind == "corrupt":
                    directives.corrupt_events.append((record, event))

    # -- dispatch ---------------------------------------------------------

    def _worker_for(self, node: _Node) -> int:
        hint = node.parts[0][0].owner_hint
        return (hint or 0) % self._n_workers

    def _part_message(
        self,
        record: TaskRecord,
        inv: TaskInvocation,
        widx: int,
        new_subsets: Set[int],
        new_payloads: Set[int],
    ) -> Optional[Dict]:
        """The wire form of one task body for worker ``widx``, or None
        when a requirement has no shared-memory backing.  First-time
        subsets/payloads ride along; their uids/keys are collected into
        ``new_subsets``/``new_payloads`` and committed to the per-worker
        sent caches only after the send succeeds."""
        store = self.store
        if not isinstance(store, SharedRegionStore):
            return None
        reqs: List[Tuple] = []
        for req in record.requirements:
            for field in req.fields:
                desc = store.descriptor(req.region, field)
                if desc is None:
                    return None
                name, dtype_str, volume = desc
                subset_desc = None
                uid = req.subset.uid
                if uid not in self._sent_subsets[widx] and uid not in new_subsets:
                    sl = req.subset.as_slice()
                    subset_desc = (
                        ("s", sl.start, sl.stop)
                        if sl is not None
                        else ("i", req.subset.indices)
                    )
                    new_subsets.add(uid)
                reqs.append((name, dtype_str, volume, uid, subset_desc))
        payload_key = None
        payload = None
        if inv.payload is not None:
            pid = id(inv.payload)
            payload_key = self._payload_keys.get(pid)
            if payload_key is None:
                payload_key = len(self._payload_refs)
                self._payload_keys[pid] = payload_key
                self._payload_refs.append(inv.payload)
            if payload_key not in self._sent_payloads[widx] and payload_key not in new_payloads:
                payload = inv.payload
                new_payloads.add(payload_key)
        return {
            "kernel": inv.kernel,
            "kwargs": inv.kwargs,
            "point": inv.point,
            "reqs": reqs,
            "payload_key": payload_key,
            "payload": payload,
        }

    def _run(self, node: _Node) -> None:
        """Send a claimed node to its pinned worker, or run it in-parent
        (host tasks, non-portable bodies)."""
        if self._shutdown or not node.portable:
            has_reqs = any(part[0].requirements for part in node.parts)
            if self.strict_portable and not self._shutdown and has_reqs:
                self._fail_portability(node, "body is not a portable registry kernel")
                return
            self._execute_inline(node, fallback=has_reqs)
            return
        widx = self._worker_for(node)
        stall_ms = node.directives.stall_ms if node.directives is not None else 0.0
        sent = False
        send_exc: Optional[BaseException] = None
        # The per-worker dispatch lock makes build -> send -> commit-marks
        # atomic.  Body execution and completion must happen OUTSIDE it:
        # an inline completion can release a child pinned to the same
        # worker, and re-entering _run while the (non-reentrant) lock is
        # held would self-deadlock.
        with self._dispatch_locks[widx]:
            new_subsets: Set[int] = set()
            new_payloads: Set[int] = set()
            parts = []
            for record, _, _, inv in node.parts:
                assert inv is not None  # node.portable
                part = self._part_message(record, inv, widx, new_subsets, new_payloads)
                if part is None:
                    break
                parts.append(part)
            if len(parts) == len(node.parts):
                # Marked in flight before the send: the result may come
                # back before this thread runs again.
                with self._lock:
                    self._inflight.add(node.task_id)
                    if stall_ms:
                        self._stalled.update(node.member_ids)
                probe = self.probe
                want_spans = False
                if probe is not None:
                    probe.task_started(node.task_id, f"proc-{widx}")
                    want_spans = probe.sample(node.task_id)
                try:
                    self._pool.send(
                        widx,
                        ("task", self._epoch, node.task_id, stall_ms, parts, want_spans),
                    )
                except (pickle.PicklingError, TypeError, AttributeError):
                    pass  # unpicklable body/payload: fall back below
                except Exception as exc:  # broken pipe etc.
                    send_exc = exc
                else:
                    sent = True
                    self._sent_subsets[widx] |= new_subsets
                    self._sent_payloads[widx] |= new_payloads
        with self._lock:
            if sent:
                self.n_dispatched += len(node.parts)
                return
            self._inflight.discard(node.task_id)
        if send_exc is not None:
            self._finish(node, send_exc)
        elif self.strict_portable:
            self._fail_portability(node, "payload failed to ship to a worker")
        else:
            self._execute_inline(node, fallback=True)

    def _fail_portability(self, node: _Node, why: str) -> None:
        """Strict-portability violation: the plan's certificate promised
        this could not happen, so surface it at drain instead of falling
        back inline silently."""
        self._finish(
            node,
            RuntimeError(
                f"strict portability violated by task {node.task_id} "
                f"({node.name}): {why}, yet the attached plan carries "
                "a portability certificate"
            ),
        )

    def _execute_inline(self, node: _Node, fallback: bool) -> None:
        """Run a node's bodies in the parent (host tasks, and fallbacks
        of requirement-bearing bodies that could not ship); they operate
        on the same shared pages the workers see."""
        probe = self.probe
        if probe is not None:
            probe.task_started(node.task_id, threading.current_thread().name)
        stall_ms = node.directives.stall_ms if node.directives is not None else 0.0
        with self._lock:
            if fallback:
                self.n_inline_fallback += len(node.parts)
            else:
                self.n_inline_host += len(node.parts)
            if stall_ms:
                self._stalled.update(node.member_ids)
        if stall_ms:
            time.sleep(stall_ms / 1000.0)
        error = self._run_bodies(node)
        if error is None:
            self._apply_completion_events(node)
        self._finish(node, error)

    # -- completion -------------------------------------------------------

    def _apply_completion_events(self, node: _Node) -> None:
        directives = node.directives
        if directives is None:
            return
        for _record, event in directives.stall_events:
            event.applied = True
            event.detected = True
            event.detected_by = "injector"
            event.recovered = True
            event.recovery = "completed"
            event.detail = f"completed {event.spec.stall_ms:g}ms late"
        for record, event in directives.corrupt_events:
            # Poison the written subset *before* any dependent is
            # released — the shared pages make the damage visible to
            # parent and workers alike.
            directives.injector._corrupt(record, event)

    def _on_result(
        self, task_id: int, ok: bool, payload: Any, body_s: Optional[float] = None
    ) -> None:
        """Collector-thread entry: one worker finished a node."""
        with self._lock:
            node = self._pending.get(task_id)
            self._inflight.discard(task_id)
        if node is None:  # pragma: no cover - late result after shutdown
            return
        probe = self.probe
        if probe is not None and body_s is not None:
            # The worker's span batch rode back with the result message.
            probe.task_body_batch(task_id, "", float(body_s), len(node.parts))
        error: Optional[BaseException] = None
        if ok:
            for (_record, _thunk, on_done, _inv), value in zip(node.parts, payload):
                try:
                    on_done(value)
                except BaseException as exc:  # noqa: BLE001 - re-raised at drain
                    if error is None:
                        error = exc
            self._apply_completion_events(node)
        else:
            error = payload
        self._finish(node, error)

    # -- blocking / deadlock diagnostics ----------------------------------

    def _check_workers_locked(self) -> None:
        if self._inflight and not self._pool.alive():
            self._raise_if_failed_locked()
            dead = sorted(self._inflight)
            raise ExecutorError(
                f"a pool worker died with task(s) {dead} in "
                "flight; their results can never arrive"
            )

    def _dump_entry_locked(self, node: _Node) -> Dict[str, object]:
        entry = super()._dump_entry_locked(node)
        entry["inflight"] = node.task_id in self._inflight
        return entry

    # -- lifecycle / stats -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["inline_host_tasks"] = self.n_inline_host
        stats["inline_fallback_tasks"] = self.n_inline_fallback
        stats["strict_portable"] = self.strict_portable
        return stats

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        self._pool.unregister(self._epoch)
        try:
            self._pool.broadcast(("clear", self._epoch))
        except Exception:
            pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass
