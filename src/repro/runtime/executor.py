"""Deferred task execution backends.

The runtime historically ran every task body inline at launch.  This
module splits *launch* from *execution*: :meth:`Runtime.execute` now
enqueues a thunk (the task body closed over its context) together with
the dependence edges the engine's region-interference analysis derived
for the corresponding :class:`~repro.runtime.task.TaskRecord`, and an
executor decides when the thunk actually runs.

Four backends implement the same interface:

* :class:`SerialExecutor` — runs each thunk immediately at submit time,
  reproducing the historical eager behaviour exactly (and with zero
  overhead: no locks, no queues).
* :class:`CaptureExecutor` — never runs any thunk.  Every submitted
  task completes immediately with a :class:`SymbolicValue`, so the full
  task stream (records, requirements, engine dependences) is produced
  without executing a single task body — the substrate of the static
  plan analyzer (``repro.analyze``).
* :class:`ThreadedExecutor` — runs ready tasks on a thread pool.  NumPy
  kernels release the GIL, so point tasks from one index launch over a
  disjoint partition run genuinely concurrently.
* ``ProcPoolExecutor`` (:mod:`repro.runtime.procpool`) — ships portable
  bodies to a persistent pool of worker processes over shared-memory
  regions, and runs host tasks in the parent.

The two deferred backends are thin subclasses of one
:class:`DependenceScheduler`, which owns everything derived from the
dependence analysis: the pending graph, dependent release into one
ready deque, first-error capture, the helping wait loop and deadlock
diagnosis.  Dependences are the engine's happens-before edges (the same
epochs the race detector checks) plus one executor-only rule:
same-operator reductions to overlapping subsets *commute* in the timing
model but are serialized here in launch order, because ``+=`` on a
shared NumPy slice is not atomic — and serializing in launch order
keeps results bitwise deterministic.  A backend implements only how a
claimed node runs (``_run``: on the thread pool, or shipped to a pinned
worker process / inline in the parent) and how a newly ready node is
picked up (``_schedule``); the process-pool backend adds a check that
fails a wait when a worker died with tasks in flight.

Blocking on a :class:`~repro.runtime.future.Future` produced by a
deferred task drains the executor up to that task.  Any thread that
would block — the application thread in ``Future.get``/``fence`` or a
body that reads a future — instead *helps*: it claims ready tasks and
runs them until its target completes, so a full pool of blocked
workers can never starve the queue.  Waits that can make no progress at
all detect deadlock instead of hanging, identically on both deferred
backends: an unsatisfiable dependence, a dependence cycle, or a body
waiting on its own descendants raises :class:`DeadlockError` naming a
``repro-deadlock/1`` dump of the blocked subgraph.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from .kernels import TaskInvocation, fused_label
from .region import Privilege
from .task import TaskRecord

if TYPE_CHECKING:  # pragma: no cover
    from .region import RegionStore
    from .subset import Subset

__all__ = [
    "BACKENDS",
    "CaptureExecutor",
    "EXECUTING_BACKENDS",
    "DeadlockError",
    "DependenceScheduler",
    "ExecutorError",
    "SerialExecutor",
    "SymbolicValue",
    "TaskExecutor",
    "TaskProbe",
    "ThreadedExecutor",
    "default_backend",
    "default_jobs",
    "make_executor",
]

#: Names accepted by the ``backend=`` switch.
BACKENDS = ("serial", "threads", "procs", "capture")

#: Backends that actually execute task bodies and materialize region
#: data ("capture" records the plan without running anything, so it is
#: meaningless to benchmark or compare numerics on).
EXECUTING_BACKENDS = ("serial", "threads", "procs")

#: Environment variables overriding the runtime's defaults.
BACKEND_ENV = "REPRO_BACKEND"
JOBS_ENV = "REPRO_JOBS"


class ExecutorError(RuntimeError):
    """A deferred task body raised; re-raised at the first drain point."""


class DeadlockError(RuntimeError):
    """A blocking wait can never be satisfied (cycle, missing producer,
    or a worker waiting on its own descendants)."""


def default_backend() -> str:
    """The backend name to use when none is given: ``REPRO_BACKEND`` or
    ``serial``."""
    backend = os.environ.get(BACKEND_ENV, "serial").strip().lower()
    return backend if backend in BACKENDS else "serial"


def default_jobs() -> Optional[int]:
    """Worker count override from ``REPRO_JOBS`` (None → use CPU count)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def make_executor(
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
    store: "Optional[RegionStore]" = None,
) -> "TaskExecutor":
    """Build an executor by backend name (env-overridable defaults).
    ``store`` is required by the process-pool backend, which must know
    the shared-memory descriptors of the region instances it ships."""
    if backend is None:
        backend = default_backend()
    backend = backend.strip().lower()
    if jobs is None:
        jobs = default_jobs()
    if backend == "serial":
        return SerialExecutor()
    if backend == "threads":
        return ThreadedExecutor(n_workers=jobs)
    if backend == "procs":
        from .procpool import ProcPoolExecutor

        return ProcPoolExecutor(n_workers=jobs, store=store)
    if backend == "capture":
        return CaptureExecutor()
    raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")


class TaskProbe(Protocol):
    """Observability callbacks an executor fires around each task body.

    Implemented by :class:`repro.obs.Observability`; the executor holds
    at most one probe and every call site guards with ``probe is not
    None`` so the disabled default costs a single attribute load."""

    def task_submitted(self, task_id: int, name: str, n_pending: int, n_ready: int) -> None:
        ...

    def task_started(self, task_id: int, worker: str = "") -> None:
        ...

    def task_finished(self, task_id: int) -> None:
        ...

    def task_body_batch(self, task_id: int, worker: str, body_s: float, n_parts: int) -> None:
        """Worker-measured body seconds, shipped back in a batch with a
        pool result (procs backend); never sent per-event."""
        ...

    def future_wait(self, future_uid: int) -> None:
        ...

    def deadlock(self) -> None:
        ...

    def sample(self, task_id: int) -> bool:
        """Deterministic per-task sampling decision; backends that pay
        extra to capture spans (procs worker batches) may skip that work
        for unsampled tasks."""
        ...

    def flight_bundle(self, reason: str) -> Optional[Dict[str, object]]:
        """Post-mortem ring-buffer bundle for fatal dumps, or None."""
        ...


class TaskExecutor:
    """Interface every backend implements."""

    #: Backend name, for reports and the bench harness.
    name: str = "abstract"

    #: Optional observability probe (queue depth, per-task latencies);
    #: None by default — the zero-overhead path.
    probe: Optional[TaskProbe] = None

    #: True for backends that want the runtime to derive a portable
    #: :class:`~repro.runtime.kernels.TaskInvocation` per launch (the
    #: process-pool backend); the in-process backends skip that work.
    wants_invocations: bool = False

    def submit(
        self,
        record: TaskRecord,
        thunk: Callable[[], object],
        on_done: Callable[[object], None],
        deps: Set[int],
        invocation: Optional[TaskInvocation] = None,
    ) -> None:
        """Enqueue one task.  ``deps`` are engine task ids that must
        complete before the thunk may run; ids the executor has never
        seen (tasks executed before this executor attached, or purely
        simulated ones) are treated as already complete.  ``invocation``
        is the task's portable body description when the backend asked
        for one via :attr:`wants_invocations` (ignored otherwise)."""
        raise NotImplementedError

    def submit_fused(
        self,
        parts: Sequence[
            Tuple[TaskRecord, Callable[[], object], Callable[[object], None], Set[int]]
        ],
        invocations: Optional[Sequence[Optional[TaskInvocation]]] = None,
    ) -> None:
        """Enqueue a plan-fused group of tasks as one scheduling unit.

        The members run in launch order inside a single dispatch, so the
        numerics are bitwise those of submitting them individually; the
        default simply does that (correct for every backend), and
        deferred backends override it to build one coarse node."""
        if invocations is None:
            invocations = [None] * len(parts)
        for (record, thunk, on_done, deps), inv in zip(parts, invocations):
            self.submit(record, thunk, on_done, deps, invocation=inv)

    def wait_for_future(self, future_uid: int) -> None:
        """Block until the task producing ``future_uid`` has executed.
        No-op for futures this executor does not manage — every future,
        for the backends that complete tasks at submit."""

    def drain(self) -> None:
        """Block until every submitted task has executed (a no-op for
        the backends that complete tasks at submit)."""

    def shutdown(self) -> None:
        """Release worker resources (idempotent)."""

    @property
    def n_parallel(self) -> int:
        """Worker count (1 for the serial backend)."""
        return 1


class SerialExecutor(TaskExecutor):
    """The historical behaviour: run the body at launch, inline."""

    name = "serial"

    def submit(
        self,
        record: TaskRecord,
        thunk: Callable[[], object],
        on_done: Callable[[object], None],
        deps: Set[int],
        invocation: Optional[TaskInvocation] = None,
    ) -> None:
        probe = self.probe
        if probe is None:
            on_done(thunk())
            return
        probe.task_submitted(record.task_id, record.name, 0, 1)
        probe.task_started(record.task_id, threading.current_thread().name)
        try:
            on_done(thunk())
        finally:
            probe.task_finished(record.task_id)


class SymbolicValue:
    """The value every future resolves to under ``backend="capture"``.

    Task bodies never run during symbolic capture, so no real value
    exists; this placeholder keeps host-side solver code alive anyway:
    it coerces to the *finite* constant ``1.0`` (NaN would crash
    host-side linear algebra such as GMRES's least-squares solve and
    make convergence tests take the non-generic branch), and arithmetic
    between symbolic values stays symbolic."""

    __slots__ = ("task_id", "name")

    def __init__(self, task_id: Optional[int] = None, name: str = "") -> None:
        self.task_id = task_id
        self.name = name

    def __float__(self) -> float:
        return 1.0

    def _derived(self, _other: object = None) -> "SymbolicValue":
        return SymbolicValue(self.task_id, f"{self.name}'" if self.name else "")

    __add__ = __radd__ = __sub__ = __rsub__ = _derived
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = _derived

    def __neg__(self) -> "SymbolicValue":
        return self._derived()

    def __repr__(self) -> str:
        tag = self.name or "?"
        return f"SymbolicValue({tag}#{self.task_id})"


class CaptureExecutor(TaskExecutor):
    """Records instead of runs (the static-analysis backend).

    Every submitted task "completes" at submit time with a
    :class:`SymbolicValue` — the body thunk is never invoked, so no
    region data is read or written and no numerics happen.  The engine
    still simulates every :class:`TaskRecord` in launch order, which is
    exactly the stream ``repro.analyze`` turns into a ``PlanGraph``."""

    name = "capture"

    def __init__(self) -> None:
        #: Number of task bodies captured (and skipped).
        self.n_captured = 0

    def submit(
        self,
        record: TaskRecord,
        thunk: Callable[[], object],
        on_done: Callable[[object], None],
        deps: Set[int],
        invocation: Optional[TaskInvocation] = None,
    ) -> None:
        self.n_captured += 1
        on_done(SymbolicValue(record.task_id, record.name))


#: One body of a scheduler node: ``(record, thunk, on_done, invocation)``.
#: ``invocation`` is the portable body description the process-pool
#: backend ships to a worker (None for in-process-only bodies).
_Part = Tuple[
    TaskRecord, Callable[[], object], Callable[[object], None], Optional[TaskInvocation]
]


class _Node:
    """Scheduler state for one deferred task or plan-fused task group.

    Lifecycle: *blocked* (``waiting_on`` non-empty) → *ready* (queued on
    the ready deque) → *claimed* (a backend or a helping waiter owns the
    bodies) → removed from the pending map once the bodies and their
    completion bookkeeping finish.
    """

    __slots__ = (
        "task_id",
        "name",
        "parts",
        "waiting_on",
        "dependents",
        "claimed",
        "directives",
    )

    def __init__(self, task_id: int, name: str, parts: List[_Part]) -> None:
        self.task_id = task_id
        self.name = name
        #: One part for a plain task, several for a fused group (run in
        #: launch order inside a single claim).
        self.parts = parts
        self.waiting_on: Set[int] = set()
        self.dependents: List[int] = []
        self.claimed = False
        #: Backend-private per-node state (the process-pool backend's
        #: translated fault directives); None otherwise.
        self.directives: Any = None

    @property
    def member_ids(self) -> List[int]:
        return [part[0].task_id for part in self.parts]

    @property
    def portable(self) -> bool:
        """Every body carries an invocation, so the node can leave the
        process."""
        return all(part[3] is not None for part in self.parts)


_current_task = threading.local()


class DependenceScheduler(TaskExecutor):
    """The dependence-driven scheduler both deferred backends share.

    It owns everything derived from the dependence analysis: the pending
    graph (fused-member aliases, the future → producer map, completed
    ids), launch-order chaining of commuting reductions, dependent
    release into one ready deque, first-error capture, the helping wait
    loop and deadlock diagnosis.  A backend implements two hooks:

    * :meth:`_run` — execute one claimed node and commit it through
      :meth:`_finish`, at once or later from any thread;
    * :meth:`_schedule` — called once for every node that becomes ready;
      the default claims the oldest ready node and runs it on the
      calling thread.

    and may override :meth:`_check_workers_locked` to fail a wait whose
    in-flight work can never come back.
    """

    def __init__(self, n_workers: Optional[int] = None) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        self._n_workers = max(1, int(n_workers))
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: Dict[int, _Node] = {}
        self._ready: Deque[int] = deque()  # ready, unclaimed node ids (FIFO)
        self._completed: Set[int] = set()
        self._by_future: Dict[int, int] = {}
        #: Fused-member task id -> owning node id, so dependences named
        #: against a member resolve to the node that subsumed it.
        self._alias: Dict[int, int] = {}
        self._first_error: Optional[BaseException] = None
        # Executor-only serialization of commuting reductions, per
        # (region uid, field): the last pending reducer per subset uid
        # plus the subsets themselves for overlap tests across uids.
        self._reduce_tail: Dict[Tuple[int, str], Dict[int, Tuple["Subset", int]]] = {}
        self._disjoint: Dict[Tuple[int, int], bool] = {}
        #: Task ids inside a stall the backend performs itself (the
        #: process-pool backend's stall directives); cleared at finish.
        self._stalled: Set[int] = set()
        #: Optional callable returning the task ids currently held in an
        #: injected stall (set by the fault injector).  Deadlock
        #: diagnostics consult it so a chaos-test failure states whether
        #: a task is fault-stalled (slow on purpose) or genuinely
        #: blocked.
        self.stall_monitor: Optional[Callable[[], Set[int]]] = None
        # Dispatch statistics (surfaced via Runtime.dispatch_stats()).
        self.n_dispatched = 0
        self.n_fused_groups = 0
        self.n_fused_members = 0

    @property
    def n_parallel(self) -> int:
        return self._n_workers

    def stats(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "workers": self._n_workers,
            "dispatched_tasks": self.n_dispatched,
            "fused_groups": self.n_fused_groups,
            "fused_member_tasks": self.n_fused_members,
        }

    # -- dependence augmentation ------------------------------------------

    def _overlaps(self, a: "Subset", b: "Subset") -> bool:
        if a.uid == b.uid:
            return True
        key = (a.uid, b.uid) if a.uid < b.uid else (b.uid, a.uid)
        hit = self._disjoint.get(key)
        if hit is None:
            hit = a.is_disjoint_from(b)
            self._disjoint[key] = hit
        return not hit

    def _reduction_edges(self, record: TaskRecord, node_id: int) -> Set[int]:
        """Same-redop reductions on overlapping subsets commute in the
        simulated timeline (the engine adds no edge) but must not run
        concurrently on shared memory; chaining them in launch order
        also keeps floating-point results deterministic.  The tail
        records ``node_id`` so fused members chain through the node
        that subsumed them."""
        extra: Set[int] = set()
        for req in record.requirements:
            if req.privilege is not Privilege.REDUCE:
                continue
            for fname in req.fields:
                tail = self._reduce_tail.setdefault((req.region.uid, fname), {})
                for _uid, (subset, tid) in tail.items():
                    if self._overlaps(req.subset, subset):
                        extra.add(tid)
                tail[req.subset.uid] = (req.subset, node_id)
        return extra

    # -- submission --------------------------------------------------------

    def submit(
        self,
        record: TaskRecord,
        thunk: Callable[[], object],
        on_done: Callable[[object], None],
        deps: Set[int],
        invocation: Optional[TaskInvocation] = None,
    ) -> None:
        node = _Node(record.task_id, record.name, [(record, thunk, on_done, invocation)])
        self._submit_node(node, [deps])

    def submit_fused(
        self,
        parts: Sequence[
            Tuple[TaskRecord, Callable[[], object], Callable[[object], None], Set[int]]
        ],
        invocations: Optional[Sequence[Optional[TaskInvocation]]] = None,
    ) -> None:
        """One scheduling unit for a plan-fused group: the member bodies
        (and their completions) run back-to-back in launch order inside
        a single claimed node, so one dispatch does the work of the
        whole chain, bitwise identically."""
        if invocations is None:
            invocations = [None] * len(parts)
        node = _Node(
            parts[0][0].task_id,
            fused_label(tuple(p[0].name for p in parts)),
            [(r, t, d, inv) for (r, t, d, _deps), inv in zip(parts, invocations)],
        )
        self.n_fused_groups += 1
        self.n_fused_members += len(parts)
        self._submit_node(node, [p[3] for p in parts])

    def _submit_node(self, node: _Node, deps_per_part: Sequence[Set[int]]) -> None:
        members = node.member_ids
        with self._lock:
            wanted: Set[int] = set()
            for part, deps in zip(node.parts, deps_per_part):
                wanted.update(deps)
                wanted |= self._reduction_edges(part[0], node.task_id)
            for dep in wanted:
                dep = self._alias.get(dep, dep)
                if dep in members or dep in self._completed:
                    continue
                parent = self._pending.get(dep)
                if parent is None:
                    # A task the executor never saw (pre-attach or purely
                    # simulated): treat as complete.
                    continue
                node.waiting_on.add(dep)
                parent.dependents.append(node.task_id)
            self._pending[node.task_id] = node
            for record, _thunk, _on_done, _inv in node.parts:
                if record.task_id != node.task_id:
                    self._alias[record.task_id] = node.task_id
                if record.future_uid is not None:
                    self._by_future[record.future_uid] = node.task_id
            ready = not node.waiting_on
            if ready:
                self._ready.append(node.task_id)
            probe = self.probe
            if probe is not None:
                # Inside the lock so the submit event precedes any
                # worker's start event for this task (the probe's own
                # lock never acquires the executor lock).
                probe.task_submitted(
                    node.task_id, node.name, len(self._pending), len(self._ready)
                )
        if ready:
            self._schedule()

    # -- execution ---------------------------------------------------------

    def _claim_locked(self, task_id: Optional[int] = None) -> Optional[_Node]:
        """Claim one ready node (``task_id`` if given and ready, else the
        oldest ready one).  Caller holds the lock."""
        if task_id is not None:
            node = self._pending.get(task_id)
            if node is not None and not node.claimed and not node.waiting_on:
                self._ready.remove(task_id)
                node.claimed = True
                return node
        while self._ready:
            node = self._pending.get(self._ready.popleft())
            if node is not None and not node.claimed:
                node.claimed = True
                return node
        return None

    def _claim_and_run(self) -> None:
        """Claim the oldest ready node, if any, and run it."""
        with self._lock:
            node = self._claim_locked()
        if node is not None:
            self._run(node)

    def _schedule(self) -> None:
        """Hook: one more node is ready.  Default: run it (or whichever
        ready node is oldest) on the calling thread."""
        self._claim_and_run()

    def _run(self, node: _Node) -> None:
        """Hook: execute one claimed node, then :meth:`_finish` it."""
        raise NotImplementedError

    def _run_bodies(self, node: _Node) -> Optional[BaseException]:
        """Run a node's bodies in this thread, in launch order, stopping
        at the first that raises (returned, re-raised at drain).  The
        current-task marker lets a body that blocks on a future of its
        own descendant be diagnosed instead of hanging."""
        token = getattr(_current_task, "task_id", None)
        _current_task.task_id = node.task_id
        try:
            for _record, thunk, on_done, _inv in node.parts:
                on_done(thunk())
        except BaseException as exc:  # noqa: BLE001 - re-raised at drain
            return exc
        finally:
            _current_task.task_id = token
        return None

    def _finish(self, node: _Node, error: Optional[BaseException] = None) -> None:
        """Commit a claimed node: keep the first error, release its
        dependents onto the ready deque and schedule each."""
        probe = self.probe
        if probe is not None:
            probe.task_finished(node.task_id)
        n_unblocked = 0
        with self._lock:
            for record, _thunk, _on_done, _inv in node.parts:
                self._completed.add(record.task_id)
            if self._stalled:
                self._stalled.difference_update(node.member_ids)
            del self._pending[node.task_id]
            if error is not None and self._first_error is None:
                self._first_error = error
            for dep_id in node.dependents:
                child = self._pending.get(dep_id)
                if child is None or node.task_id not in child.waiting_on:
                    continue
                child.waiting_on.discard(node.task_id)
                if not child.waiting_on:
                    self._ready.append(dep_id)
                    n_unblocked += 1
            self._cond.notify_all()
        for _ in range(n_unblocked):
            self._schedule()

    # -- blocking ----------------------------------------------------------

    def _closure_locked(self, task_id: int) -> Set[int]:
        """Pending transitive dependence closure of one pending task."""
        seen: Set[int] = set()
        stack = [task_id]
        while stack:
            tid = stack.pop()
            if tid in seen:
                continue
            seen.add(tid)
            node = self._pending.get(tid)
            if node is not None:
                stack.extend(node.waiting_on)
        return seen

    def _stalled_ids(self) -> Set[int]:
        """Task ids currently inside a stall: the backend's own plus
        those the attached fault injector reports."""
        ids = set(self._stalled)
        monitor = self.stall_monitor
        if monitor is not None:
            try:
                ids |= set(monitor())
            except Exception:  # pragma: no cover - diagnostics must not raise
                pass
        return ids

    def _task_label_locked(
        self, task_id: Optional[int], stalled: "frozenset[int] | Set[int]" = frozenset()
    ) -> str:
        """``"{id} ({name})"`` for a pending task, best-effort otherwise;
        fault-stalled tasks are marked as such."""
        if task_id is None:
            return "?"
        node = self._pending.get(task_id)
        label = f"{task_id} ({node.name})" if node is not None else str(task_id)
        if task_id in stalled:
            label += " [fault-stalled]"
        return label

    def _dump_entry_locked(self, node: _Node) -> Dict[str, object]:
        """One node of the blocked-subgraph dump (backends may add keys)."""
        entry: Dict[str, object] = {
            "task_id": node.task_id,
            "name": node.name,
            "claimed": node.claimed,
            "ready": node.task_id in self._ready,
            "waiting_on": sorted(node.waiting_on),
            "dependents": sorted(node.dependents),
        }
        if len(node.parts) > 1:
            # Fusion must not cost debuggability: list which original
            # tasks this fused node contains.
            entry["fused"] = [
                {"task_id": r.task_id, "name": r.name} for r, _t, _d, _i in node.parts
            ]
        return entry

    def _dump_blocked_locked(self, closure: Set[int], reason: str) -> str:
        """Write a JSON snapshot of the blocked pending subgraph to a
        temporary file for post-mortem diagnosis; returns a message
        fragment naming the path (empty when the dump could not be
        written).  Also counts the deadlock on the attached probe."""
        probe = self.probe
        if probe is not None:
            probe.deadlock()
        nodes = [
            self._dump_entry_locked(self._pending[tid])
            for tid in sorted(closure)
            if tid in self._pending
        ]
        payload: Dict[str, object] = {
            "schema": "repro-deadlock/1",
            "backend": self.name,
            "reason": reason,
            "n_pending_total": len(self._pending),
            "stalled_task_ids": sorted(self._stalled_ids()),
            "blocked_subgraph": nodes,
        }
        if probe is not None:
            # Flight-recorder post-mortem: the last probe events plus a
            # metrics snapshot, so the dump shows what led up to the
            # deadlock, not just the frozen dependence graph.
            try:
                flight = probe.flight_bundle(f"deadlock:{reason}")
            except Exception:  # pragma: no cover - post-mortem best-effort
                flight = None
            if flight is not None:
                payload["flight"] = flight
        try:
            fd, path = tempfile.mkstemp(prefix="repro-deadlock-", suffix=".json")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
        except OSError:  # pragma: no cover - the dump is best-effort
            return ""
        return f"; blocked-subgraph trace written to {path}"

    @staticmethod
    def _stall_note(stalled: Set[int]) -> str:
        if not stalled:
            return ""
        ids = ", ".join(str(t) for t in sorted(stalled))
        return (
            f"; fault-injection note: task(s) {ids} are fault-stalled "
            "(delayed on purpose, still running), not genuinely blocked"
        )

    def _check_stuck_locked(self, task_id: int, waiting_for: Optional[str] = None) -> None:
        """Raise :class:`DeadlockError` if ``task_id`` can never complete.
        Called with the lock held, only when the waiter found nothing to
        help with; a closure containing a claimed (executing or shipped)
        task is presumed to be making progress.  ``waiting_for`` names
        what the blocked wait is for (e.g. ``"future #12"``) so the error
        identifies the unsatisfiable wait, not just the stuck tasks."""
        waiter = getattr(_current_task, "task_id", None)
        closure = self._closure_locked(task_id)
        through_waiter = waiter is not None and waiter in closure and waiter != task_id
        if not through_waiter:
            for tid in closure:
                node = self._pending.get(tid)
                if node is not None and node.claimed:
                    return  # a body in the closure is executing right now
            if any(tid in self._ready for tid in closure):
                return  # ready work exists; the waiter will claim it next
        # The wait can never be satisfied: diagnose it.
        where = f" while blocking on {waiting_for}" if waiting_for else ""
        stalled = self._stalled_ids()
        note = self._stall_note(stalled)
        if through_waiter:
            dump = self._dump_blocked_locked(closure, "cycle-through-waiter")
            raise DeadlockError(
                f"task {self._task_label_locked(waiter, stalled)} blocks on task "
                f"{self._task_label_locked(task_id, stalled)}{where}, which transitively "
                f"depends on task {waiter} itself — dependence cycle through a "
                f"blocking future read{note}{dump}"
            )
        for tid in sorted(closure):
            node = self._pending.get(tid)
            if node is None or not node.waiting_on:
                continue
            missing = [
                d for d in node.waiting_on
                if d not in self._pending and d not in self._completed
            ]
            if missing:
                blocked = ", ".join(
                    self._task_label_locked(t, stalled)
                    for t in sorted(closure & set(self._pending))
                )
                dump = self._dump_blocked_locked(closure, "missing-producer")
                raise DeadlockError(
                    f"task {tid} ({node.name}) waits on task(s) {sorted(missing)} "
                    f"that were never submitted and can never complete{where}; "
                    f"blocked tasks: [{blocked}]{note}{dump}"
                )
        cycle = ", ".join(
            self._task_label_locked(t, stalled)
            for t in sorted(closure & set(self._pending))
        )
        dump = self._dump_blocked_locked(closure, "dependence-cycle")
        raise DeadlockError(
            f"dependence cycle among pending tasks [{cycle}]{where}; "
            f"no task in the closure can ever become ready{note}{dump}"
        )

    def _check_workers_locked(self) -> None:
        """Hook: raise when in-flight work can never complete (the
        process-pool backend's dead-worker check).  Caller holds the
        lock, and has found nothing to help with."""

    def _raise_if_failed_locked(self) -> None:
        if self._first_error is not None:
            exc = self._first_error
            self._first_error = None
            raise ExecutorError(
                f"a deferred task body raised {type(exc).__name__}: {exc}"
            ) from exc

    def _wait_until(
        self,
        done_locked: Callable[[], bool],
        target: Callable[[], Optional[int]],
        waiting_for: Optional[str] = None,
    ) -> None:
        """Help-run ready tasks until ``done_locked()`` holds; ``target``
        names a pending task id to prefer and deadlock-check against
        (None → any); ``waiting_for`` describes the wait for deadlock
        diagnostics."""
        while True:
            with self._lock:
                if done_locked():
                    self._raise_if_failed_locked()
                    return
                node = self._claim_locked(target())
                if node is None:
                    self._check_workers_locked()
                    tid = target()
                    if tid is None and self._pending:
                        tid = next(iter(self._pending))
                    if tid is not None:
                        self._check_stuck_locked(tid, waiting_for)
                    self._cond.wait(timeout=0.1)
                    continue
            self._run(node)

    def wait_for_future(self, future_uid: int) -> None:
        with self._lock:
            task_id = self._by_future.get(future_uid)
        if task_id is None:
            return
        probe = self.probe
        if probe is not None:
            probe.future_wait(future_uid)
        self._wait_until(
            lambda: task_id not in self._pending,
            lambda: task_id if task_id in self._pending else None,
            waiting_for=f"future #{future_uid} (produced by task {task_id})",
        )

    def drain(self) -> None:
        self._wait_until(
            lambda: not self._pending, lambda: None, waiting_for="drain/fence"
        )


class ThreadedExecutor(DependenceScheduler):
    """Dependence-driven thread-pool scheduler with helping waiters."""

    name = "threads"

    def __init__(self, n_workers: Optional[int] = None):
        super().__init__(n_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self._n_workers, thread_name_prefix="repro-exec"
        )

    def _submit_node(self, node: _Node, deps_per_part: Sequence[Set[int]]) -> None:
        # Every submitted body is dispatched onto the pool; submission
        # happens on the application thread only.
        self.n_dispatched += len(node.parts)
        super()._submit_node(node, deps_per_part)

    def _schedule(self) -> None:
        self._pool.submit(self._claim_and_run)

    def _run(self, node: _Node) -> None:
        probe = self.probe
        if probe is not None:
            probe.task_started(node.task_id, threading.current_thread().name)
        self._finish(node, self._run_bodies(node))

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self._pool.shutdown(wait=False)
        except Exception:
            pass
