"""The process-pool backend: shared-memory store, worker accessors,
dispatch/fallback routing, fused nodes, deadlock diagnostics.

These tests drive ``src/repro/runtime/procpool.py`` directly (plus a
few end-to-end runs through the runtime facade); CI holds the module to
a >= 90% line-coverage bar with this file as the primary driver.
"""

import functools
import json
import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import make_planner
from repro.core.planner import SOL
from repro.problems.generators import tridiagonal_toeplitz
from repro.runtime import (
    DeadlockError,
    ExecutorError,
    FieldSpace,
    IndexSpace,
    LogicalRegion,
    Privilege,
    ProcKind,
    Runtime,
    Subset,
    TaskLauncher,
    TaskRecord,
    ThreadedExecutor,
)
from repro.runtime.executor import _Node
from repro.runtime.kernels import KernelBody, TaskInvocation, register_kernel
from repro.runtime.procpool import (
    ProcPoolExecutor,
    SharedRegionStore,
    _picklable_exc,
    _ShmAccessor,
    _worker_main,
    _WorkerState,
    shutdown_worker_pools,
)
from repro.verify.oracle import build_format


def make_region(n=8, fields=("v",)):
    return LogicalRegion(
        IndexSpace.linear(n), FieldSpace({f: np.float64 for f in fields})
    )


def make_record(name="t", reqs=(), owner=0, future_uid=None):
    return TaskRecord(
        task_id=TaskRecord.next_id(),
        name=name,
        requirements=list(reqs),
        proc_kind=ProcKind.CPU,
        flops=0.0,
        bytes_touched=0.0,
        owner_hint=owner,
        future_dep_uids=[],
        future_uid=future_uid,
    )


def rw_req(region, field="v", subset=None):
    from repro.runtime.task import RegionRequirement

    return RegionRequirement(
        region,
        (field,),
        subset if subset is not None else Subset.full(region.ispace),
        Privilege.READ_WRITE,
    )


# A kernel known to parent AND workers must live in the library registry
# (spawned workers import repro, not the test module); parent-only
# registrations are exactly what the unknown-kernel test needs.
try:
    @register_kernel("test-parent-only")
    def _k_parent_only(ctx, payload):  # pragma: no cover - never runs
        ctx[0].write(np.zeros(ctx[0].n_points))
except ValueError:  # already registered in this interpreter
    pass


class TestSharedRegionStore:
    def test_allocate_is_shared_and_described(self):
        store = SharedRegionStore()
        region = make_region(16)
        arr = store.allocate(region, "v", fill=2.5)
        assert (arr == 2.5).all()
        assert store.raw(region, "v") is arr
        name, dtype_str, volume = store.descriptor(region, "v")
        assert dtype_str == np.dtype(np.float64).str
        assert volume == 16
        # Another mapping of the segment sees the same bytes.
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        try:
            twin = np.ndarray((16,), dtype=np.float64, buffer=shm.buf)
            assert (twin == 2.5).all()
            arr[3] = 7.0
            assert twin[3] == 7.0
        finally:
            twin = None
            shm.close()
        store.release()

    def test_attach_copies_into_a_segment(self):
        # Unlike the base store's zero-copy adoption, crossing address
        # spaces forces a copy: later writes to the source must NOT be
        # visible through the region.
        store = SharedRegionStore()
        region = make_region(8)
        src = np.arange(8, dtype=np.float64)
        store.attach(region, "v", src)
        src[0] = 99.0
        assert store.raw(region, "v")[0] == 0.0
        assert store.descriptor(region, "v") is not None
        store.release()

    def test_attach_validation_matches_base_store(self):
        store = SharedRegionStore()
        region = make_region(8)
        with pytest.raises(ValueError, match="cannot back region"):
            store.attach(region, "v", np.zeros(5))
        with pytest.raises(TypeError, match="does not match field"):
            store.attach(region, "v", np.zeros(8, dtype=np.int32))
        store.release()

    def test_descriptor_missing_field_is_none(self):
        store = SharedRegionStore()
        assert store.descriptor(make_region(4), "v") is None
        store.release()

    def test_release_is_idempotent(self):
        store = SharedRegionStore()
        region = make_region(4)
        store.allocate(region, "v")
        store.release()
        assert store.descriptor(region, "v") is None
        store.release()  # second call must be a no-op


class TestShmAccessor:
    def test_slice_selection(self):
        arr = np.arange(10, dtype=np.float64)
        acc = _ShmAccessor(arr, slice(2, 6))
        assert acc.n_points == 4
        assert (acc.read() == [2, 3, 4, 5]).all()
        acc.write(np.zeros(4))
        acc.reduce_add(np.ones(4))
        assert (arr[2:6] == 1.0).all()
        assert arr[6] == 6.0

    def test_fancy_selection(self):
        arr = np.zeros(8, dtype=np.float64)
        sel = np.array([1, 3, 5], dtype=np.int64)
        acc = _ShmAccessor(arr, sel)
        assert acc.n_points == 3
        acc.write(np.full(3, 2.0))
        acc.reduce_add(np.full(3, 0.5))
        assert (arr[sel] == 2.5).all()
        assert arr[0] == 0.0

    def test_scatter_add(self):
        arr = np.zeros(6, dtype=np.float64)
        acc = _ShmAccessor(arr, slice(0, 6))
        acc.scatter_add(np.array([1, 1, 4]), np.array([1.0, 2.0, 3.0]))
        assert arr[1] == 3.0 and arr[4] == 3.0


class TestPicklableExc:
    def test_passthrough(self):
        exc = ValueError("boom")
        assert _picklable_exc(exc) is exc

    def test_unpicklable_is_rewritten(self):
        class Evil(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        out = _picklable_exc(Evil("inner detail"))
        assert isinstance(out, RuntimeError)
        assert "Evil" in str(out) and "inner detail" in str(out)


class TestProcNode:
    def test_member_ids_and_portability(self):
        r1, r2 = make_record("a"), make_record("b")
        inv = TaskInvocation("fill", kwargs={"value": 0.0})
        node = _Node(r1.task_id, "a", [(r1, None, None, inv), (r2, None, None, inv)])
        assert node.member_ids == [r1.task_id, r2.task_id]
        assert node.portable
        node.parts[1] = (r2, None, None, None)
        assert not node.portable


class TestDirectDispatch:
    def test_kernel_runs_in_worker_and_caches_shipments(self):
        store = SharedRegionStore()
        region = make_region(8)
        arr = store.allocate(region, "v")
        ex = ProcPoolExecutor(n_workers=2, store=store)
        ran_inline = []
        try:
            for expect in (3.5, 4.5):
                rec = make_record("fill", reqs=[rw_req(region)], owner=1)
                inv = TaskInvocation("fill", kwargs={"value": expect}, point=1)
                ex.submit(rec, lambda: ran_inline.append(1), lambda _v: None,
                          set(), invocation=inv)
                ex.drain()
                assert (arr == expect).all()
            # The body crossed the process boundary both times; the
            # second dispatch reused the worker's cached subset.
            assert ran_inline == []
            assert ex.n_dispatched == 2
            assert ex.n_inline_fallback == 0
        finally:
            ex.shutdown()
            store.release()

    def test_payload_ships_once_and_is_cached(self):
        store = SharedRegionStore()
        region = make_region(8, fields=("a", "x", "y"))
        store.allocate(region, "a", fill=1.0)
        x = store.allocate(region, "x")
        y = store.allocate(region, "y")
        x[:] = np.arange(8, dtype=np.float64)
        ex = ProcPoolExecutor(n_workers=1, store=store)
        payload = functools.partial(np.multiply, 2.0)  # picklable callable
        try:
            for _ in range(2):
                reqs = [rw_req(region, f) for f in ("a", "x", "y")]
                rec = make_record("spmv", reqs=reqs, owner=0)
                inv = TaskInvocation("spmv_exclusive", payload=payload, point=0)
                ex.submit(rec, lambda: pytest.fail("ran inline"),
                          lambda _v: None, set(), invocation=inv)
                ex.drain()
                assert (y == 2.0 * x).all()
            assert ex.n_dispatched == 2
            assert len(ex._payload_refs) == 1  # one shipped payload key
        finally:
            ex.shutdown()
            store.release()

    def test_host_task_runs_inline(self):
        ex = ProcPoolExecutor(n_workers=1, store=SharedRegionStore())
        got = []
        try:
            ex.submit(make_record("host"), lambda: 42, got.append, set())
            ex.drain()
            assert got == [42]
            assert ex.n_inline_host == 1
            assert ex.n_dispatched == 0
        finally:
            ex.shutdown()

    def test_worker_value_reaches_on_done(self):
        store = SharedRegionStore()
        region = make_region(8, fields=("p", "q"))
        store.allocate(region, "p", fill=2.0)
        store.allocate(region, "q", fill=3.0)
        ex = ProcPoolExecutor(n_workers=1, store=store)
        got = []
        try:
            reqs = [rw_req(region, f) for f in ("p", "q")]
            rec = make_record("dot", reqs=reqs)
            inv = TaskInvocation("dot_partial", point=0)
            ex.submit(rec, lambda: pytest.fail("ran inline"), got.append,
                      set(), invocation=inv)
            ex.drain()
            assert got == [8 * 6.0]
        finally:
            ex.shutdown()
            store.release()

    def test_unknown_worker_kernel_raises_executor_error(self):
        # Registered in the parent's registry only: the worker's KeyError
        # must surface at drain, not hang.
        store = SharedRegionStore()
        region = make_region(8)
        store.allocate(region, "v")
        ex = ProcPoolExecutor(n_workers=1, store=store)
        try:
            rec = make_record("parent-only", reqs=[rw_req(region)])
            inv = TaskInvocation("test-parent-only", point=0)
            ex.submit(rec, lambda: None, lambda _v: None, set(), invocation=inv)
            with pytest.raises(ExecutorError, match="test-parent-only"):
                ex.drain()
        finally:
            ex.shutdown()
            store.release()

    def test_unpicklable_payload_falls_back_inline(self):
        store = SharedRegionStore()
        region = make_region(8, fields=("a", "x", "y"))
        for f in ("a", "x", "y"):
            store.allocate(region, f, fill=1.0)
        ex = ProcPoolExecutor(n_workers=1, store=store)
        body = KernelBody("spmv_exclusive", payload=lambda v: v + 1.0)
        try:
            reqs = [rw_req(region, f) for f in ("a", "x", "y")]
            rec = make_record("spmv", reqs=reqs)
            inv = TaskInvocation("spmv_exclusive", payload=body.payload, point=0)

            def thunk():
                acc = [_ShmAccessor(store.raw(region, f), slice(0, 8))
                       for f in ("a", "x", "y")]
                acc[2].write(body.payload(acc[1].read()))

            ex.submit(rec, thunk, lambda _v: None, set(), invocation=inv)
            ex.drain()
            assert ex.n_inline_fallback == 1
            assert (store.raw(region, "y") == 2.0).all()
        finally:
            ex.shutdown()
            store.release()

    def test_unpicklable_payload_under_strict_portability_fails_loudly(self):
        store = SharedRegionStore()
        region = make_region(8, fields=("a", "x", "y"))
        for f in ("a", "x", "y"):
            store.allocate(region, f)
        ex = ProcPoolExecutor(n_workers=1, store=store)
        ex.strict_portable = True
        try:
            reqs = [rw_req(region, f) for f in ("a", "x", "y")]
            rec = make_record("spmv", reqs=reqs)
            inv = TaskInvocation("spmv_exclusive", payload=lambda v: v, point=0)
            ex.submit(rec, lambda: pytest.fail("ran inline"), lambda _v: None,
                      set(), invocation=inv)
            with pytest.raises(ExecutorError, match="payload failed to ship"):
                ex.drain()
            assert ex.n_inline_fallback == 0
        finally:
            ex.shutdown()
            store.release()

    def test_commit_error_after_worker_result_surfaces_at_drain(self):
        store = SharedRegionStore()
        region = make_region(8)
        store.allocate(region, "v")
        ex = ProcPoolExecutor(n_workers=1, store=store)

        def on_done(_value):
            raise ValueError("commit failed")

        try:
            rec = make_record("fill", reqs=[rw_req(region)])
            inv = TaskInvocation("fill", kwargs={"value": 1.0}, point=0)
            ex.submit(rec, lambda: None, on_done, set(), invocation=inv)
            with pytest.raises(ExecutorError, match="commit failed"):
                ex.drain()
            assert ex.n_dispatched == 1
        finally:
            ex.shutdown()
            store.release()

    def test_dispatch_counters_survive_concurrent_dispatch(self):
        # Host children of shipped tasks run on the collector thread
        # while the application thread runs its own host tasks inline:
        # both bump the dispatch counters, which a lost update breaks.
        store = SharedRegionStore()
        region = make_region(8)
        store.allocate(region, "v")
        ex = ProcPoolExecutor(n_workers=2, store=store)
        n = 150
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(n):
                rec = make_record("fill", reqs=[rw_req(region)], owner=i)
                ex.submit(rec, lambda: None, lambda _v: None, set(),
                          invocation=TaskInvocation("fill", kwargs={"value": 1.0}, point=i))
                ex.submit(make_record("host-child"), lambda: None, lambda _v: None,
                          {rec.task_id})
                ex.submit(make_record("host"), lambda: None, lambda _v: None, set())
            waiter = threading.Thread(target=ex.drain, daemon=True)
            waiter.start()
            waiter.join(timeout=60)
            assert not waiter.is_alive()
            assert ex.n_dispatched == n
            assert ex.n_inline_host == 2 * n
            assert ex.n_inline_fallback == 0
        finally:
            sys.setswitchinterval(interval)
            ex.shutdown()
            store.release()

    def test_stall_directive_on_inline_host_task(self):
        ex = ProcPoolExecutor(n_workers=1, store=None)
        got = []
        try:
            rec = make_record("host")
            stall = SimpleNamespace(kind="stall", spec=SimpleNamespace(stall_ms=5.0))
            ex.fault_directives[rec.task_id] = ([stall], None)
            ex.submit(rec, lambda: 7, got.append, set())
            ex.drain()
            assert got == [7]
            assert ex.n_inline_host == 1
            assert stall.detail == "completed 5ms late"
            assert ex._stalled == set()  # released with the completion
        finally:
            ex.shutdown()

    def test_plain_store_means_inline_fallback(self):
        # Without a SharedRegionStore nothing can ship: every body with
        # requirements degrades to in-parent execution (and is counted).
        ex = ProcPoolExecutor(n_workers=1, store=None)
        region = make_region(4)
        done = []
        try:
            rec = make_record("t", reqs=[rw_req(region)])
            inv = TaskInvocation("fill", kwargs={"value": 0.0}, point=0)
            ex.submit(rec, lambda: done.append(1), lambda _v: None, set(),
                      invocation=inv)
            ex.drain()
            assert done == [1]
            assert ex.n_inline_fallback == 1
        finally:
            ex.shutdown()


class TestSubmitFused:
    def test_fused_parts_run_in_order_inline(self):
        ex = ProcPoolExecutor(n_workers=1, store=None)
        order = []
        try:
            recs = [make_record(n) for n in ("a", "b", "c")]
            parts = [
                (r, (lambda tag=r.name: order.append(tag)), lambda _v: None, set())
                for r in recs
            ]
            ex.submit_fused(parts)
            ex.drain()
            assert order == ["a", "b", "c"]
            assert ex.n_fused_groups == 1
            assert ex.n_fused_members == 3
        finally:
            ex.shutdown()

    def test_dependence_on_fused_member_resolves_to_node(self):
        ex = ProcPoolExecutor(n_workers=1, store=None)
        order = []
        try:
            ra, rb = make_record("a"), make_record("b")
            ex.submit_fused([
                (ra, lambda: order.append("a"), lambda _v: None, set()),
                (rb, lambda: order.append("b"), lambda _v: None, {ra.task_id}),
            ])
            rc = make_record("c")
            ex.submit(rc, lambda: order.append("c"), lambda _v: None,
                      {rb.task_id})  # dep names the *member*, not the node
            ex.drain()
            assert order == ["a", "b", "c"]
        finally:
            ex.shutdown()

    def test_fused_group_ships_to_worker_as_one_message(self):
        store = SharedRegionStore()
        region = make_region(8)
        arr = store.allocate(region, "v")
        ex = ProcPoolExecutor(n_workers=1, store=store)
        try:
            ra = make_record("fill", reqs=[rw_req(region)])
            rb = make_record("scal", reqs=[rw_req(region)])
            ex.submit_fused(
                [
                    (ra, lambda: pytest.fail("inline"), lambda _v: None, set()),
                    (rb, lambda: pytest.fail("inline"), lambda _v: None, {ra.task_id}),
                ],
                invocations=[
                    TaskInvocation("fill", kwargs={"value": 3.0}, point=0),
                    TaskInvocation("scal", kwargs={"alpha": 2.0}, point=0),
                ],
            )
            ex.drain()
            assert (arr == 6.0).all()
            assert ex.n_dispatched == 2
            assert ex.n_fused_groups == 1
        finally:
            ex.shutdown()
            store.release()


#: Both deferred backends share one scheduler, so the same hand-built
#: graph must get the same diagnosis from each.
DEFERRED_EXECUTORS = {
    "threads": lambda: ThreadedExecutor(n_workers=1),
    "procs": lambda: ProcPoolExecutor(n_workers=1, store=None),
}


class TestDeadlockDiagnostics:
    def _drain_expecting(self, ex, pattern):
        with pytest.raises(DeadlockError, match=pattern) as ei:
            ex.drain()
        ex._pending.clear()
        message = str(ei.value)
        m = re.search(r"blocked-subgraph trace written to (\S+\.json)", message)
        assert m, message
        with open(m.group(1), encoding="utf-8") as fh:
            return json.load(fh), message

    @pytest.mark.parametrize("backend", sorted(DEFERRED_EXECUTORS))
    def test_missing_producer_is_diagnosed_with_dump(self, backend):
        ex = DEFERRED_EXECUTORS[backend]()
        try:
            rec = make_record("orphan")
            node = _Node(rec.task_id, "orphan", [(rec, lambda: None, lambda _v: None, None)])
            node.waiting_on = {999_999_999}
            with ex._lock:
                ex._pending[node.task_id] = node
            dump, _message = self._drain_expecting(ex, "never submitted")
            assert dump["schema"] == "repro-deadlock/1"
            assert dump["backend"] == backend
            assert dump["reason"] == "missing-producer"
            assert dump["blocked_subgraph"][0]["name"] == "orphan"
            assert dump["blocked_subgraph"][0]["ready"] is False
        finally:
            ex.shutdown()

    @pytest.mark.parametrize("backend", sorted(DEFERRED_EXECUTORS))
    def test_cycle_is_diagnosed_with_fused_composition(self, backend):
        # The blocked-subgraph dump must show what a fused node is
        # *made of*, or a cycle through a coarse node is opaque.
        ex = DEFERRED_EXECUTORS[backend]()
        try:
            ra, rb, rc = make_record("a"), make_record("b"), make_record("c")
            fused = _Node(ra.task_id, "fused[a+b]", [
                (ra, lambda: None, lambda _v: None, None),
                (rb, lambda: None, lambda _v: None, None),
            ])
            other = _Node(rc.task_id, "c", [(rc, lambda: None, lambda _v: None, None)])
            fused.waiting_on = {rc.task_id}
            fused.dependents = [rc.task_id]
            other.waiting_on = {ra.task_id}
            other.dependents = [ra.task_id]
            with ex._lock:
                ex._pending[fused.task_id] = fused
                ex._pending[other.task_id] = other
                ex._stalled.add(ra.task_id)
            ex.stall_monitor = lambda: {123456}
            dump, message = self._drain_expecting(ex, "dependence cycle")
            assert dump["backend"] == backend
            assert dump["reason"] == "dependence-cycle"
            entries = {e["name"]: e for e in dump["blocked_subgraph"]}
            assert entries["fused[a+b]"]["fused"] == [
                {"task_id": ra.task_id, "name": "a"},
                {"task_id": rb.task_id, "name": "b"},
            ]
            assert "fused" not in entries["c"]
            assert ra.task_id in dump["stalled_task_ids"]
            assert 123456 in dump["stalled_task_ids"]
            # The message carries the fault-stall labels and note too.
            assert f"{ra.task_id} (fused[a+b]) [fault-stalled]" in message
            assert f"{rc.task_id} (c) [fault-stalled]" not in message
            assert "fault-injection note" in message
        finally:
            ex.stall_monitor = None
            ex.shutdown()

    def test_self_wait_through_inline_body_raises_not_hangs(self):
        # A shipped fill X, then an inline host body A (after X) that
        # blocks on the future of B, which depends on A: a cycle through
        # the waiter.  It must be diagnosed, not hang the collector.
        store = SharedRegionStore()
        region = make_region(8)
        store.allocate(region, "v")
        ex = ProcPoolExecutor(n_workers=1, store=store)
        b_submitted = threading.Event()
        outcome = {}
        try:
            rx = make_record("fill", reqs=[rw_req(region)])
            # A stall directive holds X on the worker until A and B are
            # both submitted.
            stall = SimpleNamespace(kind="stall", spec=SimpleNamespace(stall_ms=200.0))
            ex.fault_directives[rx.task_id] = ([stall], None)
            ex.submit(rx, lambda: pytest.fail("inline"), lambda _v: None, set(),
                      invocation=TaskInvocation("fill", kwargs={"value": 1.0}, point=0))
            ra = make_record("a")
            rb = make_record("b", future_uid=-ra.task_id)

            def body_a():
                b_submitted.wait(timeout=10)
                ex.wait_for_future(rb.future_uid)

            ex.submit(ra, body_a, lambda _v: None, {rx.task_id})
            ex.submit(rb, lambda: 1.0, lambda _v: None, {ra.task_id})
            b_submitted.set()

            def drain():
                try:
                    ex.drain()
                except BaseException as exc:  # noqa: BLE001 - inspected below
                    outcome["exc"] = exc

            waiter = threading.Thread(target=drain, daemon=True)
            waiter.start()
            waiter.join(timeout=30)
            assert not waiter.is_alive(), "drain() hung on a cycle through the waiter"
            exc = outcome.get("exc")
            assert isinstance(exc, ExecutorError), exc
            cause = exc.__cause__
            assert isinstance(cause, DeadlockError)
            assert "dependence cycle through a blocking future read" in str(cause)
            assert "blocked-subgraph trace written to" in str(cause)
            assert stall.detail == "completed 200ms late"
        finally:
            ex.shutdown()
            store.release()

    def test_worker_death_with_inflight_task_raises(self):
        ex = ProcPoolExecutor(n_workers=1, store=None)
        try:
            rec = make_record("stuck")
            node = _Node(rec.task_id, "stuck", [(rec, lambda: None, lambda _v: None, None)])
            node.claimed = True
            with ex._lock:
                ex._pending[node.task_id] = node
                ex._inflight.add(node.task_id)
            ex._pool._stopped = True  # simulate a dead pool
            with pytest.raises(ExecutorError, match="pool worker died"):
                ex.drain()
            ex._pool._stopped = False
            with ex._lock:
                ex._pending.clear()
                ex._inflight.clear()
        finally:
            ex.shutdown()


class TestPoolLifecycle:
    def test_send_failure_after_pool_shutdown_raises(self):
        store = SharedRegionStore()
        region = make_region(8)
        store.allocate(region, "v")
        ex = ProcPoolExecutor(n_workers=1, store=store)
        try:
            shutdown_worker_pools()  # the executor's pool is now gone
            rec = make_record("fill", reqs=[rw_req(region)])
            inv = TaskInvocation("fill", kwargs={"value": 1.0}, point=0)
            ex.submit(rec, lambda: None, lambda _v: None, set(), invocation=inv)
            with pytest.raises(ExecutorError):
                ex.drain()
        finally:
            ex.shutdown()
            store.release()

    def test_shutdown_is_idempotent_and_routes_unregister(self):
        ex = ProcPoolExecutor(n_workers=1, store=SharedRegionStore())
        epoch = ex._epoch
        pool = ex._pool
        ex.shutdown()
        ex.shutdown()
        with pool._routes_lock:
            assert epoch not in pool._routes

    def test_stats_keys(self):
        ex = ProcPoolExecutor(n_workers=3, store=None)
        try:
            stats = ex.stats()
            assert stats["backend"] == "procs"
            assert stats["workers"] == 3
            assert ex.n_parallel == 3
            for key in ("dispatched_tasks", "inline_host_tasks",
                        "inline_fallback_tasks", "fused_groups",
                        "fused_member_tasks"):
                assert stats[key] == 0
            assert ProcPoolExecutor.wants_invocations
        finally:
            ex.shutdown()

    def test_wait_for_unknown_future_returns(self):
        ex = ProcPoolExecutor(n_workers=1, store=None)
        try:
            ex.wait_for_future(987654)  # nothing registered: no-op
        finally:
            ex.shutdown()


def _fill_part(store, region, uid=None, desc="auto", value=2.0,
               kernel="fill", payload_key=None, payload=None):
    """Hand-build the wire form `_part_message` would produce."""
    name, dtype_str, volume = store.descriptor(region, "v")
    if desc == "auto":
        desc = ("s", 0, region.volume)
    sub_uid = uid if uid is not None else region.uid
    return {
        "kernel": kernel,
        "kwargs": {"value": value},
        "point": 0,
        "reqs": [(name, dtype_str, volume, sub_uid, desc)],
        "payload_key": payload_key,
        "payload": payload,
    }


class TestWorkerState:
    """The worker-side half, driven in-process: coverage tooling cannot
    see spawned children, and these paths must stay on the gate."""

    def test_run_part_attaches_and_caches_slices(self):
        store = SharedRegionStore()
        region = make_region(8)
        arr = store.allocate(region, "v")
        state = _WorkerState()
        try:
            state.run_part(_fill_part(store, region, value=2.0), epoch=7)
            assert (arr == 2.0).all()
            # Second call: subset arrives as None (already shipped) and
            # the segment mapping is reused from the cache.
            state.run_part(_fill_part(store, region, desc=None, value=3.0), epoch=7)
            assert (arr == 3.0).all()
            assert len(state.shms) == 1
        finally:
            state.clear(7)
            store.release()

    def test_run_part_fancy_index_subset(self):
        store = SharedRegionStore()
        region = make_region(8)
        arr = store.allocate(region, "v")
        state = _WorkerState()
        try:
            part = _fill_part(store, region, uid=region.uid + 1000,
                              desc=("i", [1, 3, 5]), value=9.0)
            state.run_part(part, epoch=7)
            assert (arr[[1, 3, 5]] == 9.0).all()
            assert arr[0] == 0.0
        finally:
            state.clear(7)
            store.release()

    def test_unshipped_subset_is_an_error(self):
        store = SharedRegionStore()
        region = make_region(8)
        store.allocate(region, "v")
        state = _WorkerState()
        try:
            with pytest.raises(RuntimeError, match="never shipped"):
                state.run_part(_fill_part(store, region, desc=None), epoch=7)
        finally:
            state.clear(7)
            store.release()

    def test_payload_rides_once_then_resolves_from_cache(self):
        store = SharedRegionStore()
        region = make_region(8, fields=("a", "x", "y"))
        for f in ("a", "x", "y"):
            store.allocate(region, f, fill=1.0)
        state = _WorkerState()
        try:
            def reqs(shipped):
                out = []
                for i, f in enumerate(("a", "x", "y")):
                    name, dtype_str, volume = store.descriptor(region, f)
                    desc = ("s", 0, 8) if shipped else None
                    out.append((name, dtype_str, volume, region.uid * 10 + i, desc))
                return out

            part = {"kernel": "spmv_exclusive", "kwargs": {}, "point": 0,
                    "reqs": reqs(True), "payload_key": 0,
                    "payload": functools.partial(np.multiply, 4.0)}
            state.run_part(part, epoch=7)
            assert (store.raw(region, "y") == 4.0).all()
            part2 = {"kernel": "spmv_exclusive", "kwargs": {}, "point": 0,
                     "reqs": reqs(False), "payload_key": 0, "payload": None}
            state.run_part(part2, epoch=7)  # payload resolved from cache
        finally:
            state.clear(7)
            assert not state.payloads and not state.subsets and not state.shms
            store.release()

    def test_worker_main_loop_over_fake_pipe(self):
        class FakeConn:
            def __init__(self, msgs):
                self.msgs = list(msgs)

            def recv(self):
                if not self.msgs:
                    raise EOFError
                return self.msgs.pop(0)

        class FakeQueue:
            def __init__(self):
                self.items = []

            def put(self, item):
                self.items.append(item)

        store = SharedRegionStore()
        region = make_region(8)
        arr = store.allocate(region, "v")
        ok_part = _fill_part(store, region, value=5.0)
        bad_part = dict(ok_part, kernel="no-such-kernel")
        results = FakeQueue()
        _worker_main(
            FakeConn([
                ("task", 7, 11, 1.0, [ok_part], True),   # stall_ms covers the sleep
                ("task", 7, 12, 0, [bad_part], False),
                ("clear", 7),
                ("stop",),
            ]),
            results,
            0,
        )
        assert (arr == 5.0).all()
        epoch, tid, ok, values, body_s = results.items[0]
        assert (epoch, tid, ok, values) == (7, 11, True, [None])
        # Sampled task: the span batch rides back with the result and
        # covers at least the injected 1ms stall.
        assert body_s is not None and body_s >= 0.001
        epoch, tid, ok, exc, body_s = results.items[1]
        assert (epoch, tid, ok) == (7, 12, False)
        assert isinstance(exc, KeyError)
        assert body_s is None  # unsampled: no measurement shipped
        # EOF (a closed pipe) ends the loop too.
        _worker_main(FakeConn([]), FakeQueue(), 0)
        store.release()


def solve_on(backend, pieces=2, size=24):
    rt = Runtime(backend=backend)
    try:
        A = tridiagonal_toeplitz(size).tocsr()
        b = np.random.default_rng(5).random(size)
        planner = make_planner(build_format("csr", A), b, n_pieces=pieces, runtime=rt)
        from repro.core.solvers import SOLVER_REGISTRY

        result = SOLVER_REGISTRY["cg"](planner).solve(tolerance=0.0, max_iterations=4)
        rt.sync()
        x = np.array(planner.get_array(SOL), copy=True)
        stats = rt.dispatch_stats()
    finally:
        rt.executor.shutdown()
    return list(result.measure_history), x, stats


class TestRuntimeIntegration:
    def test_runtime_procs_uses_shared_store(self):
        rt = Runtime(backend="procs")
        try:
            assert isinstance(rt.store, SharedRegionStore)
            assert rt.backend == "procs"
        finally:
            rt.executor.shutdown()

    def test_cg_on_procs_matches_serial_with_zero_fallbacks(self):
        ref_hist, ref_x, _ = solve_on("serial")
        hist, x, stats = solve_on("procs")
        ex_stats = stats["executor"]
        assert ex_stats["dispatched_tasks"] > 0
        assert ex_stats["inline_fallback_tasks"] == 0
        assert ex_stats["inline_host_tasks"] > 0  # dot reductions stay home
        assert stats["backend"] == "procs"
        assert hist == ref_hist
        assert np.array_equal(x, ref_x)

    def test_sequential_runtimes_reuse_the_pool_cleanly(self):
        # Epoch namespacing: a second runtime's worker-side caches must
        # not see the first one's subsets/payloads.
        a = solve_on("procs")
        b = solve_on("procs")
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_closure_body_falls_back_inline_through_runtime(self):
        rt = Runtime(backend="procs")
        try:
            region = rt.create_region(IndexSpace.linear(8), {"v": np.float64})
            rt.allocate(region, "v", fill=1.0)

            def body(ctx):  # an opaque closure: not portable
                ctx[0].write(ctx[0].read() * 3.0)

            tl = TaskLauncher("triple", body)
            tl.add_requirement(region, ["v"], Subset.full(region.ispace),
                               Privilege.READ_WRITE)
            rt.execute(tl)
            rt.sync()
            assert (rt.store.raw(region, "v") == 3.0).all()
            stats = rt.dispatch_stats()["executor"]
            assert stats["inline_fallback_tasks"] == 1
        finally:
            rt.executor.shutdown()

    def test_worker_error_through_runtime_surfaces_at_sync(self):
        rt = Runtime(backend="procs")
        try:
            region = rt.create_region(IndexSpace.linear(8), {"v": np.float64})
            rt.allocate(region, "v")
            tl = TaskLauncher("bad", KernelBody("test-parent-only"))
            tl.add_requirement(region, ["v"], Subset.full(region.ispace),
                               Privilege.READ_WRITE)
            rt.execute(tl)
            with pytest.raises(ExecutorError):
                rt.sync()
        finally:
            rt.executor.shutdown()
