"""ThreadedExecutor deadlock diagnostics under fault stalls: the error
message must say whether a task is fault-stalled (delayed on purpose by
the injector, still running) or genuinely blocked."""

import threading

import numpy as np
import pytest

from repro.runtime import (
    ExecutorError,
    IndexSpace,
    Privilege,
    Runtime,
    Subset,
    TaskLauncher,
    ThreadedExecutor,
)


def make_runtime(jobs=2):
    return Runtime(backend="threads", jobs=jobs, faults=False)


def deadlock_message(rt, monitor=None):
    """Build the self-wait cycle from the executor suite and return the
    DeadlockError text it produces."""
    if monitor is not None:
        rt.executor.stall_monitor = monitor
    region = rt.create_region(IndexSpace.linear(8), {"v": np.float64})
    rt.allocate(region, "v", fill=1.0)
    cell = {}
    launched = threading.Event()

    def body_a(ctx):
        launched.wait(timeout=10)
        return cell["fb"].get()  # B depends on A: cycle

    tl_a = TaskLauncher("a", body_a)
    tl_a.add_requirement(
        region, ["v"], Subset.full(region.ispace), Privilege.READ_WRITE
    )
    rt.execute(tl_a)

    tl_b = TaskLauncher("b", lambda ctx: float(ctx[0].read().sum()))
    tl_b.add_requirement(
        region, ["v"], Subset.full(region.ispace), Privilege.READ_WRITE
    )
    cell["fb"] = rt.execute(tl_b)
    launched.set()
    with pytest.raises(ExecutorError) as excinfo:
        rt.sync()
    return str(excinfo.value)


class TestMessageContent:
    def test_plain_deadlock_has_no_stall_note(self):
        rt = make_runtime()
        try:
            message = deadlock_message(rt)
            assert "dependence cycle" in message
            assert "[fault-stalled]" not in message
            assert "fault-injection note" not in message
        finally:
            rt.executor.shutdown()

    def test_stalled_tasks_are_marked_in_the_message(self):
        rt = make_runtime()
        try:
            # Report every pending task as fault-stalled: the diagnostic
            # must mark the labels and append the explanatory note.
            message = deadlock_message(
                rt, monitor=lambda: set(rt.executor._pending)
            )
            assert "[fault-stalled]" in message
            assert "fault-injection note" in message
            assert "delayed on purpose, still running" in message
            assert "not genuinely blocked" in message
        finally:
            rt.executor.shutdown()

    def test_unrelated_stalls_do_not_mark_cycle_tasks(self):
        rt = make_runtime()
        try:
            message = deadlock_message(rt, monitor=lambda: {999_999})
            # The note names the stalled id, but no cycle task is marked.
            assert "[fault-stalled]" not in message
            assert "fault-injection note: task(s) 999999" in message
        finally:
            rt.executor.shutdown()


class TestStallPlumbing:
    def test_label_marks_only_stalled_ids(self):
        ex = ThreadedExecutor(n_workers=1)
        try:
            assert ex._task_label_locked(None) == "?"
            assert ex._task_label_locked(42) == "42"
            assert ex._task_label_locked(42, {42}) == "42 [fault-stalled]"
            assert ex._task_label_locked(42, {7}) == "42"
        finally:
            ex.shutdown()

    def test_stall_note_formats_sorted_ids(self):
        assert ThreadedExecutor._stall_note(set()) == ""
        note = ThreadedExecutor._stall_note({9, 3})
        assert "task(s) 3, 9" in note
        assert "not genuinely blocked" in note

    def test_broken_monitor_never_breaks_diagnostics(self):
        ex = ThreadedExecutor(n_workers=1)
        try:
            ex.stall_monitor = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
            assert ex._stalled_ids() == set()
        finally:
            ex.shutdown()

    def test_injector_wires_monitor_to_its_stall_set(self):
        rt = Runtime(backend="threads", jobs=2, faults="stall:never:0:1")
        try:
            assert rt.executor.inner.stall_monitor == rt.executor.currently_stalled
            assert rt.executor.inner._stalled_ids() == set()
        finally:
            rt.executor.shutdown()


class TestBlockedSubgraphDump:
    def test_message_names_a_loadable_dump_file(self):
        import json
        import os
        import re

        from repro.obs import Observability

        obs = Observability(trace=False)
        rt = Runtime(backend="threads", jobs=2, faults=False, observability=obs)
        path = None
        try:
            message = deadlock_message(rt)
            match = re.search(r"blocked-subgraph trace written to (\S+)", message)
            assert match, message
            path = match.group(1)
            with open(path) as fh:
                dump = json.load(fh)
            assert dump["schema"] == "repro-deadlock/1"
            assert dump["backend"] == "threads"
            assert dump["reason"]
            assert dump["n_pending_total"] >= 1
            assert dump["blocked_subgraph"]
            node = dump["blocked_subgraph"][0]
            assert set(node) >= {
                "task_id", "name", "claimed", "ready", "waiting_on", "dependents",
            }
            names = {n["name"] for n in dump["blocked_subgraph"]}
            assert {"a", "b"} <= names
            # The probe counted the deadlock on the way out.
            counters = obs.metrics.snapshot()["counters"]
            assert counters["executor.deadlocks"] == 1.0
        finally:
            rt.executor.shutdown()
            if path is not None and os.path.exists(path):
                os.unlink(path)

    def test_dump_is_written_without_observability_too(self):
        import os
        import re

        rt = make_runtime()
        message = None
        try:
            message = deadlock_message(rt)
            assert re.search(r"blocked-subgraph trace written to \S+", message)
        finally:
            rt.executor.shutdown()
            match = message and re.search(
                r"blocked-subgraph trace written to (\S+)", message
            )
            if match and os.path.exists(match.group(1)):
                os.unlink(match.group(1))
