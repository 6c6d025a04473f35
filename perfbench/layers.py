"""Layer wrappers for the traced run and the per-layer metrics derived
from their spans.

Every wrapper is installed where the wrapped name is bound at call time:
methods on their class (instances look them up per call), kernels per
``KERNEL_REGISTRY`` entry (``KernelBody`` resolves the name per call),
and the dependent-partitioning operators in ``repro.core.projection``,
which is where ``row_R_to_K``/``col_K_to_D``/``row_K_to_R`` resolve
``image``/``preimage`` (``repro.core.multiop`` imports the projections
by name, so patching ``repro.runtime.deppart`` would catch nothing).
Kernels inside ``procs`` workers run in other processes and are not
seen; the parent-side ``procpool.*`` spans stand for them.

:data:`INTERACTIONS` is the benchmark's interaction map: which
end-to-end metric each layer metric should move, on which workload, and
on which workload no change is predicted.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from spans import Tracer, merged_length, self_times

__all__ = ["INTERACTIONS", "PER_LAYER", "install", "layer_metrics"]

#: (metric, unit, better) for every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("engine.simulate_s", "s", "lower"),
    ("engine.simulate_calls", "count", "lower"),
    ("engine.us_per_task", "us", "lower"),
    ("engine.replay_task_s", "s", "lower"),
    ("runtime.tasks", "count", "lower"),
    ("runtime.tasks_per_iter", "count", "lower"),
    ("runtime.dispatch_fresh_us", "us", "lower"),
    ("runtime.dispatch_replay_us", "us", "lower"),
    ("replay.compile_s", "s", "lower"),
    ("replay.step_s", "s", "lower"),
    ("replay.hit_ratio", "ratio", "higher"),
    ("replay.fallbacks", "count", "lower"),
    ("executor.submit_s", "s", "lower"),
    ("executor.wait_s", "s", "lower"),
    ("executor.dispatched_tasks", "count", "lower"),
    ("procpool.submit_s", "s", "lower"),
    ("procpool.wait_s", "s", "lower"),
    ("procpool.inline_fallback_tasks", "count", "lower"),
    ("procpool.offload_ratio", "ratio", "higher"),
    ("sparse.spmv_calls", "count", "lower"),
    ("sparse.spmv_s", "s", "lower"),
    ("sparse.bytes_computed", "B", "lower"),
    ("sparse.flop_per_byte", "flop/B", "higher"),
    ("sparse.gbps_computed", "GB/s", "higher"),
    ("kernels.vector_s", "s", "lower"),
    ("deppart.image_s", "s", "lower"),
    ("deppart.preimage_s", "s", "lower"),
    ("deppart.calls", "count", "lower"),
    ("sparse.convert_s", "s", "lower"),
    ("planner.make_s", "s", "lower"),
    ("solver.init_s", "s", "lower"),
    ("solver.iter_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.span_coverage", "ratio", "higher"),
)

#: layer -> (metrics, end-to-end metrics they should move, workloads
#: they move on, workloads on which no change is predicted).  A faster
#: layer lowers the time metrics it feeds and raises ``jobs_per_s``.
INTERACTIONS: Dict[str, Dict[str, List[str]]] = {
    "runtime.engine": {
        "metrics": ["engine.simulate_s", "engine.simulate_calls", "engine.us_per_task", "engine.replay_task_s"],
        "moves": ["solve_s"],
        "on": ["fresh_gmres"],
        "unchanged_on": ["serve_replay"],
    },
    "runtime.runtime": {
        "metrics": ["runtime.tasks", "runtime.tasks_per_iter", "runtime.dispatch_fresh_us", "runtime.dispatch_replay_us"],
        "moves": ["solve_s", "job_p50_s"],
        "on": ["fresh_gmres", "serve_replay"],
        "unchanged_on": [],
    },
    "replay": {
        "metrics": ["replay.compile_s", "replay.step_s", "replay.hit_ratio", "replay.fallbacks"],
        "moves": ["jobs_per_s", "setup_s"],
        "on": ["serve_replay"],
        "unchanged_on": ["fresh_gmres", "large_serial"],
    },
    "runtime.executor": {
        "metrics": ["executor.submit_s", "executor.wait_s", "executor.dispatched_tasks"],
        "moves": ["jobs_per_s", "job_p90_s"],
        "on": ["serve_replay"],
        "unchanged_on": ["fresh_gmres"],
    },
    "runtime.procpool": {
        "metrics": ["procpool.submit_s", "procpool.wait_s", "procpool.inline_fallback_tasks", "procpool.offload_ratio"],
        "moves": ["solve_s"],
        "on": ["large_procs"],
        "unchanged_on": ["large_serial"],
    },
    "sparse+runtime.kernels": {
        "metrics": ["sparse.spmv_calls", "sparse.spmv_s", "sparse.bytes_computed", "sparse.flop_per_byte", "sparse.gbps_computed", "kernels.vector_s"],
        "moves": ["solve_s"],
        "on": ["large_serial"],
        "unchanged_on": ["fresh_gmres"],
    },
    "runtime.deppart+core.projection": {
        "metrics": ["deppart.image_s", "deppart.preimage_s", "deppart.calls", "sparse.convert_s"],
        "moves": ["setup_s"],
        "on": ["large_serial", "large_procs"],
        "unchanged_on": ["fresh_gmres"],
    },
    "core.planner+core.solvers": {
        "metrics": ["planner.make_s", "solver.init_s", "solver.iter_s"],
        "moves": ["setup_s", "job_p50_s"],
        "on": ["serve_replay", "large_serial"],
        "unchanged_on": [],
    },
}

#: Spans recorded by the benchmark itself (not a layer): the job, its
#: set-up and solve phases, and the service set-up before a stream.
BENCH_SPANS = ("bench.job", "bench.setup", "bench.solve", "bench.service")


def install(tracer: Tracer) -> Callable[[], None]:
    """Install every layer wrapper; returns the function that removes
    them again."""
    from repro.core import projection
    from repro.core.solvers import SOLVER_REGISTRY
    from repro.core.planner import Planner
    from repro.replay.session import ReplaySession
    from repro.runtime.engine import Engine
    from repro.runtime.executor import ThreadedExecutor
    from repro.runtime.kernels import KERNEL_REGISTRY
    from repro.runtime.procpool import ProcPoolExecutor
    from repro.runtime.runtime import Runtime
    from repro.sparse.csr import CSRMatrix

    undo: List[Callable[[], None]] = []

    def patch(owner: Any, attr: str, name: str) -> None:
        before = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(before, name))
        undo.append(lambda: setattr(owner, attr, before))

    patch(Engine, "simulate", "engine.simulate")
    patch(Engine, "replay_task", "engine.replay_task")
    patch(Runtime, "_launch", "runtime.launch")
    patch(ReplaySession, "step", "replay.step")
    for cls, layer in ((ThreadedExecutor, "executor"), (ProcPoolExecutor, "procpool")):
        patch(cls, "submit", f"{layer}.submit")
        patch(cls, "submit_fused", f"{layer}.submit")
        patch(cls, "wait_for_future", f"{layer}.wait")
        patch(cls, "drain", f"{layer}.wait")
    patch(projection, "image", "deppart.image")
    patch(projection, "preimage", "deppart.preimage")
    patch(Planner, "get_array", "planner.fetch")
    for cls in set(SOLVER_REGISTRY.values()):
        if "step" in vars(cls):
            patch(cls, "step", "solver.iter")

    convert = vars(CSRMatrix)["from_scipy"]
    CSRMatrix.from_scipy = classmethod(tracer.wrap(convert.__func__, "sparse.convert"))
    undo.append(lambda: setattr(CSRMatrix, "from_scipy", convert))

    kernels = dict(KERNEL_REGISTRY)
    spmv_id = tracer.name_id("sparse.spmv")
    for key, fn in kernels.items():
        if "spmv" in key:
            KERNEL_REGISTRY[key] = _spmv_wrapper(tracer, fn, spmv_id)
        else:
            KERNEL_REGISTRY[key] = tracer.wrap(fn, "kernels.vector")
    undo.append(lambda: KERNEL_REGISTRY.update(kernels))

    def uninstall() -> None:
        for fn in reversed(undo):
            fn()

    return uninstall


def _spmv_wrapper(tracer: Tracer, fn: Callable[..., Any], nid: int) -> Callable[..., Any]:
    """SpMV piece kernel span carrying the piece's computed bytes and
    flops (the ``PieceKernel`` payload's own byte/flop model)."""

    def traced(ctx: Any, payload: Any) -> Any:
        idx = tracer.open(nid)
        try:
            return fn(ctx, payload)
        finally:
            tracer.close(
                idx,
                float(getattr(payload, "bytes_touched", 0.0)),
                float(getattr(payload, "flops", 0.0)),
            )

    return traced


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    untraced_wall_s: float,
    traced_wall_s: float,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics from the traced run's spans plus the runtime's
    own counters; also returns self seconds per span name in each phase
    (``setup``, ``solve``, ``service``) for the breakdown table."""
    n = len(tracer)
    start, end = tracer.start, tracer.end
    parent, thread = tracer.parent, tracer.thread
    names = tracer.names
    own = self_times(start, end, parent, thread)

    phase_of = {
        tracer.name_id("bench.setup"): "setup",
        tracer.name_id("bench.solve"): "solve",
        tracer.name_id("bench.service"): "service",
    }
    phase = [""] * n
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    by_phase: Dict[str, Dict[str, float]] = {"setup": {}, "solve": {}, "service": {}}
    for i in range(n):
        nid = tracer.name[i]
        p = parent[i]
        phase[i] = phase_of.get(nid) or (phase[p] if p >= 0 else "")
        nm = names[nid]
        self_s[nm] = self_s.get(nm, 0.0) + own[i] * 1e-9
        total_s[nm] = total_s.get(nm, 0.0) + (end[i] - start[i]) * 1e-9
        calls[nm] = calls.get(nm, 0) + 1
        if phase[i] and (nm not in BENCH_SPANS or nm == "bench.solve"):
            cell = by_phase[phase[i]]
            cell[nm] = cell.get(nm, 0.0) + own[i] * 1e-9

    main = {thread[i] for i in range(n) if names[tracer.name[i]] == "bench.job"}
    covered = merged_length(
        [
            (start[i], end[i])
            for i in range(n)
            if thread[i] in main and names[tracer.name[i]] not in BENCH_SPANS
        ]
    )
    spmv_bytes = sum(tracer.nbytes)
    spmv_flops = sum(tracer.flops)
    spmv_s = self_s.get("sparse.spmv", 0.0)
    sim_calls = calls.get("engine.simulate", 0)
    tasks = counters["fresh_tasks"] + counters["replayed_tasks"]
    inline = counters["inline_host_tasks"] + counters["inline_fallback_tasks"]
    proc_dispatched = counters["procpool_dispatched_tasks"]
    metrics = {
        "engine.simulate_s": self_s.get("engine.simulate", 0.0),
        "engine.simulate_calls": float(sim_calls),
        "engine.us_per_task": total_s.get("engine.simulate", 0.0) / sim_calls * 1e6 if sim_calls else 0.0,
        "engine.replay_task_s": self_s.get("engine.replay_task", 0.0),
        "runtime.tasks": float(tasks),
        "runtime.tasks_per_iter": tasks / counters["iterations"] if counters["iterations"] else 0.0,
        "runtime.dispatch_fresh_us": counters["dispatch_fresh_ns"] / counters["fresh_tasks"] / 1e3 if counters["fresh_tasks"] else 0.0,
        "runtime.dispatch_replay_us": counters["dispatch_replay_ns"] / counters["replayed_tasks"] / 1e3 if counters["replayed_tasks"] else 0.0,
        "replay.compile_s": total_s.get("replay.compile", 0.0),
        "replay.step_s": self_s.get("replay.step", 0.0),
        "replay.hit_ratio": counters["replayed_tasks"] / tasks if tasks else 0.0,
        "replay.fallbacks": counters["fallbacks"],
        "executor.submit_s": self_s.get("executor.submit", 0.0),
        "executor.wait_s": self_s.get("executor.wait", 0.0),
        "executor.dispatched_tasks": counters["executor_dispatched_tasks"],
        "procpool.submit_s": self_s.get("procpool.submit", 0.0),
        "procpool.wait_s": self_s.get("procpool.wait", 0.0),
        "procpool.inline_fallback_tasks": counters["inline_fallback_tasks"],
        "procpool.offload_ratio": proc_dispatched / (proc_dispatched + inline) if proc_dispatched + inline else 0.0,
        "sparse.spmv_calls": float(calls.get("sparse.spmv", 0)),
        "sparse.spmv_s": spmv_s,
        "sparse.bytes_computed": spmv_bytes,
        "sparse.flop_per_byte": spmv_flops / spmv_bytes if spmv_bytes else 0.0,
        "sparse.gbps_computed": spmv_bytes / spmv_s / 1e9 if spmv_s else 0.0,
        "kernels.vector_s": self_s.get("kernels.vector", 0.0),
        "deppart.image_s": self_s.get("deppart.image", 0.0),
        "deppart.preimage_s": self_s.get("deppart.preimage", 0.0),
        "deppart.calls": float(calls.get("deppart.image", 0) + calls.get("deppart.preimage", 0)),
        "sparse.convert_s": self_s.get("sparse.convert", 0.0),
        "planner.make_s": self_s.get("planner.make", 0.0),
        "solver.init_s": self_s.get("solver.init", 0.0),
        "solver.iter_s": self_s.get("solver.iter", 0.0),
        "bench.trace_overhead_ratio": traced_wall_s / untraced_wall_s,
        "bench.span_coverage": covered * 1e-9 / traced_wall_s,
    }
    return metrics, by_phase
