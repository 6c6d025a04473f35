"""Workload definitions, seeded inputs, and the job stream that measures
them.

A job is what a user waits for: build a runtime, a planner and a solver
over the generated arrays (set-up), iterate to tolerance and fetch the
converged x (solve).  Every job's x is checked against the generated
system: its true residual ||b - A x||_2 must be within
``RESIDUAL_SLACK`` times the solver tolerance (the solvers stop on their
recursively updated residual, which drifts from the true one by rounding).

Inputs are generated from the seed before anything is timed; the program
receives only the generated arrays (a SciPy CSR matrix per structure and
one right-hand side per job).
"""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from spans import Tracer, tail_percentile

#: Every job: pieces of the canonical partition, solver tolerance on
#: the solver's own residual measure, and the iteration cap.
PIECES = 4
TOLERANCE = 1e-8
MAX_ITERATIONS = 2000
#: A solve passes when ||b - A x||_2 <= RESIDUAL_SLACK * TOLERANCE.
RESIDUAL_SLACK = 10.0


@dataclass(frozen=True)
class Problem:
    """One (structure, solver) pair a workload draws jobs from."""

    stencil: str
    unknowns: int
    solver: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problems: Tuple[Problem, ...]
    #: Jobs per problem in every block of ``sum(mix)`` jobs; the order
    #: inside the stream is drawn from the seed.  A fixed mix keeps the
    #: latency percentiles inside one problem's cluster on every seed.
    mix: Tuple[int, ...]
    backend: str
    workers: Optional[int]
    #: Compile one plan per problem and attach it to every job's runtime.
    replay: bool
    #: Fewest jobs in a stream (``serve_replay``: 101 leaves ten jobs
    #: beyond p90), and the job count below which ``--seconds`` cannot go.
    min_jobs: int
    #: Seconds per job on a 2-vCPU Xeon host; the stream runs
    #: ``max(min_jobs, round(seconds / job_s))`` jobs, so a seed always
    #: gives the same work.
    job_s: float
    #: Set-up-only repetitions before the stream.  They are the set-up
    #: samples, together with every job's own set-up unless ``replay``
    #: (a job does not compile plans).
    setup_reps: int
    #: Jobs per pass of the traced run (an untraced and a traced pass).
    trace_jobs: int
    #: Stop the worker pools before every set-up, so each pays start-up.
    cold_pool: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve_replay",
            why="closed loop of small replayed jobs on 2 threads: replay guard checks, "
            "executor submit/wait and per-job planner set-up, not dependence analysis",
            problems=(Problem("2d5", 2 ** 10, "cg"), Problem("3d7", 2 ** 12, "bicgstab")),
            mix=(7, 3),
            backend="threads",
            workers=2,
            replay=True,
            min_jobs=101,
            job_s=0.3,
            setup_reps=15,
            trace_jobs=20,
        ),
        Workload(
            name="fresh_gmres",
            why="small GMRES(10) with no plan: ~37k fresh tasks per solve, so per-task "
            "runtime analysis (Engine.simulate) sets the time; kernels are idle",
            problems=(Problem("2d5", 2 ** 10, "gmres"),),
            mix=(1,),
            backend="serial",
            workers=None,
            replay=False,
            min_jobs=7,
            job_s=3.6,
            setup_reps=15,
            trace_jobs=1,
        ),
        Workload(
            name="large_serial",
            why="CG on 3d27 at 64^3 (6.9M nnz): SpMV and vector kernels set solve time, "
            "row_R_to_K preimage sets set-up time; single-threaded baseline",
            problems=(Problem("3d27", 2 ** 18, "cg"),),
            mix=(1,),
            backend="serial",
            workers=None,
            replay=False,
            min_jobs=1,
            job_s=14.0,
            setup_reps=1,
            trace_jobs=1,
        ),
        Workload(
            name="large_procs",
            why="the large_serial problem on the 2-worker process pool: the only "
            "workload that exercises runtime.procpool and its start-up",
            problems=(Problem("3d27", 2 ** 18, "cg"),),
            mix=(1,),
            backend="procs",
            workers=2,
            replay=False,
            min_jobs=1,
            job_s=19.0,
            setup_reps=1,
            trace_jobs=1,
            cold_pool=True,
        ),
    )
}


@dataclass
class Inputs:
    """Generated arrays: one SciPy CSR matrix per problem and, per job,
    the problem index and its right-hand side."""

    matrices: List[Any]
    jobs: List[Tuple[int, np.ndarray]]

    @property
    def matrix_bytes(self) -> int:
        return max(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes for a in self.matrices)


def make_inputs(w: Workload, seed: int, n_jobs: int) -> Inputs:
    """The seeded inputs of ``n_jobs`` jobs of ``w``."""
    from repro.problems.stencil import grid_shape_for, laplacian_scipy

    matrices = [
        laplacian_scipy(p.stencil, grid_shape_for(p.stencil, p.unknowns)) for p in w.problems
    ]
    rng = np.random.default_rng(seed)
    block = [k for k, count in enumerate(w.mix) for _ in range(count)]
    kinds: List[int] = []
    while len(kinds) < n_jobs:
        kinds.extend(rng.permutation(block).tolist())
    jobs = [
        (k, rng.standard_normal(matrices[k].shape[0])) for k in kinds[:n_jobs]
    ]
    return Inputs(matrices, jobs)


def stream_length(w: Workload, seconds: float) -> int:
    return max(w.min_jobs, int(round(seconds / w.job_s)))


@dataclass
class StreamResult:
    setup_s: List[float] = field(default_factory=list)
    solve_s: List[float] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)
    #: Wall time of the whole stream (set-up samples and jobs) and of
    #: the job loop alone.
    wall_s: float = 0.0
    loop_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Summed ``Runtime.dispatch_stats()`` counters of every job.
    counters: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(
            (
                "fresh_tasks",
                "replayed_tasks",
                "dispatch_fresh_ns",
                "dispatch_replay_ns",
                "fallbacks",
                "iterations",
                "executor_dispatched_tasks",
                "procpool_dispatched_tasks",
                "inline_host_tasks",
                "inline_fallback_tasks",
            ),
            0.0,
        )
    )


class _NoTracer:
    """Stands in for :class:`~spans.Tracer` in untraced streams."""

    job_id = job_root = -1

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        yield -1


def _service(w: Workload, inputs: Inputs, tr: Any) -> List[Any]:
    """Per-stream set-up: one compiled plan per problem (``replay``)."""
    if not w.replay:
        return [None] * len(w.problems)
    from repro.api import make_planner
    from repro.core.solvers import SOLVER_REGISTRY
    from repro.replay.compiler import compile_solver_program

    plans = []
    for p, A in zip(w.problems, inputs.matrices):
        b0 = np.ones(A.shape[0])

        def factory(runtime: Any, p: Problem = p, A: Any = A, b0: np.ndarray = b0) -> Any:
            planner = make_planner(A, b0, n_pieces=PIECES, runtime=runtime)
            return SOLVER_REGISTRY[p.solver](planner)

        with tr.span("replay.compile"):
            plans.append(compile_solver_program(factory, warmup=2))
    return plans


def _build(w: Workload, tracer: Any, problem: Problem, A: Any, b: np.ndarray, plan: Any):
    """Runtime, planner and solver ready to iterate (timed as set-up)."""
    from repro.api import make_planner
    from repro.core.solvers import SOLVER_REGISTRY
    from repro.runtime import Runtime

    runtime = Runtime(backend=w.backend, jobs=w.workers, plan=plan)
    with tracer.span("planner.make"):
        planner = make_planner(A, b, n_pieces=PIECES, runtime=runtime)
    with tracer.span("solver.init"):
        solver = SOLVER_REGISTRY[problem.solver](planner)
    return runtime, planner, solver


def _release(runtime: Any) -> None:
    runtime.executor.shutdown()
    release = getattr(runtime.store, "release", None)
    if release is not None:
        release()


def _stop_pools() -> None:
    from repro.runtime.procpool import shutdown_worker_pools

    shutdown_worker_pools()


def _absorb(counters: Dict[str, float], stats: Dict[str, Any], backend: str) -> None:
    counters["fresh_tasks"] += stats["fresh_tasks"]
    counters["replayed_tasks"] += stats["replayed_tasks"]
    counters["dispatch_fresh_ns"] += stats["fresh_ns_per_task"] * stats["fresh_tasks"]
    counters["dispatch_replay_ns"] += stats["replay_ns_per_task"] * stats["replayed_tasks"]
    counters["fallbacks"] += stats.get("session", {}).get("fallbacks", 0)
    ex = stats.get("executor", {})
    if backend == "threads":
        counters["executor_dispatched_tasks"] += ex.get("dispatched_tasks", 0)
    elif backend == "procs":
        counters["procpool_dispatched_tasks"] += ex.get("dispatched_tasks", 0)
        counters["inline_host_tasks"] += ex.get("inline_host_tasks", 0)
        counters["inline_fallback_tasks"] += ex.get("inline_fallback_tasks", 0)


def run_stream(
    w: Workload,
    inputs: Inputs,
    n_jobs: int,
    setup_reps: int,
    tracer: Optional[Tracer] = None,
    log=None,
) -> StreamResult:
    """Run ``setup_reps`` set-up samples, then a closed loop of the first
    ``n_jobs`` jobs of ``inputs`` (one client: each job starts when the
    previous one has returned its x)."""
    from repro.core.planner import SOL

    if w.replay and not setup_reps:
        raise ValueError(f"{w.name} compiles its plans in set-up: setup_reps must be >= 1")
    tr: Any = tracer if tracer is not None else _NoTracer()
    out = StreamResult()
    t_stream = time.perf_counter()

    plans: List[Any] = [None] * len(w.problems)
    for rep in range(setup_reps):
        if w.cold_pool:
            _stop_pools()
        t0 = time.perf_counter()
        tr.job_id = -1 - rep
        with tr.span("bench.service") as tr.job_root:
            plans = _service(w, inputs, tr)
            built = [
                _build(w, tr, p, A, np.ones(A.shape[0]), plan)
                for p, A, plan in zip(w.problems, inputs.matrices, plans)
            ]
        out.setup_s.append(time.perf_counter() - t0)
        for runtime, _planner, _solver in built:
            _release(runtime)
        del built

    t_loop = time.perf_counter()
    for j, (k, b) in enumerate(inputs.jobs[:n_jobs]):
        problem, A = w.problems[k], inputs.matrices[k]
        if w.cold_pool:
            _stop_pools()
        out.attempted += 1
        runtime = None
        tr.job_id = j
        try:
            with tr.span("bench.job"):
                t0 = time.perf_counter()
                with tr.span("bench.setup") as tr.job_root:
                    runtime, planner, solver = _build(w, tr, problem, A, b, plans[k])
                t1 = time.perf_counter()
                with tr.span("bench.solve") as tr.job_root:
                    result = solver.solve(
                        tolerance=TOLERANCE, max_iterations=MAX_ITERATIONS
                    )
                    x = planner.get_array(SOL)
                t2 = time.perf_counter()
        except Exception:
            out.failed += 1
            print(f"job {j} raised:\n{traceback.format_exc()}", file=sys.stderr)
            if runtime is not None:
                _release(runtime)
            continue
        out.job_s.append(t2 - t0)
        out.solve_s.append(t2 - t1)
        if not w.replay:
            out.setup_s.append(t1 - t0)
        out.counters["iterations"] += result.iterations
        _absorb(out.counters, runtime.dispatch_stats(), w.backend)
        _release(runtime)
        residual = float(np.linalg.norm(b - A @ x))
        bound = RESIDUAL_SLACK * TOLERANCE
        if not result.converged or not residual <= bound:
            out.failed += 1
            print(
                f"job {j} ({problem.solver} {problem.stencil}) wrong: converged="
                f"{result.converged} iterations={result.iterations} "
                f"||b-Ax||={residual:.3e} bound={bound:.1e}",
                file=sys.stderr,
            )
        if log is not None:
            log(
                f"  job {j:3d} {problem.solver:8s} {problem.stencil:4s} set-up "
                f"{t1 - t0:8.4f} s  solve {t2 - t1:8.4f} s  it {result.iterations:4d}  "
                f"||b-Ax|| {residual:.2e}"
            )
    out.loop_s = time.perf_counter() - t_loop
    out.wall_s = time.perf_counter() - t_stream
    tr.job_id = tr.job_root = -1
    if w.cold_pool:
        _stop_pools()
    return out


def summarize(res: StreamResult) -> Dict[str, float]:
    """End-to-end metrics of one untraced stream."""
    if not res.job_s:  # every job failed: nothing was measured
        return dict.fromkeys(("setup_s", "solve_s", "jobs_per_s", "job_p50_s", "job_p90_s", "iterations"), 0.0)
    return {
        "setup_s": median(res.setup_s),
        "solve_s": median(res.solve_s),
        "jobs_per_s": len(res.job_s) / res.loop_s,
        "job_p50_s": median(res.job_s),
        "job_p90_s": tail_percentile(res.job_s, 90.0)[1],
        "iterations": res.counters["iterations"],
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, plus its largest waited-for
    child when ``children`` (the process-pool workers, stopped first)."""
    import resource

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def llc_bytes() -> Optional[int]:
    """Size of the host's last-level cache, from sysfs (None if unknown)."""
    from pathlib import Path

    best: Optional[Tuple[int, int]] = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, size)
    return None if best is None else best[1]
