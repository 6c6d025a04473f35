#!/usr/bin/env python3
"""The repository benchmark: what a user of the solvers waits for.

Run from the repository root::

    python3 perfbench/run.py --workload serve_replay --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the unmodified program and prints the end-to-end
metrics; ``--trace 1`` runs the workload twice more briefly, untraced
then with a span wrapper around each layer's entry points, then
untraced again, and prints the per-layer metrics.  Either way every solve is checked against
its generated system, the human-readable report goes first and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 101, "failed": 0, "metrics": {...}}

The exit code is 0 only when every solve converged and passed the
residual check.  See ``perfbench/README.md`` for the workloads, metrics
and the interaction map.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where the traced run writes its spans.
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    PIECES,
    RESIDUAL_SLACK,
    TOLERANCE,
    WORKLOADS,
    Workload,
    llc_bytes,
    make_inputs,
    peak_rss_mb,
    run_stream,
    stream_length,
    summarize,
)
from spans import tail_percentile  # noqa: E402

#: (metric, unit) of every end-to-end metric, in print order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("iterations", "count"),
    ("peak_rss_mb", "MB"),
)


def _log(line: str) -> None:
    print(line, flush=True)


def _stop_children() -> None:
    """Stop the worker pools and the shared-memory resource tracker the
    ``procs`` backend started, waiting for each to exit."""
    from multiprocessing import resource_tracker

    from repro.runtime.procpool import shutdown_worker_pools

    shutdown_worker_pools()
    # The tracker is started by the first shared-memory segment and has
    # no public stop; _stop() closes its pipe and waits for it to exit.
    resource_tracker._resource_tracker._stop()


def _header(w: Workload, seed: int, n_jobs: int, matrix_bytes: int, trace: bool) -> None:
    _log(f"workload {w.name}  seed {seed}  jobs {n_jobs}  backend {w.backend}"
         f"{f' x{w.workers}' if w.workers else ''}  trace {int(trace)}")
    _log(f"  why: {w.why}")
    problems = ", ".join(f"{p.solver} {p.stencil} n={p.unknowns}" for p in w.problems)
    _log(f"  problems: {problems}; {PIECES} pieces, tol {TOLERANCE:g}, "
         f"check ||b-Ax||_2 <= {RESIDUAL_SLACK * TOLERANCE:g}")
    llc = llc_bytes()
    llc_text = f"{llc / 2 ** 20:.0f} MiB" if llc else "unknown"
    _log(f"  largest matrix {matrix_bytes / 1e6:.1f} MB (CSR arrays as generated) "
         f"next to last-level cache {llc_text}; no roofline ratio is reported, "
         f"the matrix is not 4x the cache")


def _timed_run(w: Workload, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int]:
    n_jobs = stream_length(w, seconds)
    inputs = make_inputs(w, seed, n_jobs)
    _header(w, seed, n_jobs, inputs.matrix_bytes, trace=False)
    res = run_stream(w, inputs, n_jobs, w.setup_reps, log=_log)
    if w.backend == "procs":
        _stop_children()
    metrics = summarize(res)
    metrics["peak_rss_mb"] = peak_rss_mb(children=w.backend == "procs")
    pct = tail_percentile(res.job_s, 90.0)[0] if res.job_s else 0.0
    _log(f"  {len(res.job_s)} job latencies; job_p90_s reports p{pct:.0f} "
         f"(highest percentile <= p90 with >= 10 samples beyond it, p50 if none)")
    _log(f"  set-up samples {len(res.setup_s)}; stream wall {res.wall_s:.3f} s")
    for name, unit in END_TO_END:
        _log(f"  {name:<12s} {metrics[name]:14.6f} {unit}")
    _log(f"  failed_frac  {res.failed / max(res.attempted, 1):14.6f} ratio "
         f"({res.failed} of {res.attempted})")
    return metrics, res.attempted, res.failed


def _why_checks(w: Workload, m: Dict[str, float], phases: Dict[str, Dict[str, float]]) -> List[Tuple[str, bool]]:
    """The traced run's test of the workload's stated reason."""

    def top(cells: Dict[str, float]) -> str:
        return max(cells, key=cells.get) if cells else ""

    overall: Dict[str, float] = {}
    for cells in phases.values():
        for name, sec in cells.items():
            if not name.startswith("bench."):
                overall[name] = overall.get(name, 0.0) + sec
    if w.name == "fresh_gmres":
        return [(f"engine.simulate is the largest self time (largest: {top(overall)})",
                 top(overall) == "engine.simulate")]
    if w.name == "serve_replay":
        return [(f"replay.hit_ratio {m['replay.hit_ratio']:.4f} >= 0.99", m["replay.hit_ratio"] >= 0.99)]
    if w.name == "large_serial":
        setup = {k: v for k, v in phases["setup"].items() if not k.startswith("bench.")}
        solve = dict(phases["solve"])
        kernels = solve.pop("sparse.spmv", 0.0) + solve.pop("kernels.vector", 0.0)
        rest = max(solve.values(), default=0.0)
        return [
            (f"deppart.preimage is the largest part of set-up (largest: {top(setup)})",
             top(setup) == "deppart.preimage"),
            (f"sparse.spmv + kernels.vector {kernels:.3f} s is the largest part of solve "
             f"(next: {top(solve)} {rest:.3f} s)", kernels > rest),
        ]
    return []


def _traced_run(w: Workload, seed: int) -> Tuple[Dict[str, float], int, int]:
    from layers import PER_LAYER, install, layer_metrics
    from spans import Tracer

    n_jobs = w.trace_jobs
    reps = 1 if w.replay else 0
    inputs = make_inputs(w, seed, n_jobs)
    _header(w, seed, n_jobs, inputs.matrix_bytes, trace=True)
    # Untraced, traced, untraced: the first pass takes the cold start
    # (lazy imports, first-touch allocation), the last is the baseline.
    warm = run_stream(w, inputs, n_jobs, reps)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        traced = run_stream(w, inputs, n_jobs, reps, tracer=tracer)
    finally:
        uninstall()
    base = run_stream(w, inputs, n_jobs, reps)
    if w.backend == "procs":
        _stop_children()
    metrics, phases = layer_metrics(tracer, base.counters, base.wall_s, traced.wall_s)
    out = OUT_DIR / f"trace-{w.name}-seed{seed}.npz"
    tracer.write(out, {"workload": w.name, "seed": seed, "jobs": n_jobs})
    _log(f"  {len(tracer)} spans written to {out}; untraced "
         f"{base.wall_s:.3f} s, traced {traced.wall_s:.3f} s")
    for phase in ("service", "setup", "solve"):
        cells = sorted(phases[phase].items(), key=lambda kv: -kv[1])[:8]
        if cells:
            _log(f"  self time in {phase}: " + ", ".join(f"{k} {v:.3f}s" for k, v in cells))
    for text, ok in _why_checks(w, metrics, phases):
        _log(f"  why-check: {text}: {'PASS' if ok else 'MISMATCH'}")
    for name, unit, _better in PER_LAYER:
        _log(f"  {name:<32s} {metrics[name]:16.6f} {unit}")
    _log("  (sparse.* bytes and flops are computed from the PieceKernel model, not measured)")
    passes = (warm, traced, base)
    return metrics, sum(r.attempted for r in passes), sum(r.failed for r in passes)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    w = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    if args.trace:
        metrics, attempted, failed = _traced_run(w, args.seed)
        from layers import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, attempted, failed = _timed_run(w, args.seed, args.seconds)
        units = dict(END_TO_END)
    _log(f"  total {time.perf_counter() - t0:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
