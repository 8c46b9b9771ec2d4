"""Worker pool: claim jobs from a store backend, execute, report back.

Each worker is one OS process running :func:`worker_loop`: claim a
pending job (atomically, via the store), execute it under a wall-clock
timeout, and either write the result row or record a failure — failures
re-queue with exponential backoff until ``max_attempts`` is exhausted.
The pool (:func:`run_pool`) first reclaims jobs whose lease lapsed,
then spawns N processes and joins them; every process opens its own
store connection and telemetry append stream, so there is no shared
in-memory state to lose.

The store is any :class:`repro.lab.backends.JobStoreBackend` *target* —
a local SQLite path or a ``lab serve`` URL — so the same pool drains a
local file and a remote fleet queue identically (``repro-lms lab work
--server http://host:8642``).  While a job executes, a side thread
extends its claim lease via :meth:`~JobStoreBackend.heartbeat`; a
worker SIGKILLed mid-job simply stops heartbeating and the job
re-queues on lease expiry, claimable by any surviving worker on any
host.  Completions are owner-checked, so a worker that lost its lease
(e.g. it stalled past the lease without heartbeating) cannot duplicate
the reclaimed job's result row.

Experiments are looked up in :data:`EXPERIMENT_RUNNERS`:

``pipeline``
    The full paper pipeline — generate (cached), order (cached
    permutation), smooth with tracing, simulate the cache hierarchy on a
    machine calibrated to ``footprint x cache_scale``, and return the
    :func:`repro.core.run_summary` row.  The whole row is additionally
    cached content-addressed, so re-running an identical grid costs one
    cache read per job.
``smooth``
    Quality-convergence only (no memory simulation).
``reorder-cost``
    Section 5.4's reordering-cost measurement.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import socket
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from .. import obs
from ..core.pipeline import run_ordering, run_summary
from ..core.cost import measure_reordering_cost
from ..memsim import MemoryLayout, calibrated_machine
from ..meshgen import generate_domain_mesh
from ..mesh import TriMesh
from ..ordering import get_ordering
from ..quality import DEFAULT_RANK_PASSES, global_quality, patch_quality, vertex_quality
from ..smoothing import laplacian_smooth
from .artifacts import ArtifactCache
from .backends import DEFAULT_LEASE_S, JobStoreBackend, open_backend
from .grid import JobSpec
from .telemetry import TelemetryWriter

__all__ = [
    "EXPERIMENT_RUNNERS",
    "JobTimeout",
    "execute_job",
    "run_pool",
    "worker_loop",
]


class JobTimeout(Exception):
    """A job exceeded its wall-clock budget."""


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------
def _cached_mesh(spec: JobSpec, cache: ArtifactCache) -> TriMesh:
    return cache.mesh(
        spec.mesh_params(),
        lambda: generate_domain_mesh(
            spec.domain,
            target_vertices=spec.vertices,
            seed=spec.seed,
            quality_structure=spec.quality_structure,
        ),
    )


def _cached_order(spec: JobSpec, cache: ArtifactCache, mesh: TriMesh):
    """The permutation under the same rank-smoothed signal _prepare uses.

    The cache key holds only what determines the permutation: the
    mesh, the ordering name and the rank-smoothing passes.
    """
    params = {
        **spec.mesh_params(),
        "ordering": spec.ordering,
        "rank_passes": DEFAULT_RANK_PASSES,
    }

    def build():
        rank_q = patch_quality(
            mesh, passes=DEFAULT_RANK_PASSES, base=vertex_quality(mesh)
        )
        return get_ordering(spec.ordering)(mesh, seed=spec.seed, qualities=rank_q)

    return cache.array("order", params, build)


def _run_pipeline(spec: JobSpec, cache: ArtifactCache) -> dict:
    def compute() -> dict:
        import tempfile

        mesh = _cached_mesh(spec, cache)
        order = _cached_order(spec, cache, mesh)
        layout = MemoryLayout.for_mesh(mesh)
        machine = calibrated_machine(
            max(1, int(layout.total_bytes * spec.cache_scale))
        )
        # The spec's trace_mode runs as-is so the row's provenance
        # column matches the grid cell (the fused/materialize rows must
        # agree bit for bit — that is the axis's point in a sweep).
        # Spill jobs stream through a temporary directory that is
        # discarded with the trace; only the summary row survives.
        with tempfile.TemporaryDirectory(prefix="repro-lab-spill-") as td:
            run = run_ordering(
                mesh,
                spec.ordering,
                config=spec.to_run_config(),
                machine=machine,
                fixed_iterations=spec.max_iterations,
                precomputed_order=order,
                trace_dir=(
                    Path(td) / "trace"
                    if spec.trace_mode == "spill"
                    else None
                ),
            )
        return run_summary(run)

    return cache.json_blob("stats", spec.as_dict(), compute)


def _run_smooth(spec: JobSpec, cache: ArtifactCache) -> dict:
    def compute() -> dict:
        mesh = _cached_mesh(spec, cache)
        order = _cached_order(spec, cache, mesh)
        result = laplacian_smooth(
            mesh.permute(order),
            config=spec.to_run_config(),
            max_iterations=spec.max_iterations,
        )
        return {
            "iterations": result.iterations,
            "converged": bool(result.converged),
            "initial_quality": result.initial_quality,
            "final_quality": result.final_quality,
        }

    return cache.json_blob("smooth", spec.as_dict(), compute)


def _run_parallel_pipeline(spec: JobSpec, cache: ArtifactCache) -> dict:
    """Multicore scaling cell: memsim replay over a static partition
    (``max_iterations`` doubles as the traced iteration count; core
    count is the machine's socket count, so with ``mem_engine=sharded``
    every shard is one worker process under scatter affinity)."""

    def compute() -> dict:
        from ..core.pipeline import default_machine_for, run_parallel_ordering

        mesh = _cached_mesh(spec, cache)
        machine = default_machine_for(mesh, profile="scaling")
        run = run_parallel_ordering(
            mesh,
            spec.ordering,
            machine.num_sockets,
            config=spec.to_run_config(),
            machine=machine,
            iterations=spec.max_iterations,
        )
        return run.summary()

    return cache.json_blob("parallel", spec.as_dict(), compute)


def _run_reorder_cost(spec: JobSpec, cache: ArtifactCache) -> dict:
    def compute() -> dict:
        mesh = _cached_mesh(spec, cache)
        cost = measure_reordering_cost(mesh, spec.ordering)
        return {
            "quality": global_quality(mesh),
            "reorder_ms": cost.ordering_seconds * 1e3,
            "iteration_ms": cost.iteration_seconds * 1e3,
            "iterations_equivalent": cost.iterations_equivalent,
        }

    return cache.json_blob("reorder-cost", spec.as_dict(), compute)


EXPERIMENT_RUNNERS: dict[str, Callable[[JobSpec, ArtifactCache], dict]] = {
    "pipeline": _run_pipeline,
    "smooth": _run_smooth,
    "reorder-cost": _run_reorder_cost,
    "parallel-pipeline": _run_parallel_pipeline,
}


def execute_job(spec: JobSpec, cache: ArtifactCache, *, timeout_s: float = 0) -> dict:
    """Run one job, optionally under a SIGALRM wall-clock budget."""
    try:
        runner = EXPERIMENT_RUNNERS[spec.experiment]
    except KeyError:
        raise KeyError(
            f"unknown experiment {spec.experiment!r}; "
            f"valid experiments: {', '.join(sorted(EXPERIMENT_RUNNERS))}"
        ) from None
    use_alarm = (
        timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return runner(spec, cache)

    def on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {timeout_s:.0f}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return runner(spec, cache)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Worker loop and pool
# ---------------------------------------------------------------------------
@contextmanager
def _lease_heartbeat(
    make_store: Callable[[], JobStoreBackend],
    job_id: int,
    worker_id: str,
    interval_s: float,
    on_error: Callable[[str, int], None] | None = None,
):
    """Extend the job's lease from a side thread while the body runs.

    Yields a ``lost`` event that is set if the store reports the lease
    gone (the job was reclaimed); the worker then abandons the job
    without reporting.  The thread opens its own backend via
    ``make_store`` and closes it before exiting, because SQLite
    connections are bound to the thread that creates them — a shared
    connection would work for the first job's heartbeat thread and then
    raise from every later one.  Transient heartbeat errors don't kill
    the thread (if the server is briefly unreachable the lease may
    lapse, and the owner-checked ``complete`` is what keeps that safe),
    but they are reported through ``on_error(message, consecutive)`` so
    a persistently failing heartbeat is visible in telemetry.
    """
    stop = threading.Event()
    lost = threading.Event()

    def report(exc: Exception, consecutive: int) -> None:
        if on_error is None:
            return
        # First failure immediately, then every 10th while it persists.
        if consecutive == 1 or consecutive % 10 == 0:
            try:
                on_error(
                    "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip(),
                    consecutive,
                )
            except Exception:
                pass

    def beat() -> None:
        store: JobStoreBackend | None = None
        failures = 0
        try:
            while not stop.wait(interval_s):
                try:
                    if store is None:
                        store = make_store()
                    if not store.heartbeat(job_id, worker_id):
                        lost.set()
                        return
                    failures = 0
                except Exception as exc:
                    failures += 1
                    report(exc, failures)
        finally:
            if store is not None:
                try:
                    store.close()
                except Exception:
                    pass

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield lost
    finally:
        stop.set()
        thread.join(timeout=1.0)


def _heartbeat_interval(store: JobStoreBackend, heartbeat_s: float | None) -> float:
    """A third of the store's lease (several beats per lease period)."""
    if heartbeat_s is not None:
        return max(heartbeat_s, 0.02)
    lease = getattr(store, "lease_s", None)
    if lease is None:
        try:
            lease = store.status().get("lease_s")  # HTTP backend
        except Exception:
            lease = None
    return max(float(lease or DEFAULT_LEASE_S) / 3.0, 0.02)


def worker_loop(
    store_target: str | Path,
    cache_dir: str | Path,
    telemetry_path: str | Path | None,
    worker_seq: int = 0,
    *,
    job_timeout_s: float = 300.0,
    retry_base_s: float = 0.5,
    max_jobs: int | None = None,
    poll_s: float = 0.05,
    obs_spans: bool = False,
    lease_s: float = DEFAULT_LEASE_S,
    token: str | None = None,
    heartbeat_s: float | None = None,
    backoff_s: float = 0.2,
    faults=None,
) -> int:
    """Claim-and-execute until the queue drains; returns jobs completed.

    Runs as the body of each pool process, and inline (in-process) for
    ``--workers 1`` and for tests.  ``store_target`` is a SQLite path or
    a job-server URL; ``lease_s`` applies to the local backend (the
    server owns lease policy for remote workers) and ``token``
    authenticates against a served store.  With ``obs_spans``, every job
    runs under a fresh :func:`repro.obs.capture` tracer and its span
    tree and metrics snapshot are appended to the telemetry stream as a
    ``job_spans`` event (joinable to rows by ``job_id``; see
    ``repro-lms lab export --with-spans``).

    ``faults`` (a :class:`repro.lab.faults.FaultPlan`) perturbs this
    worker's transport and can raise
    :class:`~repro.lab.faults.WorkerKilled` between a job's execution
    and its report — the in-process stand-in for SIGKILL.  Heartbeat
    threads stay fault-free: a real SIGKILL stops the whole process, it
    does not selectively garble heartbeats.
    """
    worker_id = f"{socket.gethostname()}:{os.getpid()}:{worker_seq}"
    store = open_backend(
        store_target,
        lease_s=lease_s,
        token=token,
        backoff_s=backoff_s,
        faults=faults,
    )

    # Each job's heartbeat thread opens (and closes) its own backend:
    # SQLite connections are usable only from their creating thread, so
    # a connection shared across the per-job heartbeat threads would
    # fail from the second job onward.
    def hb_factory() -> JobStoreBackend:
        return open_backend(store_target, lease_s=lease_s, token=token)

    beat_s = _heartbeat_interval(store, heartbeat_s)
    cache = ArtifactCache(cache_dir)
    tel = TelemetryWriter(telemetry_path, worker=worker_id)
    tel.emit("worker_started")
    completed = 0
    try:
        while max_jobs is None or completed < max_jobs:
            job = store.claim(worker_id)
            if job is None:
                counts = store.counts()
                if counts["pending"] == 0 and counts["running"] == 0:
                    break  # queue drained
                # Jobs are either backing off, or running elsewhere (and
                # may yet fail, re-queue, or die and leave an expired
                # lease): reclaim lapsed leases, then wait for whichever
                # is next.
                if counts["running"] and store.reclaim_expired():
                    continue
                next_at = store.next_not_before()
                delay = poll_s
                if counts["pending"] and next_at is not None:
                    delay = max(poll_s, min(next_at - time.time(), 1.0))
                time.sleep(delay)
                continue
            spec = JobSpec.from_dict(job.spec)
            tel.emit("job_claimed", job_id=job.id, key=job.key, attempt=job.attempt)
            hits0, misses0 = cache.snapshot()
            start = time.perf_counter()
            spans: list | None = None
            metrics_snapshot: dict | None = None

            def hb_error(message: str, consecutive: int, *, _job_id=job.id):
                tel.emit(
                    "heartbeat_error",
                    job_id=_job_id,
                    error=message,
                    consecutive=consecutive,
                )

            with _lease_heartbeat(
                hb_factory, job.id, worker_id, beat_s, on_error=hb_error
            ) as lost:
                try:
                    if obs_spans:
                        with obs.capture() as tracer:
                            result = execute_job(
                                spec, cache, timeout_s=job_timeout_s
                            )
                        spans = tracer.export()
                        metrics_snapshot = tracer.metrics.snapshot()
                    else:
                        result = execute_job(spec, cache, timeout_s=job_timeout_s)
                except JobTimeout as exc:
                    tel.emit("job_timeout", job_id=job.id, error=str(exc))
                    status = store.fail(
                        job.id, str(exc),
                        retry_base_s=retry_base_s, worker_id=worker_id,
                    )
                    tel.emit(
                        "job_failed",
                        job_id=job.id,
                        error=str(exc),
                        will_retry=status == "pending",
                    )
                except Exception as exc:
                    error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    status = store.fail(
                        job.id, error,
                        retry_base_s=retry_base_s, worker_id=worker_id,
                    )
                    tel.emit(
                        "job_failed",
                        job_id=job.id,
                        error=error,
                        will_retry=status == "pending",
                    )
                else:
                    wall = time.perf_counter() - start
                    hits1, misses1 = cache.snapshot()
                    if faults is not None:
                        # May raise WorkerKilled (a BaseException, so it
                        # escapes this handler chain): the job dies
                        # executed-but-unreported, exactly the window a
                        # SIGKILL between execute and complete leaves.
                        faults.job_executed(worker_seq)
                    if lost.is_set():
                        # The lease lapsed and the job was reclaimed:
                        # someone else owns (or already re-ran) it, so
                        # this result must not be reported.
                        tel.emit("job_lease_lost", job_id=job.id)
                    elif store.complete(
                        job.id, result, wall_s=wall, worker_id=worker_id
                    ):
                        completed += 1
                        tel.emit(
                            "job_done",
                            job_id=job.id,
                            experiment=spec.experiment,
                            wall_s=wall,
                            cache_hits=hits1 - hits0,
                            cache_misses=misses1 - misses0,
                        )
                        if obs_spans:
                            tel.emit(
                                "job_spans",
                                job_id=job.id,
                                spans=spans,
                                metrics=metrics_snapshot,
                            )
                    else:
                        tel.emit("job_lease_lost", job_id=job.id)
    finally:
        tel.emit("worker_exit", completed=completed)
        store.close()
    return completed


def run_pool(
    store_target: str | Path,
    cache_dir: str | Path,
    telemetry_path: str | Path | None,
    *,
    workers: int = 1,
    job_timeout_s: float = 300.0,
    retry_base_s: float = 0.5,
    max_jobs: int | None = None,
    obs_spans: bool = False,
    lease_s: float = DEFAULT_LEASE_S,
    token: str | None = None,
    heartbeat_s: float | None = None,
) -> dict[str, int]:
    """Reclaim lapsed leases, run ``workers`` processes to drain the
    queue, and return the final status counts.

    ``store_target`` is a SQLite path (``lab run``) or a job-server URL
    (``lab work --server``); worker processes each open their own
    backend connection, so the pool body is identical either way.
    """
    store = open_backend(store_target, lease_s=lease_s, token=token)
    reclaimed = store.reclaim_expired()
    TelemetryWriter(telemetry_path).emit(
        "run_started", workers=workers, reclaimed=reclaimed
    )
    # SQLite connections must not cross a fork: close before spawning.
    store.close()

    worker_kwargs = {
        "job_timeout_s": job_timeout_s,
        "retry_base_s": retry_base_s,
        "max_jobs": max_jobs,
        "obs_spans": obs_spans,
        "lease_s": lease_s,
        "token": token,
        "heartbeat_s": heartbeat_s,
    }
    if workers <= 1:
        worker_loop(store_target, cache_dir, telemetry_path, 0, **worker_kwargs)
    else:
        procs = [
            mp.Process(
                target=worker_loop,
                args=(store_target, cache_dir, telemetry_path, seq),
                kwargs=worker_kwargs,
            )
            for seq in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()

    counts = store.counts()
    TelemetryWriter(telemetry_path).emit("run_finished", **counts)
    store.close()
    return counts
