"""Command-line interface: ``repro-lms`` / ``python -m repro``.

Subcommands:

``generate``   build one of the nine domain meshes and write Triangle files
``smooth``     smooth a mesh (optionally after a reordering) and report
``reorder``    write the reordered mesh under a named ordering
``analyze``    trace a run, break misses down per array, export the trace
``parallel``   simulate a multicore smoothing run (shared-L3 sockets)
``experiment`` run one of the paper's tables/figures and print it
``lab``        durable experiment sweeps: ``init|run|serve|work|status|
               reset|export`` — including the distributed mode, where
               ``lab serve`` exposes the job store over HTTP and
               ``lab work --server URL`` drains it from any host
``list``       show available domains, orderings, experiments and engines

Run selection is uniform across subcommands: :func:`add_engine_args`
derives one flag per :func:`repro.config.engine_axes` axis —
``--mem-engine``/``--trace-mode`` plus ``--seed`` and
``--machine-profile`` (or the plural comma-list forms for grid sweeps)
— and :func:`run_config_from_args` folds them into one validated
:class:`repro.config.RunConfig`. Observability flags (``--trace-out``, ``--metrics-out``) ride in the
same config.

Unknown domain/ordering/experiment/engine names exit with status 2 and
a one-line message listing the valid choices.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bench, obs
from .bench import format_table
from .bench.report import save_csv
from .config import (
    DEFAULT_RUN_CONFIG,
    MACHINE_PROFILES,
    ObsConfig,
    RunConfig,
    UnknownNameError,
    engine_axes,
)
from .core import measure_reordering_cost, run_ordering
from .lab.backends import DEFAULT_LEASE_S
from .lab.http_store import StoreConnectionError
from .mesh import MeshValidationError, read_triangle, write_triangle
from .meshgen import (
    generate_domain_mesh,
    list_domains,
    perturb_interior,
    structured_rectangle,
)
from .ordering import ORDERINGS, apply_ordering
from .quality import global_quality
from .smoothing import laplacian_smooth

EXPERIMENTS = {
    "table1": lambda cfg: format_table(bench.table1_rows(cfg), title="Table 1"),
    "fig1": lambda cfg: format_table(
        bench.fig1_profiles(cfg)["rows"], title="Figure 1 (ocean)"
    ),
    "fig4": lambda cfg: "\n".join(
        [
            f"Figure 4 ({k}): coords locations = {v}"
            for k, v in bench.fig4_traces(cfg)["snippets"].items()
        ]
    ),
    "fig6": lambda cfg: "Figure 6: correlation of iteration profiles with "
    "iteration 0: "
    + ", ".join(f"{c:.2f}" for c in bench.fig6_series(cfg)["correlation_with_first"]),
    "fig8": lambda cfg: format_table(bench.fig8_rows(cfg), title="Figure 8"),
    "fig9": lambda cfg: format_table(bench.fig9_rows(cfg), title="Figure 9"),
    "table2": lambda cfg: format_table(bench.table2_rows(cfg), title="Table 2"),
    "table3": lambda cfg: format_table(bench.table3_rows(cfg), title="Table 3"),
    "fig10": lambda cfg: format_table(bench.fig10_rows(cfg), title="Figure 10"),
    "fig11": lambda cfg: format_table(bench.fig11_rows(cfg), title="Figure 11"),
    "fig12": lambda cfg: format_table(bench.fig12_rows(cfg), title="Figure 12"),
    "fig13": lambda cfg: format_table(bench.fig13_rows(cfg), title="Figure 13"),
    "sec54": lambda cfg: format_table(bench.sec54_rows(cfg), title="Section 5.4"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lms",
        description="Locality-Aware Laplacian Mesh Smoothing (ICPP 2016) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a domain mesh")
    gen.add_argument("domain", choices=list_domains())
    gen.add_argument("output", help="output stem for .node/.ele files")
    gen.add_argument("--vertices", type=int, default=1500)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--quality-structure",
        default="ramp",
        choices=["ramp", "hotspots", "uniform"],
    )

    sm = sub.add_parser("smooth", help="smooth a mesh from .node/.ele files")
    sm.add_argument("input", help="input stem (reads <stem>.node/.ele)")
    sm.add_argument("--output", help="output stem for the smoothed mesh")
    sm.add_argument("--ordering", default=None, choices=sorted(ORDERINGS))
    sm.add_argument("--max-iterations", type=int, default=50)
    sm.add_argument("--traversal", default="greedy", choices=["greedy", "storage"])
    sm.add_argument("--report-cache", action="store_true",
                    help="simulate the memory hierarchy and print miss rates")
    add_engine_args(sm)
    add_obs_args(sm)

    ro = sub.add_parser("reorder", help="reorder a mesh's vertices")
    ro.add_argument("input", help="input stem (reads <stem>.node/.ele)")
    ro.add_argument("output", help="output stem")
    ro.add_argument("--ordering", default="rdr", choices=sorted(ORDERINGS))
    ro.add_argument("--report-cost", action="store_true")
    add_engine_args(ro)

    an = sub.add_parser(
        "analyze", help="trace one smoothing iteration and break down misses"
    )
    an.add_argument("input", nargs="?", default=None,
                    help="input stem (reads <stem>.node/.ele); omit to "
                         "generate a mesh with --domain instead")
    an.add_argument("--domain", default=None,
                    choices=[*list_domains(), "unit-square"],
                    help="generate the mesh instead of reading one: a named "
                         "domain or the perturbed structured unit square")
    an.add_argument("--vertices", type=int, default=1500,
                    help="vertex budget for --domain meshes")
    an.add_argument("--ordering", default="rdr", choices=sorted(ORDERINGS))
    an.add_argument("--iterations", type=int, default=1)
    an.add_argument("--save-trace", help="write the access trace to this .npz path")
    an.add_argument("--stream-window", type=int, default=None, metavar="EVENTS",
                    help="replay the cache simulation in bounded windows of "
                         "this many events (streaming engine; identical "
                         "counts, peak memory bounded by one window)")
    add_engine_args(an)
    add_obs_args(an)

    pa = sub.add_parser(
        "parallel", help="simulate a multicore smoothing run"
    )
    pa.add_argument("input", help="input stem (reads <stem>.node/.ele)")
    pa.add_argument("--ordering", default="rdr", choices=sorted(ORDERINGS))
    pa.add_argument("--cores", type=int, default=2,
                    help="number of simulated threads")
    pa.add_argument("--iterations", type=int, default=8)
    pa.add_argument("--affinity", default="scatter",
                    choices=["compact", "scatter"])
    pa.add_argument("--stream-window", type=int, default=None, metavar="EVENTS",
                    help="replay each socket's cache simulation in bounded "
                         "windows of this many events (identical counts)")
    add_engine_args(pa)
    add_obs_args(pa)

    ex = sub.add_parser("experiment", help="run a paper table/figure")
    ex.add_argument("name", choices=sorted(EXPERIMENTS))
    ex.add_argument("--scale", type=float, default=None,
                    help="mesh-suite scale relative to the paper's sizes")
    add_engine_args(ex)

    _build_lab_parser(sub)

    sub.add_parser(
        "list", help="list domains, orderings, experiments and engines"
    )
    return parser


def _comma_list(cast):
    def parse(text: str):
        return tuple(cast(part) for part in text.split(",") if part)

    return parse


#: Singular-flag help text per engine axis; the plural comma-list form
#: derives its text generically.  New axes registered in
#: :func:`repro.config.engine_axes` get a flag automatically even
#: without an entry here.
AXIS_HELP = {
    "mem_engine": "multicore replay engine: in-process sockets or one "
                  "worker process per socket (identical counts)",
    "trace_mode": "where the smoother's access trace goes: materialize "
                  "(full in-memory trace), spill (stream to the chunked "
                  "on-disk format) or fused (stream windows straight into "
                  "the cache simulators with overlapped compute; identical "
                  "counts, bounded memory)",
}


def add_engine_args(parser, *, plural: bool = False) -> None:
    """Attach the unified engine/seed flags to a subcommand parser.

    One flag per :func:`repro.config.engine_axes` axis plus ``--seed``
    and ``--machine-profile``: the singular form (``--mem-engine``/
    ``--trace-mode``) selects one :class:`repro.config.RunConfig`; the
    plural comma-list form (``--mem-engines``/``--trace-modes``/
    ``--seeds``) spans grid axes for ``lab init``.  The flag set is
    derived from the axis registry, so new axes surface on every
    subcommand automatically.
    """
    for axis, choices in engine_axes().items():
        flag = "--" + axis.replace("_", "-")
        default = getattr(DEFAULT_RUN_CONFIG, axis)
        if plural:
            parser.add_argument(
                flag + "s", type=_comma_list(str), default=(default,),
                help=f"comma list of {axis.replace('_', ' ')} values "
                     f"({','.join(choices)})",
            )
        else:
            parser.add_argument(flag, default=default, choices=list(choices),
                                help=AXIS_HELP.get(axis, ""))
    if plural:
        parser.add_argument("--seeds", type=_comma_list(int), default=(0,),
                            help="comma list of seeds")
        return
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for stochastic orderings (e.g. random)")
    parser.add_argument("--machine-profile", default=None,
                        choices=list(MACHINE_PROFILES),
                        help="calibration profile for the default machine "
                             "(default: each pipeline's historical choice; "
                             "gpu-generic models a coalescing device with "
                             "128-byte lines)")


def add_obs_args(parser) -> None:
    """Attach the observability flags (span/metrics export paths)."""
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="capture a span trace of the run and write it "
                             "as JSONL (one span per line)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="capture live metrics (counters/histograms) "
                             "and write the snapshot as JSON")


def run_config_from_args(args) -> RunConfig:
    """Fold the flags attached by :func:`add_engine_args` /
    :func:`add_obs_args` into one validated :class:`RunConfig`."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    window = getattr(args, "stream_window", None)
    if window is not None and window < 1:
        raise UnknownNameError(
            "stream window", str(window), ["None", "any int >= 1"]
        )
    return RunConfig(
        **{
            axis: getattr(args, axis, getattr(DEFAULT_RUN_CONFIG, axis))
            for axis in engine_axes()
        },
        seed=getattr(args, "seed", 0),
        machine_profile=getattr(args, "machine_profile", None),
        stream_window_events=window,
        obs=ObsConfig(
            enabled=bool(trace_out or metrics_out),
            trace_path=trace_out,
            metrics_path=metrics_out,
        ),
    ).validate()


def _build_lab_parser(sub) -> None:
    lab = sub.add_parser(
        "lab", help="durable experiment sweeps (job store + worker pool)"
    )
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)

    def add_db(p):
        p.add_argument("--db", default="lab.db",
                       help="job-store SQLite file (default: lab.db)")

    def add_token(p):
        p.add_argument("--token", default=None,
                       help="shared bearer token (default: $REPRO_LAB_TOKEN)")

    ini = lab_sub.add_parser("init", help="expand a grid into pending jobs")
    add_db(ini)
    ini.add_argument("--server", default=None,
                     help="queue the grid on a running lab server "
                          "instead of --db")
    add_token(ini)
    ini.add_argument("--experiments", type=_comma_list(str),
                     default=("pipeline",),
                     help="comma list: pipeline,smooth,reorder-cost,"
                          "parallel-pipeline")
    ini.add_argument("--domains", type=_comma_list(str), default=("ocean",),
                     help="comma list of domain names (see `repro-lms list`)")
    ini.add_argument("--orderings", type=_comma_list(str),
                     default=("ori", "rdr"),
                     help="comma list of ordering names")
    ini.add_argument("--vertices", type=_comma_list(int), default=(300,),
                     help="comma list of vertex budgets")
    ini.add_argument("--cache-scales", type=_comma_list(float), default=(1.0,),
                     help="comma list of cache-size multipliers")
    ini.add_argument("--stream-windows", type=_comma_list(int), default=(),
                     metavar="E1,E2,...",
                     help="grid axis over streaming window sizes (events); "
                          "empty sweeps only the in-memory engines")
    ini.add_argument("--quality-structure", default="ramp",
                     choices=["ramp", "hotspots", "uniform"])
    add_engine_args(ini, plural=True)
    ini.add_argument("--max-iterations", type=int, default=8)
    ini.add_argument("--max-attempts", type=int, default=3)
    ini.add_argument("--force-new", action="store_true",
                     help="create a new run even if the latest has this grid")

    def add_worker_args(p):
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--timeout", type=float, default=300.0,
                       help="per-job wall-clock budget in seconds")
        p.add_argument("--retry-base", type=float, default=0.5,
                       help="base of the exponential retry backoff (seconds)")
        p.add_argument("--max-jobs", type=int, default=None,
                       help="stop each worker after this many jobs")
        p.add_argument("--obs", action="store_true",
                       help="trace every job (span tree + metrics appended "
                            "to telemetry as job_spans events)")

    run = lab_sub.add_parser("run", help="drain pending jobs with workers")
    add_db(run)
    add_worker_args(run)
    run.add_argument("--cache-dir", default=None,
                     help="artifact cache directory (default: <db>.artifacts)")
    run.add_argument("--telemetry", default=None,
                     help="telemetry JSONL path (default: <db>.telemetry.jsonl)")
    run.add_argument("--lease", type=float, default=DEFAULT_LEASE_S,
                     help="claim-lease duration in seconds; jobs of a "
                          "killed worker re-queue after this long "
                          f"(default: {DEFAULT_LEASE_S:.0f})")

    sv = lab_sub.add_parser(
        "serve", help="expose the job store over HTTP for remote workers"
    )
    add_db(sv)
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1; use 0.0.0.0 "
                         "to accept remote workers)")
    sv.add_argument("--port", type=int, default=8642,
                    help="bind port (default: 8642; 0 picks a free port)")
    add_token(sv)
    sv.add_argument("--lease", type=float, default=DEFAULT_LEASE_S,
                    help="claim-lease duration granted to workers "
                         f"(default: {DEFAULT_LEASE_S:.0f}s)")

    wk = lab_sub.add_parser(
        "work", help="drain jobs from a lab server on this host"
    )
    wk.add_argument("--server", required=True,
                    help="job-server URL (http://host:port)")
    add_token(wk)
    add_worker_args(wk)
    wk.add_argument("--cache-dir", default="lab-work.artifacts",
                    help="local artifact cache directory "
                         "(default: lab-work.artifacts)")
    wk.add_argument("--telemetry", default="lab-work.telemetry.jsonl",
                    help="local telemetry JSONL path "
                         "(default: lab-work.telemetry.jsonl)")

    st = lab_sub.add_parser("status", help="job counts + telemetry summary")
    add_db(st)
    st.add_argument("--server", default=None,
                    help="query a running lab server instead of --db")
    add_token(st)
    st.add_argument("--run", type=int, default=None, help="restrict to one run id")
    st.add_argument("--telemetry", default=None)
    st.add_argument("--watch", action="store_true",
                    help="refresh live: per-status counts, rows/sec and ETA "
                         "until the queue drains")
    st.add_argument("--interval", type=float, default=2.0,
                    help="--watch refresh interval in seconds (default: 2)")
    st.add_argument("--refreshes", type=int, default=None,
                    help="stop --watch after this many refreshes "
                         "(default: until drained)")

    rs = lab_sub.add_parser("reset", help="re-queue failed (or running) jobs")
    add_db(rs)
    rs.add_argument("--running", action="store_true",
                    help="also reset running jobs (after a crashed pool)")
    rs.add_argument("--run", type=int, default=None)

    ex = lab_sub.add_parser("export", help="export done-job rows to JSON/CSV")
    add_db(ex)
    ex.add_argument("--server", default=None,
                    help="export from a running lab server instead of --db")
    add_token(ex)
    ex.add_argument("output", help="output path (.json or .csv)")
    ex.add_argument("--format", choices=["json", "csv"], default=None,
                    help="default: inferred from the output suffix")
    ex.add_argument("--run", type=int, default=None)
    ex.add_argument("--drop-timing", action="store_true",
                    help="omit run-history columns (wall_s, attempt) so "
                         "identical grids export byte-identical files "
                         "regardless of retries or worker placement")
    ex.add_argument("--with-spans", action="store_true",
                    help="join job_spans telemetry (from `lab run --obs`) "
                         "into the rows by job_id")

    ch = lab_sub.add_parser(
        "chaos",
        help="fault-inject a live server run and check lab invariants",
    )
    ch.add_argument("--seed", type=int, default=0,
                    help="fault-plan seed; same seed => same fault log "
                         "and byte-identical exports (default: 0)")
    ch.add_argument("--workdir", default=None,
                    help="working directory for stores, cache, fault log "
                         "and exports (default: a fresh temp directory)")
    ch.add_argument("--workers", type=int, default=2,
                    help="worker incarnations; all but the last get a "
                         "kill rule (default: 2)")
    ch.add_argument("--kill-after", type=int, default=1,
                    help="jobs a doomed worker completes before its kill "
                         "(default: 1)")
    ch.add_argument("--lease", type=float, default=2.0,
                    help="claim-lease seconds for the chaos server; small "
                         "so killed jobs re-queue quickly (default: 2)")
    ch.add_argument("--max-attempts", type=int, default=8,
                    help="attempt budget per job under chaos (default: 8)")
    ch.add_argument("--report", default=None,
                    help="also write the full JSON report to this path")
    ch.add_argument("--experiments", type=_comma_list(str),
                    default=("smooth",),
                    help="comma list (default: smooth — fast, no memsim)")
    ch.add_argument("--domains", type=_comma_list(str), default=("ocean",))
    ch.add_argument("--orderings", type=_comma_list(str),
                    default=("ori", "rdr"))
    ch.add_argument("--vertices", type=_comma_list(int), default=(150, 200))
    ch.add_argument("--max-iterations", type=int, default=2)


def _cmd_generate(args) -> int:
    mesh = generate_domain_mesh(
        args.domain,
        target_vertices=args.vertices,
        seed=args.seed,
        quality_structure=args.quality_structure,
    )
    node, ele = write_triangle(mesh, args.output)
    print(
        f"{args.domain}: {mesh.num_vertices} vertices, "
        f"{mesh.num_triangles} triangles, initial quality "
        f"{global_quality(mesh):.4f}"
    )
    print(f"wrote {node} and {ele}")
    return 0


def _cmd_smooth(args) -> int:
    config = run_config_from_args(args)
    mesh = read_triangle(args.input)
    with obs.activated(config.obs):
        if args.report_cache and args.ordering:
            run = run_ordering(mesh, args.ordering, config=config,
                               traversal=args.traversal,
                               max_iterations=args.max_iterations)
            result = run.smoothing
            st = run.cache
            print(
                f"cache (simulated): L1 {st.l1.miss_rate:.3%} "
                f"L2 {st.l2.miss_rate:.3%} L3 {st.l3.miss_rate:.3%} miss rates; "
                f"modeled time {run.modeled_seconds * 1e3:.3f} ms"
            )
            smoothed = result.mesh
        else:
            if args.ordering:
                mesh, _ = apply_ordering(mesh, args.ordering, seed=config.seed)
            result = laplacian_smooth(
                mesh, config=config, traversal=args.traversal,
                max_iterations=args.max_iterations,
            )
            smoothed = result.mesh
    _report_obs_outputs(config)
    print(
        f"smoothed in {result.iterations} iterations "
        f"({'converged' if result.converged else 'iteration cap'}): "
        f"quality {result.initial_quality:.4f} -> {result.final_quality:.4f}"
    )
    if args.output:
        node, ele = write_triangle(smoothed, args.output)
        print(f"wrote {node} and {ele}")
    return 0


def _cmd_reorder(args) -> int:
    config = run_config_from_args(args)
    mesh = read_triangle(args.input)
    permuted, _ = apply_ordering(mesh, args.ordering, seed=config.seed)
    node, ele = write_triangle(permuted, args.output)
    print(f"reordered {mesh.num_vertices} vertices with {args.ordering!r}")
    print(f"wrote {node} and {ele}")
    if args.report_cost:
        cost = measure_reordering_cost(mesh, args.ordering)
        print(
            f"reordering cost: {cost.ordering_seconds * 1e3:.2f} ms "
            f"= {cost.iterations_equivalent:.2f} smoothing iterations"
        )
    return 0


def _analyze_mesh(args, config: RunConfig):
    """The analyzed mesh: read from files, or generated via ``--domain``."""
    if args.input is not None:
        return read_triangle(args.input)
    if args.domain is None:
        raise UnknownNameError(
            "analyze input", "<missing>", ["<stem>", "--domain <name>"]
        )
    if args.domain == "unit-square":
        # Perturbed structured unit square (the engine benchmarks' mesh):
        # n x n grid sized to the vertex budget, interior jittered so the
        # smoother has work to do.
        n = max(4, int(round(args.vertices ** 0.5)))
        with obs.span("meshgen.generate", domain="unit-square", vertices=n * n):
            mesh = structured_rectangle(n, n, name=f"unit-square-{n}x{n}")
            return perturb_interior(
                mesh, amplitude=0.2 / n, seed=config.seed
            )
    return generate_domain_mesh(
        args.domain, target_vertices=args.vertices, seed=config.seed
    )


def _report_obs_outputs(config: RunConfig) -> None:
    if config.obs.trace_path:
        print(f"wrote span trace to {config.obs.trace_path}")
    if config.obs.metrics_path:
        print(f"wrote metrics snapshot to {config.obs.metrics_path}")


def _cmd_analyze(args) -> int:
    from .memsim import per_array_breakdown, trace_summary

    config = run_config_from_args(args)
    if config.trace_mode == "spill" and not args.save_trace:
        print(
            "error: --trace-mode spill needs --save-trace DIR for the "
            "chunked trace directory",
            file=sys.stderr,
        )
        return 2
    with obs.activated(config.obs):
        mesh = _analyze_mesh(args, config)
        run = run_ordering(
            mesh,
            args.ordering,
            config=config,
            fixed_iterations=args.iterations,
            trace_dir=(
                args.save_trace if config.trace_mode == "spill" else None
            ),
        )
        if config.trace_mode == "materialize":
            summary = trace_summary(run.trace, run.layout)
            rows = [
                b.as_row()
                for b in per_array_breakdown(run.trace, run.layout, run.machine)
            ]
    if config.trace_mode == "materialize":
        print(
            f"trace: {summary['length']} accesses over "
            f"{summary['iterations']} iteration(s), "
            f"{summary['distinct_lines']} distinct lines, "
            f"cold fraction {summary['cold_fraction']:.1%}"
        )
        print(
            format_table(rows, title=f"per-array breakdown ({args.ordering})")
        )
    else:
        # The streamed modes never materialize the trace, so the
        # per-array breakdown is unavailable; the summary statistics
        # below are bit-identical to the materialized path.
        st = run.cache
        print(
            f"trace ({config.trace_mode}): "
            f"{run.fused.reuse.num_accesses} accesses over "
            f"{run.smoothing.iterations} iteration(s)"
        )
        print(
            f"miss rates: L1 {st.l1.miss_rate:.3%} "
            f"L2 {st.l2.miss_rate:.3%} L3 {st.l3.miss_rate:.3%}"
        )
    prof = run.reuse_profile()
    print(
        f"reuse distance (1st iteration): q50={prof.q50} q75={prof.q75} "
        f"q90={prof.q90} max={prof.q100}"
    )
    print(f"modeled time: {run.modeled_seconds * 1e3:.3f} ms on {run.machine.name}")
    if args.save_trace:
        if config.trace_mode == "materialize":
            path = run.trace.save_npz(args.save_trace)
            print(f"wrote trace to {path}")
        elif config.trace_mode == "spill":
            print(f"wrote chunked trace to {run.trace_dir}")
        else:
            print(
                "note: --save-trace is ignored under --trace-mode fused "
                "(the trace is never materialized); use spill instead"
            )
    _report_obs_outputs(config)
    return 0


def _cmd_parallel(args) -> int:
    from .core import run_parallel_ordering

    config = run_config_from_args(args)
    mesh = read_triangle(args.input)
    with obs.activated(config.obs):
        run = run_parallel_ordering(
            mesh,
            args.ordering,
            args.cores,
            config=config,
            iterations=args.iterations,
            affinity=args.affinity,
        )
    counts = run.result.access_counts()
    _report_obs_outputs(config)
    print(
        f"{args.ordering!r} on {args.cores} core(s) "
        f"({args.affinity} affinity, {run.iterations} iteration(s)): "
        f"modeled time {run.modeled_seconds * 1e3:.3f} ms"
    )
    print(
        f"accesses: L2 {counts['L2']}, L3 {counts['L3']}, "
        f"memory {counts['memory']}"
    )
    for cr in run.result.per_core:
        st = cr.stats
        print(
            f"  core {cr.core} (socket {cr.socket}): "
            f"L1 {st.l1.miss_rate:.3%} L2 {st.l2.miss_rate:.3%} "
            f"L3 {st.l3.miss_rate:.3%} miss rates"
        )
    return 0


def _cmd_experiment(args) -> int:
    kwargs = {}
    if args.scale is not None:
        kwargs["suite_scale"] = args.scale
        kwargs["scaling_scale"] = max(args.scale, 3 * args.scale)
    cfg = bench.BenchConfig.from_run_config(run_config_from_args(args), **kwargs)
    print(EXPERIMENTS[args.name](cfg))
    return 0


def _cmd_list() -> int:
    from .lab import EXPERIMENT_RUNNERS

    print("domains:    ", ", ".join(list_domains()))
    print("orderings:  ", ", ".join(sorted(ORDERINGS)))
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    print("lab:        ", ", ".join(sorted(EXPERIMENT_RUNNERS)))
    for axis, choices in engine_axes().items():
        label = axis.replace("_engine", " engines").replace("_", " ")
        if not label.endswith("s"):
            label += "s"
        print(f"{label + ':':<12}", ", ".join(choices))
    return 0


# ---------------------------------------------------------------------------
# lab subcommands
# ---------------------------------------------------------------------------
def _lab_paths(args) -> tuple[Path, Path, Path]:
    """(db, artifact-cache dir, telemetry file) with per-db defaults."""
    db = Path(args.db)
    cache_dir = Path(getattr(args, "cache_dir", None) or f"{db}.artifacts")
    telemetry = Path(getattr(args, "telemetry", None) or f"{db}.telemetry.jsonl")
    return db, cache_dir, telemetry


def _lab_token(args) -> str | None:
    """--token, falling back to the $REPRO_LAB_TOKEN environment."""
    return getattr(args, "token", None) or os.environ.get("REPRO_LAB_TOKEN")


def _server_store(url: str, token: str | None):
    """An :class:`HttpJobStore` for a validated, reachable ``--server``.

    A malformed URL or an unreachable/incompatible server exits 2 with
    the usual one-line message (via the ``main`` handlers).
    """
    from urllib.parse import urlparse

    from .lab import open_backend

    parsed = urlparse(url)
    if parsed.scheme not in ("http", "https") or not parsed.netloc:
        raise UnknownNameError(
            "server URL", url, ["http://<host>:<port>", "https://<host>:<port>"]
        )
    store = open_backend(url, token=token)
    store.ping()
    return store


def _lab_store(args):
    """The store a lab subcommand addresses: ``--server`` or ``--db``."""
    from .lab import JobStore

    server = getattr(args, "server", None)
    if server:
        return _server_store(server, _lab_token(args))
    return JobStore(Path(args.db))


def _cmd_lab(args) -> int:
    from .lab import (
        ExperimentGrid,
        JobStore,
        LabServer,
        format_summary,
        run_pool,
        summarize,
        watch_status,
    )

    if args.lab_command == "work":
        # No --db: everything goes through the server; artifacts and
        # telemetry stay host-local.
        _server_store(args.server, _lab_token(args)).close()  # fail fast
        counts = run_pool(
            args.server,
            Path(args.cache_dir),
            Path(args.telemetry),
            workers=args.workers,
            job_timeout_s=args.timeout,
            retry_base_s=args.retry_base,
            max_jobs=args.max_jobs,
            obs_spans=args.obs,
            token=_lab_token(args),
        )
        print(
            f"done {counts['done']}, failed {counts['failed']}, "
            f"pending {counts['pending']}, running {counts['running']}"
        )
        print(format_summary(summarize(Path(args.telemetry))))
        return 0 if counts["failed"] == 0 and counts["pending"] == 0 else 1

    if args.lab_command == "chaos":
        import tempfile

        from .lab import run_chaos

        grid = ExperimentGrid(
            experiments=args.experiments,
            domains=args.domains,
            orderings=args.orderings,
            vertices=args.vertices,
            max_iterations=args.max_iterations,
        ).validate()
        workdir = args.workdir or tempfile.mkdtemp(prefix="repro-lab-chaos-")
        report = run_chaos(
            grid,
            seed=args.seed,
            workdir=workdir,
            workers=args.workers,
            kill_after=args.kill_after,
            lease_s=args.lease,
            max_attempts=args.max_attempts,
            report_path=args.report,
        )
        counts = ", ".join(
            f"{kind} x{n}" for kind, n in sorted(report["fault_counts"].items())
        )
        print(
            f"chaos seed {report['seed']}: {report['jobs']} jobs, "
            f"{report['worker_incarnations']} worker incarnation(s), "
            f"faults: {counts or 'none'}"
        )
        for name, ok in report["checks"].items():
            print(f"  {'ok  ' if ok else 'FAIL'} {name}")
        for violation in report["violations"]:
            print(f"  !! {violation}")
        print(f"fault log + exports in {report['workdir']}")
        return 0 if report["ok"] else 1

    db, cache_dir, telemetry = _lab_paths(args)

    if args.lab_command == "init":
        grid = ExperimentGrid(
            experiments=args.experiments,
            domains=args.domains,
            orderings=args.orderings,
            vertices=args.vertices,
            seeds=args.seeds,
            cache_scales=args.cache_scales,
            quality_structure=args.quality_structure,
            max_iterations=args.max_iterations,
            # One plural axis per engine_axes() entry (--mem-engines,
            # --trace-modes).
            **{
                axis + "s": getattr(args, axis + "s")
                for axis in engine_axes()
            },
            stream_windows=tuple(args.stream_windows) or (None,),
        ).validate()
        store = _lab_store(args)
        where = args.server if args.server else db
        latest = store.latest_run_id()
        stored = store.run_grid(latest) if latest is not None else None
        if (
            not args.force_new
            and stored is not None
            and ExperimentGrid.from_dict(stored) == grid
        ):
            counts = store.counts(latest)
            print(
                f"run {latest} already holds this grid "
                f"({sum(counts.values())} jobs: {counts['pending']} pending, "
                f"{counts['done']} done); use --force-new for a fresh run"
            )
            return 0
        specs = grid.expand()
        run_id, inserted = store.create_run(
            grid.as_dict(),
            [(s.key(), s.as_dict()) for s in specs],
            max_attempts=args.max_attempts,
        )
        print(f"run {run_id}: {inserted} jobs queued in {where}")
        return 0

    if args.lab_command == "run":
        counts = run_pool(
            db,
            cache_dir,
            telemetry,
            workers=args.workers,
            job_timeout_s=args.timeout,
            retry_base_s=args.retry_base,
            max_jobs=args.max_jobs,
            obs_spans=args.obs,
            lease_s=args.lease,
        )
        print(
            f"done {counts['done']}, failed {counts['failed']}, "
            f"pending {counts['pending']}, running {counts['running']}"
        )
        print(format_summary(summarize(telemetry)))
        return 0 if counts["failed"] == 0 and counts["pending"] == 0 else 1

    if args.lab_command == "serve":
        server = LabServer(
            db,
            host=args.host,
            port=args.port,
            token=_lab_token(args),
            lease_s=args.lease,
        )
        auth = "token required" if server.token else "no auth"
        print(f"serving {db} on {server.url} ({auth}, "
              f"lease {server.store.lease_s:.0f}s); Ctrl-C to stop")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
        return 0

    if args.lab_command == "status":
        store = _lab_store(args)
        scope = f"run {args.run}" if args.run is not None else "all runs"
        where = args.server if args.server else db
        if args.watch:
            print(f"{where} ({scope}): watching")
            watch_status(
                lambda: store.counts(args.run),
                interval_s=args.interval,
                max_refreshes=args.refreshes,
            )
            return 0
        counts = store.counts(args.run)
        total = sum(counts.values())
        print(f"{where} ({scope}): {total} jobs")
        for status, n in counts.items():
            print(f"  {status:8s} {n}")
        if not args.server and telemetry.exists():
            print(format_summary(summarize(telemetry)))
        return 0

    if args.lab_command == "reset":
        store = JobStore(db)
        statuses = ("failed", "running") if args.running else ("failed",)
        n = store.reset(statuses=statuses, run_id=args.run)
        print(f"re-queued {n} job(s) from {', '.join(statuses)}")
        return 0

    if args.lab_command == "export":
        store = _lab_store(args)
        rows = store.results(args.run)
        if args.drop_timing:
            # wall_s and attempt are run history, not results: dropping
            # them makes exports byte-identical across reruns, retries
            # and local-vs-distributed execution of the same grid.  The
            # chaos harness leans on the same filter for its reference
            # comparison, so they must stay one implementation.
            from .lab import drop_timing_rows

            rows = drop_timing_rows(rows)
        if args.with_spans:
            from .lab.telemetry import read_events

            spans_by_job: dict[int, dict] = {}
            if telemetry.exists():
                for event in read_events(telemetry):
                    if event.get("event") == "job_spans":
                        spans_by_job[event["job_id"]] = {
                            "spans": event.get("spans"),
                            "metrics": event.get("metrics"),
                        }
            for row in rows:
                row.update(spans_by_job.get(row["job_id"], {}))
        out = Path(args.output)
        fmt = args.format or ("csv" if out.suffix == ".csv" else "json")
        if fmt == "csv":
            save_csv(out, rows)
        else:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(rows, indent=2, default=str))
        print(f"wrote {len(rows)} result row(s) to {out}")
        return 0

    raise AssertionError("unreachable")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "smooth": _cmd_smooth,
        "reorder": _cmd_reorder,
        "analyze": _cmd_analyze,
        "parallel": _cmd_parallel,
        "experiment": _cmd_experiment,
        "lab": _cmd_lab,
        "list": lambda _args: _cmd_list(),
    }
    try:
        return handlers[args.command](args)
    except UnknownNameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MeshValidationError as exc:
        # Bad mesh files: one line, whatever the number of issues.
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    except StoreConnectionError as exc:
        # Bad or unreachable --server targets: same one-line convention.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # Registry lookups (domains/orderings/experiments) raise KeyError
        # with a message listing the valid choices.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into e.g. `head`; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
