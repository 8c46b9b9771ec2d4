"""Experiment drivers — one per table/figure of the paper.

Every driver is a pure function of an explicit configuration, returns
plain rows (lists of dicts) ready for :func:`repro.bench.report.format_table`,
and caches shared heavy artifacts (meshes, serial runs, scaling sweeps)
in module-level dictionaries so the benchmark files can share one
computation across figures (Figures 8/9 and Tables 2/3 reuse the same
traced runs; Figures 10-13 reuse one scaling sweep).

Experiment canon (see DESIGN.md §"Per-experiment index"):

* serial cache/reuse studies use the FIRST smoothing iteration's trace —
  the population whose statistics the paper's Tables 2/3 and Figure 9
  are consistent with;
* the scaling studies use multi-iteration traces over statically
  partitioned cores with scatter affinity;
* "execution time" is the Equation-(2) model on the calibrated machine
  (wall-clock Python time cannot expose cache behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import RunConfig, engine_axes
from ..core.pipeline import OrderedRun, default_machine_for, run_ordering
from ..core.cost import measure_reordering_cost
from ..memsim import (
    MemoryLayout,
    bucketed_series,
    profile_from_distances,
    reuse_distances,
)
from ..memsim.reuse import COLD, max_elements_within
from ..meshgen import PAPER_SUITE, generate_domain_mesh
from ..mesh import TriMesh
from ..ordering import apply_ordering
from ..parallel import parallel_traces
from ..quality import DEFAULT_RANK_PASSES, patch_quality, vertex_quality
from ..memsim.multicore import simulate_multicore

__all__ = [
    "BenchConfig",
    "suite_meshes",
    "serial_run",
    "table1_rows",
    "fig1_profiles",
    "fig4_traces",
    "fig6_series",
    "fig8_rows",
    "fig9_rows",
    "eq2_example",
    "table2_rows",
    "table3_rows",
    "scaling_sweep",
    "fig10_rows",
    "fig11_rows",
    "fig12_rows",
    "fig13_rows",
    "sec54_rows",
    "clear_caches",
]

#: Default ordering set for serial studies ("oracle" is our alignment
#: upper bound, not in the paper).
SERIAL_ORDERINGS = ("random", "ori", "bfs", "rdr", "oracle")
PAPER_ORDERINGS = ("ori", "bfs", "rdr")


@dataclass(frozen=True)
class BenchConfig:
    """Shared experiment configuration.

    ``suite_scale`` sizes the nine meshes relative to the paper's
    vertex counts (0.004 -> ~1.2-1.6k vertices); ``scaling_scale`` is
    used for the multicore sweep, where per-core blocks must stay a few
    hundred vertices at 32 cores.
    """

    suite_scale: float = 0.004
    scaling_scale: float = 0.012
    seed: int = 0
    quality_structure: str = "ramp"
    rank_passes: int = DEFAULT_RANK_PASSES
    traversal: str = "greedy"
    cores: tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32)
    scaling_iterations: int = 3
    affinity: str = "scatter"
    #: Multicore replay engine: "sequential" or "sharded" (worker
    #: processes, one per occupied socket; identical counts).
    mem_engine: str = "sequential"
    #: Where the smoother's trace goes: "materialize" (in-memory
    #: trace), "spill" (chunked on-disk) or "fused" (streamed straight
    #: into the simulators; identical counts, bounded memory).
    trace_mode: str = "materialize"

    @classmethod
    def from_run_config(cls, config: RunConfig, **overrides) -> "BenchConfig":
        """A BenchConfig whose engine axes and seed come from ``config``
        (the CLI's ``--mem-engine``/``--trace-mode``/``--seed``);
        everything else keeps its default unless overridden."""
        return cls(
            **{axis: getattr(config, axis) for axis in engine_axes()},
            seed=config.seed,
            **overrides,
        )

    def to_run_config(self) -> RunConfig:
        """The :class:`repro.config.RunConfig` projection of this config
        (what the drivers pass to the pipeline/memsim APIs)."""
        return RunConfig(
            **{axis: getattr(self, axis) for axis in engine_axes()},
            seed=self.seed,
        )


DEFAULT_CONFIG = BenchConfig()

_MESHES: dict[tuple, dict[str, TriMesh]] = {}
_RUNS: dict[tuple, OrderedRun] = {}
_SCALING: dict[tuple, dict] = {}


def clear_caches() -> None:
    """Drop all cached meshes/runs (mostly for tests)."""
    _MESHES.clear()
    _RUNS.clear()
    _SCALING.clear()


def suite_meshes(
    cfg: BenchConfig = DEFAULT_CONFIG, *, scale: float | None = None
) -> dict[str, TriMesh]:
    """The nine paper meshes (M1..M9) at the configured scale, cached."""
    scale = cfg.suite_scale if scale is None else scale
    key = (scale, cfg.seed, cfg.quality_structure)
    if key not in _MESHES:
        meshes: dict[str, TriMesh] = {}
        for spec in PAPER_SUITE:
            target = max(200, int(round(spec.paper_vertices * scale)))
            meshes[spec.label] = generate_domain_mesh(
                spec.name,
                target_vertices=target,
                seed=cfg.seed,
                quality_structure=cfg.quality_structure,
            )
        _MESHES[key] = meshes
    return _MESHES[key]


def serial_run(
    label: str,
    ordering: str,
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    iterations: int = 1,
    traversal: str | None = None,
    rank_passes: int | None = None,
) -> OrderedRun:
    """One traced serial execution (cached across figures)."""
    traversal = cfg.traversal if traversal is None else traversal
    rank_passes = cfg.rank_passes if rank_passes is None else rank_passes
    key = (
        cfg.suite_scale,
        cfg.seed,
        cfg.quality_structure,
        label,
        ordering,
        iterations,
        traversal,
        rank_passes,
    )
    if key not in _RUNS:
        mesh = suite_meshes(cfg)[label]
        _RUNS[key] = run_ordering(
            mesh,
            ordering,
            config=cfg.to_run_config(),
            fixed_iterations=iterations,
            traversal=traversal,
            rank_passes_override=rank_passes,
        )
    return _RUNS[key]


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1_rows(cfg: BenchConfig = DEFAULT_CONFIG) -> list[dict]:
    """Mesh inventory: our sizes next to the paper's."""
    meshes = suite_meshes(cfg)
    rows = []
    for spec in PAPER_SUITE:
        mesh = meshes[spec.label]
        rows.append(
            {
                "label": spec.label,
                "mesh": spec.name,
                "vertices": mesh.num_vertices,
                "triangles": mesh.num_triangles,
                "paper_vertices": spec.paper_vertices,
                "paper_triangles": spec.paper_triangles,
                "interior": int(mesh.interior_vertices().size),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 1 — reuse-distance profiles for random / ORI / BFS on ocean
# ---------------------------------------------------------------------------
def fig1_profiles(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    orderings: tuple[str, ...] = ("random", "ori", "bfs"),
) -> dict:
    """Average reuse distance, L1 miss rate, time; plus bucketed series.

    Reports the mean and upper-quartile reuse distance (line
    granularity over the whole working set), the L1 miss rate, and the
    modeled time. The q75 is the sharp discriminator at benchmark scale:
    the short intra-neighborhood reuses (distance 0-3, identical under
    every ordering) dominate the mean, while the paper's element-level
    traces on 300k-vertex meshes let the tail dominate it.
    """
    out: dict = {"rows": [], "series": {}}
    for ordering in orderings:
        run = serial_run("M6", ordering, cfg)
        dists = run.distances
        warm = dists[dists != COLD]
        xs, ys = bucketed_series(dists, 100)
        out["series"][ordering] = (xs.tolist(), ys.tolist())
        prof = profile_from_distances(dists)
        out["rows"].append(
            {
                "ordering": ordering,
                "avg_reuse_distance": float(warm.mean()) if warm.size else 0.0,
                "q75_reuse_distance": prof.q75,
                "l1_miss_rate_%": 100.0 * run.cache.l1.miss_rate,
                "modeled_time_ms": run.modeled_seconds * 1e3,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Figure 4 — access-trace snippets under DFS vs BFS orderings
# ---------------------------------------------------------------------------
def fig4_traces(
    cfg: BenchConfig = DEFAULT_CONFIG, *, length: int = 24
) -> dict:
    """Node-visit trace snippets and per-smooth spans (DFS vs BFS).

    The paper's Figure 5 argues via the *span* of the data-array
    positions each smoothing step touches (its neighborhood's storage
    spread); the driver reports the first ``length`` coordinate
    locations (the Figure 4 snippet) plus the mean per-smooth span.
    """
    mesh = suite_meshes(cfg)["M6"]
    out: dict = {"snippets": {}, "mean_span": {}}
    for name in ("dfs", "bfs"):
        run = serial_run("M6", name, cfg)
        trace = run.trace.iteration(0)
        coords_mask = trace.array_ids == 0
        locs = trace.indices[coords_mask]
        out["snippets"][name] = locs[:length].tolist()
        # Per-smooth span: smoothing vertex v touches deg(v) neighbor
        # coordinates plus the write of v; group reads by the write
        # positions (is_write marks the end of each smooth).
        spans = []
        write_pos = np.flatnonzero(trace.is_write[coords_mask])
        start = 0
        for end in write_pos:
            seg = locs[start : end + 1]
            if seg.size:
                spans.append(int(seg.max() - seg.min()))
            start = end + 1
        out["mean_span"][name] = float(np.mean(spans)) if spans else 0.0
    return out


# ---------------------------------------------------------------------------
# Figure 6 — reuse-distance profile stability across iterations
# ---------------------------------------------------------------------------
def fig6_series(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    iterations: int = 8,
    buckets: int = 100,
) -> dict:
    """Per-iteration bucketed reuse-distance means for carabiner (ORI)."""
    run = serial_run("M1", "ori", cfg, iterations=iterations)
    series = []
    for k in range(run.trace.num_iterations):
        sub = run.trace.iteration(k)
        lines = run.layout.lines(sub)
        dists = reuse_distances(lines)
        xs, ys = bucketed_series(dists, buckets)
        series.append(ys.tolist())
    # Stability metric: correlation of each iteration's profile with the
    # first (the paper's Figure 6 claim is that the shapes repeat).
    first = np.asarray(series[0], dtype=float)
    corr = []
    for ys in series[1:]:
        arr = np.asarray(ys, dtype=float)
        ok = ~(np.isnan(first) | np.isnan(arr))
        corr.append(
            float(np.corrcoef(first[ok], arr[ok])[0, 1]) if ok.sum() > 2 else 0.0
        )
    return {"series": series, "correlation_with_first": corr}


# ---------------------------------------------------------------------------
# Figure 8 — serial modeled execution time per mesh/ordering
# ---------------------------------------------------------------------------
def fig8_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    orderings: tuple[str, ...] = PAPER_ORDERINGS,
) -> list[dict]:
    """Modeled serial time per mesh/ordering + RDR speedups (Figure 8)."""
    rows = []
    for spec in PAPER_SUITE:
        row: dict = {"mesh": spec.label}
        for ordering in orderings:
            run = serial_run(spec.label, ordering, cfg)
            row[f"{ordering}_ms"] = run.modeled_seconds * 1e3
        if "ori" in orderings and "rdr" in orderings:
            row["speedup_rdr_vs_ori"] = row["ori_ms"] / row["rdr_ms"]
        if "bfs" in orderings and "rdr" in orderings:
            row["speedup_rdr_vs_bfs"] = row["bfs_ms"] / row["rdr_ms"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — cache miss rates per level
# ---------------------------------------------------------------------------
def fig9_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    orderings: tuple[str, ...] = PAPER_ORDERINGS,
) -> list[dict]:
    """Per-level miss counts and rates per mesh/ordering (Figure 9)."""
    rows = []
    for spec in PAPER_SUITE:
        for ordering in orderings:
            run = serial_run(spec.label, ordering, cfg)
            st = run.cache
            rows.append(
                {
                    "mesh": spec.label,
                    "ordering": ordering,
                    "L1_miss_%": 100 * st.l1.miss_rate,
                    "L2_miss_%": 100 * st.l2.miss_rate,
                    "L3_miss_%": 100 * st.l3.miss_rate,
                    "L1_misses": st.l1.misses,
                    "L2_misses": st.l2.misses,
                    "L3_misses": st.l3.misses,
                }
            )
    return rows


def eq2_example(cfg: BenchConfig = DEFAULT_CONFIG) -> list[dict]:
    """The paper's worked Equation-(2) example (carabiner, extra cycles)."""
    rows = []
    for ordering in PAPER_ORDERINGS:
        run = serial_run("M1", ordering, cfg)
        rows.append(
            {
                "ordering": ordering,
                "extra_kilocycles": run.cost.extra_cycles / 1e3,
                "base_kilocycles": run.cost.base_cycles / 1e3,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 2 — reuse-distance quantiles
# ---------------------------------------------------------------------------
def table2_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    orderings: tuple[str, ...] = PAPER_ORDERINGS,
) -> list[dict]:
    """Reuse-distance quantiles per mesh/ordering (Table 2)."""
    rows = []
    for spec in PAPER_SUITE:
        for ordering in orderings:
            run = serial_run(spec.label, ordering, cfg)
            prof = run.reuse_profile(iteration=0)
            rows.append(
                {
                    "mesh": spec.label,
                    "ordering": ordering,
                    "50%": prof.q50,
                    "75%": prof.q75,
                    "90%": prof.q90,
                    "100%": prof.q100,
                    "accesses": prof.num_accesses,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 3 — estimated capacity misses + max elements fitting each cache
# ---------------------------------------------------------------------------
def table3_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    orderings: tuple[str, ...] = PAPER_ORDERINGS,
) -> list[dict]:
    """Capacity misses + implied cache windows per mesh/ordering (Table 3)."""
    rows = []
    for spec in PAPER_SUITE:
        for ordering in orderings:
            run = serial_run(spec.label, ordering, cfg)
            st = run.cache
            dists = run.distances
            cold = int(np.count_nonzero(dists == COLD))
            # The paper subtracts compulsory misses ("due to the first
            # fetching of a given element") before estimating capacities.
            cap = {
                "L1": max(0, st.l1.misses - cold),
                "L2": max(0, st.l2.misses - cold),
                "L3": max(0, st.l3.misses - cold),
            }
            rows.append(
                {
                    "mesh": spec.label,
                    "ordering": ordering,
                    "L1_cap_misses": cap["L1"],
                    "L2_cap_misses": cap["L2"],
                    "L3_cap_misses": cap["L3"],
                    "est_lines_L1": max_elements_within(dists, cap["L1"]),
                    "est_lines_L2": max_elements_within(dists, cap["L2"]),
                    "est_lines_L3": max_elements_within(dists, cap["L3"]),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 10-13 — scaling sweep (shared)
# ---------------------------------------------------------------------------
def scaling_sweep(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    labels: tuple[str, ...] | None = None,
    orderings: tuple[str, ...] = PAPER_ORDERINGS,
) -> dict:
    """Modeled parallel times for every (mesh, ordering, cores) cell.

    Returns ``{"times": {(label, ordering, p): seconds},
    "accesses": {(label, ordering, p): {"L2": .., "L3": .., "memory": ..}}}``.
    """
    labels = labels or tuple(spec.label for spec in PAPER_SUITE)
    key = (
        cfg.scaling_scale,
        cfg.seed,
        cfg.quality_structure,
        labels,
        orderings,
        cfg.cores,
        cfg.scaling_iterations,
        cfg.affinity,
        cfg.rank_passes,
        cfg.traversal,
        cfg.mem_engine,
    )
    if key in _SCALING:
        return _SCALING[key]
    meshes = suite_meshes(cfg, scale=cfg.scaling_scale)
    times: dict = {}
    counts: dict = {}
    for label in labels:
        mesh = meshes[label]
        machine = default_machine_for(mesh, profile="scaling")
        raw_q = vertex_quality(mesh)
        rank_q = patch_quality(mesh, passes=cfg.rank_passes, base=raw_q)
        for ordering in orderings:
            permuted, order = apply_ordering(mesh, ordering, qualities=rank_q)
            perm_q = rank_q[order]
            layout = MemoryLayout.for_mesh(permuted, line_size=machine.line_size)
            for p in cfg.cores:
                traces = parallel_traces(
                    permuted,
                    p,
                    iterations=cfg.scaling_iterations,
                    traversal=cfg.traversal,
                    qualities=perm_q,
                )
                lines = [layout.lines(t) for t in traces]
                result = simulate_multicore(
                    lines,
                    machine,
                    config=cfg.to_run_config(),
                    affinity=cfg.affinity,
                )
                times[(label, ordering, p)] = result.modeled_seconds
                counts[(label, ordering, p)] = result.access_counts()
    out = {"times": times, "accesses": counts}
    _SCALING[key] = out
    return out


def fig10_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    labels: tuple[str, ...] | None = None,
    orderings: tuple[str, ...] = PAPER_ORDERINGS,
) -> list[dict]:
    """Per-mesh speedups vs the serial ORI baseline, per core count."""
    sweep = scaling_sweep(cfg, labels=labels, orderings=orderings)
    times = sweep["times"]
    labels = labels or tuple(spec.label for spec in PAPER_SUITE)
    rows = []
    for label in labels:
        t_base = times[(label, "ori", 1)]
        for p in cfg.cores:
            row = {"mesh": label, "cores": p}
            for ordering in orderings:
                row[ordering] = t_base / times[(label, ordering, p)]
            rows.append(row)
    return rows


def fig11_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    labels: tuple[str, ...] = ("M1", "M2", "M3"),
) -> list[dict]:
    """L2/L3/memory access counts vs cores for the ORI ordering."""
    sweep = scaling_sweep(cfg, orderings=PAPER_ORDERINGS)
    counts = sweep["accesses"]
    rows = []
    for label in labels:
        for p in cfg.cores:
            c = counts[(label, "ori", p)]
            rows.append(
                {
                    "mesh": label,
                    "cores": p,
                    "L2_accesses": c["L2"],
                    "L3_accesses": c["L3"],
                    "memory_accesses": c["memory"],
                }
            )
    return rows


def fig12_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    orderings: tuple[str, ...] = PAPER_ORDERINGS,
) -> list[dict]:
    """Mean (over the nine meshes) speedup vs the serial ORI baseline."""
    sweep = scaling_sweep(cfg, orderings=orderings)
    times = sweep["times"]
    labels = tuple(spec.label for spec in PAPER_SUITE)
    rows = []
    for p in cfg.cores:
        row = {"cores": p}
        for ordering in orderings:
            speedups = [
                times[(label, "ori", 1)] / times[(label, ordering, p)]
                for label in labels
            ]
            row[ordering] = float(np.mean(speedups))
        rows.append(row)
    return rows


def fig13_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
) -> list[dict]:
    """Gain of RDR over ORI/BFS at each core count (percent of their time)."""
    sweep = scaling_sweep(cfg, orderings=PAPER_ORDERINGS)
    times = sweep["times"]
    labels = tuple(spec.label for spec in PAPER_SUITE)
    rows = []
    for p in cfg.cores:
        for other in ("ori", "bfs"):
            gains = [
                100.0
                * (times[(label, other, p)] - times[(label, "rdr", p)])
                / times[(label, other, p)]
                for label in labels
            ]
            rows.append(
                {
                    "cores": p,
                    "vs": other,
                    "mean_gain_%": float(np.mean(gains)),
                    "min_gain_%": float(np.min(gains)),
                    "max_gain_%": float(np.max(gains)),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Section 5.4 — reordering cost
# ---------------------------------------------------------------------------
def sec54_rows(
    cfg: BenchConfig = DEFAULT_CONFIG,
    *,
    orderings: tuple[str, ...] = ("bfs", "rdr"),
    labels: tuple[str, ...] = ("M1", "M6"),
) -> list[dict]:
    """Measured reordering cost vs one smoothing iteration (Section 5.4)."""
    meshes = suite_meshes(cfg)
    rows = []
    for label in labels:
        for ordering in orderings:
            cost = measure_reordering_cost(meshes[label], ordering)
            rows.append(
                {
                    "mesh": label,
                    "ordering": ordering,
                    "reorder_ms": cost.ordering_seconds * 1e3,
                    "iteration_ms": cost.iteration_seconds * 1e3,
                    "iterations_equivalent": cost.iterations_equivalent,
                }
            )
    return rows
