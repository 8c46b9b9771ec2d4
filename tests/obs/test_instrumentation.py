"""End-to-end instrumentation: the span trees and live metrics the
pipeline, smoother and memory simulators emit while tracing is on.

The key acceptance property is that live metrics equal their post-hoc
counterparts: the reuse-distance histogram captured during
``run_ordering`` must match a histogram built from
:func:`repro.memsim.reuse_distances` after the fact, and the per-level
cache counters must match the returned ``HierarchyStats``.
"""

import numpy as np
import pytest

from repro import (
    RunConfig,
    obs,
    reuse_distances,
    run_ordering,
    run_parallel_ordering,
)
from repro.meshgen import generate_domain_mesh
from repro.memsim import MemoryLayout, simulate_multicore, westmere_ex
from repro.memsim.reuse import COLD
from repro.obs.metrics import Histogram
from repro.parallel import parallel_traces


def span_names(span_dicts):
    """All span names in the forest, depth-first."""
    names = []

    def walk(node):
        names.append(node["name"])
        for child in node.get("children", ()):
            walk(child)

    for root in span_dicts:
        walk(root)
    return names


def find_span(span_dicts, name):
    def walk(node):
        if node["name"] == name:
            return node
        for child in node.get("children", ()):
            hit = walk(child)
            if hit is not None:
                return hit
        return None

    for root in span_dicts:
        hit = walk(root)
        if hit is not None:
            return hit
    raise AssertionError(f"no span named {name!r}")


class TestPipelineSpans:
    @pytest.fixture(scope="class")
    def traced(self, ocean_mesh):
        with obs.capture() as tracer:
            run = run_ordering(ocean_mesh, "rdr", fixed_iterations=2)
        return run, tracer

    def test_span_tree_covers_every_pipeline_phase(self, traced):
        _, tracer = traced
        names = span_names(tracer.export())
        for expected in (
            "pipeline.run_ordering",
            "pipeline.reorder",
            "pipeline.smooth",
            "smooth.run",
            "smooth.iteration",
            "pipeline.layout",
            "pipeline.simulate",
            "memsim.simulate_trace",
        ):
            assert expected in names

    def test_phases_nest_under_the_run_span(self, traced):
        _, tracer = traced
        (root,) = tracer.export()
        assert root["name"] == "pipeline.run_ordering"
        assert root["attrs"]["ordering"] == "rdr"
        child_names = [c["name"] for c in root["children"]]
        assert child_names == [
            "pipeline.reorder",
            "pipeline.smooth",
            "pipeline.layout",
            "pipeline.simulate",
        ]

    def test_one_iteration_span_per_smoothing_pass(self, traced):
        run, tracer = traced
        names = span_names(tracer.export())
        assert names.count("smooth.iteration") == run.smoothing.iterations == 2

    def test_cache_counters_match_the_returned_stats(self, traced):
        run, tracer = traced
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["memsim.l1.accesses"] == run.cache.l1.accesses
        assert counters["memsim.l1.misses"] == run.cache.l1.misses
        assert counters["memsim.l2.hits"] == run.cache.l2.hits
        assert counters["memsim.l3.misses"] == run.cache.l3.misses
        assert counters["memsim.memory.accesses"] == run.cache.memory_accesses

    def test_live_reuse_histogram_matches_post_hoc_distances(self, traced):
        run, tracer = traced
        snapshot = tracer.metrics.snapshot()
        live = snapshot["histograms"]["memsim.reuse_distance"]
        distances = reuse_distances(run.lines)
        reference = Histogram("ref")
        reference.observe(distances[distances >= 0])
        assert live["counts"] == reference.counts.tolist()
        assert live["total"] == reference.total
        cold = int(np.count_nonzero(distances == COLD))
        assert snapshot["counters"]["memsim.reuse.cold"] == cold

    def test_vertices_smoothed_counter(self, traced):
        run, tracer = traced
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["smoothing.vertices_smoothed"] > 0


class TestEngineSpecificMetrics:
    def test_vectorized_engine_captures_wavefront_widths(self, ocean_mesh):
        with obs.capture() as tracer:
            run_ordering(ocean_mesh, "rdr", fixed_iterations=1)
        hist = tracer.metrics.snapshot()["histograms"][
            "smoothing.wavefront_width"
        ]
        assert hist["total"] > 0
        assert sum(hist["counts"]) == hist["total"]

    def test_meshgen_span_counts_vertices(self):
        with obs.capture() as tracer:
            mesh = generate_domain_mesh("ocean", target_vertices=250)
        sp = find_span(tracer.export(), "meshgen.generate")
        assert sp["attrs"]["domain"] == "ocean"
        assert sp["events"] == mesh.num_vertices


def _streams(mesh, machine, num_cores, iterations=2):
    traces = parallel_traces(
        mesh, num_cores, iterations=iterations, traversal="storage"
    )
    layout = MemoryLayout.for_mesh(mesh, line_size=machine.line_size)
    return [layout.lines(t) for t in traces]


class TestMulticoreSpans:
    def test_sequential_replay_spans_and_counters(self, ocean_mesh):
        machine = westmere_ex()
        streams = _streams(ocean_mesh, machine, 2)
        with obs.capture() as tracer:
            result = simulate_multicore(streams, machine, affinity="scatter")
        names = span_names(tracer.export())
        assert "memsim.multicore" in names
        assert names.count("memsim.socket") == 2
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["memsim.l1.accesses"] == sum(
            cr.stats.l1.accesses for cr in result.per_core
        )

    def test_sharded_replay_merges_worker_spans_and_metrics(self, ocean_mesh):
        machine = westmere_ex()
        streams = _streams(ocean_mesh, machine, 2)
        with obs.capture() as tracer:
            simulate_multicore(
                streams,
                machine,
                config=RunConfig(mem_engine="sharded"),
                affinity="scatter",
            )
        sharded_counters = tracer.metrics.snapshot()["counters"]
        names = span_names(tracer.export())
        assert "memsim.sharded" in names
        # One adopted socket span per shard, shipped back from workers.
        assert names.count("memsim.socket") == 2

        with obs.capture() as sequential:
            simulate_multicore(streams, machine, affinity="scatter")
        assert sharded_counters == sequential.metrics.snapshot()["counters"]


class TestParallelPipeline:
    def test_parallel_run_span_tree_and_summary(self, ocean_mesh):
        with obs.capture() as tracer:
            run = run_parallel_ordering(ocean_mesh, "rdr", 2, iterations=2)
        names = span_names(tracer.export())
        for expected in (
            "pipeline.run_parallel_ordering",
            "pipeline.reorder",
            "pipeline.partition",
            "pipeline.layout",
            "memsim.multicore",
        ):
            assert expected in names
        row = run.summary()
        assert row["mem_engine"] == "sequential"
        assert row["num_vertices"] == ocean_mesh.num_vertices
