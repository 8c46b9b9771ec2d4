"""Engine speedup: vectorized smoothing and sharded memsim replay.

Acceptance benchmark for the smoother: on a 50k-vertex unit-square
mesh, ``laplacian_smooth`` (NumPy wavefront batches) must run the same
Gauss-Seidel storage sweep at least 5x faster than the scalar
per-vertex oracle of ``tests/smoothing/oracles.py`` (and the
coordinates must agree to ``rtol=1e-12``). With trace recording on —
the configuration the full pipeline actually runs — the gap widens to
tens of x, because the scalar loop appends ``4 + 2*deg`` trace events
per vertex in interpreted Python while the smoother builds each
iteration's event block with a handful of array ops.

The second half times the sharded multicore replay against the
sequential engine on the same traced workload and checks the results
are identical (the differential suite pins exactness; here we record
the wall-clock ratio alongside).
"""

import sys
import time
from pathlib import Path

import numpy as np
from conftest import run_once

from repro import RunConfig
from repro.bench import format_table, save_json
from repro.core.pipeline import default_machine_for
from repro.memsim import MemoryLayout, simulate_multicore
from repro.meshgen import perturb_interior, structured_rectangle
from repro.parallel import parallel_traces
from repro.smoothing import laplacian_smooth

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.smoothing.oracles import scalar_smooth  # noqa: E402

ITERATIONS = 10


def _bench_mesh():
    mesh = structured_rectangle(224, 224, name="unit-square-50k")
    return perturb_interior(mesh, amplitude=0.2 / 224, seed=0)


def _time_engines(record_trace: bool) -> dict:
    mesh = _bench_mesh()
    times, results = {}, {}
    for engine, smooth in (
        ("reference", scalar_smooth), ("vectorized", laplacian_smooth)
    ):
        t0 = time.perf_counter()
        results[engine] = smooth(
            mesh,
            traversal="storage",
            max_iterations=ITERATIONS,
            tol=-np.inf,
            record_trace=record_trace,
        )
        times[engine] = time.perf_counter() - t0
    assert np.allclose(
        results["reference"].mesh.vertices,
        results["vectorized"].mesh.vertices,
        rtol=1e-12,
        atol=0.0,
    )
    if record_trace:
        ref, vec = results["reference"].trace, results["vectorized"].trace
        assert np.array_equal(ref.array_ids, vec.array_ids)
        assert np.array_equal(ref.indices, vec.indices)
        assert np.array_equal(ref.is_write, vec.is_write)
    return {
        "mesh": mesh.name,
        "num_vertices": mesh.num_vertices,
        "iterations": ITERATIONS,
        "record_trace": record_trace,
        "reference_s": times["reference"],
        "vectorized_s": times["vectorized"],
        "speedup": times["reference"] / times["vectorized"],
    }


def _smoothing_rows() -> list[dict]:
    return [_time_engines(False), _time_engines(True)]


def test_vectorized_engine_speedup(benchmark):
    rows = run_once(benchmark, _smoothing_rows)
    print()
    print(
        format_table(
            rows, title="Vectorized engine vs reference (50k unit square)"
        )
    )
    save_json("engine_speedup", rows)
    # The acceptance bar: >=5x on the plain (untraced) sweep; the traced
    # configuration is gated loosely since it is far past the bar.
    assert rows[0]["speedup"] >= 5.0
    assert rows[1]["speedup"] >= 10.0


def _sharded_rows() -> list[dict]:
    mesh = _bench_mesh()
    machine = default_machine_for(mesh, profile="scaling")
    traces = parallel_traces(
        mesh, machine.num_cores, iterations=2, traversal="storage"
    )
    layout = MemoryLayout.for_mesh(mesh, line_size=machine.line_size)
    lines_per_core = [layout.lines(t) for t in traces]
    timings, outputs = {}, {}
    for engine in ("sequential", "sharded"):
        t0 = time.perf_counter()
        outputs[engine] = simulate_multicore(
            lines_per_core, machine, config=RunConfig(mem_engine=engine)
        )
        timings[engine] = time.perf_counter() - t0
    for a, b in zip(
        outputs["sequential"].per_core, outputs["sharded"].per_core
    ):
        assert a == b
    return [
        {
            "mesh": mesh.name,
            "num_cores": machine.num_cores,
            "num_sockets": machine.num_sockets,
            "line_accesses": int(sum(s.size for s in lines_per_core)),
            "sequential_s": timings["sequential"],
            "sharded_s": timings["sharded"],
            "speedup": timings["sequential"] / timings["sharded"],
        }
    ]


def test_sharded_memsim_speedup(benchmark):
    rows = run_once(benchmark, _sharded_rows)
    print()
    print(format_table(rows, title="Sharded vs sequential memsim replay"))
    save_json("engine_speedup_memsim", rows)
    # Exactness is asserted inside the driver; the wall-clock ratio
    # depends on core count and trace size, so only sanity-gate it.
    assert rows[0]["speedup"] > 0.5
