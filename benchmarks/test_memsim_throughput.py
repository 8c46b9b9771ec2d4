"""Batched cache-simulation throughput vs the per-event reference.

Acceptance benchmark for the batched memsim engine: on a 1M-event
single-core LRU stream against the full-size Westmere-EX hierarchy,
``simulate_trace`` must beat the per-event ``CacheHierarchy`` replay by
>=10x while reproducing its per-level access/hit counts exactly (exactness is
asserted on every row; the differential/property suite in
``tests/memsim/test_batched.py`` pins it independently).

The row set spans the regimes the engine sees in practice:

* ``shuffled-cold`` — 1M distinct lines in random order: the gate row.
  All-cold streams take the engine's O(1) per-eviction fast path.
* ``sequential-cold`` — the same footprint as a pure stride; same fast
  path, cheaper reference (list ops stay O(1) at the MRU end).
* ``sparse-cold`` — 1M draws from an 8M-line space (mostly cold).
* ``uniform-warm`` — 1M draws from 500k lines: real reuse, the full
  three-filter solve plus eviction-divergence analysis.
* ``mesh`` — an actual smoothing trace (randomized ordering), the
  distribution the pipelines feed the simulator.

One more row times the reuse-distance kernel rather than the simulator:

* ``reuse-kernel`` — exact per-event reuse distances of one storage-order
  sweep over a 30k-vertex crake mesh: ``reuse_distances`` (the
  dominance-counting kernel) against the Bennett-Kruskal Fenwick loop
  kept as a test oracle (``tests/memsim/oracles.py``), with identical
  distances asserted. In this row ``reference_s`` is the Fenwick loop
  and ``batched_s`` the kernel.

Scaled-*down* machines (calibrated caches a few hundred lines wide)
shift work into the exact replay of divergence windows and can run
*slower* than the reference; the pipelines default to the reference
engine, and the batched engine targets full-scale sweeps (see
DESIGN.md §10). Those regimes are therefore not gated here.
"""

import sys
import time
from pathlib import Path

import numpy as np
from conftest import run_once

from repro.bench import format_table, save_json
from repro import RunConfig
from repro.core.pipeline import run_ordering
from repro.memsim import CacheHierarchy, reuse_distances, simulate_trace, westmere_ex
from repro.meshgen import (
    generate_domain_mesh,
    perturb_interior,
    structured_rectangle,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.memsim.oracles import fenwick_reuse_distances  # noqa: E402


def _time_both(name: str, lines: np.ndarray) -> dict:
    machine = westmere_ex()
    lines = np.asarray(lines, dtype=np.int64)
    t0 = time.perf_counter()
    ref = CacheHierarchy(machine).run(lines)
    ref_s = time.perf_counter() - t0
    batched_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        got = simulate_trace(lines, machine)
        batched_s = min(batched_s, time.perf_counter() - t0)
    for a, b in zip(ref.levels(), got.levels()):
        assert (a.accesses, a.hits) == (b.accesses, b.hits), a.name
    return {
        "stream": name,
        "events": int(lines.size),
        "distinct_lines": int(np.unique(lines).size),
        "reference_s": ref_s,
        "batched_s": batched_s,
        "speedup": ref_s / batched_s,
    }


def _mesh_lines() -> np.ndarray:
    mesh = perturb_interior(
        structured_rectangle(96, 96, name="throughput-mesh"),
        amplitude=0.2 / 96,
        seed=0,
    )
    run = run_ordering(
        mesh,
        "random",
        config=RunConfig(seed=1),
        fixed_iterations=4,
        traversal="storage",
    )
    return run.lines


def _time_reuse(name: str, lines: np.ndarray) -> dict:
    t0 = time.perf_counter()
    ref = fenwick_reuse_distances(lines)
    ref_s = time.perf_counter() - t0
    kernel_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        got = reuse_distances(lines)
        kernel_s = min(kernel_s, time.perf_counter() - t0)
    assert np.array_equal(ref, got)
    return {
        "stream": name,
        "events": int(lines.size),
        "distinct_lines": int(np.unique(lines).size),
        "reference_s": ref_s,
        "batched_s": kernel_s,
        "speedup": ref_s / kernel_s,
    }


def _crake_sweep_lines() -> np.ndarray:
    mesh = generate_domain_mesh("crake", target_vertices=30000, seed=1)
    run = run_ordering(mesh, "ori", fixed_iterations=1)
    return run.lines


def _throughput_rows() -> list[dict]:
    rng = np.random.default_rng(42)
    return [
        _time_both("shuffled-cold", rng.permutation(1_000_000)),
        _time_both("sequential-cold", np.arange(1_000_000)),
        _time_both("sparse-cold", rng.integers(0, 8_000_000, size=1_000_000)),
        _time_both("uniform-warm", rng.integers(0, 500_000, size=1_000_000)),
        _time_both("mesh", _mesh_lines()),
        _time_reuse("reuse-kernel", _crake_sweep_lines()),
    ]


def test_memsim_throughput(benchmark):
    rows = run_once(benchmark, _throughput_rows)
    print()
    print(
        format_table(
            rows, title="Batched vs reference cache simulation (Westmere-EX)"
        )
    )
    save_json("memsim_throughput", rows)
    by_name = {row["stream"]: row for row in rows}
    # The acceptance bar: >=10x on the 1M-event single-core LRU stream.
    assert by_name["shuffled-cold"]["speedup"] >= 10.0
    # Secondary regimes are gated loosely — they guard against the
    # batched path regressing to reference-like throughput, not for a
    # specific ratio (CI machines vary).
    assert by_name["sequential-cold"]["speedup"] >= 3.0
    assert by_name["sparse-cold"]["speedup"] >= 2.0
    assert by_name["uniform-warm"]["speedup"] >= 1.5
    assert by_name["mesh"]["speedup"] >= 0.8
    # The reuse-distance kernel against the Fenwick loop on a crake sweep.
    assert by_name["reuse-kernel"]["speedup"] >= 2.5
