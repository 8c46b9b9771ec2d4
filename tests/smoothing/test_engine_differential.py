"""Differential suite: the wavefront smoother against the scalar loop.

The smoother (NumPy wavefront batches, batch trace emission) and the
scalar per-vertex oracle (``tests/smoothing/oracles.py``) must be
observationally equivalent — same traversals, byte-identical access
traces, same culling activity, and the same coordinates. Coordinates
are compared at ``rtol=1e-12``: the wavefront kernel's segment sum
(``np.add.reduceat``, strict left-to-right) and the scalar loop's
``ndarray.mean`` (pairwise above NumPy's 8-wide block) may differ in
the last ulp for vertices of degree >= 8. Jacobi runs are bitwise
identical because both share ``smooth_iteration_jacobi``.

Runs use ``tol=-inf`` with a fixed iteration count where a last-ulp
quality difference could otherwise flip a convergence decision, plus
full convergence-driven runs on the session meshes to exercise the real
stopping rule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.meshgen import perturb_interior, structured_rectangle
from repro.smoothing import LaplacianSmoother, laplacian_smooth

from .oracles import scalar_smooth

FAST = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_both(mesh, **kwargs):
    return scalar_smooth(mesh, **kwargs), laplacian_smooth(mesh, **kwargs)


def assert_equivalent(ref, vec, *, bitwise=False):
    assert ref.iterations == vec.iterations
    assert ref.converged == vec.converged
    assert ref.active_counts == vec.active_counts
    for a, b in zip(ref.traversals, vec.traversals):
        assert np.array_equal(a, b)
    if bitwise:
        assert np.array_equal(ref.mesh.vertices, vec.mesh.vertices)
    else:
        assert np.allclose(
            ref.mesh.vertices, vec.mesh.vertices, rtol=1e-12, atol=0.0
        )
    if ref.trace is not None or vec.trace is not None:
        assert np.array_equal(ref.trace.array_ids, vec.trace.array_ids)
        assert np.array_equal(ref.trace.indices, vec.trace.indices)
        assert np.array_equal(ref.trace.is_write, vec.trace.is_write)
        assert np.array_equal(
            ref.trace.iteration_starts, vec.trace.iteration_starts
        )


@pytest.mark.parametrize("traversal", ["storage", "greedy"])
@pytest.mark.parametrize(
    "mesh_fixture", ["grid_mesh", "bumpy_mesh", "ocean_mesh"]
)
def test_engines_match_to_convergence(mesh_fixture, traversal, request):
    mesh = request.getfixturevalue(mesh_fixture)
    ref, vec = _run_both(
        mesh, traversal=traversal, max_iterations=30, record_trace=True
    )
    assert_equivalent(ref, vec)
    assert ref.converged


@pytest.mark.parametrize("greedy_qualities", ["current", "initial"])
def test_engines_match_greedy_variants(bumpy_mesh, greedy_qualities):
    ref, vec = _run_both(
        bumpy_mesh,
        traversal="greedy",
        greedy_qualities=greedy_qualities,
        max_iterations=6,
        tol=-np.inf,
        record_trace=True,
    )
    assert_equivalent(ref, vec)
    assert ref.iterations == 6


def test_engines_match_with_culling(bumpy_mesh):
    ref, vec = _run_both(
        bumpy_mesh,
        traversal="storage",
        culling=True,
        max_iterations=25,
        record_trace=True,
    )
    assert_equivalent(ref, vec)
    # Culling actually engaged: the active set shrank along the way.
    assert ref.active_counts[-1] < ref.active_counts[0]


def test_engines_match_jacobi_bitwise(ocean_mesh):
    ref, vec = _run_both(
        ocean_mesh,
        update="jacobi",
        max_iterations=8,
        tol=-np.inf,
        record_trace=True,
    )
    assert_equivalent(ref, vec, bitwise=True)


@FAST
@given(
    nx=st.integers(min_value=3, max_value=12),
    ny=st.integers(min_value=3, max_value=12),
    # Strictly positive amplitude keeps the quality field generic: on an
    # exactly symmetric mesh the greedy ranking has tied keys, and a
    # legitimate last-ulp coordinate difference from the scalar loop can
    # flip the order of a tie (not a smoother bug).
    amplitude=st.floats(min_value=0.01, max_value=0.08),
    seed=st.integers(min_value=0, max_value=2**16),
    traversal=st.sampled_from(["storage", "greedy"]),
    iterations=st.integers(min_value=1, max_value=5),
)
def test_engines_match_on_random_meshes(
    nx, ny, amplitude, seed, traversal, iterations
):
    mesh = perturb_interior(
        structured_rectangle(nx, ny), amplitude=amplitude, seed=seed
    )
    ref, vec = _run_both(
        mesh,
        traversal=traversal,
        max_iterations=iterations,
        tol=-np.inf,
        record_trace=True,
    )
    assert_equivalent(ref, vec)
    assert ref.iterations == iterations


def test_unknown_engine_rejected():
    # The smoother has one production path; the retired selector is
    # refused rather than ignored.
    with pytest.raises(TypeError, match="engine"):
        LaplacianSmoother(engine="reference")


def test_csr_segment_mean_matches_scalar_loop(ocean_mesh):
    from repro.smoothing import csr_segment_mean

    g = ocean_mesh.adjacency
    coords = ocean_mesh.vertices
    verts = ocean_mesh.interior_vertices()
    got = csr_segment_mean(coords, g.xadj, g.adjncy, verts)
    for row, v in zip(got, verts.tolist()):
        lo, hi = g.xadj[v], g.xadj[v + 1]
        want = coords[g.adjncy[lo:hi]].sum(axis=0) / (hi - lo)
        assert np.allclose(row, want, rtol=1e-12, atol=0.0)


def test_csr_segment_mean_empty_selection(ocean_mesh):
    from repro.smoothing import csr_segment_mean

    g = ocean_mesh.adjacency
    out = csr_segment_mean(
        ocean_mesh.vertices, g.xadj, g.adjncy, np.empty(0, dtype=np.int64)
    )
    assert out.shape == (0, 2)


def test_smooth_wavefronts_single_sweep_matches_reference(bumpy_mesh):
    from repro.parallel.scheduler import wavefront_schedule
    from repro.smoothing import smooth_wavefronts

    g = bumpy_mesh.adjacency
    seq = bumpy_mesh.interior_vertices()
    batched, offsets = wavefront_schedule(seq, g.xadj, g.adjncy)

    vec = bumpy_mesh.vertices.copy()
    smooth_wavefronts(vec, g.xadj, g.adjncy, batched, offsets)

    ref = bumpy_mesh.vertices.copy()
    for v in seq.tolist():
        lo, hi = g.xadj[v], g.xadj[v + 1]
        ref[v] = ref[g.adjncy[lo:hi]].mean(axis=0)

    assert np.allclose(vec, ref, rtol=1e-12, atol=0.0)
