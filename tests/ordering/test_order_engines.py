"""Differential suite: the batched orderings against the reference ones.

The contract of :func:`repro.ordering.get_ordering` is *exactness*: for
every registered ordering name, the implementation it serves (the
batched one, or the reference function when no batched variant exists)
returns the permutation of the reference function in ``ORDERINGS``,
**element-wise identical**, for every mesh, seed and quality signal.  These
tests pin that contract across structured, perturbed, generated-domain
and randomized meshes — any divergence is a bug in the batched engine,
never an acceptable approximation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro  # noqa: F401  (registers all orderings, incl. rdr/oracle)
from repro.core import rdr_chain_heads
from repro.meshgen import generate_domain_mesh, perturb_interior, structured_rectangle
from repro.ordering import BATCHED_ORDERINGS, ORDERINGS, get_ordering
from repro.quality import patch_quality, vertex_quality

from .oracles import reference_rdr_chain_heads

FAST = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _mesh(nx, ny, seed):
    return perturb_interior(
        structured_rectangle(nx, ny), amplitude=0.05, seed=seed
    )


@pytest.fixture(scope="module")
def domain_meshes(grid_mesh, bumpy_mesh, ocean_mesh):
    meshes = [grid_mesh, bumpy_mesh, ocean_mesh,
              generate_domain_mesh("lake", target_vertices=250, seed=2)]
    return [(m, patch_quality(m, base=vertex_quality(m))) for m in meshes]


class TestEngineAxis:
    def test_unknown_engine_rejected(self):
        # One implementation is served per name; no engine selector.
        with pytest.raises(TypeError, match="order_engine"):
            get_ordering("bfs", order_engine="batched")

    def test_unknown_ordering_rejected_with_choices(self):
        with pytest.raises(KeyError, match="unknown ordering"):
            get_ordering("zigzag")

    def test_batched_names_are_a_subset_of_reference_names(self):
        assert set(BATCHED_ORDERINGS) <= set(ORDERINGS)

    def test_core_orderings_have_batched_variants(self):
        # The expensive traversal/chain orderings must not silently lose
        # their vectorized implementation.
        assert {"bfs", "rbfs", "rcm", "sloan", "rdr", "oracle"} <= set(
            BATCHED_ORDERINGS
        )

    def test_unbatched_name_falls_back_to_reference(self):
        # hilbert is pure array code already; no batched variant.
        assert "hilbert" not in BATCHED_ORDERINGS
        assert get_ordering("hilbert") is ORDERINGS["hilbert"]

    def test_batched_name_is_served_batched(self):
        assert get_ordering("rdr") is BATCHED_ORDERINGS["rdr"]


@pytest.mark.parametrize("name", sorted(ORDERINGS))
@pytest.mark.parametrize("seed", [0, 3])
def test_batched_matches_reference_on_domains(domain_meshes, name, seed):
    for mesh, rank_q in domain_meshes:
        ref = ORDERINGS[name](mesh, seed=seed, qualities=rank_q)
        bat = get_ordering(name)(mesh, seed=seed, qualities=rank_q)
        assert np.array_equal(ref, bat), (
            f"{name!r} diverges on {mesh.name!r} (seed={seed})"
        )


@pytest.mark.parametrize("name", sorted(BATCHED_ORDERINGS))
@FAST
@given(
    nx=st.integers(min_value=3, max_value=9),
    ny=st.integers(min_value=3, max_value=9),
    mesh_seed=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_batched_matches_reference_on_random_meshes(
    name, nx, ny, mesh_seed, seed
):
    mesh = _mesh(nx, ny, mesh_seed)
    rank_q = patch_quality(mesh, base=vertex_quality(mesh))
    ref = ORDERINGS[name](mesh, seed=seed, qualities=rank_q)
    bat = get_ordering(name)(mesh, seed=seed, qualities=rank_q)
    assert np.array_equal(ref, bat)


def test_batched_without_explicit_qualities(domain_meshes):
    # Quality-aware orderings recompute the signal internally; both
    # implementations must do so identically.
    for mesh, _ in domain_meshes:
        for name in sorted(BATCHED_ORDERINGS):
            ref = ORDERINGS[name](mesh)
            bat = get_ordering(name)(mesh)
            assert np.array_equal(ref, bat), f"{name!r} on {mesh.name!r}"


def test_rdr_chain_heads_engine_equivalence(domain_meshes):
    for mesh, rank_q in domain_meshes:
        ref = reference_rdr_chain_heads(mesh, qualities=rank_q)
        bat = rdr_chain_heads(mesh, qualities=rank_q)
        assert np.array_equal(ref, bat)


def test_batched_is_deterministic_across_repeats(ocean_mesh):
    # The per-graph plan caches must not leak state between calls.
    rank_q = patch_quality(ocean_mesh, base=vertex_quality(ocean_mesh))
    for name in sorted(BATCHED_ORDERINGS):
        fn = get_ordering(name)
        first = fn(ocean_mesh, seed=0, qualities=rank_q)
        again = fn(ocean_mesh, seed=0, qualities=rank_q)
        assert np.array_equal(first, again), name


def test_batched_rdr_tracks_quality_changes(bumpy_mesh):
    # The quality-keyed plan cache must miss when the signal changes.
    q1 = patch_quality(bumpy_mesh, base=vertex_quality(bumpy_mesh))
    rng = np.random.default_rng(0)
    q2 = rng.permutation(q1)
    fn_ref = ORDERINGS["rdr"]
    fn_bat = get_ordering("rdr")
    assert np.array_equal(
        fn_ref(bumpy_mesh, qualities=q1), fn_bat(bumpy_mesh, qualities=q1)
    )
    assert np.array_equal(
        fn_ref(bumpy_mesh, qualities=q2), fn_bat(bumpy_mesh, qualities=q2)
    )
