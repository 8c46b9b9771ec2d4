"""Property-based round-trip tests for every mesh I/O format.

Complements the example-based tests in ``test_io.py``/``test_io_off.py``
with hypothesis-driven properties: for arbitrary meshes (random
triangulations, arbitrary finite float64 coordinates, affine
transforms), ``write → read`` must preserve coordinates *bit-for-bit*,
connectivity exactly, and 0/1-based vertex-id normalisation. The
readers validate what they read, so a mesh that ``mesh_issues`` faults
(a degenerate element at extreme coordinates) must be refused instead.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mesh import (
    MeshValidationError,
    TriMesh,
    mesh_issues,
    read_json,
    read_off,
    read_triangle,
    write_json,
    write_off,
    write_triangle,
)
from repro.meshgen import perturb_interior, structured_rectangle

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# Finite float64 coordinates across the full exponent range: I/O must
# round-trip exactly whatever the numerics produced.
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def meshes(draw):
    """Structured-rectangle meshes under a random affine transform."""
    nx = draw(st.integers(min_value=3, max_value=6))
    ny = draw(st.integers(min_value=3, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    mesh = perturb_interior(
        structured_rectangle(nx, ny, name="prop"), amplitude=0.05, seed=seed
    )
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    theta = draw(st.floats(min_value=0.0, max_value=2 * np.pi))
    shift = np.array([draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))])
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    return TriMesh(mesh.vertices @ rot.T * scale + shift, mesh.triangles,
                   name="prop")


@st.composite
def extreme_meshes(draw):
    """A fixed tiny triangulation (four triangles around the interior
    vertex 4) with arbitrary finite coordinates."""
    coords = draw(
        st.lists(st.tuples(finite, finite), min_size=5, max_size=5).map(np.array)
    )
    return TriMesh(
        coords, np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]),
        name="extreme",
    )


def assert_same_mesh(back: TriMesh, mesh: TriMesh) -> None:
    np.testing.assert_array_equal(back.vertices, mesh.vertices)
    np.testing.assert_array_equal(back.triangles, mesh.triangles)


def assert_read_back(read, path, mesh: TriMesh) -> None:
    """``read(path)`` returns ``mesh`` exactly, or refuses it when
    ``mesh_issues`` faults it."""
    with np.errstate(over="ignore", invalid="ignore"):
        issues = mesh_issues(mesh)
        if issues:
            with pytest.raises(MeshValidationError):
                read(path)
        else:
            assert_same_mesh(read(path), mesh)


class TestTriangleRoundTrip:
    @FAST
    @given(meshes())
    def test_coordinates_and_connectivity_exact(self, tmp_path_factory, mesh):
        stem = tmp_path_factory.mktemp("tri") / "m"
        write_triangle(mesh, stem)
        assert_same_mesh(read_triangle(stem), mesh)

    @FAST
    @given(extreme_meshes())
    def test_extreme_coordinates_bit_exact(self, tmp_path_factory, mesh):
        stem = tmp_path_factory.mktemp("tri") / "m"
        write_triangle(mesh, stem)
        assert_read_back(read_triangle, stem, mesh)

    @FAST
    @given(meshes())
    def test_boundary_markers_survive(self, tmp_path_factory, mesh):
        stem = tmp_path_factory.mktemp("tri") / "m"
        write_triangle(mesh, stem)
        np.testing.assert_array_equal(
            read_triangle(stem).boundary_mask, mesh.boundary_mask
        )

    @FAST
    @given(meshes())
    def test_one_based_ids_normalise_to_zero_based(self, tmp_path_factory, mesh):
        """A 1-based file (Triangle's default) reads identically to ours."""
        root = tmp_path_factory.mktemp("tri")
        (root / "one.node").write_text(
            f"{mesh.num_vertices} 2 0 0\n"
            + "".join(
                f"{i + 1} {float(x)!r} {float(y)!r}\n"
                for i, (x, y) in enumerate(mesh.vertices)
            )
        )
        (root / "one.ele").write_text(
            f"{mesh.num_triangles} 3 0\n"
            + "".join(
                f"{i + 1} {a + 1} {b + 1} {c + 1}\n"
                for i, (a, b, c) in enumerate(mesh.triangles)
            )
        )
        assert_same_mesh(read_triangle(root / "one"), mesh)

    @FAST
    @given(meshes(), st.randoms(use_true_random=False))
    def test_shuffled_node_lines_are_reordered_by_id(
        self, tmp_path_factory, mesh, rng
    ):
        """Vertex lines in any order: ids, not line order, define indices."""
        root = tmp_path_factory.mktemp("tri") / "m"
        write_triangle(mesh, root)
        node = root.with_suffix(".node")
        header, *body = node.read_text().splitlines()
        rng.shuffle(body)
        node.write_text("\n".join([header, *body]) + "\n")
        assert_same_mesh(read_triangle(root), mesh)


class TestJsonRoundTrip:
    @FAST
    @given(meshes())
    def test_exact(self, tmp_path_factory, mesh):
        path = tmp_path_factory.mktemp("json") / "m.json"
        write_json(mesh, path)
        back = read_json(path)
        assert_same_mesh(back, mesh)
        assert back.name == mesh.name

    @FAST
    @given(extreme_meshes())
    def test_extreme_coordinates_bit_exact(self, tmp_path_factory, mesh):
        path = tmp_path_factory.mktemp("json") / "m.json"
        write_json(mesh, path)
        assert_read_back(read_json, path, mesh)


class TestOffRoundTrip:
    @FAST
    @given(meshes())
    def test_exact(self, tmp_path_factory, mesh):
        path = tmp_path_factory.mktemp("off") / "m.off"
        write_off(mesh, path)
        assert_same_mesh(read_off(path), mesh)

    @FAST
    @given(extreme_meshes())
    def test_extreme_coordinates_bit_exact(self, tmp_path_factory, mesh):
        path = tmp_path_factory.mktemp("off") / "m.off"
        write_off(mesh, path)
        assert_read_back(read_off, path, mesh)
