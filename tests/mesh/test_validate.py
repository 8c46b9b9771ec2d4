"""Unit tests for mesh validation."""

import numpy as np
import pytest

from repro.mesh import MeshValidationError, TriMesh, mesh_issues, validate_mesh


def test_valid_mesh_passes(tiny_mesh):
    assert validate_mesh(tiny_mesh) is tiny_mesh
    assert mesh_issues(tiny_mesh) == []


def test_repeated_vertex_in_triangle_detected():
    mesh = TriMesh(np.array([[0, 0], [1, 0], [0, 1.0]]), np.array([[0, 1, 1]]))
    issues = mesh_issues(mesh)
    assert any("repeated" in msg for msg in issues)


def test_non_finite_coordinates_detected():
    mesh = TriMesh(
        np.array([[0, 0], [1, np.nan], [0, 1.0]]), np.array([[0, 1, 2]])
    )
    assert any("vertex 1 has non-finite" in msg for msg in mesh_issues(mesh))


def test_duplicate_triangle_detected():
    mesh = TriMesh(
        np.array([[0, 0], [1, 0], [0, 1.0], [1.0, 1.0]]),
        np.array([[0, 1, 2], [1, 2, 0], [1, 3, 2]]),
    )
    issues = mesh_issues(mesh)
    assert any("duplicated" in msg for msg in issues)


def test_degenerate_triangle_detected():
    mesh = TriMesh(
        np.array([[0, 0], [1, 0], [2, 0], [0, 1.0]]),
        np.array([[0, 1, 2], [0, 1, 3]]),  # first is collinear
    )
    issues = mesh_issues(mesh)
    assert any("degenerate" in msg for msg in issues)


def test_orientation_check_optional():
    cw = TriMesh(
        np.array([[0, 0], [1, 0], [0, 1.0], [1.5, 1.5]]),
        np.array([[0, 2, 1], [1, 2, 3]]),  # first is clockwise
    )
    assert not any("clockwise" in m for m in mesh_issues(cw))
    assert any(
        "clockwise" in m for m in mesh_issues(cw, require_orientation=True)
    )


def test_no_interior_vertex_detected():
    mesh = TriMesh(np.array([[0, 0], [1, 0], [0, 1.0]]), np.array([[0, 1, 2]]))
    issues = mesh_issues(mesh)
    assert any("interior" in msg for msg in issues)


def test_validate_raises_with_mesh_name():
    mesh = TriMesh(
        np.array([[0, 0], [1, 0], [0, 1.0]]),
        np.array([[0, 1, 2]]),
        name="lonely",
    )
    with pytest.raises(MeshValidationError, match="lonely"):
        validate_mesh(mesh)


def test_min_area_threshold():
    mesh = TriMesh(
        np.array([[0, 0], [1, 0], [0.5, 1e-7], [0.0, 1.0], [1.0, 1.0]]),
        np.array([[0, 1, 2], [0, 1, 3], [1, 4, 3]]),
    )
    assert any("degenerate" in m for m in mesh_issues(mesh, min_area=1e-6))
