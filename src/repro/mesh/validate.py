"""Structural validation of triangle meshes.

These checks are used by the mesh generators (every generated mesh must
validate before it is handed to an experiment) and by property-based
tests. A failed check raises :class:`MeshValidationError` with a message
naming the offending entity, which makes generator bugs fast to localise.
"""

from __future__ import annotations

import numpy as np

from .csr import is_symmetric
from .trimesh import TriMesh

__all__ = ["MeshValidationError", "validate_mesh", "mesh_issues"]


class MeshValidationError(ValueError):
    """Raised when a mesh violates a structural invariant or a mesh file
    is malformed."""


def nonfinite_vertices(vertices: np.ndarray) -> np.ndarray:
    """Indices of the vertices with a NaN or infinite coordinate."""
    return np.flatnonzero(~np.isfinite(vertices).all(axis=1))


def mesh_issues(
    mesh: TriMesh,
    *,
    require_orientation: bool = False,
    min_area: float = 0.0,
) -> list[str]:
    """Return a list of human-readable invariant violations (empty = OK).

    Checks performed:

    * every vertex coordinate finite;
    * triangle vertex indices in range and pairwise distinct;
    * no duplicated triangles (up to rotation);
    * triangle areas strictly above ``min_area`` in magnitude
      (degenerate / zero-area elements break the quality metric);
    * consistent counter-clockwise orientation when
      ``require_orientation`` is set;
    * CSR adjacency symmetric;
    * at least one interior vertex when the mesh has triangles, since a
      mesh with nothing to smooth makes every experiment vacuous.
    """
    issues: list[str] = []
    tri = mesh.triangles

    for v in nonfinite_vertices(mesh.vertices)[:5]:
        issues.append(
            f"vertex {v} has non-finite coordinates {mesh.vertices[v].tolist()}"
        )

    if tri.size:
        same = (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (
            tri[:, 0] == tri[:, 2]
        )
        for t in np.flatnonzero(same)[:5]:
            issues.append(f"triangle {t} has repeated vertices {tri[t].tolist()}")

        canon = np.sort(tri, axis=1)
        _, first, counts = np.unique(
            canon, axis=0, return_index=True, return_counts=True
        )
        for t in first[counts > 1][:5]:
            issues.append(f"triangle {t} is duplicated")

        areas = mesh.triangle_areas()
        bad = np.abs(areas) <= min_area
        for t in np.flatnonzero(bad)[:5]:
            issues.append(f"triangle {t} is degenerate (area={areas[t]:.3e})")

        if require_orientation and np.any(areas < 0):
            neg = int(np.count_nonzero(areas < 0))
            issues.append(f"{neg} triangles are clockwise-oriented")

        if mesh.interior_vertices().size == 0:
            issues.append("mesh has no interior vertices")

    if not is_symmetric(mesh.adjacency):
        issues.append("vertex adjacency is not symmetric")
    return issues


def validate_mesh(
    mesh: TriMesh,
    *,
    require_orientation: bool = False,
    min_area: float = 0.0,
) -> TriMesh:
    """Raise :class:`MeshValidationError` unless the mesh is well-formed."""
    issues = mesh_issues(
        mesh, require_orientation=require_orientation, min_area=min_area
    )
    if issues:
        label = mesh.name or "<unnamed>"
        raise MeshValidationError(
            f"mesh {label!r} failed validation:\n  " + "\n  ".join(issues)
        )
    return mesh
