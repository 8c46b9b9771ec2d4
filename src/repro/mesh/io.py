"""Mesh I/O in Jonathan Shewchuk's Triangle format and a JSON sidecar.

The paper's meshes were produced by Triangle, whose native on-disk format
is a pair of files: ``<stem>.node`` (vertices) and ``<stem>.ele``
(triangles). We read and write that format so meshes can be exchanged
with the original toolchain, plus a single-file JSON form that is handier
for test fixtures.

Triangle format reference (plain text, ``#`` comments allowed):

``.node``::

    <#vertices> <dim=2> <#attrs> <#boundary markers 0|1>
    <id> <x> <y> [attrs...] [marker]

``.ele``::

    <#triangles> <nodes per tri = 3> <#attrs>
    <id> <v1> <v2> <v3> [attrs...]

Vertex ids may start at 0 or 1; we detect and normalise to 0-based.

The readers refuse a malformed file (bad header, counts that do not
match the data lines, unparsable or missing fields, out-of-range vertex
ids), a non-finite coordinate, or a mesh that fails
:func:`~repro.mesh.validate.validate_mesh` (repeated or duplicated
triangles, degenerate elements, no interior vertex) with
:class:`MeshValidationError`, naming the file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .trimesh import TriMesh
from .validate import MeshValidationError, nonfinite_vertices, validate_mesh

__all__ = [
    "write_triangle",
    "read_triangle",
    "write_json",
    "read_json",
    "write_off",
    "read_off",
]


@contextmanager
def _parsing(path: Path):
    """Re-raise any parse failure while reading ``path`` as a
    :class:`MeshValidationError` naming the file."""
    try:
        yield
    except MeshValidationError:
        raise
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise MeshValidationError(f"{path}: malformed mesh file: {exc}") from exc


def _validated(path: Path, mesh: TriMesh) -> TriMesh:
    """``mesh`` once :func:`validate_mesh` accepts it; its refusal is
    re-raised naming the file."""
    try:
        return validate_mesh(mesh)
    except MeshValidationError as exc:
        raise MeshValidationError(f"{path}: {exc}") from None


def _array(rows, dtype, width: int) -> np.ndarray:
    """``rows`` as an ``(n, width)`` array (``(0, width)`` when empty)."""
    arr = np.array(rows, dtype=dtype)
    return arr.reshape(0, width) if arr.size == 0 else arr


def _finite(path: Path, coords) -> np.ndarray:
    """``coords`` as an ``(n, 2)`` float array, refusing non-finite ones."""
    coords = _array(coords, np.float64, 2)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MeshValidationError(f"{path}: vertices must have shape (n, 2)")
    bad = nonfinite_vertices(coords)
    if bad.size:
        raise MeshValidationError(
            f"{path}: {bad.size} vertices have non-finite coordinates "
            f"(first: vertex {bad[0]} at {coords[bad[0]].tolist()})"
        )
    return coords


def _data_lines(path: Path) -> list[list[str]]:
    lines: list[list[str]] = []
    for raw in path.read_text().splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped.split())
    return lines


def write_triangle(mesh: TriMesh, stem: str | Path) -> tuple[Path, Path]:
    """Write ``<stem>.node`` and ``<stem>.ele``; returns the two paths."""
    stem = Path(stem)
    node_path = stem.with_suffix(".node")
    ele_path = stem.with_suffix(".ele")

    markers = mesh.boundary_mask.astype(int)
    with node_path.open("w") as fh:
        fh.write(f"{mesh.num_vertices} 2 0 1\n")
        for i, (x, y) in enumerate(mesh.vertices):
            # repr of a Python float is shortest-exact, so coordinates
            # round-trip bit-for-bit.
            fh.write(f"{i} {float(x)!r} {float(y)!r} {markers[i]}\n")

    with ele_path.open("w") as fh:
        fh.write(f"{mesh.num_triangles} 3 0\n")
        for i, (a, b, c) in enumerate(mesh.triangles):
            fh.write(f"{i} {a} {b} {c}\n")
    return node_path, ele_path


def read_triangle(stem: str | Path, name: str = "") -> TriMesh:
    """Read a ``.node``/``.ele`` pair written by Triangle or by us."""
    stem = Path(stem)
    node_path, ele_path = stem.with_suffix(".node"), stem.with_suffix(".ele")
    node_lines = _data_lines(node_path)
    ele_lines = _data_lines(ele_path)
    if not node_lines or not ele_lines:
        raise MeshValidationError(f"empty Triangle files at {stem}")

    with _parsing(node_path):
        n_vertices = int(node_lines[0][0])
        if int(node_lines[0][1]) != 2:
            raise MeshValidationError(
                f"{node_path}: only 2-D .node files are supported"
            )
        body = node_lines[1:]
        if len(body) != n_vertices:
            raise MeshValidationError(
                f"{node_path}: header count {n_vertices} does not match "
                f"{len(body)} data lines"
            )
        ids = np.array([int(row[0]) for row in body], dtype=np.int64)
        coords = np.array([[float(row[1]), float(row[2])] for row in body])
        base = int(ids.min()) if n_vertices else 0
        if base not in (0, 1):
            raise MeshValidationError(
                f"{node_path}: vertex ids must be 0- or 1-based"
            )
        coords = _finite(node_path, coords[np.argsort(ids, kind="stable")])

    with _parsing(ele_path):
        n_tris = int(ele_lines[0][0])
        if int(ele_lines[0][1]) != 3:
            raise MeshValidationError(
                f"{ele_path}: only 3-node triangles are supported"
            )
        tri_body = ele_lines[1:]
        if len(tri_body) != n_tris:
            raise MeshValidationError(
                f"{ele_path}: header count {n_tris} does not match "
                f"{len(tri_body)} data lines"
            )
        tris = _array(
            [[int(row[1]), int(row[2]), int(row[3])] for row in tri_body],
            np.int64, 3,
        )
        mesh = TriMesh(coords, tris - base, name=name or stem.name)
    return _validated(ele_path, mesh)


def write_off(mesh: TriMesh, path: str | Path) -> Path:
    """Write the mesh in the Object File Format (planar, z = 0).

    OFF is what most mesh viewers read, so this is the interchange path
    for inspecting generated/smoothed meshes visually.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.num_vertices} {mesh.num_triangles} 0\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
    return path


def read_off(path: str | Path, name: str = "") -> TriMesh:
    """Read an OFF file (triangles only; z coordinates dropped)."""
    path = Path(path)
    lines = _data_lines(path)
    if not lines or lines[0][0].upper() != "OFF":
        raise MeshValidationError(f"{path} is not an OFF file")
    with _parsing(path):
        nv, nf = int(lines[1][0]), int(lines[1][1])
        body = lines[2:]
        if len(body) < nv + nf:
            raise MeshValidationError(
                f"{path}: OFF header counts do not match data lines"
            )
        coords = _finite(
            path, [[float(row[0]), float(row[1])] for row in body[:nv]]
        )
        tris = []
        for row in body[nv : nv + nf]:
            if int(row[0]) != 3:
                raise MeshValidationError(
                    f"{path}: only triangular OFF faces are supported"
                )
            tris.append([int(row[1]), int(row[2]), int(row[3])])
        mesh = TriMesh(coords, _array(tris, np.int64, 3), name=name or path.stem)
    return _validated(path, mesh)


def write_json(mesh: TriMesh, path: str | Path) -> Path:
    """Single-file JSON form: ``{"name", "vertices", "triangles"}``."""
    path = Path(path)
    payload = {
        "name": mesh.name,
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
    }
    path.write_text(json.dumps(payload))
    return path


def read_json(path: str | Path) -> TriMesh:
    """Read a mesh written by :func:`write_json`."""
    path = Path(path)
    text = path.read_text()
    with _parsing(path):
        payload = json.loads(text)
        mesh = TriMesh(
            _finite(path, payload["vertices"]),
            _array(payload["triangles"], np.int64, 3),
            name=payload.get("name", ""),
        )
    return _validated(path, mesh)
