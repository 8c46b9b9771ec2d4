"""Unit tests for OFF mesh I/O."""

import numpy as np
import pytest

from repro.mesh import MeshValidationError, read_off, write_off

#: The tiny mesh of ``conftest.py`` (vertex 4 interior) as an OFF file.
TINY_OFF = (
    "OFF\n5 4 0\n0 0 0\n2 0 0\n2 2 0\n0 2 0\n1.2 0.9 0\n"
    "3 0 1 4\n3 1 2 4\n3 2 3 4\n3 3 0 4\n"
)


class TestOffFormat:
    def test_roundtrip(self, tiny_mesh, tmp_path):
        path = write_off(tiny_mesh, tmp_path / "tiny.off")
        back = read_off(path)
        assert np.allclose(back.vertices, tiny_mesh.vertices)
        assert np.array_equal(back.triangles, tiny_mesh.triangles)

    def test_roundtrip_real_mesh(self, ocean_mesh, tmp_path):
        back = read_off(write_off(ocean_mesh, tmp_path / "o.off"))
        assert np.allclose(back.vertices, ocean_mesh.vertices)

    def test_name_defaults_to_stem(self, tiny_mesh, tmp_path):
        back = read_off(write_off(tiny_mesh, tmp_path / "stemmy.off"))
        assert back.name == "stemmy"

    def test_rejects_non_off(self, tmp_path):
        p = tmp_path / "x.off"
        p.write_text("PLY\n1 0 0\n")
        with pytest.raises(ValueError, match="not an OFF"):
            read_off(p)

    def test_rejects_quads(self, tmp_path):
        p = tmp_path / "q.off"
        p.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
        with pytest.raises(ValueError, match="triangular"):
            read_off(p)

    def test_rejects_truncated(self, tmp_path):
        p = tmp_path / "t.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
        with pytest.raises(ValueError, match="counts"):
            read_off(p)

    def test_rejects_non_finite_coordinates(self, tmp_path):
        p = tmp_path / "n.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 -inf 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(MeshValidationError, match="non-finite"):
            read_off(p)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "no interior"),
            (TINY_OFF.replace("5 4 0", "5 5 0") + "3 0 1 4\n", "duplicated"),
            (TINY_OFF.replace("5 4 0", "5 5 0") + "3 4 0 1\n", "duplicated"),
            (TINY_OFF.replace("3 3 0 4", "3 3 3 4"), "repeated"),
        ],
        ids=["one-triangle", "duplicate-triangle", "rotated-duplicate",
             "repeated-vertex"],
    )
    def test_rejects_invalid_meshes(self, tmp_path, text, match):
        p = tmp_path / "n.off"
        p.write_text(text)
        with pytest.raises(MeshValidationError, match=match):
            read_off(p)

    def test_comments_allowed(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text(
            TINY_OFF.replace("OFF\n", "OFF  # header\n")
            .replace("2 0 0\n", "2 0 0  # a vertex\n")
        )
        mesh = read_off(p)
        assert mesh.num_triangles == 4
