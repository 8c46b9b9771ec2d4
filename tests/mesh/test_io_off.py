"""Unit tests for OFF mesh I/O."""

import numpy as np
import pytest

from repro.mesh import MeshValidationError, read_off, write_off


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

    def test_comments_allowed(self, tmp_path):
        p = tmp_path / "c.off"
        p.write_text(
            "OFF  # header\n3 1 0\n0 0 0\n1 0 0  # a vertex\n0 1 0\n3 0 1 2\n"
        )
        mesh = read_off(p)
        assert mesh.num_triangles == 1
