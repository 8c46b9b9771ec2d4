"""Unit tests for Triangle-format and JSON mesh I/O."""

import numpy as np
import pytest

from repro.mesh import (
    MeshValidationError,
    read_json,
    read_triangle,
    write_json,
    write_triangle,
)

#: The tiny mesh of ``conftest.py`` (vertex 4 interior) as Triangle files.
TINY_NODE = "5 2 0 0\n0 0 0\n1 2 0\n2 2 2\n3 0 2\n4 1.2 0.9\n"
TINY_ELE = "4 3 0\n0 0 1 4\n1 1 2 4\n2 2 3 4\n3 3 0 4\n"


class TestTriangleFormat:
    def test_roundtrip(self, tiny_mesh, tmp_path):
        write_triangle(tiny_mesh, tmp_path / "tiny")
        back = read_triangle(tmp_path / "tiny")
        assert np.allclose(back.vertices, tiny_mesh.vertices)
        assert np.array_equal(back.triangles, tiny_mesh.triangles)

    def test_roundtrip_preserves_boundary(self, ocean_mesh, tmp_path):
        write_triangle(ocean_mesh, tmp_path / "ocean")
        back = read_triangle(tmp_path / "ocean")
        assert np.array_equal(back.boundary_mask, ocean_mesh.boundary_mask)

    def test_written_files_exist(self, tiny_mesh, tmp_path):
        node, ele = write_triangle(tiny_mesh, tmp_path / "m")
        assert node.name == "m.node" and node.exists()
        assert ele.name == "m.ele" and ele.exists()

    def test_reads_one_based_ids(self, tiny_mesh, tmp_path):
        (tmp_path / "one.node").write_text(
            "5 2 0 0\n1 0 0\n2 2 0\n3 2 2\n4 0 2\n5 1.2 0.9\n"
        )
        (tmp_path / "one.ele").write_text(
            "4 3 0\n1 1 2 5\n2 2 3 5\n3 3 4 5\n4 4 1 5\n"
        )
        mesh = read_triangle(tmp_path / "one")
        assert mesh.triangles.tolist() == tiny_mesh.triangles.tolist()

    def test_ignores_comments_and_blank_lines(self, tmp_path):
        (tmp_path / "c.node").write_text(
            "# header comment\n" + TINY_NODE.replace("\n1 ", "\n\n1 ", 1)
            .replace("0 0 0\n", "0 0 0  # vertex 0\n", 1)
        )
        (tmp_path / "c.ele").write_text(TINY_ELE)
        mesh = read_triangle(tmp_path / "c")
        assert mesh.num_vertices == 5

    def test_rejects_3d_nodes(self, tmp_path):
        (tmp_path / "d.node").write_text("1 3 0 0\n0 0.0 0.0 0.0\n")
        (tmp_path / "d.ele").write_text("0 3 0\n")
        with pytest.raises(ValueError, match="2-D"):
            read_triangle(tmp_path / "d")

    def test_rejects_quad_elements(self, tmp_path):
        (tmp_path / "q.node").write_text(
            "4 2 0 0\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n"
        )
        (tmp_path / "q.ele").write_text("1 4 0\n0 0 1 2 3\n")
        with pytest.raises(ValueError, match="3-node"):
            read_triangle(tmp_path / "q")

    def test_rejects_count_mismatch(self, tmp_path):
        (tmp_path / "bad.node").write_text("5 2 0 0\n0 0.0 0.0\n")
        (tmp_path / "bad.ele").write_text("0 3 0\n")
        with pytest.raises(ValueError, match="count"):
            read_triangle(tmp_path / "bad")

    @pytest.mark.parametrize(
        "node, ele, match",
        [
            ("2 2 0 0\n0 0 0\n1 1 0\n2 0 1\n", "1 3 0\n0 0 1 2\n", "count"),
            ("3 2 0 0\n0 0 0\n1 1 0\n2 0 1\n", "2 3 0\n0 0 1 2\n", "count"),
            ("3 2 0 0\n0 0 0\n1 1 zero\n2 0 1\n", "1 3 0\n0 0 1 2\n",
             "malformed"),
            ("3 2 0 0\n0 0 0\n1 1\n2 0 1\n", "1 3 0\n0 0 1 2\n", "malformed"),
            ("3 2 0 0\n0 0 0\n1 1 0\n2 0 1\n", "1 3 0\n0 0 1 7\n", "range"),
            ("3 2 0 0\n0 0 0\n1 inf 0\n2 0 1\n", "1 3 0\n0 0 1 2\n",
             "non-finite"),
            ("3 2 0 0\n0 0 0\n1 1 0\n2 nan 1\n", "1 3 0\n0 0 1 2\n",
             "non-finite"),
            (TINY_NODE, TINY_ELE.replace("4 3 0", "5 3 0") + "4 0 1 4\n",
             "duplicated"),
            (TINY_NODE, TINY_ELE.replace("4 3 0", "5 3 0") + "4 4 0 1\n",
             "duplicated"),
            ("3 2 0 0\n0 0 0\n1 1 0\n2 0 1\n", "1 3 0\n0 0 1 2\n",
             "no interior"),
            (TINY_NODE, TINY_ELE.replace("3 3 0 4", "3 3 3 4"), "repeated"),
        ],
        ids=["extra-node-lines", "short-ele", "bad-float", "missing-column",
             "index-out-of-range", "inf", "nan", "duplicate-triangle",
             "rotated-duplicate", "one-triangle", "repeated-vertex"],
    )
    def test_malformed_files_raise_validation_error(
        self, tmp_path, node, ele, match
    ):
        (tmp_path / "x.node").write_text(node)
        (tmp_path / "x.ele").write_text(ele)
        with pytest.raises(MeshValidationError, match=match):
            read_triangle(tmp_path / "x")

    def test_name_defaults_to_stem(self, tiny_mesh, tmp_path):
        write_triangle(tiny_mesh, tmp_path / "stemname")
        back = read_triangle(tmp_path / "stemname")
        assert back.name == "stemname"


class TestJsonFormat:
    def test_roundtrip(self, tiny_mesh, tmp_path):
        path = write_json(tiny_mesh, tmp_path / "tiny.json")
        back = read_json(path)
        assert np.allclose(back.vertices, tiny_mesh.vertices)
        assert np.array_equal(back.triangles, tiny_mesh.triangles)
        assert back.name == tiny_mesh.name

    def test_exact_float_roundtrip(self, tiny_mesh, tmp_path):
        mesh = tiny_mesh.with_vertices(tiny_mesh.vertices + [0.1, 1.0 / 3.0])
        back = read_json(write_json(mesh, tmp_path / "f.json"))
        assert np.array_equal(back.vertices, mesh.vertices)

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"vertices": [[0, 0], [1, NaN]], "triangles": []}', "non-finite"),
            ('{"vertices": [[0, 0, 0]], "triangles": []}', "shape"),
            ('{"triangles": []}', "malformed"),
            ("not json", "malformed"),
            ('{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]]}',
             "no interior"),
            ('{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2], '
             '[2, 0, 1]]}', "duplicated"),
        ],
        ids=["nan", "3-d", "missing-key", "not-json", "one-triangle",
             "rotated-duplicate"],
    )
    def test_malformed_json_raises_validation_error(self, tmp_path, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(MeshValidationError, match=match):
            read_json(path)
