"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.mesh import read_triangle


def _flatten(span_dicts):
    """Every span dict in a nested forest, depth-first."""
    for node in span_dicts:
        yield node
        yield from _flatten(node.get("children", ()))


@pytest.fixture
def mesh_stem(tmp_path):
    stem = tmp_path / "m"
    rc = main(["generate", "stress", str(stem), "--vertices", "300", "--seed", "1"])
    assert rc == 0
    return stem


class TestGenerate:
    def test_writes_files(self, mesh_stem, capsys):
        assert mesh_stem.with_suffix(".node").exists()
        assert mesh_stem.with_suffix(".ele").exists()
        mesh = read_triangle(mesh_stem)
        assert mesh.num_vertices > 200

    def test_reports_stats(self, tmp_path, capsys):
        main(["generate", "lake", str(tmp_path / "x"), "--vertices", "300"])
        out = capsys.readouterr().out
        assert "vertices" in out and "quality" in out

    def test_rejects_unknown_domain(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "atlantis", str(tmp_path / "x")])


class TestGenerateVariants:
    def test_uniform_quality_structure(self, tmp_path, capsys):
        rc = main(
            ["generate", "crake", str(tmp_path / "u"), "--vertices", "300",
             "--quality-structure", "uniform"]
        )
        assert rc == 0
        mesh = read_triangle(tmp_path / "u")
        assert mesh.num_vertices > 200


class TestSmooth:
    def test_smooth_without_ordering_or_output(self, mesh_stem, capsys):
        rc = main(["smooth", str(mesh_stem), "--max-iterations", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iterations" in out

    def test_smooth_storage_traversal(self, mesh_stem, capsys):
        rc = main(
            ["smooth", str(mesh_stem), "--traversal", "storage",
             "--max-iterations", "2"]
        )
        assert rc == 0

    def test_smooth_improves_quality(self, mesh_stem, tmp_path, capsys):
        out_stem = tmp_path / "smoothed"
        rc = main(["smooth", str(mesh_stem), "--output", str(out_stem)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "->" in out
        assert out_stem.with_suffix(".node").exists()

    def test_smooth_with_ordering(self, mesh_stem, capsys):
        rc = main(["smooth", str(mesh_stem), "--ordering", "rdr"])
        assert rc == 0

    def test_smooth_with_cache_report(self, mesh_stem, capsys):
        rc = main(
            ["smooth", str(mesh_stem), "--ordering", "rdr", "--report-cache",
             "--max-iterations", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "L1" in out and "modeled time" in out


class TestReorder:
    def test_reorder_writes_permuted_mesh(self, mesh_stem, tmp_path, capsys):
        out_stem = tmp_path / "reordered"
        rc = main(["reorder", str(mesh_stem), str(out_stem), "--ordering", "bfs"])
        assert rc == 0
        original = read_triangle(mesh_stem)
        permuted = read_triangle(out_stem)
        assert permuted.num_vertices == original.num_vertices
        # Same vertex set, different order.
        assert not np.allclose(permuted.vertices, original.vertices)
        assert set(map(tuple, permuted.vertices)) == set(
            map(tuple, original.vertices)
        )

    def test_report_cost(self, mesh_stem, tmp_path, capsys):
        rc = main(
            ["reorder", str(mesh_stem), str(tmp_path / "r"), "--report-cost"]
        )
        assert rc == 0
        assert "smoothing iterations" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_prints_breakdown(self, mesh_stem, capsys):
        rc = main(["analyze", str(mesh_stem), "--ordering", "rdr"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-array breakdown" in out
        assert "coords" in out and "adjncy" in out
        assert "reuse distance" in out

    def test_analyze_saves_trace(self, mesh_stem, tmp_path, capsys):
        target = tmp_path / "trace.npz"
        rc = main(["analyze", str(mesh_stem), "--save-trace", str(target)])
        assert rc == 0
        assert target.exists()
        from repro.memsim import AccessTrace

        trace = AccessTrace.load_npz(target)
        assert len(trace) > 0


class TestExperimentAndList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rdr" in out and "carabiner" in out and "fig8" in out

    def test_small_experiment(self, capsys):
        rc = main(["experiment", "table1", "--scale", "0.001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "M1" in out and "carabiner" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestSeedFlag:
    def test_generate_seed_is_reproducible(self, tmp_path):
        for stem in ("a", "b"):
            main(["generate", "ocean", str(tmp_path / stem),
                  "--vertices", "250", "--seed", "7"])
        a = read_triangle(tmp_path / "a")
        b = read_triangle(tmp_path / "b")
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    def test_generate_seed_changes_the_mesh(self, tmp_path):
        main(["generate", "ocean", str(tmp_path / "a"),
              "--vertices", "250", "--seed", "1"])
        main(["generate", "ocean", str(tmp_path / "b"),
              "--vertices", "250", "--seed", "2"])
        a = read_triangle(tmp_path / "a")
        b = read_triangle(tmp_path / "b")
        assert not (
            a.num_vertices == b.num_vertices
            and np.array_equal(a.vertices, b.vertices)
        )

    def test_reorder_random_seed_is_reproducible(self, mesh_stem, tmp_path):
        for stem in ("a", "b"):
            main(["reorder", str(mesh_stem), str(tmp_path / stem),
                  "--ordering", "random", "--seed", "11"])
        a = read_triangle(tmp_path / "a")
        b = read_triangle(tmp_path / "b")
        assert np.array_equal(a.vertices, b.vertices)

    def test_smooth_accepts_seed(self, mesh_stem, capsys):
        rc = main(["smooth", str(mesh_stem), "--ordering", "random",
                   "--seed", "3", "--max-iterations", "2"])
        assert rc == 0


class TestEngineFlags:
    def test_smooth_accepts_engine_flags(self, mesh_stem, capsys):
        rc = main(["smooth", str(mesh_stem), "--mem-engine", "sequential",
                   "--trace-mode", "fused", "--report-cache",
                   "--ordering", "rdr", "--max-iterations", "2"])
        assert rc == 0
        assert "L1" in capsys.readouterr().out

    def test_rejects_unknown_engine(self, mesh_stem):
        # The retired engine flags are unknown options now.
        for flags in (["--engine", "vectorized"], ["--sim-engine", "batched"],
                      ["--order-engine", "batched"], ["--mem-engine", "turbo"]):
            with pytest.raises(SystemExit):
                main(["smooth", str(mesh_stem), *flags])

    def test_list_shows_engine_axes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mem engines:" in out and "sharded" in out
        assert "trace modes:" in out and "fused" in out
        for retired in ("sim engines:", "order engines:", "backends:"):
            assert retired not in out
        assert "\nengines:" not in out

    def test_smooth_accepts_machine_profile(self, mesh_stem, capsys):
        rc = main(["smooth", str(mesh_stem), "--ordering", "rdr",
                   "--report-cache", "--machine-profile", "gpu-generic",
                   "--max-iterations", "2"])
        assert rc == 0
        assert "cache (simulated)" in capsys.readouterr().out


class TestObsFlags:
    def test_analyze_generated_domain_with_trace_and_metrics(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main(["analyze", "--domain", "ocean", "--vertices", "200",
                   "--ordering", "rdr", "--iterations", "2",
                   "--trace-out", str(trace), "--metrics-out", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote span trace" in out and "wrote metrics snapshot" in out

        from repro.obs import read_spans_jsonl

        names = {row["name"] for row in read_spans_jsonl(trace)}
        # The exported tree covers the whole generate -> reorder ->
        # smooth -> simulate pipeline.
        assert {"meshgen.generate", "pipeline.run_ordering",
                "pipeline.reorder", "pipeline.smooth", "smooth.run",
                "pipeline.simulate", "memsim.simulate_trace"} <= names

        snap = json.loads(metrics.read_text())
        assert snap["counters"]["memsim.l1.accesses"] > 0
        assert snap["counters"]["memsim.l1.misses"] > 0
        assert snap["histograms"]["memsim.reuse_distance"]["total"] > 0

    def test_analyze_unit_square_domain(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = main(["analyze", "--domain", "unit-square", "--vertices", "100",
                   "--trace-out", str(trace)])
        assert rc == 0
        assert trace.exists()
        assert "per-array breakdown" in capsys.readouterr().out

    def test_analyze_without_input_or_domain_exits_2(self, capsys):
        rc = main(["analyze"])
        assert rc == 2
        assert "analyze input" in capsys.readouterr().err

    def test_smooth_trace_out(self, mesh_stem, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        rc = main(["smooth", str(mesh_stem), "--max-iterations", "2",
                   "--trace-out", str(trace)])
        assert rc == 0
        from repro.obs import read_spans_jsonl

        assert any(
            row["name"] == "smooth.run" for row in read_spans_jsonl(trace)
        )


class TestErrorHandling:
    def test_missing_input_exits_2_with_message(self, tmp_path, capsys):
        rc = main(["smooth", str(tmp_path / "nope")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_lab_unknown_domain_exits_2_listing_choices(self, tmp_path, capsys):
        rc = main(["lab", "init", "--db", str(tmp_path / "lab.db"),
                   "--domains", "atlantis"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown domain 'atlantis'" in err
        assert "ocean" in err and err.count("\n") == 1

    def test_lab_unknown_ordering_exits_2_listing_choices(
        self, tmp_path, capsys
    ):
        rc = main(["lab", "init", "--db", str(tmp_path / "lab.db"),
                   "--orderings", "zorder"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown ordering 'zorder'" in err and "rdr" in err

    def test_lab_unknown_experiment_exits_2_listing_choices(
        self, tmp_path, capsys
    ):
        rc = main(["lab", "init", "--db", str(tmp_path / "lab.db"),
                   "--experiments", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nope'" in err and "pipeline" in err

    def test_bad_stream_window_exits_2(self, mesh_stem, capsys):
        rc = main(["analyze", str(mesh_stem), "--stream-window", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown stream window '0'" in err and err.count("\n") == 1

    def test_nan_coordinate_exits_2(self, mesh_stem, capsys):
        node = mesh_stem.with_suffix(".node")
        lines = node.read_text().splitlines()
        vid, _, y, *rest = lines[5].split()
        lines[5] = " ".join([vid, "nan", y, *rest])
        node.write_text("\n".join(lines) + "\n")
        rc = main(["smooth", str(mesh_stem), "--max-iterations", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "quality" not in captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "non-finite" in captured.err and "m.node" in captured.err

    def test_node_count_mismatch_exits_2(self, mesh_stem, capsys):
        node = mesh_stem.with_suffix(".node")
        header, *body = node.read_text().splitlines()
        count, *fields = header.split()
        node.write_text(
            " ".join([str(int(count) + 3), *fields]) + "\n"
            + "\n".join(body) + "\n"
        )
        rc = main(["smooth", str(mesh_stem), "--max-iterations", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "header count" in err and "m.node" in err

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda tris: tris + [tris[0]], "duplicated"),
            (lambda tris: tris + [tris[0][1:] + tris[0][:1]], "duplicated"),
            (lambda tris: tris[:1], "no interior"),
            (lambda tris: [[tris[0][0]] * 3] + tris[1:], "repeated"),
        ],
        ids=["duplicate-triangle", "rotated-duplicate", "one-triangle",
             "repeated-vertex"],
    )
    def test_invalid_mesh_exits_2(self, mesh_stem, capsys, edit, match):
        ele = mesh_stem.with_suffix(".ele")
        _, *body = ele.read_text().splitlines()
        tris = edit([row.split()[1:4] for row in body])
        ele.write_text(
            f"{len(tris)} 3 0\n"
            + "".join(f"{i} {' '.join(t)}\n" for i, t in enumerate(tris))
        )
        rc = main(["smooth", str(mesh_stem), "--max-iterations", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "smoothed" not in captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert match in captured.err and "m.ele" in captured.err

    def test_lab_bad_stream_window_exits_2(self, tmp_path, capsys):
        rc = main(["lab", "init", "--db", str(tmp_path / "lab.db"),
                   "--stream-windows", "-3"])
        assert rc == 2
        assert "unknown stream window '-3'" in capsys.readouterr().err


class TestLab:
    def lab_args(self, tmp_path):
        return ["lab", "init", "--db", str(tmp_path / "lab.db"),
                "--domains", "ocean", "--orderings", "ori,rdr",
                "--experiments", "smooth", "--vertices", "150",
                "--max-iterations", "2"]

    def test_init_run_status_export(self, tmp_path, capsys):
        assert main(self.lab_args(tmp_path)) == 0
        assert "2 jobs queued" in capsys.readouterr().out

        assert main(["lab", "run", "--db", str(tmp_path / "lab.db"),
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "done 2, failed 0" in out
        assert "artifact cache" in out

        assert main(["lab", "status", "--db", str(tmp_path / "lab.db")]) == 0
        out = capsys.readouterr().out
        assert "done     2" in out

        target = tmp_path / "rows.json"
        assert main(["lab", "export", "--db", str(tmp_path / "lab.db"),
                     str(target)]) == 0
        rows = json.loads(target.read_text())
        assert len(rows) == 2
        assert {r["ordering"] for r in rows} == {"ori", "rdr"}
        assert all("final_quality" in r for r in rows)

    def test_init_is_idempotent_for_the_same_grid(self, tmp_path, capsys):
        assert main(self.lab_args(tmp_path)) == 0
        assert main(self.lab_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "already holds this grid" in out
        from repro.lab import JobStore

        store = JobStore(tmp_path / "lab.db")
        assert sum(store.counts().values()) == 2
        store.close()

    def test_export_csv(self, tmp_path, capsys):
        main(self.lab_args(tmp_path))
        main(["lab", "run", "--db", str(tmp_path / "lab.db")])
        target = tmp_path / "rows.csv"
        main(["lab", "export", "--db", str(tmp_path / "lab.db"), str(target)])
        header, *body = target.read_text().splitlines()
        assert "ordering" in header and "final_quality" in header
        assert len(body) == 2

    def test_init_unknown_mem_engine_exits_2(self, tmp_path, capsys):
        rc = main(["lab", "init", "--db", str(tmp_path / "lab.db"),
                   "--mem-engines", "turbo"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown mem engine 'turbo'" in err and "sharded" in err

    def test_run_obs_export_with_spans(self, tmp_path, capsys):
        db = tmp_path / "lab.db"
        assert main(["lab", "init", "--db", str(db), "--domains", "ocean",
                     "--orderings", "rdr", "--experiments", "smooth",
                     "--vertices", "150", "--max-iterations", "2"]) == 0
        assert main(["lab", "run", "--db", str(db), "--obs"]) == 0
        target = tmp_path / "rows.json"
        assert main(["lab", "export", "--db", str(db), str(target),
                     "--with-spans"]) == 0
        rows = json.loads(target.read_text())
        assert len(rows) == 1
        (row,) = rows
        assert row["spans"], "job_spans telemetry should join onto the row"
        names = {s["name"] for s in _flatten(row["spans"])}
        assert "smooth.run" in names
        assert row["metrics"]["counters"]["smoothing.vertices_smoothed"] > 0

    def test_export_without_spans_keeps_rows_flat(self, tmp_path):
        db = tmp_path / "lab.db"
        main(["lab", "init", "--db", str(db), "--domains", "ocean",
              "--orderings", "rdr", "--experiments", "smooth",
              "--vertices", "150", "--max-iterations", "2"])
        main(["lab", "run", "--db", str(db), "--obs"])
        target = tmp_path / "rows.json"
        main(["lab", "export", "--db", str(db), str(target)])
        (row,) = json.loads(target.read_text())
        assert "spans" not in row

    def test_reset_requeues_failed(self, tmp_path, capsys):
        from repro.lab import JobStore

        db = tmp_path / "lab.db"
        store = JobStore(db)
        store.create_run({}, [("k", {"experiment": "smooth"})], max_attempts=1)
        job = store.claim("w")
        store.fail(job.id, "boom")
        store.close()
        assert main(["lab", "reset", "--db", str(db)]) == 0
        assert "re-queued 1" in capsys.readouterr().out


class TestLabDistributedCLI:
    def test_bad_server_url_exits_2_listing_valid_forms(self, capsys):
        rc = main(["lab", "status", "--server", "ftp://somewhere:1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown server URL 'ftp://somewhere:1'" in err
        assert "http://<host>:<port>" in err and err.count("\n") == 1

    def test_work_rejects_a_pathlike_server_target(self, capsys):
        rc = main(["lab", "work", "--server", "lab.db"])
        assert rc == 2
        assert "unknown server URL" in capsys.readouterr().err

    def test_unreachable_server_exits_2_with_one_line(self, capsys):
        rc = main(["lab", "status", "--server", "http://127.0.0.1:9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: job server unreachable")
        assert err.count("\n") == 1

    def test_status_watch_local_store(self, tmp_path, capsys):
        from repro.lab import JobStore

        db = tmp_path / "lab.db"
        store = JobStore(db)
        store.create_run({}, [("k", {"experiment": "smooth"})])
        job = store.claim("w")
        store.complete(job.id, {"ok": True}, wall_s=0.1)
        store.close()
        rc = main(["lab", "status", "--db", str(db), "--watch"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "watching" in out
        assert "1/1 done" in out

    def test_status_watch_against_a_live_server(self, tmp_path, capsys):
        from repro.lab import LabServer

        server = LabServer(tmp_path / "lab.db", port=0).start_background()
        try:
            rc = main(["lab", "status", "--server", server.url, "--watch"])
            assert rc == 0
            assert "0/0 done" in capsys.readouterr().out
        finally:
            server.shutdown()
