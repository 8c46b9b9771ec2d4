"""End-to-end determinism: identical invocations, byte-identical outputs.

Each scenario runs the real CLI in fresh subprocesses with *different*
``PYTHONHASHSEED`` values, so any hidden dependence on ``str``-hash
iteration order (set/dict ordering leaking into traversals, job keys,
CSV columns, ...) shows up as a byte diff. Compared artifacts:

* ``repro-lms smooth --seed 7``: stdout and the exported
  ``.node``/``.ele`` pair;
* one ``lab`` cell (init -> run -> export): the exported CSV with
  ``--drop-timing`` (the one intentionally nondeterministic column is
  the measured per-job wall time).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_cli(argv, *, cwd, hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONHASHSEED"] = str(hashseed)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_smooth_runs_are_byte_identical(tmp_path):
    outputs = []
    for hashseed, sub in ((0, "a"), (42, "b")):
        work = tmp_path / sub
        work.mkdir()
        gen_out = run_cli(
            ["generate", "ocean", "mesh", "--vertices", "250", "--seed", "7"],
            cwd=work,
            hashseed=hashseed,
        )
        smooth_out = run_cli(
            [
                "smooth", "mesh",
                "--ordering", "rdr",
                "--seed", "7",
                "--traversal", "greedy",
                "--output", "smoothed",
            ],
            cwd=work,
            hashseed=hashseed,
        )
        outputs.append(
            (
                gen_out,
                smooth_out,
                (work / "mesh.node").read_bytes(),
                (work / "mesh.ele").read_bytes(),
                (work / "smoothed.node").read_bytes(),
                (work / "smoothed.ele").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_smooth_engines_agree_on_exported_quality(tmp_path):
    """The CLI's convergence summary is the scalar oracle's."""
    from repro.mesh import read_triangle
    from repro.ordering import apply_ordering

    from tests.smoothing.oracles import scalar_smooth

    run_cli(
        ["generate", "ocean", "mesh", "--vertices", "250", "--seed", "7"],
        cwd=tmp_path,
        hashseed=0,
    )
    stdout = run_cli(
        ["smooth", "mesh", "--ordering", "rdr", "--seed", "7"],
        cwd=tmp_path,
        hashseed=0,
    )
    ordered, _ = apply_ordering(read_triangle(tmp_path / "mesh"), "rdr", seed=7)
    ref = scalar_smooth(ordered, max_iterations=50)
    assert stdout == (
        f"smoothed in {ref.iterations} iterations "
        f"({'converged' if ref.converged else 'iteration cap'}): "
        f"quality {ref.initial_quality:.4f} -> {ref.final_quality:.4f}\n"
    )


@pytest.mark.slow
def test_lab_run_exports_are_byte_identical(tmp_path):
    exports = []
    for hashseed, sub in ((0, "a"), (42, "b")):
        work = tmp_path / sub
        work.mkdir()
        run_cli(
            [
                "lab", "init",
                "--db", "lab.db",
                "--experiments", "smooth",
                "--domains", "ocean",
                "--orderings", "rdr,ori",
                "--vertices", "150",
                "--seeds", "7,8",
                "--max-iterations", "3",
            ],
            cwd=work,
            hashseed=hashseed,
        )
        run_cli(
            ["lab", "run", "--db", "lab.db", "--workers", "1"],
            cwd=work,
            hashseed=hashseed,
        )
        run_cli(
            [
                "lab", "export", "--db", "lab.db", "--drop-timing",
                "results.csv",
            ],
            cwd=work,
            hashseed=hashseed,
        )
        run_cli(
            [
                "lab", "export", "--db", "lab.db", "--drop-timing",
                "results.json",
            ],
            cwd=work,
            hashseed=hashseed,
        )
        exports.append(
            (
                (work / "results.csv").read_bytes(),
                (work / "results.json").read_bytes(),
            )
        )
    assert exports[0] == exports[1]
    # Sanity: the export actually contains the four grid cells.
    assert exports[0][0].count(b"\n") == 5  # header + 4 rows
