"""Million-vertex pipeline probe, run in a child process.

``test_scale_bench.py`` launches this script with ``subprocess`` so the
peak-RSS measurement (``ru_maxrss``) covers exactly the out-of-core
pipeline — meshgen to disk, memory-mapped load, smoothing, and the
streamed or fused simulation — and nothing of the pytest parent.
``ru_maxrss`` is sampled *in this process, immediately at pipeline
end* (before temp cleanup or JSON encoding can allocate), so the
number is the pipeline's own high-water mark, not a parent-side poll
that can miss the peak between samples. Prints one JSON object on
stdout.

Usage: ``python scale_child.py ROWS COLS WINDOW_EVENTS [TRACE_MODE]``
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time

from repro.config import RunConfig
from repro.core.pipeline import run_ordering
from repro.meshgen import load_chunked_mesh, write_structured_rectangle


def peak_rss_bytes() -> int:
    # Linux reports ru_maxrss in kibibytes.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(
    rows: int, cols: int, window_events: int, trace_mode: str
) -> dict:
    with tempfile.TemporaryDirectory(prefix="scale-bench-") as tmp:
        t0 = time.perf_counter()
        path = write_structured_rectangle(
            tmp,
            rows,
            cols,
            name="scale-rect",
            perturb_amplitude=0.25,
            seed=0,
        )
        meshgen_s = time.perf_counter() - t0

        mesh = load_chunked_mesh(path, mmap=True)
        config = RunConfig(
            trace_mode=trace_mode,
            stream_window_events=window_events,
        )
        t0 = time.perf_counter()
        # The fused leg is the production summary path: cache counts +
        # modeled cost, no reuse analyses (which the materialized leg
        # also skips — OrderedRun computes them lazily, never here).
        run = run_ordering(
            mesh,
            "rdr",
            config=config,
            fixed_iterations=1,
            summary_only=trace_mode == "fused",
        )
        pipeline_s = time.perf_counter() - t0
        # Sample the high-water mark at pipeline end, in the child.
        peak_rss = peak_rss_bytes()

    events = int(run.cost.num_accesses)
    return {
        "vertices": int(mesh.num_vertices),
        "triangles": int(mesh.num_triangles),
        "ordering": "rdr",
        "trace_mode": trace_mode,
        "stream_window_events": window_events,
        "events": events,
        "meshgen_s": meshgen_s,
        "pipeline_s": pipeline_s,
        "events_per_s": events / pipeline_s,
        "peak_rss_bytes": peak_rss,
        "l1_hits": int(run.cache.l1.hits),
        "l3_misses": int(run.cache.l3.misses),
    }


if __name__ == "__main__":
    rows, cols, window = (int(a) for a in sys.argv[1:4])
    mode = sys.argv[4] if len(sys.argv) > 4 else "materialize"
    print(json.dumps(main(rows, cols, window, mode)))
