"""Memory-hierarchy simulation substrate.

Replaces the paper's PAPI-instrumented Westmere-EX runs: access traces
recorded from the smoother are translated to cache lines by the layout
model and fed to reuse-distance analysis, an inclusive LRU hierarchy
simulator, the Equation-(2) timing model, and a multicore (shared-L3)
simulator.
"""

from .analysis import ArrayBreakdown, per_array_breakdown, trace_summary
from .batched import batched_levels
from .chunked import TRACE_MANIFEST, ChunkedTrace, ChunkedTraceWriter
from .cache import (
    CacheHierarchy,
    HierarchyStats,
    LevelStats,
    LRUCache,
    observe_hierarchy_stats,
    simulate_trace,
)
from .layout import DEFAULT_ELEMENT_SIZES, MemoryLayout
from .machine import (
    CacheSpec,
    MachineSpec,
    calibrated_machine,
    profile_line_size,
    resolve_machine,
    tiny_machine,
    westmere_ex,
)
from .multicore import (
    MEM_ENGINES,
    CoreResult,
    MulticoreResult,
    affinity_sockets,
    simulate_multicore,
    simulate_socket,
)
from .sharded import simulate_multicore_sharded, socket_shards
from .sink import (
    DEFAULT_FUSED_WINDOW_EVENTS,
    TRACE_MODES,
    FusedAnalysis,
    FusedSink,
    LineSink,
    MaterializeSink,
    SpillSink,
    TraceSink,
    replay_chunked_trace,
    replay_trace,
    replay_trace_windows,
)
from .streaming import (
    StreamingBucketedSeries,
    StreamingHierarchy,
    StreamingReuse,
    iter_line_windows,
    simulate_trace_streaming,
    streaming_reuse_distances,
)
from .reuse import (
    COLD,
    ReuseProfile,
    bucketed_series,
    hits_under_capacity,
    max_elements_within,
    profile_from_distances,
    reuse_distances,
)
from .timing import CostBreakdown, extra_miss_cycles, modeled_time
from .trace import ARRAY_IDS, ARRAY_NAMES, AccessTrace, TraceBuilder

__all__ = [
    "ARRAY_IDS",
    "ARRAY_NAMES",
    "AccessTrace",
    "ArrayBreakdown",
    "CacheHierarchy",
    "CacheSpec",
    "ChunkedTrace",
    "ChunkedTraceWriter",
    "COLD",
    "CoreResult",
    "CostBreakdown",
    "DEFAULT_ELEMENT_SIZES",
    "DEFAULT_FUSED_WINDOW_EVENTS",
    "FusedAnalysis",
    "FusedSink",
    "HierarchyStats",
    "LevelStats",
    "LineSink",
    "LRUCache",
    "MEM_ENGINES",
    "MachineSpec",
    "MaterializeSink",
    "MemoryLayout",
    "MulticoreResult",
    "ReuseProfile",
    "SpillSink",
    "StreamingBucketedSeries",
    "StreamingHierarchy",
    "StreamingReuse",
    "TRACE_MANIFEST",
    "TRACE_MODES",
    "TraceBuilder",
    "TraceSink",
    "affinity_sockets",
    "batched_levels",
    "bucketed_series",
    "calibrated_machine",
    "extra_miss_cycles",
    "hits_under_capacity",
    "iter_line_windows",
    "max_elements_within",
    "modeled_time",
    "observe_hierarchy_stats",
    "per_array_breakdown",
    "profile_from_distances",
    "profile_line_size",
    "replay_chunked_trace",
    "replay_trace",
    "replay_trace_windows",
    "resolve_machine",
    "reuse_distances",
    "simulate_multicore",
    "simulate_multicore_sharded",
    "simulate_socket",
    "simulate_trace",
    "simulate_trace_streaming",
    "socket_shards",
    "streaming_reuse_distances",
    "tiny_machine",
    "trace_summary",
    "westmere_ex",
]
