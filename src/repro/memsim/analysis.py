"""Trace analysis utilities: per-array breakdowns and summaries.

While :func:`repro.memsim.simulate_trace` reports aggregate per-level
statistics, the analysis here attributes every access (and every miss)
to the logical array it touched — showing, e.g., that the smoothing
kernel's misses live almost entirely in the coordinate gathers, which
is where reorderings act.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import RunConfig
from .batched import batched_levels
from .layout import MemoryLayout
from .machine import MachineSpec
from .reuse import COLD, reuse_distances
from .trace import ARRAY_NAMES, AccessTrace

__all__ = ["ArrayBreakdown", "per_array_breakdown", "trace_summary"]


@dataclass(frozen=True)
class ArrayBreakdown:
    """Access/miss attribution for one logical array."""

    array: str
    accesses: int
    writes: int
    l1_misses: int
    l2_misses: int
    l3_misses: int

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0

    def as_row(self) -> dict:
        return {
            "array": self.array,
            "accesses": self.accesses,
            "writes": self.writes,
            "L1_misses": self.l1_misses,
            "L2_misses": self.l2_misses,
            "L3_misses": self.l3_misses,
            "L1_miss_%": 100.0 * self.l1_miss_rate,
        }


def per_array_breakdown(
    trace: AccessTrace,
    layout: MemoryLayout,
    machine: MachineSpec,
) -> list[ArrayBreakdown]:
    """Simulate the hierarchy, attributing misses to logical arrays.

    Returns one row per array (in :data:`ARRAY_NAMES` order) that
    appears in the trace; the served level (1..4) of every access comes
    from the batched simulator.
    """
    lines = layout.lines(trace)
    ids = trace.array_ids
    _, levels = batched_levels(lines, machine)

    out: list[ArrayBreakdown] = []
    for aid, name in enumerate(ARRAY_NAMES):
        mask = ids == aid
        count = int(mask.sum())
        if count == 0:
            continue
        lv = levels[mask]
        out.append(
            ArrayBreakdown(
                array=name,
                accesses=count,
                writes=int(trace.is_write[mask].sum()),
                l1_misses=int(np.count_nonzero(lv >= 2)),
                l2_misses=int(np.count_nonzero(lv >= 3)),
                l3_misses=int(np.count_nonzero(lv >= 4)),
            )
        )
    return out


def trace_summary(
    trace: AccessTrace,
    layout: MemoryLayout,
    machine: MachineSpec | None = None,
    *,
    config: RunConfig | None = None,
) -> dict:
    """Structural summary of a trace.

    Reports length, per-array access shares, write fraction, distinct
    lines/elements touched, and the cold-access fraction at line
    granularity. When ``machine`` is given, a ``cache`` entry with
    per-level hierarchy statistics is included, simulated by
    :func:`repro.memsim.simulate_trace` under ``config``.
    """
    lines = layout.lines(trace)
    elements = layout.element_ids(trace)
    dists = reuse_distances(lines)
    per_array = {
        name: int(np.count_nonzero(trace.array_ids == aid))
        for aid, name in enumerate(ARRAY_NAMES)
        if np.count_nonzero(trace.array_ids == aid)
    }
    summary = {
        "length": len(trace),
        "iterations": trace.num_iterations,
        "writes": int(trace.is_write.sum()),
        "distinct_lines": int(np.unique(lines).size),
        "distinct_elements": int(np.unique(elements).size),
        "cold_fraction": float(np.count_nonzero(dists == COLD) / max(1, len(trace))),
        "per_array": per_array,
        "meta": dict(trace.meta),
    }
    if machine is not None:
        from .cache import simulate_trace

        stats = simulate_trace(lines, machine, config=config)
        summary["cache"] = [lv.as_row() for lv in stats.levels()]
    return summary
