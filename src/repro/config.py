"""Unified run configuration: one ``config=`` object instead of a kwarg zoo.

Before this module, engine selection sprawled into three parallel kwarg
families — ``engine=`` (smoothing), ``sim_engine=`` (cache simulator),
``mem_engine=`` (multicore replay) — duplicated with ``seed=`` across
``run_ordering``, ``run_parallel_ordering``, ``simulate_trace``,
``simulate_multicore``, the CLI, the bench layer and the lab grid.
:class:`RunConfig` is the single frozen value object all of those accept
as ``config=``:

* ``engine`` — smoothing execution engine (``reference``/``vectorized``),
* ``sim_engine`` — cache simulator (``reference``/``batched``),
* ``mem_engine`` — multicore replay (``sequential``/``sharded``),
* ``order_engine`` — vertex-ordering engine (``reference``/``batched``;
  both produce identical permutations, the batched one vectorizes the
  traversal/chain machinery),
* ``seed`` — the stochastic-ordering seed,
* ``machine_profile`` — calibration profile for the default machine
  (``None`` keeps each API's historical default: serial pipelines
  calibrate ``"serial"``, parallel ones ``"scaling"``),
* ``trace_mode`` — where the smoother's access trace goes
  (``materialize``/``spill``/``fused``, see :mod:`repro.memsim.sink`):
  buffered into one in-memory ``AccessTrace``, streamed to the chunked
  on-disk format, or fed window-by-window straight into the streaming
  simulators so the monolithic trace never exists,
* ``stream_window_events`` — when set, cache simulation replays the
  line stream in bounded windows of this many events through the
  streaming engines (bit-identical counts, memory bounded by one
  window) instead of materializing per-level index structures over the
  whole stream; in ``fused``/``spill`` trace modes it also sets the
  sink's window size,
* ``obs`` — an :class:`ObsConfig` controlling span/metrics capture.

Legacy kwargs keep working through :func:`resolve_config`, which maps
them onto a ``RunConfig`` and emits a :class:`DeprecationWarning`
attributed to the caller (``stacklevel``), so the test suite can run
with ``error::DeprecationWarning`` filtered to ``repro.*`` and fail any
*internal* call site still using the old spelling while external callers
merely see the warning.

Engine-name validation is shared with the CLI and the lab grid:
:func:`engine_axes` exposes the valid names per axis and
:class:`UnknownNameError` (re-exported by :mod:`repro.lab.grid`) carries
the one-line "valid X: ..." message the CLI prints with exit status 2.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, fields, replace

__all__ = [
    "DEFAULT_RUN_CONFIG",
    "MACHINE_PROFILES",
    "ObsConfig",
    "RunConfig",
    "UnknownNameError",
    "engine_axes",
    "resolve_config",
]

#: Calibration profiles understood by
#: :func:`repro.memsim.machine.calibrated_machine`.
MACHINE_PROFILES = ("gpu-generic", "serial", "scaling")


class UnknownNameError(ValueError):
    """An unknown domain/ordering/experiment/engine name, with the valid
    choices.

    The CLI turns this into a one-line message and exit status 2.
    """

    def __init__(self, kind: str, name: str, choices):
        self.kind = kind
        self.name = name
        self.choices = sorted(choices)
        super().__init__(
            f"unknown {kind} {name!r}; valid {kind}s: {', '.join(self.choices)}"
        )


def engine_axes() -> dict[str, tuple[str, ...]]:
    """Valid engine names per axis, keyed by the ``RunConfig`` field.

    Imported lazily so this module stays dependency-free at import time
    (the smoothing and memsim packages import it back for their shims).
    """
    from .memsim.batched import SIM_ENGINES
    from .memsim.multicore import MEM_ENGINES
    from .memsim.sink import TRACE_MODES
    from .ordering.base import ORDER_ENGINES
    from .smoothing.laplacian import ENGINES

    return {
        "engine": tuple(ENGINES),
        "sim_engine": tuple(SIM_ENGINES),
        "mem_engine": tuple(MEM_ENGINES),
        "order_engine": tuple(ORDER_ENGINES),
        "trace_mode": tuple(TRACE_MODES),
    }


@dataclass(frozen=True)
class ObsConfig:
    """Observability flags carried by a :class:`RunConfig`.

    ``enabled`` turns span/metrics collection on for APIs that honour it
    (:func:`repro.obs.activated`); the paths, when set, receive the JSONL
    span log and the flat metrics snapshot once the traced call returns.
    """

    enabled: bool = False
    trace_path: str | None = None
    metrics_path: str | None = None

    def as_dict(self) -> dict:
        """Plain-dict form (JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ObsConfig":
        """Rebuild from :meth:`as_dict` output (unknown keys ignored)."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


@dataclass(frozen=True)
class RunConfig:
    """The unified engine/seed/profile/observability selection.

    Frozen and hashable, so it can key caches and ride inside frozen
    specs (:class:`repro.lab.grid.JobSpec`,
    :class:`repro.bench.experiments.BenchConfig`).
    """

    engine: str = "reference"
    sim_engine: str = "reference"
    mem_engine: str = "sequential"
    order_engine: str = "reference"
    trace_mode: str = "materialize"
    seed: int = 0
    machine_profile: str | None = None
    stream_window_events: int | None = None
    obs: ObsConfig = field(default_factory=ObsConfig)

    def validate(self) -> "RunConfig":
        """Check every engine name and the machine profile; returns self.

        Raises :class:`UnknownNameError` (a ``ValueError``) naming the
        valid choices for the first offending axis.
        """
        for axis, choices in engine_axes().items():
            if getattr(self, axis) not in choices:
                raise UnknownNameError(
                    axis.replace("_", " "), getattr(self, axis), choices
                )
        if self.machine_profile is not None and (
            self.machine_profile not in MACHINE_PROFILES
        ):
            raise UnknownNameError(
                "machine profile", self.machine_profile, MACHINE_PROFILES
            )
        if self.stream_window_events is not None and (
            not isinstance(self.stream_window_events, int)
            or isinstance(self.stream_window_events, bool)
            or self.stream_window_events < 1
        ):
            raise ValueError(
                "stream_window_events must be a positive int or None, "
                f"got {self.stream_window_events!r}"
            )
        return self

    def replace(self, **changes) -> "RunConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """Plain-dict form (``obs`` nested; JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Rebuild from :meth:`as_dict` output (unknown keys ignored)."""
        names = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        if isinstance(kwargs.get("obs"), dict):
            kwargs["obs"] = ObsConfig.from_dict(kwargs["obs"])
        return cls(**kwargs)


DEFAULT_RUN_CONFIG = RunConfig()


def resolve_config(
    config: RunConfig | None,
    *,
    stacklevel: int = 3,
    **legacy,
) -> RunConfig:
    """Merge deprecated per-kwarg engine selection into a ``RunConfig``.

    ``legacy`` holds the old kwargs keyed by their ``RunConfig`` field
    name, with ``None`` meaning "not passed".  Passing any of them emits
    a :class:`DeprecationWarning` attributed ``stacklevel`` frames up
    (default: the caller of the public API doing the resolving);
    combining them with an explicit ``config=`` raises ``TypeError``
    because the call would be ambiguous.
    """
    supplied = {k: v for k, v in legacy.items() if v is not None}
    if not supplied:
        return config if config is not None else DEFAULT_RUN_CONFIG
    names = ", ".join(sorted(supplied))
    warnings.warn(
        f"the {names} keyword(s) are deprecated; pass "
        f"config=RunConfig({', '.join(f'{k}=...' for k in sorted(supplied))}) "
        "instead",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
    if config is not None:
        raise TypeError(
            f"cannot combine config= with the deprecated {names} keyword(s)"
        )
    return RunConfig(**supplied)
