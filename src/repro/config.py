"""Unified run configuration: one ``config=`` object for every entry point.

:class:`RunConfig` is the single frozen value object that
``run_ordering``, ``run_parallel_ordering``, ``simulate_trace``,
``simulate_multicore``, the smoother, the CLI, the bench layer and the
lab grid accept as ``config=``:

* ``mem_engine`` — multicore replay (``sequential``/``sharded``),
* ``trace_mode`` — where the smoother's access trace goes
  (``materialize``/``spill``/``fused``, see :mod:`repro.memsim.sink`):
  buffered into one in-memory ``AccessTrace``, streamed to the chunked
  on-disk format, or fed window-by-window straight into the streaming
  simulators so the monolithic trace never exists,
* ``seed`` — the stochastic-ordering seed,
* ``machine_profile`` — calibration profile for the default machine
  (``None`` keeps each API's historical default: serial pipelines
  calibrate ``"serial"``, parallel ones ``"scaling"``),
* ``stream_window_events`` — when set, the window of the cache
  simulators' windowed replay (otherwise sized from the machine): memory
  is bounded by one window and counts stay bit-identical; in
  ``fused``/``spill`` trace modes it also sets the sink's window size,
* ``obs`` — an :class:`ObsConfig` controlling span/metrics capture.

Engine-name validation is shared with the CLI and the lab grid:
:func:`engine_axes` exposes the valid names per axis and
:class:`UnknownNameError` (re-exported by :mod:`repro.lab.grid`) carries
the one-line "valid X: ..." message the CLI prints with exit status 2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

__all__ = [
    "DEFAULT_RUN_CONFIG",
    "MACHINE_PROFILES",
    "ObsConfig",
    "RunConfig",
    "UnknownNameError",
    "engine_axes",
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
    (the memsim package imports it back).
    """
    from .memsim.multicore import MEM_ENGINES
    from .memsim.sink import TRACE_MODES

    return {
        "mem_engine": tuple(MEM_ENGINES),
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
    """The unified replay/trace/seed/profile/observability selection.

    Frozen and hashable, so it can key caches and ride inside frozen
    specs (:class:`repro.lab.grid.JobSpec`,
    :class:`repro.bench.experiments.BenchConfig`).
    """

    mem_engine: str = "sequential"
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

