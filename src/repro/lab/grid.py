"""Experiment grids: the cartesian product a ``lab`` run sweeps.

A grid is ``experiments x domains x orderings x vertex budgets x
cache scales x seeds``; :meth:`ExperimentGrid.expand` turns it into one
:class:`JobSpec` per cell.  Specs are plain frozen dataclasses with a
canonical string key, which doubles as the job-identity key in the
store (``UNIQUE(run_id, key)``) and feeds the content-addressed
artifact cache.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import product

# UnknownNameError moved to repro.config (the CLI and RunConfig.validate
# share it); re-exported here for backward compatibility.
from ..config import RunConfig, UnknownNameError, engine_axes
from ..meshgen import list_domains
from ..ordering import ORDERINGS

__all__ = ["ExperimentGrid", "JobSpec", "UnknownNameError", "validate_names"]


@dataclass(frozen=True)
class JobSpec:
    """One experiment cell — everything a worker needs to execute it."""

    experiment: str
    domain: str
    ordering: str
    vertices: int = 300
    seed: int = 0
    cache_scale: float = 1.0
    quality_structure: str = "ramp"
    max_iterations: int = 8
    mem_engine: str = "sequential"
    trace_mode: str = "materialize"
    stream_window_events: int | None = None

    def key(self) -> str:
        """Canonical identity string (job uniqueness + cache keying)."""
        return "|".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    @classmethod
    def from_run_config(cls, config: RunConfig, **kwargs) -> "JobSpec":
        """A spec whose engine axes and seed come from ``config``;
        everything else (experiment, domain, ...) via ``kwargs``."""
        return cls(
            **{axis: getattr(config, axis) for axis in engine_axes()},
            seed=config.seed,
            stream_window_events=config.stream_window_events,
            **kwargs,
        )

    def to_run_config(self) -> RunConfig:
        """The :class:`repro.config.RunConfig` projection of this spec
        (what the worker runners pass to the pipeline APIs)."""
        return RunConfig(
            **{axis: getattr(self, axis) for axis in engine_axes()},
            seed=self.seed,
            stream_window_events=self.stream_window_events,
        )

    def mesh_params(self) -> dict:
        """The parameters that determine the generated mesh (cache key)."""
        return {
            "domain": self.domain,
            "vertices": self.vertices,
            "seed": self.seed,
            "quality_structure": self.quality_structure,
        }


def validate_names(
    *,
    domains: tuple[str, ...] = (),
    orderings: tuple[str, ...] = (),
    experiments: tuple[str, ...] = (),
    mem_engines: tuple[str, ...] = (),
    trace_modes: tuple[str, ...] = (),
) -> None:
    """Raise :class:`UnknownNameError` for the first unknown name."""
    from .worker import EXPERIMENT_RUNNERS  # late: worker imports JobSpec

    known_domains = list_domains()
    for name in domains:
        if name not in known_domains:
            raise UnknownNameError("domain", name, known_domains)
    for name in orderings:
        if name not in ORDERINGS:
            raise UnknownNameError("ordering", name, list(ORDERINGS))
    for name in experiments:
        if name not in EXPERIMENT_RUNNERS:
            raise UnknownNameError("experiment", name, list(EXPERIMENT_RUNNERS))
    # Engine axes share one validation loop with repro.config — the
    # plural keyword for axis "x" is "xs" (mem_engines, trace_modes).
    supplied = {"mem_engine": mem_engines, "trace_mode": trace_modes}
    for axis, choices in engine_axes().items():
        for name in supplied.get(axis, ()):
            if name not in choices:
                raise UnknownNameError(
                    axis.replace("_", " "), name, list(choices)
                )


@dataclass(frozen=True)
class ExperimentGrid:
    """A sweep specification, expandable into :class:`JobSpec` cells."""

    experiments: tuple[str, ...] = ("pipeline",)
    domains: tuple[str, ...] = ("ocean",)
    orderings: tuple[str, ...] = ("ori", "rdr")
    vertices: tuple[int, ...] = (300,)
    seeds: tuple[int, ...] = (0,)
    cache_scales: tuple[float, ...] = (1.0,)
    quality_structure: str = "ramp"
    max_iterations: int = 8
    mem_engines: tuple[str, ...] = ("sequential",)
    trace_modes: tuple[str, ...] = ("materialize",)
    stream_windows: tuple[int | None, ...] = (None,)

    def validate(self) -> "ExperimentGrid":
        validate_names(
            domains=self.domains,
            orderings=self.orderings,
            experiments=self.experiments,
            mem_engines=self.mem_engines,
            trace_modes=self.trace_modes,
        )
        for window in self.stream_windows:
            if window is not None and (
                not isinstance(window, int) or window < 1
            ):
                raise UnknownNameError(
                    "stream window", str(window), ["None", "any int >= 1"]
                )
        return self

    def expand(self) -> list[JobSpec]:
        """One spec per grid cell, in deterministic order."""
        return [
            JobSpec(
                experiment=experiment,
                domain=domain,
                ordering=ordering,
                vertices=vertices,
                seed=seed,
                cache_scale=scale,
                quality_structure=self.quality_structure,
                max_iterations=self.max_iterations,
                mem_engine=mem_engine,
                trace_mode=trace_mode,
                stream_window_events=stream_window,
            )
            for experiment, domain, ordering, vertices, scale, seed,
            mem_engine, trace_mode, stream_window
            in product(
                self.experiments,
                self.domains,
                self.orderings,
                self.vertices,
                self.cache_scales,
                self.seeds,
                self.mem_engines,
                self.trace_modes,
                self.stream_windows,
            )
        ]

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentGrid":
        names = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        for key in (
            "experiments", "domains", "orderings", "vertices", "seeds",
            "cache_scales", "mem_engines", "trace_modes", "stream_windows",
        ):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)
