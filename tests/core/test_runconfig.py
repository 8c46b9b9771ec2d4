"""The unified :class:`RunConfig`: validation, round-trips, and the
deprecation shims that keep the legacy per-kwarg spellings working.

The shim-equivalence tests are the contract of the API redesign: every
legacy call must warn *and* produce results identical to the ``config=``
spelling.
"""

import argparse
import dataclasses

import numpy as np
import pytest

from repro import ObsConfig, RunConfig, engine_axes, laplacian_smooth
from repro.bench.experiments import BenchConfig
from repro.cli import add_engine_args, add_obs_args, run_config_from_args
from repro.config import (
    DEFAULT_RUN_CONFIG,
    UnknownNameError,
    resolve_config,
)
from repro.core import run_ordering, run_summary
from repro.lab.grid import ExperimentGrid, JobSpec
from repro.memsim import (
    MemoryLayout,
    simulate_multicore,
    simulate_trace,
    tiny_machine,
    westmere_ex,
)
from repro.parallel import parallel_traces
from repro.smoothing import trace_for_traversal


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.engine == "reference"
        assert cfg.sim_engine == "reference"
        assert cfg.mem_engine == "sequential"
        assert cfg.order_engine == "reference"
        assert cfg.seed == 0
        assert cfg.machine_profile is None
        assert cfg.obs == ObsConfig()

    def test_frozen_and_hashable(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.engine = "vectorized"
        assert {cfg: 1}[RunConfig()] == 1

    def test_validate_returns_self_on_good_config(self):
        cfg = RunConfig(
            engine="vectorized",
            sim_engine="batched",
            mem_engine="sharded",
            order_engine="batched",
            machine_profile="scaling",
        )
        assert cfg.validate() is cfg

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"engine": "turbo"}, "unknown engine 'turbo'"),
            ({"sim_engine": "turbo"}, "unknown sim engine 'turbo'"),
            ({"mem_engine": "turbo"}, "unknown mem engine 'turbo'"),
            ({"order_engine": "turbo"}, "unknown order engine 'turbo'"),
            ({"machine_profile": "laptop"}, "unknown machine profile 'laptop'"),
        ],
    )
    def test_validate_rejects_unknown_names(self, kwargs, message):
        with pytest.raises(UnknownNameError, match=message):
            RunConfig(**kwargs).validate()

    def test_replace_builds_a_new_config(self):
        cfg = RunConfig()
        other = cfg.replace(engine="vectorized", seed=7)
        assert other.engine == "vectorized" and other.seed == 7
        assert cfg.engine == "reference"

    def test_dict_round_trip_including_obs(self):
        cfg = RunConfig(
            engine="vectorized",
            seed=3,
            obs=ObsConfig(enabled=True, trace_path="t.jsonl"),
        )
        data = cfg.as_dict()
        assert data["obs"]["trace_path"] == "t.jsonl"
        assert RunConfig.from_dict(data) == cfg

    def test_from_dict_ignores_unknown_keys(self):
        assert RunConfig.from_dict({"engine": "vectorized", "bogus": 1}) == (
            RunConfig(engine="vectorized")
        )

    def test_engine_axes_cover_every_axis(self):
        axes = engine_axes()
        assert list(axes) == [
            "engine", "sim_engine", "mem_engine", "order_engine", "trace_mode"
        ]
        assert axes["engine"] == ("reference", "vectorized")
        assert axes["sim_engine"] == ("reference", "batched")
        assert axes["mem_engine"] == ("sequential", "sharded")
        assert axes["order_engine"] == ("reference", "batched")


class TestResolveConfig:
    def test_no_args_yields_the_default(self):
        assert resolve_config(None) is DEFAULT_RUN_CONFIG

    def test_explicit_config_passes_through_untouched(self):
        cfg = RunConfig(engine="vectorized")
        assert resolve_config(cfg) is cfg

    def test_none_valued_legacy_kwargs_do_not_warn(self, recwarn):
        assert resolve_config(None, engine=None, seed=None) is (
            DEFAULT_RUN_CONFIG
        )
        assert not recwarn.list

    def test_legacy_kwargs_warn_and_map_to_fields(self):
        with pytest.warns(DeprecationWarning, match="engine, seed"):
            cfg = resolve_config(None, engine="vectorized", seed=5)
        assert cfg == RunConfig(engine="vectorized", seed=5)

    def test_combining_config_and_legacy_kwargs_raises(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(TypeError, match="cannot combine config="):
                resolve_config(RunConfig(), engine="vectorized")


class TestShimEquivalence:
    """Legacy spellings must warn and produce identical results."""

    def test_run_ordering_shim(self, ocean_mesh):
        new = run_ordering(
            ocean_mesh,
            "rdr",
            config=RunConfig(sim_engine="batched"),
            fixed_iterations=2,
        )
        with pytest.warns(DeprecationWarning, match="sim_engine"):
            old = run_ordering(
                ocean_mesh, "rdr", sim_engine="batched", fixed_iterations=2
            )
        assert run_summary(old) == run_summary(new)

    def test_laplacian_smooth_engine_shim(self, bumpy_mesh):
        new = laplacian_smooth(
            bumpy_mesh,
            config=RunConfig(engine="vectorized"),
            max_iterations=3,
        )
        with pytest.warns(DeprecationWarning, match="engine"):
            old = laplacian_smooth(
                bumpy_mesh, engine="vectorized", max_iterations=3
            )
        assert np.array_equal(old.mesh.vertices, new.mesh.vertices)
        assert old.iterations == new.iterations

    def test_simulate_trace_shim(self, ocean_mesh):
        trace = trace_for_traversal(
            ocean_mesh, np.arange(ocean_mesh.num_vertices)
        )
        lines = MemoryLayout.for_mesh(ocean_mesh).lines(trace)
        machine = tiny_machine()
        new = simulate_trace(
            lines, machine, config=RunConfig(sim_engine="batched")
        )
        with pytest.warns(DeprecationWarning, match="sim_engine"):
            old = simulate_trace(lines, machine, sim_engine="batched")
        assert old == new

    def test_simulate_multicore_shim(self, ocean_mesh):
        machine = westmere_ex()
        traces = parallel_traces(ocean_mesh, 2, iterations=1,
                                 traversal="storage")
        layout = MemoryLayout.for_mesh(ocean_mesh, line_size=machine.line_size)
        streams = [layout.lines(t) for t in traces]
        new = simulate_multicore(
            streams, machine, config=RunConfig(mem_engine="sharded")
        )
        with pytest.warns(DeprecationWarning, match="mem_engine"):
            old = simulate_multicore(streams, machine, engine="sharded")
        assert old.access_counts() == new.access_counts()
        assert old.modeled_seconds == new.modeled_seconds


class TestCliRoundTrip:
    def parse(self, argv, *, plural=False):
        parser = argparse.ArgumentParser()
        add_engine_args(parser, plural=plural)
        if not plural:
            add_obs_args(parser)
        return parser.parse_args(argv)

    def test_args_round_trip_into_a_config(self, tmp_path):
        args = self.parse([
            "--engine", "vectorized",
            "--sim-engine", "batched",
            "--mem-engine", "sharded",
            "--order-engine", "batched",
            "--seed", "7",
            "--trace-out", str(tmp_path / "t.jsonl"),
        ])
        cfg = run_config_from_args(args)
        assert cfg == RunConfig(
            engine="vectorized",
            sim_engine="batched",
            mem_engine="sharded",
            order_engine="batched",
            seed=7,
            obs=ObsConfig(
                enabled=True, trace_path=str(tmp_path / "t.jsonl")
            ),
        )

    def test_defaults_round_trip_with_obs_disabled(self):
        cfg = run_config_from_args(self.parse([]))
        assert cfg == RunConfig()
        assert not cfg.obs.enabled

    def test_plural_args_parse_into_tuples(self):
        args = self.parse(
            ["--engines", "reference,vectorized", "--seeds", "0,1,2"],
            plural=True,
        )
        assert args.engines == ("reference", "vectorized")
        assert args.sim_engines == ("reference",)
        assert args.mem_engines == ("sequential",)
        assert args.order_engines == ("reference",)
        assert args.seeds == (0, 1, 2)


# Configs saved before the array-backend axis was removed carry a
# "backend" ("backends" for a grid) key; loading ignores it.
SAVED_WITH_BACKEND = [
    (RunConfig, {"engine": "vectorized", "backend": "cupy", "seed": 2}),
    (
        JobSpec,
        {"experiment": "pipeline", "domain": "ocean", "ordering": "rdr",
         "sim_engine": "batched", "backend": "torch"},
    ),
    (
        ExperimentGrid,
        {"domains": ["ocean"], "orderings": ["ori", "rdr"],
         "backends": ["numpy", "torch"], "seeds": [0, 1]},
    ),
]


@pytest.mark.parametrize(
    "cls, saved", SAVED_WITH_BACKEND,
    ids=[cls.__name__ for cls, _ in SAVED_WITH_BACKEND],
)
def test_saved_backend_key_is_ignored(cls, saved):
    loaded = cls.from_dict(saved)
    expected = cls.from_dict(
        {k: v for k, v in saved.items() if k not in ("backend", "backends")}
    )
    assert loaded == expected
    assert not hasattr(loaded, "backend") and not hasattr(loaded, "backends")


class TestSpecRoundTrips:
    CFG = RunConfig(
        engine="vectorized", sim_engine="batched", mem_engine="sharded",
        order_engine="batched", seed=3,
    )

    def test_job_spec_round_trip(self):
        spec = JobSpec.from_run_config(
            self.CFG, experiment="pipeline", domain="ocean", ordering="rdr"
        )
        assert spec.engine == "vectorized"
        assert spec.mem_engine == "sharded"
        assert spec.order_engine == "batched"
        assert spec.to_run_config() == self.CFG
        assert "mem_engine=sharded" in spec.key()
        assert "order_engine=batched" in spec.key()

    def test_bench_config_round_trip(self):
        cfg = BenchConfig.from_run_config(self.CFG, suite_scale=0.01)
        assert cfg.engine == "vectorized"
        assert cfg.suite_scale == 0.01
        assert cfg.to_run_config() == self.CFG

    def test_run_records_full_provenance(self, ocean_mesh):
        run = run_ordering(
            ocean_mesh,
            "rdr",
            config=RunConfig(
                engine="vectorized", sim_engine="batched",
                order_engine="batched",
            ),
            fixed_iterations=1,
        )
        row = run_summary(run)
        assert row["engine"] == "vectorized"
        assert row["sim_engine"] == "batched"
        assert row["mem_engine"] == "sequential"
        assert row["order_engine"] == "batched"
        assert row["seed"] == 0
        assert row["machine"] == run.machine.name
        assert row["machine_profile"] is None
