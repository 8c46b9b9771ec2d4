"""The unified :class:`RunConfig`: validation, round-trips through the
CLI flags, the lab's job specs, the bench config and saved dicts, and
the refusal of the retired per-kwarg engine spellings."""

import argparse
import dataclasses

import numpy as np
import pytest

from repro import ObsConfig, RunConfig, engine_axes, laplacian_smooth
from repro.bench.experiments import BenchConfig
from repro.cli import add_engine_args, add_obs_args, run_config_from_args
from repro.config import UnknownNameError
from repro.core import run_ordering, run_summary
from repro.lab.grid import ExperimentGrid, JobSpec
from repro.memsim import simulate_multicore, simulate_trace, tiny_machine


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.mem_engine == "sequential"
        assert cfg.trace_mode == "materialize"
        assert cfg.seed == 0
        assert cfg.machine_profile is None
        assert cfg.obs == ObsConfig()

    def test_frozen_and_hashable(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.mem_engine = "sharded"
        assert {cfg: 1}[RunConfig()] == 1

    def test_validate_returns_self_on_good_config(self):
        cfg = RunConfig(
            mem_engine="sharded",
            trace_mode="fused",
            machine_profile="scaling",
        )
        assert cfg.validate() is cfg

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"mem_engine": "turbo"}, "unknown mem engine 'turbo'"),
            ({"machine_profile": "laptop"}, "unknown machine profile 'laptop'"),
        ],
    )
    def test_validate_rejects_unknown_names(self, kwargs, message):
        with pytest.raises(UnknownNameError, match=message):
            RunConfig(**kwargs).validate()

    def test_replace_builds_a_new_config(self):
        cfg = RunConfig()
        other = cfg.replace(mem_engine="sharded", seed=7)
        assert other.mem_engine == "sharded" and other.seed == 7
        assert cfg.mem_engine == "sequential"

    def test_dict_round_trip_including_obs(self):
        cfg = RunConfig(
            trace_mode="fused",
            seed=3,
            obs=ObsConfig(enabled=True, trace_path="t.jsonl"),
        )
        data = cfg.as_dict()
        assert data["obs"]["trace_path"] == "t.jsonl"
        assert RunConfig.from_dict(data) == cfg

    def test_from_dict_ignores_unknown_keys(self):
        assert RunConfig.from_dict({"seed": 4, "bogus": 1}) == (
            RunConfig(seed=4)
        )

    def test_engine_axes_cover_every_axis(self):
        axes = engine_axes()
        assert list(axes) == ["mem_engine", "trace_mode"]
        assert axes["mem_engine"] == ("sequential", "sharded")
        assert axes["trace_mode"] == ("materialize", "spill", "fused")


class TestShimEquivalence:
    """The legacy per-kwarg spellings (deprecated since the ``config=``
    redesign) are gone: each is refused with ``TypeError`` instead of
    being silently swallowed."""

    def test_run_ordering_shim(self, ocean_mesh):
        for kwarg in ("engine", "sim_engine", "order_engine", "seed"):
            with pytest.raises(TypeError, match=kwarg):
                run_ordering(ocean_mesh, "rdr", fixed_iterations=1,
                             **{kwarg: 0})

    def test_laplacian_smooth_engine_shim(self, bumpy_mesh):
        with pytest.raises(TypeError, match="engine"):
            laplacian_smooth(bumpy_mesh, engine="vectorized")

    def test_simulate_trace_shim(self):
        with pytest.raises(TypeError, match="sim_engine"):
            simulate_trace(np.arange(4), tiny_machine(), sim_engine="batched")

    def test_simulate_multicore_shim(self):
        for kwarg in ("engine", "sim_engine"):
            with pytest.raises(TypeError, match=kwarg):
                simulate_multicore([np.arange(4)], tiny_machine(),
                                   **{kwarg: "sharded"})


class TestCliRoundTrip:
    def parse(self, argv, *, plural=False):
        parser = argparse.ArgumentParser()
        add_engine_args(parser, plural=plural)
        if not plural:
            add_obs_args(parser)
        return parser.parse_args(argv)

    def test_args_round_trip_into_a_config(self, tmp_path):
        args = self.parse([
            "--mem-engine", "sharded",
            "--trace-mode", "fused",
            "--seed", "7",
            "--trace-out", str(tmp_path / "t.jsonl"),
        ])
        cfg = run_config_from_args(args)
        assert cfg == RunConfig(
            mem_engine="sharded",
            trace_mode="fused",
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
            ["--mem-engines", "sequential,sharded", "--seeds", "0,1,2"],
            plural=True,
        )
        assert args.mem_engines == ("sequential", "sharded")
        assert args.trace_modes == ("materialize",)
        assert args.seeds == (0, 1, 2)


# Configs saved before the array-backend axis and the engine/sim-engine/
# order-engine axes were removed carry those keys (plural for a grid);
# loading ignores them.
RETIRED_KEYS = (
    "backend", "engine", "sim_engine", "order_engine",
    "backends", "engines", "sim_engines", "order_engines",
)
SAVED_WITH_BACKEND = [
    (
        RunConfig,
        {"engine": "vectorized", "sim_engine": "batched",
         "order_engine": "batched", "backend": "cupy", "seed": 2},
    ),
    (
        JobSpec,
        {"experiment": "pipeline", "domain": "ocean", "ordering": "rdr",
         "engine": "reference", "sim_engine": "batched",
         "order_engine": "reference", "backend": "torch"},
    ),
    (
        ExperimentGrid,
        {"domains": ["ocean"], "orderings": ["ori", "rdr"],
         "backends": ["numpy", "torch"], "engines": ["reference", "vectorized"],
         "sim_engines": ["batched"], "order_engines": ["reference", "batched"],
         "seeds": [0, 1]},
    ),
]


@pytest.mark.parametrize(
    "cls, saved", SAVED_WITH_BACKEND,
    ids=[cls.__name__ for cls, _ in SAVED_WITH_BACKEND],
)
def test_saved_backend_key_is_ignored(cls, saved):
    loaded = cls.from_dict(saved)
    expected = cls.from_dict(
        {k: v for k, v in saved.items() if k not in RETIRED_KEYS}
    )
    assert loaded == expected
    assert not any(hasattr(loaded, key) for key in RETIRED_KEYS)


class TestSpecRoundTrips:
    CFG = RunConfig(mem_engine="sharded", trace_mode="fused", seed=3)

    def test_job_spec_round_trip(self):
        spec = JobSpec.from_run_config(
            self.CFG, experiment="pipeline", domain="ocean", ordering="rdr"
        )
        assert spec.mem_engine == "sharded"
        assert spec.trace_mode == "fused"
        assert spec.to_run_config() == self.CFG
        assert "mem_engine=sharded" in spec.key()
        assert "trace_mode=fused" in spec.key()

    def test_bench_config_round_trip(self):
        cfg = BenchConfig.from_run_config(self.CFG, suite_scale=0.01)
        assert cfg.mem_engine == "sharded"
        assert cfg.suite_scale == 0.01
        assert cfg.to_run_config() == self.CFG

    def test_run_records_full_provenance(self, ocean_mesh):
        run = run_ordering(
            ocean_mesh,
            "rdr",
            config=RunConfig(seed=0),
            fixed_iterations=1,
        )
        row = run_summary(run)
        assert row["mem_engine"] == "sequential"
        assert row["trace_mode"] == "materialize"
        assert not {"engine", "sim_engine", "order_engine"} & set(row)
        assert row["seed"] == 0
        assert row["machine"] == run.machine.name
        assert row["machine_profile"] is None
