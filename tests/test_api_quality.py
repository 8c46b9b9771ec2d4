"""API-quality gates: every public item is documented and exported sanely.

These tests walk the installed package and enforce the documentation
contract of the deliverable: public modules, classes and functions carry
docstrings, ``__all__`` lists match what the modules actually define,
and the top-level namespace re-exports resolve.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.apps",
    "repro.bench",
    "repro.core",
    "repro.lab",
    "repro.mesh",
    "repro.meshgen",
    "repro.memsim",
    "repro.obs",
    "repro.ordering",
    "repro.parallel",
    "repro.quality",
    "repro.smoothing",
]


def iter_modules():
    for name in PACKAGES:
        pkg = importlib.import_module(name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__, prefix=f"{name}."):
            if info.name.endswith("__main__"):
                continue  # importing it would run the CLI
            yield importlib.import_module(info.name)


ALL_MODULES = list(iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_all_exports_resolve(module):
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_callables_documented(module):
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if obj.__module__.startswith("repro"):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{module.__name__}.{name} lacks a docstring"
                )


def test_top_level_api_surface():
    # The quick-tour names from the package docstring must exist.
    for name in (
        "generate_domain_mesh",
        "compare_orderings",
        "rdr_ordering",
        "laplacian_smooth",
        "reuse_distances",
        "westmere_ex",
        "parallel_smooth",
    ):
        assert name in repro.__all__
        assert hasattr(repro, name)


def test_version_present():
    assert repro.__version__.count(".") == 2


# The config= redesign froze these signatures; a change here is an API
# break and must be deliberate (update the snapshot in the same commit
# that documents the migration in DESIGN.md §11).
SIGNATURE_SNAPSHOT = {
    "repro.core.pipeline.run_ordering": (
        "(mesh: 'TriMesh', ordering: 'str', *, config: 'RunConfig | None' = "
        "None, machine: 'MachineSpec | None' = None, traversal: 'str' ="
        " 'greedy', max_iterations: 'int' = 50, fixed_iterations: 'int | None'"
        " = None, qualities: 'np.ndarray | None' = None, "
        "rank_passes_override: 'int | None' = None, precomputed_order: "
        "'np.ndarray | None' = None, summary_only: 'bool' = False, "
        "trace_dir: 'str | Path | None' = None) -> 'OrderedRun'"
    ),
    "repro.core.pipeline.run_parallel_ordering": (
        "(mesh: 'TriMesh', ordering: 'str', num_cores: 'int', *, config: "
        "'RunConfig | None' = None, machine: 'MachineSpec | None' = "
        "None, iterations: 'int' = 8, traversal: 'str' = 'greedy', affinity:"
        " 'str' = 'scatter', qualities: 'np.ndarray | None' = None) -> "
        "'ParallelRun'"
    ),
    "repro.core.pipeline.compare_orderings": (
        "(mesh: 'TriMesh', orderings: 'list[str]', *, config: "
        "'RunConfig | None' = None, machine: 'MachineSpec | None' = None, "
        "**kwargs) -> 'dict[str, OrderedRun]'"
    ),
    "repro.smoothing.laplacian.laplacian_smooth": (
        "(mesh: 'TriMesh', *, config: 'RunConfig | None' = None, **kwargs) "
        "-> 'SmoothingResult'"
    ),
    "repro.memsim.cache.simulate_trace": (
        "(lines: 'np.ndarray', machine: 'MachineSpec', *, config: "
        "'RunConfig | None' = None, next_line_prefetch: 'bool' = False, "
        "policy: 'str' = 'lru') -> 'HierarchyStats'"
    ),
    "repro.memsim.multicore.simulate_multicore": (
        "(lines_per_core: 'list[np.ndarray]', machine: 'MachineSpec', *,"
        " config: 'RunConfig | None' = None, affinity: 'str' = 'compact',"
        " quantum: 'int' = 64, max_workers: 'int | None' = None) -> "
        "'MulticoreResult'"
    ),
    "repro.memsim.machine.resolve_machine": (
        "(machine: 'MachineSpec | None') -> 'MachineSpec | None'"
    ),
    "repro.config.RunConfig": (
        "(mem_engine: 'str' = 'sequential', trace_mode: 'str' = "
        "'materialize', seed: 'int' = 0, "
        "machine_profile:"
        " 'str | None' = None, stream_window_events: 'int | None' = None, "
        "obs: 'ObsConfig' = <factory>) -> None"
    ),
}


@pytest.mark.parametrize("path", sorted(SIGNATURE_SNAPSHOT))
def test_public_signature_snapshot(path):
    module_name, _, attr = path.rpartition(".")
    obj = getattr(importlib.import_module(module_name), attr)
    assert str(inspect.signature(obj)) == SIGNATURE_SNAPSHOT[path], (
        f"{path} signature changed; if intentional, update the snapshot "
        "and the RunConfig migration table in DESIGN.md"
    )


def test_config_first_parameter_order():
    # Every redesigned API takes config= as its first keyword-only
    # parameter, so the unified spelling reads the same everywhere.
    from repro import LaplacianSmoother
    from repro.core import run_ordering, run_parallel_ordering
    from repro.memsim import simulate_multicore, simulate_trace

    for func in (
        run_ordering,
        run_parallel_ordering,
        simulate_trace,
        simulate_multicore,
        LaplacianSmoother.__init__,
    ):
        params = inspect.signature(func).parameters
        first_kwonly = next(
            p.name
            for p in params.values()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        )
        assert first_kwonly == "config", func.__qualname__


def test_public_methods_documented_on_key_classes():
    from repro.mesh import TriMesh
    from repro.memsim import AccessTrace, LRUCache, MemoryLayout
    from repro.smoothing import LaplacianSmoother

    for cls in (TriMesh, AccessTrace, LRUCache, MemoryLayout, LaplacianSmoother):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__ and member.__doc__.strip(), (
                f"{cls.__name__}.{name} lacks a docstring"
            )
