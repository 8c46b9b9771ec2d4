"""Unit tests for machine descriptions."""

import pytest

from repro.memsim import CacheSpec, calibrated_machine, tiny_machine, westmere_ex


class TestWestmereEx:
    def test_paper_geometry(self):
        m = westmere_ex()
        assert m.l1.size_bytes == 32 * 1024
        assert m.l2.size_bytes == 256 * 1024
        assert m.l3.size_bytes == 24 * 1024 * 1024
        assert m.cores_per_socket == 8
        assert m.num_sockets == 4
        assert m.num_cores == 32
        assert m.line_size == 64

    def test_paper_latencies(self):
        m = westmere_ex()
        assert m.l1.latency_cycles == 4.0
        assert m.l2.latency_cycles == 10.0
        assert m.l3.latency_cycles == 38.0
        assert m.memory_latency_cycles == 175.0

    def test_scaling_shrinks_caches(self):
        m = westmere_ex(scale=0.01)
        assert m.l1.size_bytes < 32 * 1024
        assert m.l2.size_bytes < 256 * 1024
        # Sizes remain legal (line * ways multiples).
        for spec in m.levels():
            assert spec.size_bytes % (spec.line_size * spec.associativity) == 0

    def test_num_sets(self):
        m = westmere_ex()
        assert m.l1.num_lines == 512
        assert m.l1.num_sets == 64


class TestCalibratedMachine:
    def test_serial_profile_l3_exceeds_footprint(self):
        fp = 1_000_000
        m = calibrated_machine(fp, profile="serial")
        assert m.l3.size_bytes >= fp
        assert m.l2.size_bytes < fp
        assert m.l1.num_lines == 64

    def test_scaling_profile_l3_below_footprint(self):
        fp = 1_000_000
        m = calibrated_machine(fp, profile="scaling")
        assert m.l3.size_bytes < fp
        assert m.l2.size_bytes <= fp // 32

    def test_levels_nested(self):
        for profile in ("serial", "scaling"):
            m = calibrated_machine(500_000, profile=profile)
            assert m.l1.size_bytes < m.l2.size_bytes < m.l3.size_bytes

    def test_tiny_footprint_floors(self):
        m = calibrated_machine(1024)
        assert m.l1.size_bytes <= m.l2.size_bytes <= m.l3.size_bytes

    def test_rejects_bad_profile(self):
        with pytest.raises(ValueError, match="profile"):
            calibrated_machine(1000, profile="warp")

    def test_rejects_bad_footprint(self):
        with pytest.raises(ValueError, match="positive"):
            calibrated_machine(0)


class TestTinyMachine:
    def test_valid_and_small(self):
        m = tiny_machine()
        assert m.l1.num_lines == 8
        assert m.num_cores == 4


class TestCacheSpecValidation:
    def test_size_multiple_of_ways(self):
        with pytest.raises(ValueError):
            CacheSpec("x", 64 * 3, 2, 1.0, 64)


class TestGpuGenericProfile:
    def test_coalescing_line_size(self):
        from repro.memsim import profile_line_size

        assert profile_line_size("gpu-generic") == 128
        assert profile_line_size("serial") == 64
        assert profile_line_size("scaling") == 64

    def test_geometry_and_latencies(self):
        fp = 1_000_000
        m = calibrated_machine(fp, profile="gpu-generic")
        assert m.line_size == 128
        assert m.l1.size_bytes == 48 * 1024  # shared-memory-sized
        assert m.l1.associativity == 32
        # Sizes are rounded to line*ways allocation units.
        unit = 128 * 16
        assert m.l2.size_bytes >= int(0.25 * fp) - unit
        assert m.l3.size_bytes >= int(1.05 * fp) - unit
        assert m.memory_latency_cycles == 480.0
        assert m.remote_l3_extra_cycles == 0.0
        assert m.num_sockets == 1
        assert m.cores_per_socket == 32
        assert "gpu-generic" in m.name

    def test_levels_nested(self):
        m = calibrated_machine(500_000, profile="gpu-generic")
        assert m.l1.size_bytes < m.l2.size_bytes < m.l3.size_bytes


class TestResolveMachine:
    def test_spec_and_none_pass_through(self):
        from repro.memsim import resolve_machine

        m = tiny_machine()
        assert resolve_machine(m) is m
        assert resolve_machine(None) is None

    def test_string_profile_is_type_error(self):
        from repro.memsim import resolve_machine

        with pytest.raises(TypeError, match="calibrated_machine.*machine_profile"):
            resolve_machine("serial")

    def test_unknown_profile_raises_unknown_name(self):
        from repro.config import RunConfig, UnknownNameError
        from repro.memsim import resolve_machine

        # resolve_machine refuses any string before a name lookup; profile
        # names are resolved (and unknown ones rejected) by RunConfig.
        with pytest.raises(TypeError, match="calibrated_machine"):
            resolve_machine("warp")
        with pytest.raises(UnknownNameError, match="warp"):
            RunConfig(machine_profile="warp").validate()

    def test_string_without_footprint_is_type_error(self):
        from repro.memsim import resolve_machine

        # The message points at the call that supplies the footprint.
        with pytest.raises(TypeError, match=r"calibrated_machine\(footprint"):
            resolve_machine("serial")

    def test_non_machine_non_string_is_type_error(self):
        from repro.memsim import resolve_machine

        with pytest.raises(TypeError, match="MachineSpec"):
            resolve_machine(42)

    def test_simulate_trace_rejects_profile_string(self):
        import numpy as np

        from repro.memsim import simulate_trace

        lines = np.arange(32, dtype=np.int64)
        with pytest.raises(TypeError, match="calibrated_machine"):
            simulate_trace(lines, "serial")
