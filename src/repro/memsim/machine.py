"""Machine descriptions for the cache simulator.

:func:`westmere_ex` reproduces the platform of the paper's Section 5.1:
4 sockets of 8 cores (Intel Xeon E7-8837), per-core 32 KB L1 and 256 KB
L2, 24 MB shared L3 per socket, inclusive hierarchy, 64-byte lines.
Access latencies follow the figures the paper quotes from Molka et al.:
L1 4 cycles, L2 10 cycles, L3 38-170 cycles (location-dependent), memory
175-290 cycles. The simulator uses the local-access end of each range by
default; the QPI (remote-socket) penalties are modelled in
:mod:`repro.memsim.multicore`.

Because the benchmark meshes are scaled down from the paper's 300-400k
vertices (pure-Python tracing), :func:`westmere_ex` accepts a ``scale``
that shrinks every cache capacity proportionally while keeping
latencies, associativities and line size fixed. Scaling caches with the
working set preserves the capacity-to-footprint ratios that produce
every effect the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CacheSpec",
    "MachineSpec",
    "westmere_ex",
    "tiny_machine",
    "calibrated_machine",
    "profile_line_size",
    "resolve_machine",
]


@dataclass(frozen=True)
class CacheSpec:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    latency_cycles: float
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache size and associativity must be positive")
        if self.size_bytes % (self.line_size * self.associativity):
            raise ValueError(
                f"{self.name}: size must be a multiple of line_size * ways"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class MachineSpec:
    """A NUMA multicore: private L1/L2 per core, shared L3 per socket."""

    name: str
    l1: CacheSpec
    l2: CacheSpec
    l3: CacheSpec
    memory_latency_cycles: float
    remote_l3_extra_cycles: float
    frequency_hz: float
    cores_per_socket: int = 8
    num_sockets: int = 4
    base_cycles_per_access: float = field(default=1.0)

    @property
    def num_cores(self) -> int:
        return self.cores_per_socket * self.num_sockets

    @property
    def line_size(self) -> int:
        return self.l1.line_size

    def levels(self) -> tuple[CacheSpec, CacheSpec, CacheSpec]:
        return (self.l1, self.l2, self.l3)


def _scaled(size: int, scale: float, line: int, ways: int) -> int:
    """Scale a capacity, rounding to a legal (line*ways multiple) size."""
    unit = line * ways
    units = max(1, round(size * scale / unit))
    return units * unit


def westmere_ex(*, scale: float = 1.0) -> MachineSpec:
    """The paper's Intel Westmere-EX platform (optionally cache-scaled)."""
    line = 64
    return MachineSpec(
        name=f"westmere-ex(scale={scale:g})",
        l1=CacheSpec("L1", _scaled(32 * 1024, scale, line, 8), 8, 4.0, line),
        l2=CacheSpec("L2", _scaled(256 * 1024, scale, line, 8), 8, 10.0, line),
        l3=CacheSpec(
            "L3", _scaled(24 * 1024 * 1024, scale, line, 24), 24, 38.0, line
        ),
        memory_latency_cycles=175.0,
        remote_l3_extra_cycles=132.0,  # 170 - 38: far end of the L3 range
        frequency_hz=2.67e9,  # Xeon E7-8837 nominal clock
        cores_per_socket=8,
        num_sockets=4,
    )


def profile_line_size(profile: str) -> int:
    """Default line granularity of a calibration profile.

    ``gpu-generic`` models 128-byte coalesced memory transactions;
    every CPU profile keeps the 64-byte Westmere line.
    """
    return 128 if profile == "gpu-generic" else 64


def calibrated_machine(
    footprint_bytes: int,
    *,
    profile: str = "serial",
    line_size: int | None = None,
) -> MachineSpec:
    """A Westmere-shaped machine sized to a given working-set footprint.

    The benchmark meshes are far smaller than the paper's, so instead of
    scaling every cache by one global factor (which makes L1 too small
    to hold even one smoothing neighborhood), the caches are sized
    relative to the *footprint*, keeping the regime of each level where
    the paper's machine sat relative to its working set:

    ``serial`` (Figures 1, 8, 9; Tables 2, 3)
        L1 holds the streaming frontier (64 lines), L2 ~15% of the
        footprint, L3 slightly above the footprint — the paper's 24 MB
        L3 vs ~21 MB mesh. L3 misses are then compulsory + conflict
        misses, exactly the "bare minimum" regime the paper reports.
    ``scaling`` (Figures 10-13)
        Same L1/L2, but per-socket L3 at 40% of the footprint: a single
        socket cannot hold the mesh, while several sockets' aggregate
        can — the regime that produces the paper's super-linear
        multi-socket speedups.
    ``gpu-generic`` (the accelerator-hierarchy rendition of the story)
        128-byte lines model coalesced memory transactions, so
        spatially-dense orderings pack more vertices per transaction;
        L1 is shared-memory-sized (48 KB, 32-way, cheap) like a
        per-SM scratchpad, the device-wide L2 holds ~25% of the
        footprint, and the memory-side last level sits just above the
        footprint with HBM-scale latencies. One "socket" of 32
        SM-like cores.

    Latencies, associativities, line size, core/socket counts and clock
    are Westmere-EX for the CPU profiles; ``line_size=None`` takes the
    profile's default (:func:`profile_line_size`).
    """
    if footprint_bytes <= 0:
        raise ValueError("footprint_bytes must be positive")
    if line_size is None:
        line_size = profile_line_size(profile)
    if profile == "gpu-generic":
        def gspec(name: str, size: int, ways: int, latency: float) -> CacheSpec:
            return CacheSpec(
                name, _scaled(size, 1.0, line_size, ways), ways, latency,
                line_size,
            )

        l1 = gspec("L1", 384 * line_size, 32, 28.0)
        l2 = gspec(
            "L2",
            max(2 * 384 * line_size, int(0.25 * footprint_bytes)),
            16,
            190.0,
        )
        l3 = gspec(
            "L3",
            max(2 * l2.size_bytes, int(1.05 * footprint_bytes)),
            16,
            350.0,
        )
        return MachineSpec(
            name=f"calibrated-gpu-generic({footprint_bytes}B)",
            l1=l1,
            l2=l2,
            l3=l3,
            memory_latency_cycles=480.0,
            remote_l3_extra_cycles=0.0,
            frequency_hz=1.4e9,
            cores_per_socket=32,
            num_sockets=1,
        )
    if profile == "serial":
        l2_frac, l3_frac = 0.15, 1.05
    elif profile == "scaling":
        # Match the paper's parallel regime: a per-thread block must NOT
        # fit in L2 even at 32 threads (Westmere: 675 KB blocks vs 256 KB
        # L2), so within-block streaming — not block geometry — decides
        # the L2 behaviour; a socket's L3 cannot hold the whole mesh at
        # low thread counts but aggregates across sockets can.
        l2_frac, l3_frac = 1.0 / 64.0, 0.40
    else:
        raise ValueError(f"unknown calibration profile {profile!r}")

    def spec(name: str, size: int, ways: int, latency: float) -> CacheSpec:
        return CacheSpec(
            name, _scaled(size, 1.0, line_size, ways), ways, latency, line_size
        )

    l1 = spec("L1", 64 * line_size, 8, 4.0)
    l2 = spec(
        "L2", max(2 * 64 * line_size, int(l2_frac * footprint_bytes)), 8, 10.0
    )
    l3 = spec(
        "L3", max(2 * l2.size_bytes, int(l3_frac * footprint_bytes)), 24, 38.0
    )
    return MachineSpec(
        name=f"calibrated-{profile}({footprint_bytes}B)",
        l1=l1,
        l2=l2,
        l3=l3,
        memory_latency_cycles=175.0,
        remote_l3_extra_cycles=132.0,
        frequency_hz=2.67e9,
        cores_per_socket=8,
        num_sockets=4,
    )


def resolve_machine(machine: MachineSpec | None) -> MachineSpec | None:
    """Pass a :class:`MachineSpec` (or ``None``) through; refuse the rest.

    A calibration-profile name string is refused too: the machine is
    ``calibrated_machine(footprint, profile=...)`` or the
    ``RunConfig(machine_profile=...)`` default of the pipeline APIs.
    """
    if machine is None or isinstance(machine, MachineSpec):
        return machine
    if isinstance(machine, str):
        raise TypeError(
            f"machine={machine!r}: profile-name strings are not accepted; "
            f"pass calibrated_machine(footprint, profile={machine!r}) or set "
            "RunConfig(machine_profile=...)"
        )
    raise TypeError(
        f"machine must be a MachineSpec, got {type(machine).__name__}"
    )


def tiny_machine() -> MachineSpec:
    """A deliberately tiny machine for unit tests (fast, easy to reason about)."""
    line = 64
    return MachineSpec(
        name="tiny",
        l1=CacheSpec("L1", 8 * line, 2, 1.0, line),
        l2=CacheSpec("L2", 32 * line, 4, 4.0, line),
        l3=CacheSpec("L3", 128 * line, 4, 16.0, line),
        memory_latency_cycles=64.0,
        remote_l3_extra_cycles=16.0,
        frequency_hz=1e9,
        cores_per_socket=2,
        num_sockets=2,
    )
