"""Deterministic network/disk simulation and failure injection."""

from repro.simnet.disk import Disk, DiskFile, DiskScope, LocalDisk, SimDisk
from repro.simnet.faultplan import FaultPlan, offsets_within_watermark
from repro.simnet.network import (
    FailureInjector,
    LatencyModel,
    ServerQueue,
    SimNetwork,
    fixed_latency,
    lognormal_latency,
    uniform_latency,
)

__all__ = [
    "Disk",
    "DiskFile",
    "DiskScope",
    "FailureInjector",
    "FaultPlan",
    "LatencyModel",
    "LocalDisk",
    "ServerQueue",
    "SimDisk",
    "SimNetwork",
    "fixed_latency",
    "lognormal_latency",
    "offsets_within_watermark",
    "uniform_latency",
]
