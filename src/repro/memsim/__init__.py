"""Unified-memory substrate: device memory, page table, chunk chain, and
the staged MemorySystem pipeline."""

from .address import chunk_of, chunk_base_vpn, chunk_vpns, page_index_in_chunk
from .device_memory import DeviceMemory
from .page_table import PageTable
from .pcie import PCIeLink
from .chunk_chain import ChunkChain, ChunkEntry
from .fault import FarFault, InFlightMigration
from .system import (
    EvictionService,
    FaultFrontend,
    FrameLedger,
    IntervalClock,
    MemorySystem,
    MigrationScheduler,
)

__all__ = [
    "MemorySystem",
    "FaultFrontend",
    "MigrationScheduler",
    "EvictionService",
    "IntervalClock",
    "FrameLedger",
    "chunk_of",
    "chunk_base_vpn",
    "chunk_vpns",
    "page_index_in_chunk",
    "DeviceMemory",
    "PageTable",
    "PCIeLink",
    "ChunkChain",
    "ChunkEntry",
    "FarFault",
    "InFlightMigration",
]
