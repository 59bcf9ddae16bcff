"""Machine configuration (Table 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.hierarchy import HierarchyConfig


@dataclass(frozen=True)
class MachineConfig:
    """Core + hierarchy configuration shared by all five machine models.

    Defaults reproduce Table 1: a 10-stage, 2-way superscalar in-order
    pipeline (3 I$ / 1 decode / 1 reg-read / 1 ALU / 3 D$ / 1 reg-write)
    with 2 integer ports and 1 combined fp/load/store/branch port, a
    32-entry associative store buffer, and the Table 1 hierarchy.
    """

    width: int = 2
    int_ports: int = 2
    mem_ports: int = 1
    #: Fetch-to-issue depth: 3 I$ stages + decode + register read.
    frontend_depth: int = 5
    fetch_queue_depth: int = 12
    store_buffer_entries: int = 32
    #: Pre-install the program's code lines in the I$/L2 before timing.
    #: The paper precedes every measured sample with a 4M-instruction
    #: cache/predictor warm-up; for our short kernels this flag plays
    #: that role for the instruction stream.
    warm_icache: bool = True
    #: Pre-install the program's initial data image in the L2, and its
    #: declared hot regions in the D$ (steady-state stand-in for the
    #: paper's warm-up).  Insertion is in ascending address order and
    #: stops at ``assoc`` data words per set, so each L2 set keeps its
    #: lowest-addressed lines, the highest of them most-recently-used: a
    #: structure larger than the L2 keeps only its head resident.
    warm_dcache: bool = False
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig.hpca09)
    #: Safety valve for the cycle loop (simulation aborts beyond this).
    max_cycles: int = 200_000_000

    @staticmethod
    def hpca09(l2_hit_latency: int = 20, stream_buffers: int = 8) -> "MachineConfig":
        """Table 1 configuration; ``l2_hit_latency`` varies in Figure 6."""
        return MachineConfig(
            hierarchy=HierarchyConfig.hpca09(
                l2_hit_latency=l2_hit_latency, stream_buffers=stream_buffers
            )
        )
