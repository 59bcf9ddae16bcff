"""The paper's contribution: iCFP mechanisms and engine."""

from .icfp import ADVANCE, ICFPCore, ICFPFeatures, NORMAL, SIMPLE_RA
from .poison import PoisonAllocator
from .regfile import MainRegFile
from .signature import LoadSignature
from .slice_buffer import SliceBuffer, SliceEntry
from .store_buffer import ChainedStoreBuffer, ForwardResult, IndexedStall

__all__ = [
    "ICFPCore",
    "ICFPFeatures",
    "NORMAL",
    "ADVANCE",
    "SIMPLE_RA",
    "PoisonAllocator",
    "MainRegFile",
    "LoadSignature",
    "SliceBuffer",
    "SliceEntry",
    "ChainedStoreBuffer",
    "ForwardResult",
    "IndexedStall",
]
