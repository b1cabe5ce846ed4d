"""stegdisc: a virtual filesystem hidden in hashtag-addressed posts.

Blocks live inside multimedia objects posted to a (simulated) open
social network; each object's address is a unique permutation of n
hashtags, and hidden p-bit pointers chain the blocks into files.
"""

from . import errors
from .carrier import BlockPayload, CarrierObject, CarrierPool
from .disc import ChainReport, Disc, TradeoffStats, compute_chain_length
from .document import DiscConfig, FileEntry
from .osn import DirectoryBackend, MemoryBackend, open_backend
from .steghash import (
    CheckpointLadder,
    HashtagAlphabet,
    ReplayCursor,
    SamplerState,
    allocate_address,
    rank,
    sampler_advance,
    sampler_replay,
    unrank,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "BlockPayload",
    "CarrierObject",
    "CarrierPool",
    "ChainReport",
    "Disc",
    "DiscConfig",
    "FileEntry",
    "TradeoffStats",
    "compute_chain_length",
    "DirectoryBackend",
    "MemoryBackend",
    "open_backend",
    "CheckpointLadder",
    "HashtagAlphabet",
    "ReplayCursor",
    "SamplerState",
    "allocate_address",
    "rank",
    "sampler_advance",
    "sampler_replay",
    "unrank",
    "__version__",
]
