"""stegdisc: a virtual filesystem hidden in hashtag-addressed posts.

Blocks live inside multimedia objects posted to a (simulated) open
social network; each object's address is a unique permutation of n
hashtags, and hidden p-bit pointers chain the blocks into files.
`__all__` names the library entry points; import other names from their modules.
"""

from . import errors
from .disc import Disc
from .document import DiscConfig
from .osn import DirectoryBackend, MemoryBackend

__version__ = "0.1.0"

__all__ = ["errors", "Disc", "DiscConfig", "DirectoryBackend", "MemoryBackend", "__version__"]
