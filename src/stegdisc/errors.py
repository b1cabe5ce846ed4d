"""Exception types shared across the package."""


class StegDiscError(Exception):
    """Base class for every error raised by stegdisc."""


# -- addressing: permutations, rank codes and the address stream --------------

class NotAPermutation(StegDiscError):
    """Sequence is not a permutation (duplicate, missing or out-of-range element)."""


class CodeOutOfRange(StegDiscError):
    """Address code >= n! for the given alphabet size."""


class CounterOverflow(StegDiscError):
    """A mode C allocation would pass the disc's 2^p - 1 pointer bound."""


class InvalidCounter(StegDiscError):
    """Counter is not a completion point of the address stream."""


class AllocationStall(StegDiscError):
    """Too many consecutive occupied addresses; address space exhausted or hostile."""


# -- carrier / payload: encoding, the reader's checks, bitmaps ---------------

class CounterTooWide(StegDiscError):
    """next_counter does not fit in the configured p bits."""


class BadVersion(StegDiscError):
    """Payload header carries a version byte other than PAYLOAD_VERSION."""


class TruncatedPayload(StegDiscError):
    """Byte sequence too short for the payload it declares."""


class UnsupportedCarrier(StegDiscError):
    """Carrier object is not a format this build can embed into."""


class CapacityExceeded(StegDiscError):
    """Payload larger than the carrier's hidden capacity."""


# -- backend -----------------------------------------------------------------

class DuplicateAddress(StegDiscError):
    """A live post already occupies this ordered hashtag sequence."""


class BackendUnavailable(StegDiscError):
    """Transient backend failure (injected or real)."""


class NotFound(StegDiscError):
    """No live post at the given address."""


# -- disc --------------------------------------------------------------------

class ConfigInvalid(StegDiscError):
    """Disc configuration violates an invariant."""


class FileNotFound(StegDiscError):
    """Name not present in the catalog."""


class NameExists(StegDiscError):
    """Catalog already has a file with this name."""


class InvalidName(StegDiscError):
    """File name is empty or contains control characters."""


class ChainBroken(StegDiscError):
    """The chain or the catalog is corrupt: `kind` names the fault as fsck
    reports it, and `counter` is the offending pointer code."""

    def __init__(self, message: str, kind: str = "bad-block", counter: int = 0):
        super().__init__(message)
        self.kind = kind
        self.counter = counter


# -- command line: the shell's and the benchmark's one usage error ----------

class UsageError(StegDiscError):
    """Malformed command line: an unknown command, bad arguments, or a
    benchmark specification that is empty or out of range."""
