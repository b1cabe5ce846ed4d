"""Shared test helpers."""

import os
from pathlib import Path

import stegdisc
from stegdisc.carrier import CarrierObject, capacity, embed

# Directory that holds the imported ``stegdisc`` package: ``src`` in a
# checkout, ``site-packages`` when installed.
PACKAGE_ROOT = str(Path(stegdisc.__file__).resolve().parent.parent)


def child_env():
    """Environment for a child ``python -m stegdisc`` process.

    The child may run in another working directory, where a relative
    ``PYTHONPATH`` entry such as ``src`` points at nothing. So the
    package's own absolute location goes first; entries already present
    are kept after it.
    """
    env = os.environ.copy()
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + rest if rest else "")
    return env


def hide(raw):
    """A bitmap whose capacity is exactly len(raw), holding raw: one padded
    row, so read_payload decodes raw bytes as they stand."""
    cover = CarrierObject.bitmap(-(-8 * len(raw) // 3), 1)
    assert capacity(cover) == len(raw)
    return embed(cover, raw)
