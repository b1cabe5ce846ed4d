"""Spans and counters recorded from outside the program.

The tracer never edits a file under src/.  It wraps the calls that
cross a layer boundary:

- the backend handed to a Disc (BackendProxy) and the one the shell
  builds (open_backend as stegdisc.shell sees it);
- the carrier pool (PoolProxy);
- the public names stegdisc.disc imports from the carrier and steghash
  modules, and write_superblock, rebound while an op is traced;
- Disc as stegdisc.shell sees it (TracedDisc), for CLI ops.

Each span is (name, start, end, parent, op).  Names are
"<layer>.<call>", the layer being a module of src/stegdisc.  Spans nest
strictly (one thread, one call stack), so a span's self time is its
duration minus its direct children's.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import os
from array import array
from collections import Counter
from time import perf_counter

# names stegdisc.disc imports, and the span each call records
DISC_FUNCTIONS = {
    "embed": "carrier.embed",
    "encode_payload": "carrier.encode",
    "read_payload": "carrier.read_payload",
    "write_superblock": "disc.persist",
    "allocate_address": "steghash.allocate",
    "sampler_advance": "steghash.sampler_advance",
    "rank": "steghash.rank",
    "unrank": "steghash.unrank",
}


def _hashes(args, out):
    """SHA-256 iterations a sampler call made: its result state minus its input state."""
    return out[2].iteration - args[0].iteration


# rebound names whose calls also count what they did: counter, amount(args, result)
DISC_COUNTS = {
    "allocate_address": ("steghash.alloc_hashes", _hashes),
    "sampler_advance": ("steghash.replay_hashes", _hashes),
    "embed": ("carrier.bytes_embedded", lambda args, out: len(args[1])),
    "write_superblock": ("disc.persist_bytes", lambda args, out: os.stat(args[0]).st_size),
}
DISC_CLASSES = ("ReplayCursor", "CarrierObject")
BACKEND_VERBS = ("post", "fetch", "exists", "replace", "remove")


class Tracer:
    """In-memory span store plus per-op counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.span_ops = array("l")
        self.op_counts: dict[int, Counter] = {}
        self.op = -1
        self._stack: list[int] = []
        self._counts = Counter()
        self.unhooked: dict[str, str] = {}  # rebinding target -> why it is missing

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.span_ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, value: int = 1) -> None:
        self._counts[key] += value

    def start_op(self, op_index: int) -> None:
        self.op = op_index
        self._counts = self.op_counts.setdefault(op_index, Counter())

    def finish_op(self) -> None:
        self.op = -1
        self._counts = Counter()

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.span_ops):
                out.write(json.dumps(row) + "\n")


class BackendProxy:
    """A backend whose queries record osn.<verb> spans; exceptions they
    raise are counted as osn.errors."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        for verb in BACKEND_VERBS:
            setattr(self, verb, _backend_call(tracer, f"osn.{verb}", getattr(inner, verb)))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _backend_call(tracer: Tracer, span: str, fn):
    def call(*args, **kwargs):
        idx = tracer.begin(span)
        try:
            return fn(*args, **kwargs)
        except Exception:
            tracer.count("osn.errors")
            raise
        finally:
            tracer.end(idx)

    return call


class PoolProxy:
    """A carrier pool whose next_carrier records carrier.synth spans."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.next_carrier = tracer.wrap("carrier.synth", inner.next_carrier)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Instrumentation:
    """Rebinds the names a traced op calls through, and restores them."""

    def __init__(self, tracer: Tracer):
        import stegdisc.disc as disc_mod
        import stegdisc.shell as shell_mod

        self.tracer = tracer
        hooks = [
            (disc_mod, name, lambda fn, name=name, span=span: self._function(name, span, fn))
            for name, span in DISC_FUNCTIONS.items()
        ]
        hooks += [(disc_mod, name, lambda cls, name=name: self._class(name, cls)) for name in DISC_CLASSES]
        hooks.append((shell_mod, "open_backend", self._opener))
        hooks.append((shell_mod, "Disc", lambda cls: _traced_disc_class(cls, tracer)))
        self._patches = []
        for mod, name, make in hooks:
            if hasattr(mod, name):
                self._patches.append((mod, name, make(getattr(mod, name))))
            else:
                tracer.unhooked[f"{mod.__name__}.{name}"] = f"{mod.__name__} no longer has it"
        self._saved = [(mod, name, getattr(mod, name)) for mod, name, _ in self._patches]

    def install(self) -> None:
        for mod, name, value in self._patches:
            setattr(mod, name, value)

    def uninstall(self) -> None:
        for mod, name, value in self._saved:
            setattr(mod, name, value)

    def _opener(self, open_backend):
        """open_backend whose backends are proxied, timed as osn.open."""
        tracer = self.tracer
        timed = tracer.wrap("osn.open", open_backend)
        return lambda config: BackendProxy(timed(config), tracer)

    def _function(self, name, span, fn):
        if name in DISC_COUNTS:
            key, amount = DISC_COUNTS[name]
            return _counted(self.tracer, span, fn, key, amount)
        return self.tracer.wrap(span, fn)

    def _class(self, name, cls):
        tracer = self.tracer
        begin, end, count = tracer.begin, tracer.end, tracer.count
        if name == "ReplayCursor":
            class TracedCursor(cls):
                def resolve(self, counter):
                    before = self.iterations
                    idx = begin("steghash.resolve")
                    try:
                        return super().resolve(counter)
                    finally:
                        end(idx)
                        count("steghash.replay_hashes", self.iterations - before)
            return TracedCursor

        class TracedCarrier(cls):
            @classmethod
            def from_bytes(klass, data):
                idx = begin("carrier.parse")
                try:
                    return super().from_bytes(data)
                finally:
                    end(idx)
        return TracedCarrier


def _counted(tracer: Tracer, span: str, fn, key: str, amount):
    """fn timed as span; afterwards amount(args, result) is added to key."""

    def call(*args, **kwargs):
        idx = tracer.begin(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        tracer.count(key, amount(args, out))
        return out

    return call


def _traced_disc_class(disc_cls, tracer: Tracer):
    """Disc as the shell sees it: each public call records a disc.<call>
    span, and the pool it builds records carrier spans."""
    methods = ("write_file", "read_file", "delete_file", "modify_file", "list_files", "fsck")

    class TracedDisc(disc_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.pool = PoolProxy(self.pool, tracer)

        @classmethod
        def open(cls, *args, **kwargs):
            idx = tracer.begin("disc.open")
            try:
                return super().open(*args, **kwargs)
            finally:
                tracer.end(idx)

    for name in methods:
        if hasattr(disc_cls, name):
            setattr(TracedDisc, name, tracer.wrap(f"disc.{name}", getattr(disc_cls, name)))
    return TracedDisc

