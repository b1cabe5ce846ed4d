#!/usr/bin/env python3
"""stegdisc benchmark: closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload deep-read-C --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                      # every workload, human summary

Each run makes its inputs from --seed before any timing: the starting
disc (format plus preload), then the measured op sequence.  It sets the
disc up several times and reports the median set-up time, runs ops one
after another for --seconds (and at least the workload's count window),
then closes with an fsck (it must be clean) and a reopen whose catalog
must match the expected one.  Every get is byte-compared with the bytes put.
A fixed CPU loop of the benchmark's own runs after every timed step, and
the declared times are scaled to the speed it shows (see Reference).

--trace 0 prints the end-to-end metrics.  --trace 1 traces every other
op of each kind (the rest run untraced, which gives the tracing
overhead) and prints the per-layer metrics.  Counts are taken over the
ops inside the count window, so they repeat exactly for one seed.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit status is 0 only when every op and check succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import BackendProxy, Instrumentation, PoolProxy, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

N = 7  # hashtag alphabet size
M = 64  # data bytes per block
MAX_FILE = 256  # files hold 1..MAX_FILE bytes, so 1..4 blocks
SETUP_REPEATS = 5
SETUP_CHUNK = 50  # preloaded files timed between two reference samples
MUTATIONS = ("put", "edit", "rm")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    p: int
    backend: str  # "dir" or "memory"
    files: int  # preloaded files
    mix: tuple[tuple[str, int], ...]  # (op kind, weight)
    cli: bool  # ops go through a fresh ShellSession each
    window: int  # leading measured ops whose counts must repeat exactly
    max_ops: int  # length of the generated op sequence

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(kind for kind, _ in self.mix)


# A file takes 2.5 blocks on average, so the preload holds about 2.5 *
# files blocks, and max_ops keeps the live blocks under 4000 of the
# 7! = 5040 addresses even when a run gets through the whole sequence.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("churn-B", "B", 16, "dir", 1000,
                 (("get", 40), ("put", 30), ("edit", 15), ("rm", 15)), False, 100, 4000),
        Workload("deep-read-C", "C", 24, "memory", 1000,
                 (("get", 85), ("put", 10), ("rm", 5)), False, 100, 12000),
        Workload("cli-reopen-A", "A", 16, "dir", 500,
                 (("put", 40), ("get", 40), ("ls", 15), ("fsck", 5)), True, 50, 2500),
    )
}


def import_program():
    """Import stegdisc from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "stegdisc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no stegdisc sources under {src}")
    sys.path.insert(0, str(src))
    import stegdisc
    import stegdisc.shell  # noqa: F401  (the CLI workload drives it)

    if Path(stegdisc.__file__).resolve().parent != (src / "stegdisc").resolve():
        raise SystemExit(f"perfbench: imported stegdisc from {stegdisc.__file__}, not {src}")
    return stegdisc


# -- inputs --------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    kind: str
    name: str | None = None
    data: bytes | None = None  # new contents for put and edit


@dataclass
class Plan:
    genesis: tuple[int, ...]
    disc_id: str
    preload: list[tuple[str, bytes]]
    ops: list[Op]


def _file_bytes(rng: random.Random) -> bytes:
    return rng.randbytes(rng.randint(1, MAX_FILE))


def make_plan(wl: Workload, seed: int) -> Plan:
    """Everything a run feeds the program, from the seed alone.

    Op kinds come in shuffled decks that hold the mix exactly, so any
    stretch of the sequence is close to the mix.  Names are drawn
    uniformly among the files live at that point of the sequence.
    """
    rng = random.Random(f"perfbench/{wl.name}/{seed}")
    genesis = tuple(rng.sample(range(N), N))
    preload = [(f"f{i:05d}", _file_bytes(rng)) for i in range(wl.files)]
    live = [name for name, _ in preload]
    slot = {name: i for i, name in enumerate(live)}
    unit = math.gcd(*(weight for _, weight in wl.mix))
    deck = [kind for kind, weight in wl.mix for _ in range(weight // unit)]
    ops = []
    for i in range(wl.max_ops):
        if i % len(deck) == 0:
            rng.shuffle(deck)
        kind = deck[i % len(deck)]
        if kind == "put":
            name = f"n{i:06d}"
            slot[name] = len(live)
            live.append(name)
            ops.append(Op(kind, name, _file_bytes(rng)))
        elif kind in ("get", "edit", "rm"):
            name = live[rng.randrange(len(live))]
            if kind == "rm":
                last = live.pop()
                if last != name:
                    live[slot[name]] = last
                    slot[last] = slot[name]
                del slot[name]
            ops.append(Op(kind, name, _file_bytes(rng) if kind == "edit" else None))
        else:
            ops.append(Op(kind))
    return Plan(genesis, f"pb{seed}", preload, ops)


# -- host speed ----------------------------------------------------------------

REF_HASHES = 1000
REF_SECONDS = 0.001  # one reference loop on the tuning host, about its median


class Reference:
    """A fixed CPU loop of the benchmark's own, run after every timed step.

    The host this was tuned on runs the same code up to 1.7x slower for
    stretches of a tenth of a second to minutes, with process CPU time
    equal to wall time, and the program's ops slow down with it.  The
    loop, SHA-256 in a Python loop as in the program's sampler, runs no
    program code, so no change to the program can move it.  Declared
    times are at reference speed: as measured, times REF_SECONDS over
    the median time of the loop in the same phase of the run (set-up or
    measured loop).  A filesystem part in the loop (a scan, small reads,
    an atomic rewrite) tracked the program's times worse than the CPU
    part alone, so it has none.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        gc.disable()  # so that garbage the program left is not collected in here
        try:
            started = perf_counter()
            digest = b""
            for i in range(REF_HASHES):
                digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
            self.samples.append(perf_counter() - started)
        finally:
            gc.enable()

    def take(self) -> list[float]:
        """The samples since the last take."""
        samples, self.samples = self.samples, []
        return samples


def host_factor(samples: list[float]) -> float:
    """What times measured alongside these reference samples are multiplied by."""
    return REF_SECONDS / statistics.median(samples)


# -- clients -------------------------------------------------------------------

class Client:
    """Drives one disc through the library (or the shell, see ShellClient).

    prepare(op) does the untimed work and returns the call to time;
    check(op, result, expected) judges the result afterwards.
    """

    def __init__(self, sd, wl: Workload, plan: Plan, workdir: Path, instrumentation=None):
        self.sd = sd
        self.wl = wl
        self.plan = plan
        self.workdir = workdir
        self.doc = workdir / "superblock.txt"
        self.osn_root = workdir / "osn"
        self.instrumentation = instrumentation
        self.tracing = False
        self.raw_backend = None
        self.raw_pool = None
        self.disc = None

    def _new_backend(self):
        if self.wl.backend == "dir":
            return self.sd.DirectoryBackend(self.osn_root)
        return self.sd.MemoryBackend()

    def format(self) -> None:
        """Format the starting disc in a new directory."""
        sd = self.sd
        self.workdir.mkdir(parents=True)
        self.raw_backend = self._new_backend()
        config = sd.DiscConfig.create(
            n=N, p=self.wl.p, m=M, mode=self.wl.mode,
            genesis=self.plan.genesis, disc_id=self.plan.disc_id,
        )
        self.disc = sd.Disc.format(config, self.raw_backend, doc_path=self.doc)
        self.raw_pool = self.disc.pool

    def preload(self, files: list[tuple[str, bytes]]) -> None:
        for name, data in files:
            self.disc.write_file(name, data)

    def traced(self, on: bool) -> None:
        self.tracing = on
        if on:
            self.instrumentation.install()
            tracer = self.instrumentation.tracer
            self.disc.backend = BackendProxy(self.raw_backend, tracer)
            self.disc.pool = PoolProxy(self.raw_pool, tracer)
        else:
            self.instrumentation.uninstall()
            self.disc.backend = self.raw_backend
            self.disc.pool = self.raw_pool

    def prepare(self, op: Op):
        disc = self.disc
        if op.kind == "get":
            return lambda: disc.read_file(op.name)
        if op.kind == "put":
            return lambda: disc.write_file(op.name, op.data)
        if op.kind == "edit":
            return lambda: disc.modify_file(op.name, op.data)
        if op.kind == "rm":
            return lambda: disc.delete_file(op.name)
        if op.kind == "fsck":
            return disc.fsck
        if op.kind == "reopen":
            return self._reopen
        raise ValueError(f"unknown op {op.kind!r}")

    def _reopen(self):
        """A second handle on the disc, as a new process would build it."""
        if self.wl.backend == "dir":
            with self._span("osn.open"):
                backend = self._new_backend()
        else:
            backend = self.raw_backend  # a memory backend lives only in this process
        with self._span("disc.open"):
            disc = self.sd.Disc.open(self.doc, backend)
        return disc.list_files()

    @contextlib.contextmanager
    def _span(self, name: str):
        if not self.tracing:
            yield
            return
        tracer = self.instrumentation.tracer
        idx = tracer.begin(name)
        try:
            yield
        finally:
            tracer.end(idx)

    def check(self, op: Op, result, expected: dict[str, bytes]) -> bool:
        if op.kind == "get":
            return result == expected.get(op.name)
        if op.kind == "fsck":
            return result.ok
        if op.kind == "reopen":
            return {e.name: e.length for e in result} == _lengths(expected)
        return True

    # -- measures of the disc, taken between ops ---------------------------------

    def state_bytes(self) -> int:
        return self.doc.stat().st_size

    def stored_bytes(self) -> int:
        # a dir backend is scanned anew: shell ops post through their own handles
        backend = self._new_backend() if self.wl.backend == "dir" else self.raw_backend
        return sum(len(backend.fetch(tags)) for tags in backend.live_addresses())


class ShellClient(Client):
    """Each op is one CLI invocation: a fresh ShellSession on the disc."""

    def traced(self, on: bool) -> None:
        self.tracing = on
        if on:
            self.instrumentation.install()
        else:
            self.instrumentation.uninstall()

    def prepare(self, op: Op):
        if op.kind == "reopen":
            return self._reopen
        if op.kind == "put":
            src = self.workdir / "in.bin"
            src.write_bytes(op.data)
            argv = ["put", str(src), op.name]
        elif op.kind == "get":
            dst = self.workdir / "out.bin"
            dst.unlink(missing_ok=True)
            argv = ["get", op.name, str(dst)]
        else:
            argv = [op.kind]  # ls, fsck
        shell = self.sd.shell
        spec = f"dir:{self.osn_root}"
        out = io.StringIO()

        def invoke():
            with contextlib.redirect_stdout(out):
                status = shell.ShellSession(self.doc, spec).execute(argv)
            return status, out.getvalue()

        return invoke

    def check(self, op: Op, result, expected: dict[str, bytes]) -> bool:
        if op.kind == "reopen":
            return super().check(op, result, expected)
        status, text = result
        if status != 0:
            return False
        if op.kind == "get":
            return (self.workdir / "out.bin").read_bytes() == expected.get(op.name)
        if op.kind == "ls":
            listed = {}
            for line in text.splitlines():
                name, length, _ = line.split("\t")
                listed[name] = int(length)
            return listed == _lengths(expected)
        if op.kind == "fsck":
            return text.startswith("clean")
        return True


def _lengths(files: dict[str, bytes]) -> dict[str, int]:
    return {name: len(data) for name, data in files.items()}


# -- one run -------------------------------------------------------------------

@dataclass
class OpRecord:
    index: int
    kind: str
    seconds: float
    traced: bool
    measured: bool  # False for the closing fsck and reopen
    ok: bool


@dataclass
class RunResult:
    setup_seconds: list[float]
    records: list[OpRecord]
    setup_reference: list[float]  # Reference samples of the set-ups
    loop_reference: list[float]  # and of the measured loop
    snapshot: dict[str, float]
    errors: list[str] = field(default_factory=list)
    tracer: object = None

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)


def run_workload(sd, wl: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    plan = make_plan(wl, seed)
    # One directory per set-up.  All are deleted only after the measured
    # phase, so the deletes' filesystem work does not land inside it;
    # deleting each disc as soon as it was timed made the later set-ups
    # slower and more variable.
    workdirs = [WORK / f"{wl.name}-{seed}-{os.getpid()}-{i}" for i in range(SETUP_REPEATS)]
    instrumentation = None
    tracer = None
    if trace:
        tracer = Tracer()
        instrumentation = Instrumentation(tracer)
    try:
        ref = Reference()
        setup_seconds = []
        for workdir in workdirs:
            client = (ShellClient if wl.cli else Client)(sd, wl, plan, workdir, instrumentation)
            setup_seconds.append(_timed_setup(client, ref))
        setup_reference = ref.take()
        expected = dict(plan.preload)
        records: list[OpRecord] = []
        errors: list[str] = []
        snapshot: dict[str, float] = {}
        kind_seen = Counter()

        def execute(index: int, op: Op, measured: bool) -> None:
            traced = trace and (not measured or kind_seen[op.kind] % 2 == 0)
            kind_seen[op.kind] += 1
            call = client.prepare(op)
            if traced:
                client.traced(True)
                tracer.start_op(index)
                layer = "shell" if wl.cli and op.kind != "reopen" else "disc"
                root = tracer.begin(f"{layer}.{op.kind}")
            ok = True
            started = perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed op is counted, the run goes on
                elapsed = perf_counter() - started
                ok = False
                errors.append(f"op {index} {op.kind} {op.name}: {type(exc).__name__}: {exc}")
            else:
                elapsed = perf_counter() - started
            if traced:
                tracer.end(root)
                tracer.finish_op()
                client.traced(False)
            if ok:
                _apply(op, expected)
                try:
                    ok = client.check(op, result, expected)
                except Exception as exc:  # e.g. an unparsable listing
                    ok = False
                    errors.append(f"op {index} {op.kind} {op.name}: check raised {exc!r}")
                else:
                    if not ok:
                        errors.append(f"op {index} {op.kind} {op.name}: wrong result")
            if measured:
                ref.sample()
            records.append(OpRecord(index, op.kind, elapsed, traced, measured, ok))

        started = perf_counter()
        for index, op in enumerate(plan.ops):
            if index >= wl.window and perf_counter() - started >= seconds:
                break
            execute(index, op, True)
            if index + 1 == wl.window:
                live_bytes = sum(len(data) for data in expected.values())
                snapshot = {
                    "state_bytes_per_file": client.state_bytes() / len(expected),
                    "stored_bytes_per_user_byte": client.stored_bytes() / live_bytes,
                }
        loop_reference = ref.take()

        for offset, op in enumerate((Op("fsck"), Op("reopen"))):
            execute(len(plan.ops) + offset, op, False)
        if trace:
            tracer.write(WORK / "traces" / f"{wl.name}-seed{seed}.jsonl.gz")
        return RunResult(setup_seconds, records, setup_reference, loop_reference,
                         snapshot, errors, tracer)
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)


def _timed_setup(client: Client, ref: Reference) -> float:
    """Seconds of format plus preload.  The preload is timed in chunks,
    with a Reference sample after each."""
    files = client.plan.preload
    steps = [client.format] + [
        functools.partial(client.preload, files[i:i + SETUP_CHUNK])
        for i in range(0, len(files), SETUP_CHUNK)
    ]
    seconds = 0.0
    for step in steps:
        started = perf_counter()
        step()
        seconds += perf_counter() - started
        ref.sample()
    return seconds


def _apply(op: Op, expected: dict[str, bytes]) -> None:
    if op.kind in ("put", "edit"):
        expected[op.name] = op.data
    elif op.kind == "rm":
        del expected[op.name]


# -- metrics -------------------------------------------------------------------

def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(result: RunResult) -> tuple[dict, dict]:
    """(metrics every workload reports, extras that exist only for some).

    Times are at reference speed (see Reference); the extras repeat the
    declared times as measured, under "raw.".
    """
    measured = [r for r in result.records if r.measured]
    by_kind = defaultdict(list)
    for r in result.records:  # failed ops too: a failure is no faster for the user
        if r.kind != "reopen":
            by_kind[r.kind].append(r.seconds * 1000)
    raw = {
        "setup_s": (statistics.median(result.setup_seconds), "s"),
        "ops_per_s": (len(measured) / sum(r.seconds for r in measured), "ops/s"),
        "put_ms.p50": (statistics.median(by_kind["put"]), "ms"),
        "get_ms.p50": (statistics.median(by_kind["get"]), "ms"),
    }
    setup_factor = host_factor(result.setup_reference)
    loop_factor = host_factor(result.loop_reference)
    metrics = {
        "setup_s": (raw["setup_s"][0] * setup_factor, "s"),
        "ops_per_s": (raw["ops_per_s"][0] / loop_factor, "ops/s"),
        "put_ms.p50": (raw["put_ms.p50"][0] * loop_factor, "ms"),
        "get_ms.p50": (raw["get_ms.p50"][0] * loop_factor, "ms"),
        "state_bytes_per_file": (result.snapshot["state_bytes_per_file"], "B"),
        "stored_bytes_per_user_byte": (result.snapshot["stored_bytes_per_user_byte"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extras = {f"raw.{name}": item for name, item in raw.items()}
    extras["reference.setup_ms"] = (statistics.median(result.setup_reference) * 1000, "ms")
    extras["reference.loop_ms"] = (statistics.median(result.loop_reference) * 1000, "ms")
    extras["failed_op_share"] = (result.failed / len(result.records), "ratio")
    extras["setup_s.each"] = ([round(t * setup_factor, 4) for t in result.setup_seconds], "s")
    for kind in ("edit", "rm", "ls", "fsck"):
        if by_kind[kind]:
            extras[f"{kind}_ms.p50"] = (statistics.median(by_kind[kind]) * loop_factor, "ms")
    for kind in ("put", "get"):
        if len(by_kind[kind]) >= 100:
            extras[f"{kind}_ms.p90"] = (_quantile(by_kind[kind], 0.9) * loop_factor, "ms")
    extras["samples"] = ({k: len(v) for k, v in sorted(by_kind.items())}, "count")
    return metrics, extras


SAMPLER_SPANS = ("steghash.allocate", "steghash.resolve", "steghash.sampler_advance")
SAMPLER_METRICS = ("steghash.hashes_per_op", "steghash.sampler_ms", "steghash.hashes_per_s")
# the metrics each rebound name feeds; when a name is gone they are unmeasured
METRICS_BY_HOOK = {
    "stegdisc.disc.embed": ("carrier.embed_calls", "carrier.embed_ms", "carrier.bytes_embedded"),
    "stegdisc.disc.encode_payload": ("carrier.encode_ms",),
    "stegdisc.disc.read_payload": ("carrier.read_payload_calls", "carrier.read_payload_ms"),
    "stegdisc.disc.write_superblock": (
        "disc.persist_calls", "disc.persist_bytes_per_mutation", "disc.persist_ms"),
    "stegdisc.disc.allocate_address": (
        "steghash.alloc_hashes_per_block", "osn.exists_per_alloc", *SAMPLER_METRICS),
    "stegdisc.disc.sampler_advance": ("steghash.replay_hashes_per_mutation", *SAMPLER_METRICS),
    "stegdisc.disc.ReplayCursor": (
        "steghash.replay_hashes_per_get", "steghash.replay_hashes_per_mutation", *SAMPLER_METRICS),
    "stegdisc.disc.rank": ("steghash.rank_calls", "steghash.rank_ms"),
    "stegdisc.disc.unrank": ("steghash.unrank_calls", "steghash.rank_ms"),
    "stegdisc.disc.CarrierObject": ("carrier.parse_ms",),
    "stegdisc.shell.open_backend": ("osn.open_ms",),
}


def per_layer(result: RunResult, wl: Workload) -> tuple[dict, dict, dict]:
    """(declared per-layer metrics, extras, unmeasured metric -> reason)."""
    tracer = result.tracer
    own = tracer.self_times()
    traced = {r.index: r for r in result.records if r.traced and r.ok}
    in_window = {i for i, r in traced.items() if r.measured and i < wl.window}
    in_run = {i for i, r in traced.items() if r.measured}

    window_spans = Counter()
    window_fetches = Counter()  # op index -> osn.fetch spans
    run_self = Counter()  # span name -> self seconds over traced measured ops
    layer_self = defaultdict(Counter)  # op index -> layer -> self seconds
    durations = defaultdict(list)  # span name -> durations over every traced op
    root_seconds = {}  # op index -> duration of the op's root span
    for idx, name in enumerate(tracer.names):
        op = tracer.span_ops[idx]
        if op not in traced:
            continue
        layer_self[op][name.split(".", 1)[0]] += own[idx]
        durations[name].append(tracer.ends[idx] - tracer.starts[idx])
        if tracer.parents[idx] == -1:
            root_seconds[op] = tracer.ends[idx] - tracer.starts[idx]
        if op in in_run:
            run_self[name] += own[idx]
        if op in in_window:
            window_spans[name] += 1
            if name == "osn.fetch":
                window_fetches[op] += 1
    window_counts = Counter()
    for i in in_window:
        window_counts.update(tracer.op_counts.get(i, {}))
    window_kinds = Counter(traced[i].kind for i in in_window)

    def per_kind_count(key, kinds):
        ops = [i for i in in_window if traced[i].kind in kinds]
        return sum(tracer.op_counts.get(i, {}).get(key, 0) for i in ops) / max(1, len(ops))

    def fetches_per_op(kind):
        ops = [i for i in in_window if traced[i].kind == kind]
        return sum(window_fetches[i] for i in ops) / max(1, len(ops))

    ops_in_run = max(1, len(in_run))

    def ms_per_op(*names):
        return sum(run_self[n] for n in names) * 1000 / ops_in_run

    def layer_ms_per_op(layer):
        return sum(layer_self[i][layer] for i in in_run) * 1000 / ops_in_run

    def kind_self_ms(layer, kind):
        ops = [i for i, r in traced.items() if r.kind == kind]
        return sum(layer_self[i][layer] for i in ops) * 1000 / len(ops) if ops else None

    sampler_s = sum(run_self[n] for n in SAMPLER_SPANS)
    run_hashes = sum(
        tracer.op_counts.get(i, {}).get(key, 0)
        for i in in_run for key in ("steghash.alloc_hashes", "steghash.replay_hashes")
    )
    allocs = window_spans["steghash.allocate"]
    mutations = sum(window_kinds[k] for k in MUTATIONS)
    window_hashes = window_counts["steghash.alloc_hashes"] + window_counts["steghash.replay_hashes"]
    # Declared metrics are never 0 on a gated workload; counts that are 0
    # by design on one of them (replay in mode A, rank in mode C, probes
    # in mode A) are extras.
    declared = {
        "steghash.hashes_per_op": (window_hashes / max(1, len(in_window)), "count"),
        "steghash.alloc_hashes_per_block": (window_counts["steghash.alloc_hashes"] / max(1, allocs), "count"),
        "steghash.hashes_per_s": (run_hashes / sampler_s if sampler_s else 0.0, "1/s"),
        "steghash.sampler_ms": (ms_per_op(*SAMPLER_SPANS), "ms"),
        "carrier.read_payload_calls": (window_spans["carrier.read_payload"], "count"),
        "carrier.read_payload_ms": (ms_per_op("carrier.read_payload"), "ms"),
        "carrier.embed_calls": (window_spans["carrier.embed"], "count"),
        "carrier.embed_ms": (ms_per_op("carrier.embed"), "ms"),
        "carrier.synth_ms": (ms_per_op("carrier.synth"), "ms"),
        "carrier.bytes_embedded": (window_counts["carrier.bytes_embedded"], "B"),
        "carrier.self_ms": (layer_ms_per_op("carrier"), "ms"),
        "osn.post_calls": (window_spans["osn.post"], "count"),
        "osn.fetch_calls": (window_spans["osn.fetch"], "count"),
        "osn.replace_calls": (window_spans["osn.replace"], "count"),
        "osn.post_ms": (ms_per_op("osn.post"), "ms"),
        "osn.fetch_ms": (ms_per_op("osn.fetch"), "ms"),
        "osn.replace_ms": (ms_per_op("osn.replace"), "ms"),
        "osn.self_ms": (layer_ms_per_op("osn"), "ms"),
        "osn.fetch_per_op.get": (fetches_per_op("get"), "count"),
        "osn.fetch_per_op.put": (fetches_per_op("put"), "count"),
        "disc.open_ms": (_mean_ms(durations["disc.open"]), "ms"),
        "disc.persist_calls": (window_spans["disc.persist"], "count"),
        "disc.persist_bytes_per_mutation": (window_counts["disc.persist_bytes"] / max(1, mutations), "B"),
        "disc.persist_ms": (ms_per_op("disc.persist"), "ms"),
        "disc.self_ms.get": (kind_self_ms("disc", "get"), "ms"),
        "disc.self_ms.put": (kind_self_ms("disc", "put"), "ms"),
    }
    extras = {
        "steghash.replay_hashes_per_get": (per_kind_count("steghash.replay_hashes", ("get",)), "count"),
        "steghash.replay_hashes_per_mutation": (per_kind_count("steghash.replay_hashes", MUTATIONS), "count"),
        "steghash.rank_calls": (window_spans["steghash.rank"], "count"),
        "steghash.unrank_calls": (window_spans["steghash.unrank"], "count"),
        "steghash.rank_ms": (ms_per_op("steghash.rank", "steghash.unrank"), "ms"),
        "carrier.parse_ms": (ms_per_op("carrier.parse"), "ms"),
        "carrier.encode_ms": (ms_per_op("carrier.encode"), "ms"),
        "osn.exists_calls": (window_spans["osn.exists"], "count"),
        "osn.remove_calls": (window_spans["osn.remove"], "count"),
        "osn.exists_ms": (ms_per_op("osn.exists"), "ms"),
        "osn.remove_ms": (ms_per_op("osn.remove"), "ms"),
        "osn.exists_per_alloc": (window_spans["osn.exists"] / max(1, allocs), "count"),
        "osn.errors": (sum(tracer.op_counts.get(i, {}).get("osn.errors", 0) for i in traced), "count"),
    }
    unmeasured = dict(tracer.unhooked)
    if durations["osn.open"]:
        extras["osn.open_ms"] = (_mean_ms(durations["osn.open"]), "ms")
    else:
        unmeasured["osn.open_ms"] = "the memory backend is never reopened"
    for kind in wl.kinds:
        if kind not in ("get", "put"):
            extras[f"osn.fetch_per_op.{kind}"] = (fetches_per_op(kind), "count")
    for kind in sorted({r.kind for r in traced.values()}):
        for layer in ("disc", "shell"):
            value = kind_self_ms(layer, kind)
            if value and f"{layer}.self_ms.{kind}" not in declared:
                extras[f"{layer}.self_ms.{kind}"] = (value, "ms")
    extras["trace.overhead_frac"] = (_overhead(result.records), "ratio")  # noise can make it < 0
    extras["trace.breakdown_ms"] = (_breakdown(traced, layer_self, root_seconds), "ms")

    for hook, why in tracer.unhooked.items():
        for name in METRICS_BY_HOOK.get(hook, ()):
            unmeasured[name] = f"{hook}: {why}"
            declared.pop(name, None)
            extras.pop(name, None)
    for table in (declared, extras):
        for name, (value, _) in list(table.items()):
            if value is None:
                unmeasured[name] = "no traced op of that kind ran"
                del table[name]
    return declared, extras, unmeasured


def _mean_ms(seconds: list[float]):
    return statistics.fmean(seconds) * 1000 if seconds else None


def _overhead(records: list[OpRecord]) -> float:
    """Traced against untraced time for the same op mix, minus one."""
    traced, plain = defaultdict(list), defaultdict(list)
    for r in records:
        if r.measured and r.ok:
            (traced if r.traced else plain)[r.kind].append(r.seconds)
    kinds = [k for k in traced if plain[k]]
    weight = Counter(r.kind for r in records if r.measured)
    slow = sum(weight[k] * statistics.fmean(traced[k]) for k in kinds)
    fast = sum(weight[k] * statistics.fmean(plain[k]) for k in kinds)
    return slow / fast - 1 if fast else 0.0


def _breakdown(traced, layer_self, root_seconds) -> dict:
    """Mean traced latency per op kind and the layer self times that sum to it."""
    out = {}
    for kind in sorted({r.kind for r in traced.values()}):
        ops = [i for i, r in traced.items() if r.kind == kind]
        layers = Counter()
        for i in ops:
            layers.update(layer_self[i])
        row = {layer: layers[layer] * 1000 / len(ops) for layer in sorted(layers)}
        row["latency"] = sum(root_seconds[i] for i in ops) * 1000 / len(ops)
        out[kind] = row
    return out


# -- output --------------------------------------------------------------------

def environment() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "work_fs": _filesystem(WORK),
    }


def _filesystem(path: Path) -> str:
    """Type of the mount that holds path, from /proc/self/mounts."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                point = parts[1]
                inside = target == point or target.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, kind = point, parts[2]
    except OSError:
        pass
    return kind


def _values(table: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def run_one(sd, wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (metrics for the last line, report)."""
    WORK.mkdir(exist_ok=True)
    result = run_workload(sd, wl, seed, seconds, trace)
    report = {"workload": wl.name, "seed": seed, "trace": int(trace), "env": environment()}
    if trace:
        metrics, extras, unmeasured = per_layer(result, wl)
        report["unmeasured"] = unmeasured
    else:
        metrics, extras = end_to_end(result)
    report["extras"] = _values(extras)
    report["errors"] = result.errors[:20]
    summary = {
        "correct": result.failed == 0,
        "attempted": len(result.records),
        "failed": result.failed,
        "metrics": _values(metrics),
    }
    return summary, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.workload == "all":
        return run_all(opts)
    sd = import_program()
    summary, report = run_one(sd, WORKLOADS[opts.workload], opts.seed, opts.seconds, bool(opts.trace))
    print(json.dumps(report))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_all(opts) -> int:
    """Every workload in a child process of its own, so that each one's
    peak_rss_mb is its own; then a table each and one combined result."""
    summaries = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(opts.seed),
             "--seconds", str(opts.seconds), "--trace", str(opts.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or len(lines) < 2:
            raise SystemExit(f"perfbench: {name} exited with status {done.returncode}")
        report, summary = json.loads(lines[-2]), json.loads(lines[-1])
        summaries[name] = summary
        print(lines[-2])
        print(f"\n{name} (seed {opts.seed}):")
        for key, item in {**summary["metrics"], **report["extras"]}.items():
            if isinstance(item["value"], (int, float)):
                print(f"  {key:<36} {item['value']:>14.4f} {item['unit']}")
    final = {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}/{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
