"""Command-line front end.

One-shot mode runs a single command; with no command the same
dispatcher loops over stdin as a shell.  Every command is a thin
adapter over the library, so scripted and interactive use produce
identical disc state.

Exit codes: 0 success, 1 user error, 2 integrity failure, 3 backend
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from pathlib import Path
from typing import Optional

from .disc import Disc, compute_chain_length
from .document import MODES, DiscConfig
from .errors import (
    BackendUnavailable,
    ChainBroken,
    StegDiscError,
    UnknownCommand,
    UsageError,
)
from .osn import open_backend
from .steghash import HashtagAlphabet

DOC_NAME = "superblock.txt"


def default_disc_path() -> Path:
    home = os.environ.get("STEGDISC_HOME")
    base = Path(home) if home else Path.home() / ".stegdisc"
    return base / DOC_NAME


class _ParserDone(Exception):
    """argparse printed help and wants to stop; not an error."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems instead of killing the process."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def exit(self, status=0, message=None):
        if status != 0:
            raise UsageError(message or f"{self.prog}: bad arguments")
        raise _ParserDone()


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _build_command_parsers() -> dict[str, _Parser]:
    parsers: dict[str, _Parser] = {}

    def make(name: str, **kwargs) -> _Parser:
        parser = _Parser(prog=name, add_help=True, **kwargs)
        parsers[name] = parser
        return parser

    fmt = make("format", description="create a new disc")
    fmt.add_argument("mode", choices=MODES)
    fmt.add_argument("n", type=int, help="hashtag alphabet size")
    fmt.add_argument("p", type=int, help="pointer bit width")
    fmt.add_argument("m", type=int, help="data bytes per block")
    fmt.add_argument("--id", dest="disc_id", default=None)
    fmt.add_argument("--genesis", default=None, help="comma-joined permutation")
    fmt.add_argument("--alphabet", default=None, help="comma-joined hashtags")

    make("open", description="load the disc named by --disc")

    put = make("put", description="store a local file on the disc")
    put.add_argument("local_path")
    put.add_argument("name")

    get = make("get", description="retrieve a file into a local path")
    get.add_argument("name")
    get.add_argument("local_path")

    make("ls", description="list files")

    rm = make("rm", description="delete a file")
    rm.add_argument("name")

    edit = make("edit", description="replace a file's contents from a local path")
    edit.add_argument("name")
    edit.add_argument("local_path")

    make("stat", description="disc statistics")
    make("fsck", description="verify chain integrity")

    bench = make("bench", description="space-time tradeoff benchmark")
    bench.add_argument("--counts", type=_int_list, default=[10, 100])
    bench.add_argument("--modes", default=",".join(MODES))
    bench.add_argument("--n", type=int, default=5)
    bench.add_argument("--p", type=int, default=24)
    bench.add_argument("--m", type=int, default=8)

    make("exit", description="leave the shell")
    return parsers


_COMMAND_PARSERS = _build_command_parsers()


def status_for(exc: Exception) -> int:
    if isinstance(exc, BackendUnavailable):
        return 3
    if isinstance(exc, ChainBroken):
        return 2
    return 1


class ShellSession:
    """One open disc plus one backend, shared by all commands."""

    def __init__(self, disc_path=None, backend_spec: str = "memory",
                 json_out: bool = False, verbose: bool = False):
        self.disc_path = Path(disc_path) if disc_path else default_disc_path()
        self.backend_spec = backend_spec
        self.json_out = json_out
        self.verbose = verbose
        self.backend = None
        self.disc: Optional[Disc] = None
        self.done = False

    def _ensure_backend(self):
        if self.backend is None:
            self.backend = open_backend(self.backend_spec)
        return self.backend

    def _ensure_disc(self) -> Disc:
        if self.disc is None:
            if not self.disc_path.exists():
                raise UsageError(f"no disc document at {self.disc_path}; run format or open")
            self.disc = Disc.open(self.disc_path, self._ensure_backend())
        return self.disc

    # -- dispatch ---------------------------------------------------------

    def run_command(self, argv: list[str]) -> tuple[int, str, dict]:
        """Returns (status, text output, json payload)."""
        if not argv:
            return 0, "", {}
        name, *args = argv
        parser = _COMMAND_PARSERS.get(name)
        if parser is None:
            raise UnknownCommand(f"unknown command {name!r}")
        try:
            opts = parser.parse_args(args)
        except _ParserDone:
            return 0, "", {}
        handler = getattr(self, f"_cmd_{name}")
        return handler(opts)

    def execute(self, argv: list[str]) -> int:
        """run_command plus output and error-to-diagnostic handling."""
        try:
            status, text, payload = self.run_command(argv)
        except (StegDiscError, ValueError, OSError) as exc:
            status = status_for(exc)
            text, payload = f"error: {exc}", {"error": str(exc)}
        if self.json_out:
            payload = {"status": status, **payload}
            print(json.dumps(payload))
        elif text:
            print(text)
        if self.verbose:
            print(f"[{status}] {shlex.join(argv)}", file=sys.stderr)
        return status

    # -- commands ---------------------------------------------------------

    def _cmd_format(self, opts) -> tuple[int, str, dict]:
        genesis = _int_list(opts.genesis) if opts.genesis else None
        alphabet = HashtagAlphabet(opts.alphabet.split(",")) if opts.alphabet else None
        config = DiscConfig.create(
            n=opts.n, p=opts.p, m=opts.m, mode=opts.mode,
            alphabet=alphabet, genesis=genesis, disc_id=opts.disc_id,
        )
        self.disc_path.parent.mkdir(parents=True, exist_ok=True)
        self.disc = Disc.format(config, self._ensure_backend(), doc_path=self.disc_path)
        text = (
            f"formatted disc {config.disc_id} "
            f"(mode {config.mode}, n={config.n}, p={config.p}, m={config.m}) "
            f"at {self.disc_path}"
        )
        return 0, text, {"disc_id": config.disc_id, "doc": str(self.disc_path)}

    def _cmd_open(self, opts) -> tuple[int, str, dict]:
        self.disc = None
        disc = self._ensure_disc()
        cfg = disc.config
        text = f"opened disc {cfg.disc_id} (mode {cfg.mode}, {len(disc.document.entries)} files)"
        return 0, text, {"disc_id": cfg.disc_id, "mode": cfg.mode}

    def _cmd_put(self, opts) -> tuple[int, str, dict]:
        data = Path(opts.local_path).read_bytes()
        disc = self._ensure_disc()
        entry = disc.write_file(opts.name, data)
        blocks = compute_chain_length(entry.length, disc.config.m)
        text = f"stored {entry.name} ({entry.length} bytes, {blocks} blocks)"
        return 0, text, {"name": entry.name, "length": entry.length, "blocks": blocks}

    def _cmd_get(self, opts) -> tuple[int, str, dict]:
        data = self._ensure_disc().read_file(opts.name)
        Path(opts.local_path).write_bytes(data)
        text = f"retrieved {opts.name} -> {opts.local_path} ({len(data)} bytes)"
        return 0, text, {"name": opts.name, "length": len(data)}

    def _cmd_ls(self, opts) -> tuple[int, str, dict]:
        entries = self._ensure_disc().list_files()
        lines = [f"{e.name}\t{e.length}\t{e.start_counter}" for e in entries]
        files = [
            {"name": e.name, "length": e.length, "start_counter": e.start_counter}
            for e in entries
        ]
        return 0, "\n".join(lines), {"files": files}

    def _cmd_rm(self, opts) -> tuple[int, str, dict]:
        self._ensure_disc().delete_file(opts.name)
        return 0, f"removed {opts.name}", {"removed": opts.name}

    def _cmd_edit(self, opts) -> tuple[int, str, dict]:
        data = Path(opts.local_path).read_bytes()
        entry = self._ensure_disc().modify_file(opts.name, data)
        text = f"rewrote {entry.name} ({entry.length} bytes)"
        return 0, text, {"name": entry.name, "length": entry.length}

    def _cmd_stat(self, opts) -> tuple[int, str, dict]:
        stats = self._ensure_disc().stats()._asdict()
        text = "\n".join(f"{key}: {value}" for key, value in stats.items())
        return 0, text, {"stats": stats}

    def _cmd_fsck(self, opts) -> tuple[int, str, dict]:
        report = self._ensure_disc().fsck()
        payload = {
            "block_count": report.block_count,
            "violations": [{"kind": v.kind, "counter": v.counter, "detail": str(v)} for v in report.violations],
        }
        if report.ok:
            return 0, f"clean ({report.block_count} blocks)", payload
        lines = [f"{v.kind} at {v.counter}: {v}" for v in report.violations]
        return 2, "\n".join(lines), payload

    def _cmd_bench(self, opts) -> tuple[int, str, dict]:
        from .bench import format_table, rows_as_dicts, run_benchmark  # only this command needs it
        rows = run_benchmark(
            block_counts=opts.counts,
            modes=tuple(opts.modes.split(",")),
            n=opts.n, p=opts.p, m=opts.m,
        )
        return 0, format_table(rows), {"rows": rows_as_dicts(rows)}

    def _cmd_exit(self, opts) -> tuple[int, str, dict]:
        self.done = True
        return 0, "", {}


def repl(session: ShellSession) -> int:
    """Line loop over stdin; exits with the last command's status."""
    status = 0
    interactive = sys.stdin.isatty()
    while not session.done:
        if interactive:
            print("stegdisc> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            break
        try:
            argv = shlex.split(line)
        except ValueError as exc:
            print(f"error: {exc}")
            status = 1
            continue
        if not argv:
            continue
        status = session.execute(argv)
    return status


def main(argv=None) -> int:
    parser = _Parser(prog="stegdisc", description=__doc__)
    parser.add_argument("--disc", metavar="PATH", default=None,
                        help=f"superblock document (default {default_disc_path()})")
    parser.add_argument("--backend", metavar="SPEC", default="memory",
                        help="memory or dir:<path>")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="one-shot command; omit for a shell")
    try:
        opts = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _ParserDone:
        return 0
    session = ShellSession(
        disc_path=opts.disc,
        backend_spec=opts.backend,
        json_out=opts.json,
        verbose=opts.verbose,
    )
    try:
        if opts.command:
            return session.execute(opts.command)
        return repl(session)
    except KeyboardInterrupt:
        return 1


if __name__ == "__main__":
    sys.exit(main())
