"""The superblock document: one columnar reader, a lazy open that parses
only the catalog lines a command uses, write-back byte for byte, and the
journal of records appended after the snapshot."""

import json
import os
import stat
import tempfile
from collections import Counter
from functools import cached_property
from math import factorial
from pathlib import Path
from unittest import mock
from urllib.parse import unquote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stegdisc.disc import Disc
from stegdisc.document import DiscConfig, Document, FileEntry, write_superblock
from stegdisc.errors import ConfigInvalid
from stegdisc.osn import MemoryBackend
from stegdisc.shell import ShellSession, main
from stegdisc.steghash import HashtagAlphabet, SamplerState

MODES = ("A", "B", "C")


def make_disc(mode, directory):
    config = DiscConfig.create(n=5, p=16, m=8, mode=mode, disc_id=f"doc-{mode}")
    return Disc.format(config, MemoryBackend(), doc_path=Path(directory) / "sb.txt")


def fill(disc, count):
    """`count` files of 0-2 blocks, the last two empty; name -> bytes.
    f{i} is empty when i is a multiple of 3."""
    files = {f"f{i:02d}": bytes([i]) * (i % 3 * 7) for i in range(count - 2)}
    files.update({"empty one": b"", "empty two": b""})
    for name, blob in files.items():
        disc.write_file(name, blob)
    return files


@pytest.fixture
def counts(monkeypatch):
    """Counts FileEntry.parse calls ("parse") and reads of mode A's used=
    value into a set ("used")."""
    counts = Counter()
    parse = FileEntry.parse.__func__
    monkeypatch.setattr(
        FileEntry, "parse", classmethod(lambda cls, line: counts.update(["parse"]) or parse(cls, line))
    )
    used = Document.__dict__["used"].func
    counting = cached_property(lambda document: counts.update(["used"]) or used(document))
    counting.__set_name__(Document, "used")
    monkeypatch.setattr(Document, "used", counting)
    return counts


class TestLazyOpen:
    @pytest.mark.parametrize("mode", MODES)
    def test_get_parses_one_line(self, mode, counts, tmp_path):
        disc = make_disc(mode, tmp_path)
        files = fill(disc, 60)
        counts.clear()
        fresh = Disc.open(disc.doc_path, disc.backend)
        assert fresh.read_file("f31") == files["f31"]
        assert fresh.read_file("f31") == files["f31"]  # each get parses its line
        assert counts == {"parse": 2}

    def test_one_shot_cli_get_parses_one_line(self, counts, tmp_path):
        store, doc = tmp_path / "store", tmp_path / "sb.txt"
        cli = ["--disc", str(doc), "--backend", f"dir:{store}"]
        assert main([*cli, "format", "A", "5", "16", "8"]) == 0
        for i in range(30):
            (tmp_path / "in").write_bytes(bytes([i]) * (i + 1))
            assert main([*cli, "put", str(tmp_path / "in"), f"file {i}"]) == 0
        counts.clear()
        assert main([*cli, "get", "file 17", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_bytes() == bytes([17]) * 18
        assert counts == {"parse": 1}

    def test_one_shot_cli_open_parses_no_line(self, counts, tmp_path, capsys):
        store, doc = tmp_path / "store", tmp_path / "sb.txt"
        cli = ["--disc", str(doc), "--backend", f"dir:{store}"]
        assert main([*cli, "format", "A", "5", "16", "8"]) == 0
        for i in range(40):
            (tmp_path / "in").write_bytes(bytes([i]) * (i % 3 * 5))
            assert main([*cli, "put", str(tmp_path / "in"), f"file {i}"]) == 0
        counts.clear()
        capsys.readouterr()
        assert main([*cli, "open"]) == 0
        assert "40 files" in capsys.readouterr().out
        assert counts == {}

    @pytest.mark.parametrize("mode", MODES)
    def test_put_parses_back_to_the_last_nonempty_line(self, mode, counts, tmp_path):
        disc = make_disc(mode, tmp_path)
        files = fill(disc, 60)
        counts.clear()
        fresh = Disc.open(disc.doc_path, disc.backend)
        fresh.write_file("new", b"n" * 20)
        # the tail guess parses the empty files "empty two", "empty one" and
        # f57, then f56, the last file with blocks
        assert counts["parse"] == 4
        assert counts["used"] == (mode == "A")
        counts.clear()
        again = Disc.open(disc.doc_path, disc.backend)
        again.write_file("newer", b"m" * 9)  # "new" is the last line and has blocks
        assert counts["parse"] == 1
        files.update(new=b"n" * 20, newer=b"m" * 9)
        assert all(again.read_file(name) == blob for name, blob in files.items())
        assert again.fsck().ok

    @pytest.mark.parametrize("mode", MODES)
    def test_rm_parses_back_to_the_predecessor(self, mode, counts, tmp_path):
        disc = make_disc(mode, tmp_path)
        fill(disc, 60)
        counts.clear()
        fresh = Disc.open(disc.doc_path, disc.backend)
        fresh.delete_file("f29")  # f29, then f28, whose last block points at f29
        assert counts["parse"] == 2
        assert counts["used"] == (mode == "A")
        counts.clear()
        again = Disc.open(disc.doc_path, disc.backend)
        again.delete_file("f28")  # f28, then f27, which is empty, and f26
        assert counts["parse"] == 3
        assert again.fsck().ok

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_file_put_and_rm_keep_the_header(self, mode, counts, tmp_path):
        disc = make_disc(mode, tmp_path)
        fill(disc, 20)
        header = [line for line in disc.doc_path.read_text(encoding="utf-8").split("\n") if "=" in line]
        fresh = Disc.open(disc.doc_path, disc.backend)
        counts.clear()
        fresh.write_file("nothing", b"")
        fresh.delete_file("empty one")
        assert counts["parse"] == 1  # rm reads the entry it drops
        text = disc.doc_path.read_text(encoding="utf-8")
        assert [line for line in text.split("\n") if "=" in line] == header

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("command", ["ls", "fsck", "stat"])
    def test_whole_catalog_commands_parse_every_line(self, mode, command, counts, tmp_path):
        disc = make_disc(mode, tmp_path)
        files = fill(disc, 40)
        counts.clear()
        fresh = Disc.open(disc.doc_path, disc.backend)
        if command == "ls":
            assert [entry.name for entry in fresh.list_files()] == sorted(files)
        elif command == "fsck":
            assert fresh.fsck().ok
        else:
            assert fresh.stats().file_count == len(files)
        assert counts["parse"] == len(files)
        fresh.list_files()  # the catalog is held as lines: each use parses again
        assert counts["parse"] == 2 * len(files)

    def test_a_parsed_line_is_written_back_as_read(self, tmp_path):
        disc = make_disc("A", tmp_path)
        disc.write_file("ab", b"12345")
        text = disc.doc_path.read_text(encoding="utf-8")
        line = disc.document.entry("ab").line
        _, start, length = line.split("\t")
        as_read = f"%61b\t{start}\t00{length}"  # an escape and zeros the writer never writes
        disc.doc_path.write_text(text.replace(line + "\n", as_read + "\n"), encoding="utf-8")
        fresh = Disc.open(disc.doc_path, disc.backend)
        assert fresh.list_files() == [FileEntry("ab", int(start), 5)]
        fresh.write_file("more", b"")  # a persist after every line was parsed
        assert as_read in fresh.doc_path.read_text(encoding="utf-8").split("\n")
        assert fresh.read_file("ab") == b"12345"


# -- the reader against the line-by-line parse it replaced -------------------

# names hold escapes, spaces, tabs, digits and non-ASCII text
NAMES = st.text(st.sampled_from("ab5 %\t火é"), min_size=1, max_size=6)


def old_catalog(text):
    """The catalog as the line-by-line parser read it: a ValueError for a
    line that is not three fields with numbers, or a repeated name."""
    entries = []
    for line in text.splitlines():
        if "\t" in line:
            name, start, length = line.split("\t")
            entries.append(FileEntry(unquote(name), int(start), int(length)))
    if len({entry.name for entry in entries}) != len(entries):
        raise ValueError("a name repeats")
    return entries


def opened(text):
    """Disc.open of `text`: its entries, in order, and mode A's used set."""
    with tempfile.TemporaryDirectory() as directory:
        doc = Path(directory) / "sb.txt"
        doc.write_text(text, encoding="utf-8")
        disc = Disc.open(doc, MemoryBackend())
    used = disc.document.used if disc.config.mode == "A" else None
    return list(map(disc.document.entry, disc.document.entries)), used


def document(mode, entries, used):
    config = DiscConfig.create(n=4, p=16, m=8, mode=mode, disc_id="rd")
    catalog = {entry.name: entry.line for entry in entries}
    doc = Document(config, catalog, sampler=SamplerState(9, (3, 1, 0, 2)))
    if mode == "A":
        doc.used.update(used)
    return doc.text()


CATALOGS = st.dictionaries(
    NAMES,
    st.one_of(st.just((0, 0)), st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 4))),
    max_size=6,
)


def mutations(text):
    """The document with one mutation: a tab dropped, a non-digit added,
    a name repeated, the final newline removed, or a header line added
    after the catalog."""
    lines = text.split("\n")
    catalog = [i for i, line in enumerate(lines) if "\t" in line]
    used = [i for i, line in enumerate(lines) if line.startswith("used=")]
    out = [text[:-1]]
    for extra in ("stream=0:0,1,2,3", "used=1,2", "mode=A", "other=1", "no equals sign"):
        out.append(text + extra + "\n")
    for i in catalog:
        line = lines[i]
        first = line.index("\t")
        out.append("\n".join(lines[:i] + [line[:first] + line[first + 1:]] + lines[i + 1:]))
        for bad in ("x", "-", "+", " ", "٥", ""):
            name, start, length = line.split("\t")
            for mutated in (f"{name}\t{start}{bad}\t{length}", f"{name}\t{start}\t{bad}{length}",
                            f"{name}\t{bad}\t{length}", f"{name}\t{start}\t{length}\t{bad}"):
                out.append("\n".join(lines[:i] + [mutated] + lines[i + 1:]))
        out.append(text + line + "\n")  # the same line twice
        out.append(text + line.split("\t")[0] + "\t7\t1\n")  # the same name, other numbers
    for i in used:
        for bad in (",", ",,", "x", "٥", "-1"):
            out.append("\n".join(lines[:i] + [lines[i] + bad] + lines[i + 1:]))
    return out


class TestDocumentReader:
    @given(st.sampled_from(MODES), CATALOGS, st.sets(st.integers(1, 23), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_open_reads_what_the_eager_parse_reads(self, mode, catalog, used):
        entries = [FileEntry(name, *numbers) for name, numbers in catalog.items()]
        text = document(mode, entries, used)
        assert old_catalog(text) == entries
        assert opened(text) == (entries, used if mode == "A" else None)

    @given(st.sampled_from(MODES), CATALOGS, st.sets(st.integers(1, 23), max_size=8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_mutated_document_is_rejected_where_the_old_parse_rejected_it(
        self, mode, catalog, used, data
    ):
        entries = [FileEntry(name, *numbers) for name, numbers in catalog.items()]
        text = data.draw(st.sampled_from(mutations(document(mode, entries, used))))
        try:
            old = old_catalog(text)
        except ValueError:
            old = None
        try:
            lazy = opened(text)
        except ConfigInvalid:
            lazy = None
        if old is None:
            assert lazy is None
        if lazy is not None:
            assert lazy[0] == old

    @given(
        st.sampled_from(MODES),
        st.dictionaries(NAMES.filter(lambda name: "\t" not in name), st.integers(0, 20), max_size=6),
        st.lists(NAMES, max_size=3),
        st.sampled_from(["put", "put empty", "rm", "edit"]),
        st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    # a snapshot at least 50 times the group's size takes the group as a journal
    @example("A", dict.fromkeys(["5", "a", "%", "5%%", "%%é", "éé火火"], 0), [], "rm", 0)
    def test_open_mutate_persist_writes_what_the_writer_writes(
        self, mode, sizes, extra, op, pick
    ):
        writes = []

        def recorded(path, text, append=False):
            writes.append((text, append))
            write_superblock(path, text, append)

        with tempfile.TemporaryDirectory() as directory:
            disc = make_disc(mode, directory)
            for name, size in sizes.items():
                disc.write_file(name, bytes([size]) * size)
            # empty files may have names no put accepts, such as tabs
            edited = Document.read(disc.doc_path.read_text(encoding="utf-8"))
            edited.entries.update((name, FileEntry(name, 0, 0).line) for name in extra if name not in sizes)
            text = edited.text()
            assert Document.read(text).text() == text
            disc.doc_path.write_text(text, encoding="utf-8")
            fresh = Disc.open(disc.doc_path, disc.backend)
            names = list(edited.entries)
            with mock.patch("stegdisc.disc.write_superblock", recorded):
                if op.startswith("put") or not names:
                    fresh.write_file("put here", b"" if op == "put empty" else b"p" * 13)
                elif op == "rm":
                    fresh.delete_file(names[pick % len(names)])
                else:
                    fresh.modify_file(names[pick % len(names)], b"e" * 11)
            written = fresh.doc_path.read_text(encoding="utf-8")
            assert fresh.fsck().ok
        doc = fresh.document
        # every line as the writer formats it
        doc.entries = {e.name: e.line for e in map(doc.entry, doc.entries)}
        [(group, journaled)] = writes
        if journaled:  # the old snapshot, then exactly the writer's group, read back as the new one
            assert group.startswith("+") and group.endswith("\n")
            assert written == text + group
            assert Document.read(written).text() == doc.text()
        else:
            assert written == doc.text()


# -- documents written by an earlier release ---------------------------------

# The text the writer writes after golden_disc's operations; the pointer code
# is that of the next put's first block.  Pins the stream= and used= lines'
# text, which the round-trip tests above only compare with the current writer.
# Modes B and C read as written by an earlier release: modes A and B's lines
# date from before SamplerState became (iteration, perm), mode C's from before
# the catalog was held as its lines.
GOLDEN = {
    "A": (
        "disc_id=doc-A\nmode=A\nn=5\np=16\nm=8\ngenesis=0,1,2,3,4\n"
        "alphabet=#tag0,#tag1,#tag2,#tag3,#tag4\nstream=112:0,4,3,1,2\n"
        "used=~22,1,9,9,9,20,29\n"
        "f00\t0\t0\nf02\t41\t14\nf03\t0\t0\nf05\t50\t14\n"
        "empty%20one\t0\t0\nempty%20two\t0\t0\nf01\t32\t20\n",
        2,
    ),
    "B": (
        "disc_id=doc-B\nmode=B\nn=5\np=16\nm=8\ngenesis=0,1,2,3,4\n"
        "alphabet=#tag0,#tag1,#tag2,#tag3,#tag4\nstream=112:0,4,3,1,2\n"
        "f00\t0\t0\nf02\t41\t14\nf03\t0\t0\nf05\t50\t14\n"
        "empty%20one\t0\t0\nempty%20two\t0\t0\nf01\t32\t20\n",
        2,
    ),
    "C": (
        "disc_id=doc-C\nmode=C\nn=5\np=16\nm=8\ngenesis=0,1,2,3,4\n"
        "alphabet=#tag0,#tag1,#tag2,#tag3,#tag4\n"
        "f00\t0\t0\nf02\t22\t14\nf03\t0\t0\nf05\t78\t14\n"
        "empty%20one\t0\t0\nempty%20two\t0\t0\nf01\t97\t20\n",
        129,
    ),
}

# Mode A's text as the writer before the used= gaps wrote it: the codes
# themselves.  It opens, allocates alike, and persists as GOLDEN["A"].
EARLIER = {"A": GOLDEN["A"][0].replace("used=~22,1,9,9,9,20,29\n", "used=22,23,32,41,50,70,99\n")}


def golden_disc(mode, directory):
    """The operations the GOLDEN documents were written after."""
    disc = make_disc(mode, directory)
    fill(disc, 8)
    disc.delete_file("f04")
    disc.modify_file("f01", b"x" * 20)
    return disc


def reopened(mode, text, directory):
    """golden_disc's disc reopened from `text` and persisted at once: the
    text persisted, and the first code of the next put, after which fsck is clean."""
    disc = golden_disc(mode, directory)
    disc.doc_path.write_text(text, encoding="utf-8")
    fresh = Disc.open(disc.doc_path, disc.backend)
    fresh._persist()
    persisted = fresh.doc_path.read_text(encoding="utf-8")
    code = fresh.write_file("next", b"n" * 12).start_counter
    assert fresh.fsck().ok
    return persisted, code


class TestGoldenDocument:
    @pytest.mark.parametrize("mode", MODES)
    def test_earlier_document_opens_persists_and_allocates_alike(self, mode, tmp_path):
        text, code = GOLDEN[mode]
        assert reopened(mode, EARLIER.get(mode, text), tmp_path) == (text, code)

    @pytest.mark.parametrize("mode", MODES)
    def test_the_writer_writes_the_golden_text(self, mode, tmp_path):
        text, code = GOLDEN[mode]
        assert golden_disc(mode, tmp_path).doc_path.read_text(encoding="utf-8") == text
        (tmp_path / "again").mkdir()
        assert reopened(mode, text, tmp_path / "again") == (text, code)


# -- which header lines each mode has ----------------------------------------

CONFIG_KEYS = ["disc_id", "mode", "n", "p", "m", "genesis", "alphabet"]


def header_keys(text):
    return [line.partition("=")[0] for line in text.splitlines() if "\t" not in line]


class TestHeaderRule:
    @pytest.mark.parametrize(
        "mode, written", [("A", ["stream", "used"]), ("B", ["stream"]), ("C", [])]
    )
    def test_each_mode_writes_and_reads_its_lines(self, mode, written, counts, tmp_path):
        disc = make_disc(mode, tmp_path)
        disc.write_file("f", b"x" * 12)
        text = disc.doc_path.read_text(encoding="utf-8")
        assert header_keys(text) == CONFIG_KEYS + written
        # a used= line outside mode A opens, is never read, and the next write drops it
        disc.doc_path.write_text(text + "used=1,2\n" * ("used" not in written), encoding="utf-8")
        counts.clear()
        fresh = Disc.open(disc.doc_path, disc.backend)
        fresh.write_file("g", b"y" * 3)
        assert counts["used"] == (mode == "A")
        assert header_keys(fresh.doc_path.read_text(encoding="utf-8")) == CONFIG_KEYS + written
        assert fresh.fsck().ok
        # a stream= line opens only where the writer writes one
        rest = [line for line in text.splitlines(keepends=True) if not line.startswith("stream=")]
        disc.doc_path.write_text("".join(rest) + "stream=0:0,1,2,3,4\n", encoding="utf-8")
        if "stream" in written:
            assert Disc.open(disc.doc_path, disc.backend).document.sampler.iteration == 0
        else:
            with pytest.raises(ConfigInvalid, match="mode C"):
                Disc.open(disc.doc_path, disc.backend)

    @pytest.mark.parametrize("line", ["junk", "disc_id"])
    def test_a_snapshot_line_with_neither_a_tab_nor_an_equals_sign_is_refused(self, line, tmp_path):
        disc = make_disc("A", tmp_path)
        disc.write_file("f", b"x" * 12)
        text = disc.doc_path.read_text(encoding="utf-8")
        Document.read(text)
        with pytest.raises(ConfigInvalid, match=f"^bad header line '{line}'$"):
            Document.read(text.replace("mode=", f"{line}\nmode=", 1))


# -- the journal: a snapshot followed by appended record groups --------------


def big_disc(mode, directory, count=300, **options):
    """A disc of `count` files of 1-3 blocks, n=7, large enough for a journal."""
    config = DiscConfig.create(n=7, p=24, m=8, mode=mode, disc_id=f"journal-{mode}", **options)
    disc = Disc.format(config, MemoryBackend(), doc_path=Path(directory) / "sb.txt")
    for i in range(count):
        disc.write_file(f"file {i:04d}", bytes([i % 251]) * (1 + i % 20))
    return disc


def split(text):
    """(snapshot, journal) of a document's text."""
    cut = text.find("\n+") + 1
    return (text[:cut], text[cut:]) if cut else (text, "")


def compact(disc):
    """Put or rm a padding file until a write leaves no journal, so that
    the next groups are appended."""
    while split(disc.doc_path.read_text(encoding="utf-8"))[1]:
        if "pad" in disc.document.entries:
            disc.delete_file("pad")
        else:
            disc.write_file("pad", b"p")


def mutate(disc, i):
    """The i-th of a cycle of puts, empty puts, edits and rms."""
    step = i % 5
    if step in (0, 1):
        disc.write_file(f"new {i}", bytes([i % 256]) * (1 + i % 23))
    elif step == 2:
        disc.write_file(f"empty {i}", b"")
    elif step == 3:
        disc.modify_file(f"file {i:04d}", b"e" * (1 + i % 17))
    else:
        disc.delete_file(f"file {i:04d}")


def same_state(fresh, live):
    assert list(fresh.document.entries.items()) == list(live.document.entries.items())
    if live.config.mode != "C":
        assert fresh.document.sampler == live.document.sampler
    if live.config.mode == "A":
        assert fresh.document.used == live.document.used


class TestJournal:
    @pytest.mark.parametrize("mode", MODES)
    def test_reopen_gives_the_live_session_state(self, mode, tmp_path):
        disc = big_disc(mode, tmp_path)
        appended = compacted = 0
        for i in range(60):
            before = disc.doc_path.read_text(encoding="utf-8")
            mutate(disc, i)
            text = disc.doc_path.read_text(encoding="utf-8")
            if text.startswith(before):
                appended += 1
                group = text[len(before):].splitlines()
                assert all(line.startswith("+") for line in group)
                assert "\t" in group[-1] or group[-1].startswith("+!")  # the catalog record is last
            else:
                compacted += 1
            # a reader from before the journal rejects every record line: a
            # catalog record has three tabs, every other record no "="
            _, journal = split(text)
            assert all(line.count("\t") == 3 or "=" not in line for line in journal.splitlines())
            same_state(Disc.open(disc.doc_path, disc.backend), disc)
        assert appended > 2 * compacted > 0
        fresh = Disc.open(disc.doc_path, disc.backend)
        assert fresh.fsck().ok
        assert fresh.read_file("new 55") == bytes([55]) * (1 + 55 % 23)

    @pytest.mark.parametrize("mode", MODES)
    def test_journal_stays_within_two_percent_of_the_snapshot(self, mode, tmp_path):
        disc = big_disc(mode, tmp_path)
        for i in range(80):
            mutate(disc, i)
            text = disc.doc_path.read_text(encoding="utf-8")
            snapshot, journal = split(text)
            assert 50 * len(journal.encode("utf-8")) <= len(snapshot.encode("utf-8"))
            stats = disc.stats()
            assert stats.persistent_bytes == disc.doc_path.stat().st_size
            assert stats.journal_bytes == len(journal.encode("utf-8"))
            # a fresh session learns the journal's size from the text
            assert Disc.open(disc.doc_path, disc.backend).document.written == disc.document.written

    @pytest.mark.parametrize("mode", MODES)
    def test_a_torn_last_record_is_ignored(self, mode, tmp_path):
        disc = big_disc(mode, tmp_path)
        compact(disc)
        entries = dict(disc.document.entries)
        disc.write_file("torn", b"t" * 12)
        text = disc.doc_path.read_text(encoding="utf-8")
        assert text.endswith("\n+\t" + disc.document.entries["torn"] + "\n")
        disc.doc_path.write_text(text[:-1], encoding="utf-8")  # the last newline never landed
        fresh = Disc.open(disc.doc_path, disc.backend)
        assert fresh.document.entries == entries
        stats = fresh.stats()  # the file as it is, torn line and all
        assert stats.persistent_bytes == disc.doc_path.stat().st_size
        assert stats.journal_bytes == len(split(text[:-1])[1].encode("utf-8"))
        fresh.write_file("after", b"a" * 5)  # the next write is a snapshot
        text = fresh.doc_path.read_text(encoding="utf-8")
        assert not split(text)[1]
        again = Disc.open(fresh.doc_path, fresh.backend)
        assert "torn" not in again.document.entries and again.read_file("after") == b"a" * 5

    @pytest.mark.parametrize("mode", MODES)
    def test_a_malformed_record_inside_the_journal_is_rejected(self, mode, tmp_path):
        disc = big_disc(mode, tmp_path)
        compact(disc)
        disc.write_file("new 0", b"n" * 9)
        disc.delete_file("file 0001")
        snapshot, journal = split(disc.doc_path.read_text(encoding="utf-8"))
        assert journal.count("\n") >= 2
        Disc.open(disc.doc_path, disc.backend)
        first = journal.index("\n") + 1
        # an unknown kind, a drop of no entry, a catalog record with two
        # columns or a letter for a number, an empty code, no codes, no kind
        for record in ("+?what", "+!no%20such%20file", "+\tname\t12", "+\tname\tx\t3", "+*1,,2", "+^", "+"):
            disc.doc_path.write_text(snapshot + journal[:first] + record + "\n" + journal[first:], encoding="utf-8")
            with pytest.raises(ConfigInvalid):
                Disc.open(disc.doc_path, disc.backend)

    def test_a_put_on_a_thousand_file_mode_c_disc_appends_under_100_bytes(self, tmp_path):
        disc = big_disc("C", tmp_path, count=1000)
        appended = 0
        for i in range(30):
            size = disc.doc_path.stat().st_size
            disc.write_file(f"new {i}", b"n" * 40)
            grown = disc.doc_path.stat().st_size - size
            assert grown < 100
            appended += disc.document.written[1] > 0
        assert appended > 20

    @pytest.mark.parametrize("mode", MODES)
    def test_an_append_written_in_pieces_lands_whole(self, mode, monkeypatch, tmp_path):
        disc = big_disc(mode, tmp_path)
        compact(disc)
        real, pieces = os.write, []

        def short(fd, data):
            pieces.append(len(data))
            return real(fd, data[:7])

        monkeypatch.setattr(os, "write", short)
        for step in (lambda: disc.write_file("new", b"n" * 20), lambda: disc.modify_file("file 0003", b"e" * 9),
                     lambda: disc.delete_file("file 0005")):
            before, pieces[:] = disc.doc_path.read_text(encoding="utf-8"), []
            step()
            text = disc.doc_path.read_text(encoding="utf-8")
            assert text.startswith(before) and text[len(before):].startswith("+")  # a group was appended
            assert len(pieces) > 1  # in more than one write
            assert Document.read(text).text() == disc.document.text()
            same_state(Disc.open(disc.doc_path, disc.backend), disc)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_write_that_raises_is_followed_by_a_snapshot(self, mode, monkeypatch, tmp_path):
        import stegdisc.disc as disc_mod

        disc = big_disc(mode, tmp_path)
        compact(disc)
        real = disc_mod.write_superblock
        calls = []

        def failing(path, text, append=False):
            calls.append(append)
            if len(calls) == 1:
                raise OSError("disc full")
            real(path, text, append)

        monkeypatch.setattr(disc_mod, "write_superblock", failing)
        with pytest.raises(OSError):
            disc.write_file("lost", b"l" * 9)  # in the session, not in the file
        disc.write_file("kept", b"k" * 9)
        assert calls == [True, False]
        text = disc.doc_path.read_text(encoding="utf-8")
        assert not split(text)[1]
        fresh = Disc.open(disc.doc_path, disc.backend)
        same_state(fresh, disc)
        assert fresh.read_file("lost") == b"l" * 9 and fresh.fsck().ok

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("newline", [True, False], ids=["whole", "no-last-newline"])
    def test_a_document_without_a_journal_opens_and_appends(self, mode, newline, tmp_path):
        disc = big_disc(mode, tmp_path)
        # the document as the writer before the journal wrote it
        earlier = Document.read(disc.doc_path.read_text(encoding="utf-8")).text()
        disc.doc_path.write_text(earlier if newline else earlier[:-1], encoding="utf-8")
        fresh = Disc.open(disc.doc_path, disc.backend)
        fresh.write_file("appended", b"a" * 20)
        text = fresh.doc_path.read_text(encoding="utf-8")
        if newline:
            assert text.startswith(earlier) and text[len(earlier):].startswith("+")
        else:  # a record appended there would join the last line
            assert not split(text)[1]
        same_state(Disc.open(disc.doc_path, disc.backend), fresh)

    @pytest.mark.parametrize("mode", MODES)
    def test_stat_prints_the_journal_bytes(self, mode, tmp_path, capsys):
        disc = big_disc(mode, tmp_path)
        disc.write_file("appended", b"a" * 20)
        _, journal = split(disc.doc_path.read_text(encoding="utf-8"))
        assert journal
        session = ShellSession(disc.doc_path, "memory", json_out=True)
        session.backend = disc.backend
        capsys.readouterr()
        assert session.execute(["stat"]) == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["journal_bytes"] == len(journal.encode("utf-8"))
        assert stats["persistent_bytes"] == disc.doc_path.stat().st_size

    @pytest.mark.parametrize("mode", MODES)
    def test_a_plus_inside_a_line_starts_no_journal(self, mode, tmp_path):
        alphabet = HashtagAlphabet([f"#c+{i}" for i in range(7)])
        disc = big_disc(mode, tmp_path, alphabet=alphabet)
        compact(disc)
        assert "+" in disc.doc_path.read_text(encoding="utf-8")
        assert Disc.open(disc.doc_path, disc.backend).document.written == disc.document.written
        disc.write_file("appended", b"a" * 20)
        assert split(disc.doc_path.read_text(encoding="utf-8"))[1]
        fresh = Disc.open(disc.doc_path, disc.backend)
        same_state(fresh, disc)
        assert fresh.document.written == disc.document.written


# -- mode A's used= line as gaps ----------------------------------------------

N10 = factorial(10)


def used_line(text):
    return next(line for line in text.splitlines() if line.startswith("used="))


def with_used(text, value):
    """`text` with its used= line's value replaced by `value`."""
    return text.replace(used_line(text), "used=" + value, 1)


class TestUsedGaps:
    @given(st.one_of(st.sets(st.integers(1, N10 - 1), max_size=40), st.sets(st.integers(1, 600), max_size=40)))
    @example(set())
    @example({7})
    @example({N10 - 1})
    @example({1, 256, 257, 70_000, N10 - 1})
    @settings(max_examples=80, deadline=None)
    def test_codes_round_trip_through_text_and_read(self, codes):
        doc = Document(DiscConfig.create(n=10, p=24, m=8, mode="A", disc_id="gaps"))
        doc.mark(codes)
        text = doc.text()
        ordered = sorted(codes)
        gaps = [code - before for before, code in zip([0, *ordered], ordered)]
        assert used_line(text) == "used=~" + ",".join(map(str, gaps))
        read = Document.read(text)
        assert read.used == codes
        assert read.text() == text

    # a code of 0 as an earlier writer's line would hold it is rejected too:
    # its next snapshot would write a gap of 0
    @pytest.mark.parametrize(
        "value",
        ["~0", "~5,0", "~5,00", "~5,07", "~5,,3", "~5,", "~,5", "~5,x", "~5,-3", "~5,٣", "~~5", "~ 5", "0,5"],
    )
    def test_a_zero_gap_an_empty_element_or_a_non_digit_is_rejected(self, value, tmp_path):
        disc = make_disc("A", tmp_path)
        disc.write_file("f", b"x" * 12)
        text = disc.doc_path.read_text(encoding="utf-8")
        assert used_line(text).startswith("used=~")
        disc.doc_path.write_text(with_used(text, value), encoding="utf-8")
        with pytest.raises(ConfigInvalid, match="malformed"):
            Disc.open(disc.doc_path, disc.backend)
        disc.doc_path.write_text(with_used(text, "~5,7"), encoding="utf-8")
        assert Disc.open(disc.doc_path, disc.backend).document.used == {5, 12}

    def test_an_absolute_snapshot_and_its_journal_read_alike_and_resave_as_gaps(self, tmp_path):
        disc = big_disc("A", tmp_path)
        compact(disc)
        mutate(disc, 0)  # a put: +* records
        mutate(disc, 4)  # an rm: +^ records
        snapshot, journal = split(disc.doc_path.read_text(encoding="utf-8"))
        assert "\n+*" in "\n" + journal and "\n+^" in "\n" + journal
        # the snapshot as the writer before the gaps wrote it
        absolute = ",".join(map(str, sorted(Document.read(snapshot).used)))
        disc.doc_path.write_text(with_used(snapshot, absolute) + journal, encoding="utf-8")
        fresh = Disc.open(disc.doc_path, disc.backend)
        same_state(fresh, disc)
        fresh._persist()
        text = fresh.doc_path.read_text(encoding="utf-8")
        assert not split(text)[1] and used_line(text).startswith("used=~")
        same_state(Disc.open(disc.doc_path, disc.backend), disc)
        assert fresh.fsck().ok


class TestDocumentFile:
    @pytest.mark.parametrize("mode", MODES)
    def test_the_document_is_owner_only_after_format_snapshot_and_append(self, mode, tmp_path):
        def owner_only(disc):
            return stat.S_IMODE(disc.doc_path.stat().st_mode) == 0o600

        (tmp_path / "formatted").mkdir()
        assert owner_only(make_disc(mode, tmp_path / "formatted"))  # format writes the first snapshot
        disc = big_disc(mode, tmp_path, count=150)
        compact(disc)  # the last write was a snapshot
        assert owner_only(disc)
        disc.write_file("appended", b"a" * 9)
        assert split(disc.doc_path.read_text(encoding="utf-8"))[1]  # appended
        assert owner_only(disc)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["formatted", "sb.txt"]

    def test_a_failed_snapshot_leaves_the_old_document_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sb.txt"
        write_superblock(path, "old\n")

        def refuse(src, dst):
            raise OSError("no rename")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="no rename"):
            write_superblock(path, "new\n")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sb.txt"]
