"""Simulated social network backends."""

import os

import pytest

from stegdisc.errors import DuplicateAddress, NotFound
from stegdisc.osn import DirectoryBackend, MemoryBackend, open_backend

ABC = ("#a", "#b", "#c")
CAB = ("#c", "#a", "#b")


@pytest.fixture(params=["memory", "dir"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return DirectoryBackend(tmp_path / "store")


class TestCrud:
    def test_post_then_exists(self, backend):
        assert not backend.exists(ABC)
        backend.post(b"obj", ABC)
        assert backend.exists(ABC)

    def test_duplicate(self, backend):
        backend.post(b"obj", ABC)
        with pytest.raises(DuplicateAddress):
            backend.post(b"other", ABC)

    def test_order_is_the_address(self, backend):
        backend.post(b"obj", CAB)
        assert not backend.exists(ABC)
        with pytest.raises(NotFound):
            backend.fetch(ABC)
        assert backend.fetch(CAB) == b"obj"

    def test_fetch_round_trip(self, backend):
        blob = bytes(range(256)) * 3
        backend.post(blob, ABC)
        assert backend.fetch(ABC) == blob

    def test_fetch_missing(self, backend):
        with pytest.raises(NotFound):
            backend.fetch(ABC)

    def test_replace(self, backend):
        backend.post(b"old", ABC)
        backend.replace(ABC, b"new")
        assert backend.fetch(ABC) == b"new"

    def test_replace_missing(self, backend):
        with pytest.raises(NotFound):
            backend.replace(ABC, b"new")

    def test_remove_and_recycle(self, backend):
        backend.post(b"one", ABC)
        backend.remove(ABC)
        assert not backend.exists(ABC)
        backend.post(b"two", ABC)  # released addresses return to the pool
        assert backend.fetch(ABC) == b"two"

    def test_remove_missing(self, backend):
        with pytest.raises(NotFound):
            backend.remove(ABC)

    def test_live_addresses(self, backend):
        backend.post(b"x", ABC)
        backend.post(b"y", CAB)
        assert sorted(backend.live_addresses()) == sorted([ABC, CAB])

    def test_bad_hashtags_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.post(b"x", ("#a", "#a"))
        with pytest.raises(ValueError):
            backend.post(b"x", ("a", "b"))
        with pytest.raises(ValueError):
            backend.post(b"x", ())


class TestDurability:
    def test_reopen_sees_posts(self, tmp_path):
        root = tmp_path / "store"
        first = DirectoryBackend(root)
        first.post(b"payload-1", ABC)
        first.post(b"payload-2", CAB)
        first.remove(CAB)

        second = DirectoryBackend(root)
        assert second.exists(ABC)
        assert not second.exists(CAB)
        assert second.fetch(ABC) == b"payload-1"

    def test_on_disk_layout(self, tmp_path):
        root = tmp_path / "store"
        DirectoryBackend(root).post(b"obj", ABC)
        (post_dir,) = [d for d in root.iterdir() if d.is_dir()]
        assert (post_dir / "object.bin").read_bytes() == b"obj"
        assert (post_dir / "meta.txt").read_text(encoding="utf-8") == "#a\n#b\n#c\n"

    def test_meta_with_a_timestamp_line_still_reads(self, tmp_path):
        # earlier versions wrote an ISO-8601 timestamp after the hashtags
        root = tmp_path / "store"
        DirectoryBackend(root).post(b"old", ABC)
        meta = root / DirectoryBackend._digest(ABC) / "meta.txt"
        meta.write_text("#a\n#b\n#c\n2026-01-02T03:04:05.678901+00:00\n", encoding="utf-8")
        backend = DirectoryBackend(root)
        assert backend.live_addresses() == [ABC]
        assert backend.exists(ABC)
        assert backend.fetch(ABC) == b"old"

    def test_distinct_orders_distinct_dirs(self, tmp_path):
        root = tmp_path / "store"
        backend = DirectoryBackend(root)
        backend.post(b"x", ABC)
        backend.post(b"y", CAB)
        assert len([d for d in root.iterdir() if d.is_dir()]) == 2

    def test_handles_share_one_store(self, tmp_path):
        root = tmp_path / "store"
        early = DirectoryBackend(root)
        DirectoryBackend(root).post(b"late", ABC)
        assert early.exists(ABC)
        assert early.fetch(ABC) == b"late"
        assert early.live_addresses() == [ABC]
        with pytest.raises(DuplicateAddress):
            early.post(b"again", ABC)

    def test_post_without_meta_is_not_a_post(self, tmp_path):
        # a post that crashed after mkdir and the object write, before meta.txt
        root = tmp_path / "store"
        backend = DirectoryBackend(root)
        post_dir = root / DirectoryBackend._digest(ABC)
        post_dir.mkdir()
        (post_dir / "object.bin").write_bytes(b"half")
        assert not backend.exists(ABC)
        assert backend.live_addresses() == []
        with pytest.raises(NotFound):
            backend.fetch(ABC)
        backend.post(b"whole", ABC)
        assert DirectoryBackend(root).fetch(ABC) == b"whole"


    def test_replace_swaps_the_object_file_whole(self, tmp_path):
        root = tmp_path / "store"
        backend = DirectoryBackend(root)
        backend.post(b"old", ABC)
        obj = root / DirectoryBackend._digest(ABC) / "object.bin"
        inode = obj.stat().st_ino
        with obj.open("rb") as early:
            backend.replace(ABC, b"new")
            assert early.read() == b"old"  # swapped out, not rewritten in place
        assert obj.stat().st_ino != inode
        assert obj.read_bytes() == b"new"
        assert DirectoryBackend(root).fetch(ABC) == b"new"

    def test_failed_swap_keeps_the_old_object(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        backend = DirectoryBackend(root)
        backend.post(b"old", ABC)

        def refuse(src, dst):
            raise OSError("swap refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="swap refused"):
            backend.replace(ABC, b"new")
        with pytest.raises(OSError, match="swap refused"):
            backend.post(b"new", CAB)
        monkeypatch.undo()
        assert backend.fetch(ABC) == b"old"
        assert backend.live_addresses() == [ABC]
        for tags, names in ((ABC, ["meta.txt", "object.bin"]), (CAB, [])):
            post_dir = root / DirectoryBackend._digest(tags)
            assert sorted(path.name for path in post_dir.iterdir()) == names

    @pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 7])
    def test_fetch_is_byte_exact_at_any_size(self, tmp_path, size):
        blob = os.urandom(size)
        backend = DirectoryBackend(tmp_path / "store")
        backend.post(blob, ABC)
        assert backend.fetch(ABC) == blob
        backend.replace(ABC, blob[::-1])
        assert DirectoryBackend(tmp_path / "store").fetch(ABC) == blob[::-1]

    def test_short_reads_and_writes_move_every_byte(self, tmp_path, monkeypatch):
        # a read or write may move fewer bytes than asked; only an empty read ends the file
        read, write = os.read, os.write
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 100)))
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:100]))
        blob = os.urandom(1000)
        backend = DirectoryBackend(tmp_path / "store")
        backend.post(blob, ABC)
        assert backend.fetch(ABC) == blob
        assert backend.live_addresses() == [ABC]
        backend.replace(ABC, blob[:333])
        monkeypatch.undo()
        assert DirectoryBackend(tmp_path / "store").fetch(ABC) == blob[:333]

    def test_each_query_digests_its_sequence_once(self, tmp_path, monkeypatch):
        backend = DirectoryBackend(tmp_path / "store")
        digest, calls = DirectoryBackend._digest, []
        monkeypatch.setattr(DirectoryBackend, "_digest", staticmethod(lambda tags: calls.append(tags) or digest(tags)))
        queries = [
            lambda: backend.exists(ABC),
            lambda: backend.post(b"obj", ABC),
            lambda: backend.exists(ABC),
            lambda: backend.fetch(ABC),
            lambda: backend.replace(ABC, b"new"),
            lambda: backend.remove(ABC),
            lambda: backend.fetch(ABC),  # NotFound
            lambda: backend.remove(ABC),  # NotFound
        ]
        for query in queries:
            calls.clear()
            try:
                query()
            except NotFound:
                pass
            assert calls == [ABC]


class TestAdmission:
    """Each query checks its tags before it touches the store."""

    # the last four hold tags that are not str: each is a ValueError too,
    # never an AttributeError or a TypeError from a str method or set()
    @pytest.mark.parametrize(
        "bad", [("#a", "#a"), ("a", "b"), (), (1, 2), (b"#a", b"#b"), ("#a", 3), (["#a"], "#b")]
    )
    def test_rejected_sequence_draws_nothing(self, backend, bad):
        calls = [
            lambda: backend.post(b"x", bad),
            lambda: backend.exists(bad),
            lambda: backend.fetch(bad),
            lambda: backend.replace(bad, b"y"),
            lambda: backend.remove(bad),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()
        assert backend.live_addresses() == []  # nothing was posted


class TestSpec:
    def test_memory_spec(self):
        backend = open_backend("memory")
        assert type(backend) is MemoryBackend
        backend.post(b"obj", ABC)
        assert backend.exists(ABC)

    def test_dir_spec(self, tmp_path):
        store = tmp_path / "s"
        backend = open_backend(f"dir:{store}")
        assert type(backend) is DirectoryBackend
        backend.post(b"obj", ABC)
        # the dir spec's posts land under its path
        assert sorted(p.name for p in (store / DirectoryBackend._digest(ABC)).iterdir()) == [
            "meta.txt", "object.bin",
        ]

    def test_bad_specs(self):
        for bad in ("", "dir:", "s3:bucket", "memory:x", "DIR:x"):
            with pytest.raises(ValueError):
                open_backend(bad)
