"""Simulated social network backends."""

import pytest

from stegdisc.errors import BackendUnavailable, DuplicateAddress, NotFound
from stegdisc.osn import (
    BackendConfig,
    DirectoryBackend,
    MemoryBackend,
    open_backend,
    parse_backend_spec,
)

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

    def test_post_ids_are_fresh(self, backend):
        first = backend.post(b"obj", ABC)
        second = backend.post(b"obj", CAB)
        assert first and second and first != second

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
        lines = (post_dir / "meta.txt").read_text().splitlines()
        assert lines[:3] == list(ABC)
        assert "T" in lines[3]  # ISO-8601 timestamp

    def test_distinct_orders_distinct_dirs(self, tmp_path):
        root = tmp_path / "store"
        backend = DirectoryBackend(root)
        backend.post(b"x", ABC)
        backend.post(b"y", CAB)
        assert len([d for d in root.iterdir() if d.is_dir()]) == 2


class TestInjection:
    def test_failures_are_injected(self):
        config = BackendConfig(mode="memory", failure_rate=1.0)
        backend = MemoryBackend(config)
        with pytest.raises(BackendUnavailable):
            backend.exists(ABC)

    def test_failures_seeded(self):
        def script(seed):
            backend = MemoryBackend(BackendConfig(mode="memory", failure_rate=0.5, failure_seed=seed))
            out = []
            for i in range(40):
                try:
                    backend.exists(ABC)
                    out.append(True)
                except BackendUnavailable:
                    out.append(False)
            return out

        assert script(1) == script(1)
        assert script(1) != script(2)

    def test_zero_rate_never_fails(self):
        backend = MemoryBackend(BackendConfig(mode="memory"))
        for _ in range(100):
            backend.exists(ABC)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            BackendConfig(mode="memory", failure_rate=1.5)


class TestSpec:
    def test_memory_spec(self):
        assert isinstance(open_backend(parse_backend_spec("memory")), MemoryBackend)

    def test_dir_spec(self, tmp_path):
        backend = open_backend(parse_backend_spec(f"dir:{tmp_path / 's'}"))
        assert isinstance(backend, DirectoryBackend)

    def test_bad_specs(self):
        for bad in ("dir:", "s3:bucket", ""):
            with pytest.raises(ValueError):
                parse_backend_spec(bad)
