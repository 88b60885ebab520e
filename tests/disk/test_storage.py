"""Tests for repro.disk.storage backends."""

import pytest

from repro.disk.storage import FileStorage, MemoryStorage, StorageError


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        return MemoryStorage()
    return FileStorage(str(tmp_path / "store"))


class TestStorageContract:
    def test_write_and_read_all(self, storage):
        storage.write_file("a.bin", b"hello")
        assert storage.read_all("a.bin") == b"hello"

    def test_partial_read(self, storage):
        storage.write_file("a.bin", b"0123456789")
        assert storage.read("a.bin", 2, 3) == b"234"

    def test_read_past_end_truncates(self, storage):
        storage.write_file("a.bin", b"abc")
        assert storage.read("a.bin", 1, 100) == b"bc"

    def test_size(self, storage):
        storage.write_file("a.bin", b"12345")
        assert storage.size("a.bin") == 5

    def test_exists(self, storage):
        assert not storage.exists("a.bin")
        storage.write_file("a.bin", b"")
        assert storage.exists("a.bin")

    def test_write_existing_rejected(self, storage):
        storage.write_file("a.bin", b"x")
        with pytest.raises(StorageError):
            storage.write_file("a.bin", b"y")

    def test_delete(self, storage):
        storage.write_file("a.bin", b"x")
        storage.delete("a.bin")
        assert not storage.exists("a.bin")

    def test_delete_missing_raises(self, storage):
        with pytest.raises(StorageError):
            storage.delete("missing.bin")

    def test_read_missing_raises(self, storage):
        with pytest.raises(StorageError):
            storage.read("missing.bin", 0, 1)
        with pytest.raises(StorageError):
            storage.size("missing.bin")

    def test_rename_replaces(self, storage):
        storage.write_file("old.bin", b"new-data")
        storage.write_file("target.bin", b"old-data")
        storage.rename("old.bin", "target.bin")
        assert storage.read_all("target.bin") == b"new-data"
        assert not storage.exists("old.bin")

    def test_rename_missing_raises(self, storage):
        with pytest.raises(StorageError):
            storage.rename("missing.bin", "x.bin")

    def test_list_with_prefix(self, storage):
        storage.write_file("tables/t1/descriptor.json", b"{}")
        storage.write_file("tables/t1/tab-1.lt", b"x")
        storage.write_file("tables/t2/descriptor.json", b"{}")
        assert storage.list("tables/t1/") == [
            "tables/t1/descriptor.json",
            "tables/t1/tab-1.lt",
        ]
        assert len(storage.list("tables/")) == 3
        assert storage.list("nothing/") == []

    def test_nested_names(self, storage):
        storage.write_file("a/b/c/deep.bin", b"deep")
        assert storage.read_all("a/b/c/deep.bin") == b"deep"


class TestFileStorageSpecifics:
    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path / "persist")
        first = FileStorage(root)
        first.write_file("t/x.bin", b"payload")
        second = FileStorage(root)
        assert second.read_all("t/x.bin") == b"payload"
        assert second.list() == ["t/x.bin"]

    def test_escaping_names_rejected(self, tmp_path):
        store = FileStorage(str(tmp_path / "jail"))
        with pytest.raises(StorageError):
            store.write_file("../escape.bin", b"x")

    def test_no_temp_residue_after_write(self, tmp_path):
        store = FileStorage(str(tmp_path / "clean"))
        store.write_file("a.bin", b"x")
        assert store.list() == ["a.bin"]


class TestAppendHandles:
    """FileStorage keeps a growing file's handle open between appends;
    nothing that retires a name may leave a stale handle behind."""

    def test_append_contract(self, storage):
        storage.append("t/wal-1.log", b"ab")
        storage.append("t/wal-1.log", b"cd")
        assert storage.read_all("t/wal-1.log") == b"abcd"

    def test_append_delete_append_recreates_the_file(self, storage):
        storage.append("t/wal-1.log", b"old")
        storage.delete("t/wal-1.log")
        assert not storage.exists("t/wal-1.log")
        storage.append("t/wal-1.log", b"new")
        assert storage.read_all("t/wal-1.log") == b"new"

    def test_rename_and_write_file_retire_the_handle(self, storage):
        storage.append("a.log", b"one")
        storage.rename("a.log", "b.log")
        storage.append("a.log", b"two")
        assert storage.read_all("a.log") == b"two"
        assert storage.read_all("b.log") == b"one"
        storage.append("b.log", b"!")
        assert storage.read_all("b.log") == b"one!"
        storage.delete("a.log")
        storage.write_file("a.log", b"whole")
        storage.append("a.log", b"+")
        assert storage.read_all("a.log") == b"whole+"

    def test_handle_is_reused_bounded_and_dropped_on_close(self, tmp_path,
                                                            monkeypatch):
        from repro.disk import storage as storage_module

        monkeypatch.setattr(storage_module, "MAX_APPEND_HANDLES", 3)
        store = FileStorage(str(tmp_path / "wal"))
        store.append("t/seg.log", b"a")
        handle = store._appenders["t/seg.log"]
        store.append("t/seg.log", b"b")
        assert store._appenders["t/seg.log"] is handle
        for index in range(5):
            store.append(f"t/other-{index}.log", b"x")
        assert len(store._appenders) == 3
        assert handle.closed            # least recently used went first
        store.append("t/seg.log", b"c")
        assert store.read_all("t/seg.log") == b"abc"
        held = list(store._appenders.values())
        store.close()
        assert store._appenders == {}
        assert all(handle.closed for handle in held)
        store.append("t/seg.log", b"d")     # still usable after close
        assert store.read_all("t/seg.log") == b"abcd"

    def test_a_drop_during_an_append_is_not_undone_by_it(self, tmp_path,
                                                         monkeypatch):
        """delete() racing an in-flight append of the same name: the
        appender must not put its handle (to the unlinked file) back."""
        import os

        store = FileStorage(str(tmp_path / "race"))
        store.append("seg.log", b"a")
        real_fsync = os.fsync

        def fsync_then_delete(fd):
            real_fsync(fd)
            monkeypatch.setattr(os, "fsync", real_fsync)
            store.delete("seg.log")

        monkeypatch.setattr(os, "fsync", fsync_then_delete)
        store.append("seg.log", b"b")
        assert "seg.log" not in store._appenders
        store.append("seg.log", b"c")
        assert store.read_all("seg.log") == b"c"
