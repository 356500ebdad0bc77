"""The one atomic JSON-file writer behind campaign checkpoints, serve job
records and the artifact cache: a write that fails midway leaves the
previous file byte-identical and no temp file behind."""
import os

import pytest

from repro.eval import campaign_engine
from repro.pipeline.cache import ArtifactCache
from repro.serve.jobs import JobManager, JobRecord


class _HalfWriter:
    """A file handle that writes half its text, then fails (a full disk)."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        self.handle.flush()
        raise OSError(28, "No space left on device")


def _checkpoint(tmp_path):
    path = str(tmp_path / "campaign.json")

    def write(n):
        texts = {f"k{i}": campaign_engine._chunk_text(f"k{i}", {"n": i})
                 for i in range(n)}
        campaign_engine._save_checkpoint(path, "params", texts)
    return path, write, None


def _job_record(tmp_path):
    manager = JobManager(str(tmp_path))
    record = JobRecord(id="job-1", params={"workload": "conv1d"})

    def write(n):
        record.done_trials = n
        manager._save(record)
    return manager._record_path(record.id), write, manager


def _cache_entry(tmp_path):
    cache = ArtifactCache(directory=str(tmp_path))

    def write(n):
        cache._write_disk("k" * 64, {"n": n})
    return cache._path("k" * 64), write, None


@pytest.mark.parametrize("writer, raises", [
    (_checkpoint, True),
    (_job_record, True),
    (_cache_entry, False),  # the cache degrades to memory-only instead
])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer,
                                          raises):
    path, write, manager = writer(tmp_path)
    try:
        write(1)
        with open(path, "rb") as handle:
            before = handle.read()
        real_fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen",
            lambda fd, *args, **kwargs: _HalfWriter(
                real_fdopen(fd, *args, **kwargs)))
        if raises:
            with pytest.raises(OSError):
                write(2)
        else:
            write(2)
        monkeypatch.undo()
        with open(path, "rb") as handle:
            assert handle.read() == before
        directory = os.path.dirname(path)
        assert [n for n in os.listdir(directory) if n.endswith(".tmp")] == []
        write(3)  # and the next write lands
        with open(path, "rb") as handle:
            assert handle.read() != before
    finally:
        if manager is not None:
            manager.shutdown()
