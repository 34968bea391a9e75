"""Tests for the analysis cache's on-disk store: the pickle snapshot.

:meth:`AnalysisCache.load_snapshot` over snapshot files and their failure
modes — a missing snapshot versus a corrupt one, a path that is no snapshot
at all, a pickle naming a forbidden global, malformed entries, and the
explicit ``repair=True`` escape hatch that warm-starts cold with a logged
warning instead of raising.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.analysis.cache import AnalysisCache, SnapshotError


class _MkdirPayload:
    """Pickles to a reduce payload that creates a directory on a naive load."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


class TestCacheSnapshotIntegration:
    """AnalysisCache.load_snapshot over files and their failures."""

    def test_plain_directory_is_not_a_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot be unpickled"):
            AnalysisCache().load_snapshot(str(tmp_path))

    def test_missing_ok_still_distinguishes_corrupt(self, tmp_path):
        cache = AnalysisCache()
        assert cache.load_snapshot(str(tmp_path / "absent"),
                                   missing_ok=True) == 0
        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(b"\x80this is not a pickle")
        with pytest.raises(SnapshotError, match="repair=True"):
            cache.load_snapshot(str(corrupt), missing_ok=True)

    def test_repair_discards_corrupt_pickle_with_warning(self, tmp_path,
                                                         caplog):
        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(b"\x80this is not a pickle")
        cache = AnalysisCache()
        with caplog.at_level("WARNING", logger="repro.analysis.cache"):
            assert cache.load_snapshot(str(corrupt), repair=True) == 0
        assert any("repair skipped" in record.message
                   for record in caplog.records)

    def test_repair_discards_foreign_format_with_warning(self, tmp_path,
                                                         caplog):
        foreign = tmp_path / "foreign.pkl"
        foreign.write_bytes(pickle.dumps({"something": "else"}))
        cache = AnalysisCache()
        with pytest.raises(SnapshotError):
            cache.load_snapshot(str(foreign))
        with caplog.at_level("WARNING", logger="repro.analysis.cache"):
            assert cache.load_snapshot(str(foreign), repair=True) == 0
        assert any("foreign format" in record.message
                   for record in caplog.records)

    def test_reduce_payload_is_refused_not_executed(self, tmp_path, caplog):
        """Regression: the snapshot loaded through a bare ``pickle.load``, so
        this payload created its directory before the load failed."""
        target = tmp_path / "created"
        payload = tmp_path / "payload.pkl"
        payload.write_bytes(pickle.dumps(
            {"format": 1, "entries": [_MkdirPayload(str(target))]}))
        cache = AnalysisCache()
        with pytest.raises(SnapshotError, match="forbidden global"):
            cache.load_snapshot(str(payload))
        with caplog.at_level("WARNING", logger="repro.analysis.cache"):
            assert cache.load_snapshot(str(payload), repair=True) == 0
        assert any("repair skipped" in record.message
                   for record in caplog.records)
        assert not target.exists() and len(cache) == 0

    def test_malformed_entries_are_refused(self, tmp_path, caplog):
        malformed = tmp_path / "malformed.pkl"
        malformed.write_bytes(pickle.dumps(
            {"format": 1, "entries": [("not", "a", "pair")]}))
        cache = AnalysisCache()
        with pytest.raises(SnapshotError, match=r"\(key, results\) entries"):
            cache.load_snapshot(str(malformed))
        with caplog.at_level("WARNING", logger="repro.analysis.cache"):
            assert cache.load_snapshot(str(malformed), repair=True) == 0
        assert any("repair skipped" in record.message
                   for record in caplog.records)
        assert len(cache) == 0
