"""Tests for the analysis cache's on-disk store: the pickle snapshot.

:meth:`AnalysisCache.load_snapshot` over snapshot files and their failure
modes — a missing snapshot versus a corrupt one, a path that is no snapshot
at all, and the explicit ``repair=True`` escape hatch that warm-starts cold
with a logged warning instead of raising.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.cache import AnalysisCache, SnapshotError


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
