"""Unit tests for the FitCache on-disk index (index.jsonl)."""

import json
import os
import time

import pytest

from repro.core.batchfit import (CachedFit, FitCache, FlexSfuFitter,
                                 fit_cache_key, make_job, write_json_atomic)
from repro.core.fit import FitConfig
from repro.functions import registry as fn_registry

_CFG = FitConfig(n_breakpoints=4, grid_points=256, max_steps=25,
                 refine_steps=10, max_refine_rounds=0, polish=False,
                 init="uniform")


def _entry(name="gelu", n_bp=4):
    job = make_job(name, n_bp, config=_CFG)
    res = FlexSfuFitter(job.config).fit(fn_registry.get(name))
    entry = CachedFit(function=name, pwl=res.pwl, grid_mse=res.grid_mse,
                      rounds=res.rounds, total_steps=res.total_steps,
                      init_used=res.init_used, config=job.config)
    return fit_cache_key(job), entry, job


@pytest.fixture
def cache(tmp_path):
    return FitCache(tmp_path / "fits")


class TestIndexMaintenance:
    def test_put_appends_index_line(self, cache):
        key, entry, _ = _entry()
        cache.put(key, entry)
        lines = cache.index_path.read_text().splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["key"] == key
        assert doc["meta"]["function"] == "gelu"
        assert doc["meta"]["n_breakpoints"] == 4

    def test_nearest_served_from_index(self, cache):
        key, entry, _ = _entry()
        cache.put(key, entry)
        probe = make_job("gelu", 6, config=_CFG)
        # A fresh cache object must find the neighbour purely from disk.
        fresh = FitCache(cache.directory)
        near = fresh.nearest_with_key(probe)
        assert near is not None and near[1].function == "gelu"

    def test_missing_index_rebuilds(self, cache):
        key, entry, _ = _entry()
        cache.put(key, entry)
        cache.index_path.unlink()
        fresh = FitCache(cache.directory)
        assert fresh.nearest_with_key(make_job("gelu", 6, config=_CFG)) is not None
        assert fresh.index_path.exists()  # rebuilt for the next reader

    def test_stale_index_detected_via_directory_mtime(self, cache):
        key, entry, _ = _entry()
        cache.put(key, entry)
        time.sleep(0.02)
        # An "old writer" drops an entry without updating the index.
        key2, entry2, _ = _entry("tanh")
        write_json_atomic(cache.path(key2), entry2.to_dict())
        fresh = FitCache(cache.directory)
        assert fresh.nearest_with_key(make_job("tanh", 6, config=_CFG)) is not None

    def test_corrupt_index_line_falls_back_to_walk(self, cache):
        key, entry, _ = _entry()
        cache.put(key, entry)
        with open(cache.index_path, "a") as handle:
            handle.write("{torn-line")
        os.utime(cache.index_path, None)
        fresh = FitCache(cache.directory)
        assert fresh.nearest_with_key(make_job("gelu", 6, config=_CFG)) is not None

    def test_clear_removes_index(self, cache):
        key, entry, _ = _entry()
        cache.put(key, entry)
        cache.clear()
        assert not cache.index_path.exists()
        assert len(cache) == 0

    def test_prune_retires_index(self, cache):
        key, entry, _ = _entry()
        cache.put(key, entry)
        time.sleep(0.02)
        key2, entry2, _ = _entry("tanh")
        cache.put(key2, entry2)
        removed = cache.prune(max_entries=1)
        assert removed == 1
        fresh = FitCache(cache.directory)
        # Only the newest entry survives, and lookups still work.
        assert fresh.nearest_with_key(make_job("tanh", 6, config=_CFG)) is not None
        assert fresh.nearest_with_key(make_job("gelu", 6, config=_CFG)) is None

    def test_index_excluded_from_entry_accounting(self, cache):
        key, entry, _ = _entry()
        cache.put(key, entry)
        assert len(cache) == 1
        assert cache.stats()["entries"] == 1
