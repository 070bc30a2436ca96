"""FitCache under fire: racing writers, corrupt entries, pruning."""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.batchfit import CachedFit, FitCache
from repro.core.pwl import PiecewiseLinear
from repro.errors import FitError


def _entry(tag: float = 0.5) -> CachedFit:
    pwl = PiecewiseLinear.create(np.array([-1.0, 0.0, 1.0]),
                                 np.array([0.0, tag, 1.0]), 0.0, 0.0)
    return CachedFit(function="tanh", pwl=pwl, grid_mse=1e-4, rounds=2,
                     total_steps=100, init_used="uniform")


def _hammer_put(directory: str, key: str, tag: float, n_rounds: int) -> None:
    """Child-process worker: repeatedly rewrite one key."""
    cache = FitCache(directory)
    for _ in range(n_rounds):
        cache.put(key, _entry(tag))


class TestConcurrentWriters:
    def test_two_processes_racing_one_key(self, tmp_path):
        """Interleaved put() storms must never leave a torn entry."""
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_hammer_put,
                             args=(str(tmp_path), "hot", tag, 40))
                 for tag in (0.25, 0.75)]
        for p in procs:
            p.start()
        # Read continuously while both writers are live: every read must
        # be a clean parse of one writer's value (atomic os.replace).
        seen = set()
        deadline = time.time() + 30.0
        while any(p.is_alive() for p in procs):
            assert time.time() < deadline, "writer processes hung"
            got = FitCache(tmp_path).get("hot")  # fresh instance: disk read
            if got is not None:
                seen.add(float(got.pwl.values[1]))
        for p in procs:
            p.join()
            assert p.exitcode == 0
        final = FitCache(tmp_path).get("hot")
        assert final is not None
        assert seen <= {0.25, 0.75}
        assert float(final.pwl.values[1]) in (0.25, 0.75)
        # Exactly one visible file, no temp residue.
        assert len(list(tmp_path.glob("*.json"))) == 1
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruptEntries:
    @pytest.mark.parametrize("garbage", [
        "{not json",                      # syntactically broken
        "",                               # zero-length (torn write)
        json.dumps({"schema": 2})[:20],   # truncated mid-document
        json.dumps({"schema": 999, "function": "tanh"}),  # future schema
        json.dumps({"schema": 2, "function": "tanh"}),    # missing fields
    ])
    def test_garbage_reads_as_miss_and_is_rewritten(self, tmp_path, garbage):
        cache = FitCache(tmp_path)
        cache.put("k", _entry())
        cache.path("k").write_text(garbage)
        fresh = FitCache(tmp_path)
        assert fresh.get("k") is None  # miss, not an exception
        fresh.put("k", _entry(0.6))   # rewrite over the wreckage
        again = FitCache(tmp_path).get("k")
        assert again is not None
        assert float(again.pwl.values[1]) == 0.6

    def test_corrupt_entries_do_not_poison_nearest(self, tmp_path):
        from repro.core.batchfit import make_job
        from repro.core.fit import FitConfig
        cache = FitCache(tmp_path)
        (tmp_path / "junk.json").write_text("][")
        job = make_job("tanh", 4, config=FitConfig(n_breakpoints=4))
        assert cache.nearest_with_key(job) is None  # scans past the junk quietly


class TestPruneAndStats:
    def _fill(self, tmp_path, n):
        cache = FitCache(tmp_path)
        now = time.time()
        for i in range(n):
            cache.put(f"k{i}", _entry())
            stamp = now - (n - i) * 100.0  # k0 oldest ... k{n-1} newest
            os.utime(cache.path(f"k{i}"), (stamp, stamp))
        return cache

    def test_prune_by_count_keeps_newest(self, tmp_path):
        cache = self._fill(tmp_path, 5)
        assert cache.prune(max_entries=2) == 3
        assert len(cache) == 2
        assert cache.get("k4") is not None
        assert cache.get("k0") is None  # also evicted from memory

    def test_prune_by_age(self, tmp_path):
        cache = self._fill(tmp_path, 5)
        # Ages are ~100s..500s; cut at 250s -> keep the two newest.
        assert cache.prune(max_age_s=250.0) == 3
        assert cache.get("k4") is not None
        assert cache.get("k1") is None

    def test_prune_combined_and_noop(self, tmp_path):
        cache = self._fill(tmp_path, 5)
        assert cache.prune() == 0  # no bounds given -> nothing happens
        assert cache.prune(max_entries=3, max_age_s=250.0) == 3
        assert len(cache) == 2

    def test_prune_rejects_negative(self, tmp_path):
        with pytest.raises(FitError):
            FitCache(tmp_path).prune(max_entries=-1)

    def test_stats_shape(self, tmp_path):
        cache = self._fill(tmp_path, 3)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["oldest_age_s"] > stats["newest_age_s"] > 0
        empty = FitCache(tmp_path / "void").stats()
        assert empty["entries"] == 0
        assert empty["oldest_age_s"] is None
