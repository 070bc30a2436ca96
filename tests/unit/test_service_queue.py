"""Unit tests for the file-backed job queue."""

import json
import os
import time
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service.queue import (CLAIMED, DONE, FAILED, PENDING, JobQueue,
                                 default_service_dir)


class TestLifecycle:
    def test_submit_claim_finish(self, tmp_path):
        q = JobQueue(tmp_path)
        assert q.submit("k1", {"job": {"x": 1}})
        assert q.counts()[PENDING] == 1
        [(key, payload)] = q.claim()
        assert key == "k1" and payload == {"job": {"x": 1}}
        assert q.counts()[PENDING] == 0
        assert q.counts()[CLAIMED] == 1
        assert q.result("k1") is None  # not finished yet
        q.finish("k1", {"entry": "result"})
        assert q.counts()[CLAIMED] == 0
        state, doc = q.result("k1")
        assert state == DONE and doc == {"entry": "result"}

    def test_fail_path(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit("bad", {"job": {}})
        q.claim()
        q.fail("bad", "the fit diverged")
        state, doc = q.result("bad")
        assert state == FAILED
        assert "diverged" in doc["error"]

    def test_submit_is_idempotent_per_key(self, tmp_path):
        q = JobQueue(tmp_path)
        assert q.submit("k", {"job": {"v": 1}})
        assert not q.submit("k", {"job": {"v": 2}})  # pending already
        [(_, payload)] = q.claim()
        assert payload == {"job": {"v": 1}}  # first submit won
        assert not q.submit("k", {"job": {"v": 3}})  # claimed
        q.finish("k", {"r": 1})
        assert not q.submit("k", {"job": {"v": 4}})  # done
        q.forget("k")
        assert q.submit("k", {"job": {"v": 5}})  # forgotten -> fresh

    def test_submit_racing_a_publish_is_still_deduplicated(
            self, tmp_path, monkeypatch):
        # The daemon publishes (done/ written, then claimed/ retired)
        # right after the submit's first state check: the submit must
        # still see the job instead of enqueuing it a second time.
        q = JobQueue(tmp_path)
        q.submit("k", {"job": {}})
        q.claim()
        real_exists = Path.exists
        calls = []

        def exists(path):
            hit = real_exists(path)
            calls.append(path)
            if len(calls) == 1:
                q.finish("k", {"r": 1})
            return hit

        monkeypatch.setattr(Path, "exists", exists)
        assert not q.submit("k", {"job": {}})
        monkeypatch.undo()
        assert q.counts()[PENDING] == 0
        assert q.result("k") == (DONE, {"r": 1})

    def test_claim_respects_batch_limit_and_rejects_bad(self, tmp_path):
        q = JobQueue(tmp_path)
        for i in range(5):
            q.submit(f"k{i}", {"job": i})
        assert len(q.claim(max_jobs=2)) == 2
        assert len(q.claim(max_jobs=10)) == 3
        with pytest.raises(ServiceError):
            q.claim(max_jobs=0)

    def test_claim_is_exactly_once_across_instances(self, tmp_path):
        # Two daemons sharing one directory: each pending job is claimed
        # by exactly one of them (os.replace atomicity).
        a, b = JobQueue(tmp_path), JobQueue(tmp_path)
        for i in range(8):
            a.submit(f"k{i}", {"job": i})
        got_a = a.claim(max_jobs=100)
        got_b = b.claim(max_jobs=100)
        keys = [k for k, _ in got_a] + [k for k, _ in got_b]
        assert sorted(keys) == sorted(f"k{i}" for i in range(8))
        assert len(set(keys)) == 8

    def test_unparseable_pending_moves_to_failed(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit("ok", {"job": 1})
        (tmp_path / PENDING / "garbage.json").write_text("{not json")
        claimed = q.claim()
        assert [k for k, _ in claimed] == ["ok"]
        state, doc = q.result("garbage")
        assert state == FAILED and "unparseable" in doc["error"]


class TestMaintenance:
    def test_requeue_stale_claims(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit("k", {"job": 1})
        q.claim()
        path = tmp_path / CLAIMED / "k.json"
        old = time.time() - 1000.0
        os.utime(path, (old, old))
        assert q.requeue_stale(max_age_s=600.0) == 1
        assert q.counts()[PENDING] == 1
        assert q.requeue_stale(max_age_s=600.0) == 0

    def test_claim_age_starts_at_claim_not_submit(self, tmp_path):
        # A job that waited in pending for ages is NOT stale the moment
        # it is claimed: claim() restamps the file (os.replace would
        # otherwise carry the submit-time mtime into claimed/).
        q = JobQueue(tmp_path)
        q.submit("k", {"job": 1})
        old = time.time() - 10_000.0
        os.utime(tmp_path / PENDING / "k.json", (old, old))
        [(key, _)] = q.claim()
        assert key == "k"
        assert q.requeue_stale(max_age_s=600.0) == 0  # freshly claimed

    def test_wall_jump_does_not_requeue_observed_claims(self, tmp_path,
                                                        monkeypatch):
        # A daemon that has been watching a claim judges staleness on
        # the monotonic clock: a forward wall-clock jump (here simulated
        # by backdating the mtime out from under a known claim) must not
        # mass-requeue live work.
        from repro.obs import clock

        q = JobQueue(tmp_path)
        q.submit("k", {"job": 1})
        q.claim()
        now = {"mono": 50.0}
        monkeypatch.setattr(clock, "mono", lambda: now["mono"])
        assert q.requeue_stale(max_age_s=600.0) == 0  # first observation
        old = time.time() - 10_000.0
        os.utime(tmp_path / CLAIMED / "k.json", (old, old))
        now["mono"] = 51.0
        assert q.requeue_stale(max_age_s=600.0) == 0  # mono age ~1s
        # A *fresh* queue instance has no observations and falls back to
        # the mtime evidence — the crashed-daemon recovery path.
        assert JobQueue(tmp_path).requeue_stale(max_age_s=600.0) == 1

    def test_monotonic_age_requeues_without_mtime_help(self, tmp_path,
                                                       monkeypatch):
        from repro.obs import clock

        q = JobQueue(tmp_path)
        q.submit("k", {"job": 1})
        q.claim()
        now = {"mono": 100.0}
        monkeypatch.setattr(clock, "mono", lambda: now["mono"])
        assert q.requeue_stale(max_age_s=600.0) == 0  # observed at 100
        now["mono"] = 100.0 + 601.0
        # mtime is fresh; only the accumulated monotonic age says stale.
        assert q.requeue_stale(max_age_s=600.0) == 1
        assert q.counts()[PENDING] == 1

    def test_finished_claims_drop_out_of_tracking(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit("k", {"job": 1})
        q.claim()
        assert q.requeue_stale(max_age_s=600.0) == 0
        assert "k" in q._claim_seen
        q.finish("k", {"r": 1})
        q.requeue_stale(max_age_s=600.0)
        assert "k" not in q._claim_seen

    def test_prune_results_drops_old_markers(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit("k", {"job": 1})
        q.claim()
        q.finish("k", {"r": 1})
        path = tmp_path / DONE / "k.json"
        old = time.time() - 10_000.0
        os.utime(path, (old, old))
        assert q.prune_results(max_age_s=3600.0) == 1
        assert q.result("k") is None


class TestHeartbeat:
    def test_daemon_alive_tracks_freshness(self, tmp_path):
        q = JobQueue(tmp_path)
        assert not q.daemon_alive()
        q.write_heartbeat({"pid": 123})
        assert q.daemon_alive()
        assert q.heartbeat()["pid"] == 123
        old = time.time() - 60.0
        os.utime(q.heartbeat_path, (old, old))
        assert not q.daemon_alive(max_age_s=10.0)

    def test_default_root_sits_next_to_the_fit_cache(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_service_dir() == tmp_path / "service"
        assert JobQueue().root == tmp_path / "service"


class TestDurability:
    def test_queue_state_survives_new_instances(self, tmp_path):
        JobQueue(tmp_path).submit("k", {"job": {"deep": [1, 2, 3]}})
        [(key, payload)] = JobQueue(tmp_path).claim()
        JobQueue(tmp_path).finish(key, {"entry": payload})
        state, doc = JobQueue(tmp_path).result("k")
        assert state == DONE
        assert doc["entry"]["job"]["deep"] == [1, 2, 3]

    def test_done_marker_written_atomically(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit("k", {"job": 1})
        q.claim()
        q.finish("k", {"big": "x" * 100_000})
        # No .tmp residue in any state directory after a finish.
        assert not list(tmp_path.rglob("*.tmp"))
        _, doc = q.result("k")
        assert len(doc["big"]) == 100_000
        assert json.loads((tmp_path / DONE / "k.json").read_text()) == doc
