"""The fault layer itself: deterministic schedules, gating, round-trip."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.errors import ReproError, TransientError
from repro.faults import (FaultInjector, FaultPlan, FaultRule, InjectedCrash,
                          InjectedFault, InjectedOSError, disable_faults,
                          enable_faults, faults_enabled, get_faults)


class TestSchedules:
    def test_at_indices_fire_exactly_there(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="s", kind="error", at=(0, 2)),)))
        fired = [inj.fire("s") is not None for _ in range(5)]
        assert fired == [True, False, True, False, False]

    def test_after_and_times_bound_the_schedule(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="s", kind="error", p=1.0, after=2, times=2),)))
        fired = [inj.fire("s") is not None for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_probabilistic_rules_are_seed_deterministic(self, chaos_seed):
        def draws(plan):
            inj = FaultInjector(plan)
            return [inj.fire("s") is not None for _ in range(64)]

        plan = FaultPlan(rules=(FaultRule(site="s", kind="error", p=0.5),),
                         seed=chaos_seed)
        first, second = draws(plan), draws(plan)
        assert first == second
        assert any(first) and not all(first)
        # A different base seed re-rolls the stream.
        other = FaultPlan(rules=plan.rules, seed=chaos_seed + 1)
        assert draws(other) != first

    def test_prefix_sites_and_first_match_wins(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="queue.*", kind="error", at=(0,)),
            FaultRule(site="queue.claim", kind="oserror", at=(0,)),)))
        assert inj.fire("queue.claim").kind == "error"
        assert inj.fire("cache.read") is None

    def test_zero_probability_never_fires(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="s", kind="error", p=0.0),)))
        assert all(inj.fire("s") is None for _ in range(100))
        assert inj.snapshot()["sites"]["s"] == {"hits": 100, "fires": 0}


class TestVerbs:
    def test_check_raises_by_kind(self):
        for kind, exc in (("error", InjectedFault),
                          ("oserror", InjectedOSError),
                          ("crash", InjectedCrash)):
            inj = FaultInjector(FaultPlan(rules=(
                FaultRule(site="s", kind=kind, at=(0,), message="boom"),)))
            with pytest.raises(exc, match="boom"):
                inj.check("s")
        assert isinstance(InjectedFault("x"), TransientError)
        assert not isinstance(InjectedCrash("x"), Exception)

    def test_corrupt_alternates_truncation_and_mangling(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="c", kind="corrupt", at=(0, 1)),)))
        text = '{"a": 1}'
        first = inj.corrupt("c", text)
        second = inj.corrupt("c", text)
        third = inj.corrupt("c", text)
        assert first != text and second != text
        assert first != second  # one torn, one mangled
        assert third == text    # schedule exhausted

    def test_drop_only_for_drop_rules(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule(site="d", kind="drop", at=(0,)),)))
        assert inj.drop("d") is True
        assert inj.drop("d") is False


class TestGating:
    def test_null_injector_when_disabled(self):
        disable_faults()
        inj = get_faults()
        assert not faults_enabled()
        assert inj.check("anything") is None
        assert inj.corrupt("anything", "text") == "text"
        assert inj.drop("anything") is False
        assert get_faults() is inj  # shared singleton, no allocation

    def test_enable_disable_round_trip(self):
        enable_faults(FaultPlan(rules=(
            FaultRule(site="s", kind="error", at=(0,)),)))
        try:
            assert faults_enabled()
            with pytest.raises(InjectedFault):
                get_faults().check("s")
        finally:
            disable_faults()
        assert not faults_enabled()

    def test_env_plan_loads_lazily_without_deadlock(self, monkeypatch,
                                                    tmp_path):
        # Regression: the lazy REPRO_FAULTS load calls enable_faults()
        # while already holding the install lock — with a plain Lock
        # this self-deadlocked the first get_faults() of any daemon
        # spawned with the env var set.
        from repro.faults import inject

        path = tmp_path / "plan.json"
        path.write_text(FaultPlan(rules=(
            FaultRule(site="s", kind="error", at=(0,)),)).to_json())
        monkeypatch.setenv("REPRO_FAULTS", str(path))
        monkeypatch.setattr(inject, "_active", None)
        monkeypatch.setattr(inject, "_env_checked", False)
        try:
            assert get_faults().enabled
            with pytest.raises(InjectedFault):
                get_faults().check("s")
        finally:
            disable_faults()

    def test_clock_jump_installs_and_removes_the_wall_hook(self):
        from repro.obs import clock

        enable_faults(FaultPlan(rules=(
            FaultRule(site="clock.wall", kind="clock_jump", at=(0,),
                      jump_s=3600.0),)))
        try:
            assert clock._wall_offset is not None
            # The jump fires on the first wall() read and sticks.
            import time as _time
            assert clock.wall() - _time.time() > 3000.0
            assert clock.wall() - _time.time() > 3000.0
        finally:
            disable_faults()
        assert clock._wall_offset is None


_POOL_SCRIPT = textwrap.dedent("""
    import json
    import multiprocessing
    import sys

    from repro.api import EngineConfig, FitRequest, Session
    from repro.core.fit import FitConfig
    from repro.errors import FitError
    from repro.faults import FaultPlan, FaultRule, enable_faults, get_faults

    if __name__ == "__main__":
        method, rule = sys.argv[1], FaultRule.from_dict(json.loads(sys.argv[2]))
        multiprocessing.set_start_method(method)
        enable_faults(FaultPlan(rules=(rule,)))
        try:  # one hit in the parent first: workers must not inherit it
            get_faults().check("fit.worker")
        except Exception:
            pass
        tiny = FitConfig(n_breakpoints=4, max_steps=20, refine_steps=10,
                         max_refine_rounds=1, polish_maxiter=20,
                         grid_points=128)
        reqs = [FitRequest.create(name, 4, config=tiny)
                for name in ("tanh", "sigmoid")]
        engine = EngineConfig(engine="pool", max_workers=2,
                              lane_batch=False)
        with Session(engine, use_cache=False) as session:
            try:
                session.fit(reqs)
            except FitError as exc:
                print("FitError:", exc)
                sys.exit(0)
        print("both fits came back")
        sys.exit(1)
""")


class TestPoolWorkers:
    """A plan enabled in the parent fires in its pool workers, whatever
    the start method, and each worker counts hits from zero."""

    @pytest.mark.parametrize("method, rule", [
        ("spawn", FaultRule(site="fit.worker", kind="error", p=1.0)),
        ("fork", FaultRule(site="fit.worker", kind="error", at=(0,))),
    ])
    def test_parent_plan_fires_in_pool_workers(self, method, rule,
                                               tmp_path):
        script = tmp_path / "pool_faults.py"
        script.write_text(_POOL_SCRIPT)
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), method, json.dumps(rule.to_dict())],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
        assert "InjectedFault" in proc.stdout


class TestPlanSerialisation:
    def test_json_round_trip(self):
        plan = FaultPlan(rules=(
            FaultRule(site="queue.*", kind="oserror", p=0.25, seed=7),
            FaultRule(site="cache.read", kind="corrupt", at=(1, 3),
                      times=2)), seed=42, name="rt")
        again = FaultPlan.from_dict(json.loads(plan.to_json()))
        assert again == plan

    def test_parse_inline_and_file(self, tmp_path):
        doc = FaultPlan(rules=(
            FaultRule(site="s", kind="stall", at=(0,), stall_s=0.5),),
            seed=3).to_json()
        assert FaultPlan.parse(doc).rules[0].stall_s == 0.5
        path = tmp_path / "plan.json"
        path.write_text(doc)
        assert FaultPlan.parse(str(path)).seed == 3

    def test_malformed_specs_raise_typed_errors(self, tmp_path):
        with pytest.raises(ReproError):
            FaultPlan.parse("{not json")
        with pytest.raises(ReproError):
            FaultPlan.parse(str(tmp_path / "missing.json"))
        with pytest.raises(ReproError):
            FaultRule.from_dict({"site": "s", "kind": "error",
                                 "bogus": 1})
        with pytest.raises(ReproError):
            FaultRule(site="s", kind="nonsense")
