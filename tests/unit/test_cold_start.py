"""The cold path: what a fresh process imports, and what its heap does.

Each case runs its probe in a subprocess, so it starts from a fresh
``sys.modules`` and a fresh heap whatever the test session has already
imported or allocated.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.checks import _domain_clipped
from repro.api import Session
from repro.core.fit import FitConfig
from repro.core.pwl import PiecewiseLinear
from repro.functions.analytic import GELU
from repro.zoo.builders import BUILDERS

SRC_ROOT = Path(repro.__file__).resolve().parents[1]

#: Modules a process that compiles and serves a graph never runs: the
#: fitter's scipy, the process pool, the fit daemon and its queue, the
#: hardware model, the cost model, the experiment harness, the zoo
#: catalog and the lane-batched fit kernel.
NOT_ON_SERVE_PATH = (
    "scipy", "multiprocessing", "concurrent.futures.process",
    "repro.service.daemon", "repro.service.queue", "repro.hw", "repro.perf",
    "repro.eval", "repro.zoo.catalog", "repro.core.lanefit",
)

#: Builds ``vit``: the 3x32x32 ViT that ``repro serve-infer`` holds.
VIT = 'BUILDERS["vit"](act="gelu", scale=0.5, seed=0, image=32)'


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded(names) -> str:
    """Probe code: the JSON list of the ``names`` loaded so far."""
    return (f"json.dumps([m for m in {tuple(names)!r} "
            f"if m in sys.modules])")


@pytest.fixture(scope="module")
def vit_cache(tmp_path_factory) -> Path:
    """A fit cache holding the served ViT's 8-breakpoint fits (fitted
    here, so the fresh processes compile from cache hits alone)."""
    cache = tmp_path_factory.mktemp("vit-cache")
    with Session(cache=cache) as session:
        session.compile(BUILDERS["vit"](act="gelu", scale=0.5, seed=0,
                                        image=32), n_breakpoints=8)
    return cache


class TestLazyPackages:
    def test_import_repro_loads_only_the_package_and_its_errors(self):
        got = run_fresh("""
            import json, sys
            import repro
            print(json.dumps(sorted(m for m in sys.modules
                                    if m.split(".")[0] == "repro")))
        """)
        assert got == ["repro", "repro.errors"]

    @pytest.mark.parametrize("package", ["repro", "repro.core",
                                         "repro.service", "repro.zoo"])
    def test_every_public_name_resolves_and_is_listed(self, package):
        got = run_fresh(f"""
            import importlib, json
            pkg = importlib.import_module({package!r})
            print(json.dumps({{
                "unresolved": [n for n in pkg.__all__
                               if getattr(pkg, n, None) is None],
                "unlisted": [n for n in pkg.__all__ if n not in dir(pkg)],
            }}))
        """)
        assert got == {"unresolved": [], "unlisted": []}

    def test_submodule_imports_still_work(self):
        got = run_fresh("""
            import json
            import repro
            from repro.core import batchfit, fit, lanefit, loss
            print(json.dumps([batchfit.__name__, fit.__name__,
                              lanefit.__name__, loss.__name__,
                              repro.eval_.__name__, repro.__version__]))
        """)
        assert got == ["repro.core.batchfit", "repro.core.fit",
                       "repro.core.lanefit", "repro.core.loss", "repro.eval",
                       repro.__version__]


class TestServePath:
    def test_compile_and_serve_imports_only_what_runs(self, vit_cache):
        got = run_fresh(f"""
            import json, sys
            import repro.api
            import repro.serving.infer_server
            import repro.zoo.builders
            from repro.api import Session
            from repro.zoo.builders import BUILDERS

            with Session(cache={str(vit_cache)!r}) as session:
                program = session.compile({VIT}, n_breakpoints=8)
            print({loaded(NOT_ON_SERVE_PATH)})
        """)
        assert got == []

    def test_cli_import_skips_the_harness_and_hardware_model(self):
        got = run_fresh(f"""
            import json, sys
            import repro.cli
            print({loaded(("repro.eval", "repro.hw", "scipy"))})
        """)
        assert got == []


def gelu_table_code(table_json: str) -> str:
    """Probe code: a graph whose GELU runs the PWL ``table_json``, then
    its RPR130 findings and whether scipy got loaded."""
    return f"""
        import json, sys
        from repro.analysis import verify
        from repro.core.pwl import PiecewiseLinear
        from repro.graph.builder import GraphBuilder

        pwl = PiecewiseLinear.from_json({table_json!r})
        g = GraphBuilder("gelu_table", seed=0)
        x = g.linear(g.input("x", (0, 4)), 4, 3)
        g.output(g.activation(x, "gelu"))
        g.graph.nodes[-1].attrs.update(impl="pwl", approximator=pwl)
        codes = [d.code for d in verify(g.graph) if d.code == "RPR130"]
        print(json.dumps({{"codes": codes, "scipy": "scipy" in sys.modules}}))
    """


@pytest.fixture(scope="module")
def gelu_fit(tmp_path_factory):
    """``gelu_fit(interval)``: the table of a short 8-breakpoint GELU
    fit, as JSON (fitting GELU needs scipy, so it runs here).  Its edge
    segments are clamped flat: with GELU's asymptotic edge slopes even a
    fit on [-1, 1] extrapolates well enough to pass RPR130."""
    config = FitConfig(n_breakpoints=8, max_steps=40, refine_steps=20,
                       max_refine_rounds=1, polish_maxiter=60,
                       grid_points=256)
    session = Session(cache=tmp_path_factory.mktemp("gelu-fits"))

    def fit(interval=None) -> str:
        art = session.fit_one("gelu", 8, interval=interval, config=config,
                              boundary=("clamp", "clamp"))
        return art.pwl.to_json()

    yield fit
    session.close()


class TestRpr130WithoutScipy:
    def test_gelu_fitted_on_part_of_its_range_is_flagged_without_scipy(
            self, gelu_fit):
        got = run_fresh(gelu_table_code(gelu_fit((-1.0, 1.0))))
        assert got == {"codes": ["RPR130"], "scipy": False}

    def test_gelu_fitted_on_its_range_is_clean_without_scipy(self, gelu_fit):
        got = run_fresh(gelu_table_code(gelu_fit()))
        assert got == {"codes": [], "scipy": False}

    def test_math_erf_and_scipy_references_agree_on_the_verdict(self):
        # A copy of registry GELU is not registry GELU, so the check
        # evaluates its own (scipy) fn as the reference.
        scipy_gelu = dataclasses.replace(GELU)
        verdicts = []
        for half_width in np.linspace(1.0, 2.5, 61):
            knots = np.linspace(-half_width, half_width, 9)
            pwl = PiecewiseLinear.create(knots, GELU(knots), left_slope=0.0,
                                         right_slope=1.0)
            ours = _domain_clipped(pwl, GELU, GELU.default_interval)
            ref = _domain_clipped(pwl, scipy_gelu, GELU.default_interval)
            assert (ours is None) == (ref is None), half_width
            verdicts.append(ours is not None)
        assert any(verdicts) and not all(verdicts)  # the sweep spans the flip


@pytest.mark.skipif(platform.system() != "Linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the allocator pin is glibc's mallopt")
class TestServingHeap:
    def test_steady_state_run_many_does_not_page_fault(self, vit_cache):
        got = run_fresh(f"""
            import json, resource
            import numpy as np
            from repro.api import Session
            from repro.serving.infer_server import InferServer
            from repro.zoo.builders import BUILDERS

            with Session(cache={str(vit_cache)!r}) as session:
                program = session.compile({VIT}, n_breakpoints=8)
            server = InferServer({{"vit": program}}, port=0)
            server.start()
            rng = np.random.default_rng(0)
            faults = {{}}
            for n in (1, 2):
                feeds = [{{"x": rng.standard_normal((1, 3, 32, 32))}}
                         for _ in range(n)]
                for _ in range(10):
                    program.run_many(feeds)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for _ in range(50):
                    program.run_many(feeds)
                faults[n] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_minflt - before)
            server.close()
            print(json.dumps(faults))
        """)
        assert got["1"] < 50 and got["2"] < 50, got
