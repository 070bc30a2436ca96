"""Public-API surface tests: stable ``__all__``, side-effect-light import."""

import os
import subprocess
import sys
from pathlib import Path

import repro.api as api

#: The public surface contract.  Additions are deliberate API growth
#: (update this snapshot in the same PR); removals are breaking.
EXPECTED_ALL = [
    "ARTIFACT_SCHEMA_VERSION",
    "ENGINE_AUTO",
    "ENGINE_INLINE",
    "ENGINE_LANE",
    "ENGINE_NAMES",
    "ENGINE_POOL",
    "ENGINE_REMOTE",
    "Engine",
    "EngineConfig",
    "FALLBACK_ERROR",
    "FALLBACK_LOCAL",
    "FitArtifact",
    "FitRequest",
    "InlineEngine",
    "LaneEngine",
    "PoolEngine",
    "RemoteEngine",
    "Session",
    "aggregate_provenance",
    "create_engine",
    "fit",
]


class TestPublicSurface:
    def test_all_snapshot(self):
        assert list(api.__all__) == EXPECTED_ALL

    def test_all_is_sorted_and_resolvable(self):
        assert list(api.__all__) == sorted(api.__all__)
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_import_has_no_scipy_or_matplotlib_side_effects(self):
        """``import repro.api`` must not drag in scipy/matplotlib.

        scipy is a hard dependency of the *fitting* hot path (the
        L-BFGS polish, exact GELU), but loading it belongs to the first
        fit, not to the import — a serving front end that only reads
        cached artifacts should start without it.
        """
        src_root = Path(api.__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        code = (
            "import sys\n"
            "import repro.api\n"
            "bad = [m for m in ('scipy', 'matplotlib')\n"
            "       if any(k == m or k.startswith(m + '.')\n"
            "              for k in sys.modules)]\n"
            "sys.exit(','.join(bad) and 1 or 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
