"""Shared plumbing of the perfbench harness.

Paths, the sanitized child environment, child processes and their
line protocol, statistics, fingerprints and the prepared fit cache.
The workload modules (``fit_sweep``, ``zoo_batch``, ``serve_vit``)
import this module; it imports nothing from ``repro`` at module level,
so the orchestrating process stays free of numpy until it needs it.

``python3 perfbench/harness.py prepare <dir>`` is the child that fits
the prepared cache (see :func:`prepared_cache`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: Prefix of the protocol lines a child prints on stdout; every other
#: line is forwarded to stderr.
PROTO = "PERFBENCH"

#: One BLAS/OpenMP thread per process: two CPUs are shared by the
#: load generator, the server and the harness.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

#: Budgets the prepared cache holds: the zoo compiles at 16
#: breakpoints, the served ViT at 8 (the ``serve-infer`` default).
ZOO_BREAKPOINTS = 16
SERVE_BREAKPOINTS = 8


# --------------------------------------------------------------------- #
# Environment
# --------------------------------------------------------------------- #
def bench_env() -> Dict[str, str]:
    """The environment every benchmark process runs in.

    Drops every ``REPRO_*`` variable (cache dir, worker counts, serving
    addresses, batch window, exec workers, fault plans, trace sinks),
    pins one BLAS thread, fixes string hashing so set iteration (and
    with it arena slot assignment) is identical in every process, and
    points ``HOME`` inside the build directory so no code path can read
    or write ``~/.cache/repro-flexsfu``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["HOME"] = str(BUILD / "home")
    return env


def apply_env() -> None:
    """Make this process's environment :func:`bench_env` (call before
    importing numpy) and put ``src`` on the import path."""
    env = bench_env()
    for key in [k for k in os.environ if k not in env]:
        del os.environ[key]
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def default_cache_entries() -> int:
    """Fit entries in the (redirected) default cache; must stay 0."""
    fits = BUILD / "home" / ".cache" / "repro-flexsfu" / "fits"
    return len(list(fits.glob("*.json"))) if fits.is_dir() else 0


# --------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------- #
class Child:
    """A Python child speaking the ``PERFBENCH <tag> <payload>`` line
    protocol on stdout; everything else it prints goes to stderr."""

    def __init__(self, args: Sequence[str], stdin: bool = False) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *map(str, args)], cwd=str(ROOT),
            env=bench_env(), text=True, bufsize=1,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE)
        self._lines: "queue.Queue[Tuple[float, Optional[str]]]" = \
            queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            now = time.perf_counter()
            if line.startswith(PROTO + " "):
                self._lines.put((now, line[len(PROTO) + 1:].rstrip("\n")))
            else:
                sys.stderr.write(line)
        self._lines.put((time.perf_counter(), None))

    def expect(self, tag: str, timeout_s: float) -> Tuple[float, str]:
        """Wait for the next protocol line; returns (arrival time since
        the child started, payload).  Raises on EOF, timeout or an
        unexpected tag."""
        deadline = time.perf_counter() + timeout_s
        try:
            at, line = self._lines.get(
                timeout=max(deadline - time.perf_counter(), 0.0))
        except queue.Empty:
            self.kill()
            raise RuntimeError(f"child timed out waiting for {tag}") from None
        if line is None:
            code = self.proc.wait()
            raise RuntimeError(f"child exited ({code}) before {tag}")
        got, _, payload = line.partition(" ")
        if got != tag:
            self.kill()
            raise RuntimeError(f"child sent {got!r}, expected {tag!r}")
        return at - self.started, payload

    def send(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self, timeout_s: float = 30.0) -> int:
        """Wait for the child to exit (killing it past the timeout)."""
        try:
            code = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            code = self.proc.wait()
        self._reader.join(timeout=5.0)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def emit(tag: str, payload: Any = "") -> None:
    """Child side of the protocol: one tagged line on stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload)
    sys.stdout.write(f"{PROTO} {tag} {text}\n")
    sys.stdout.flush()


def run_child(args: Sequence[str], timeout_s: float) -> Tuple[float, Dict]:
    """Run one measuring child: (seconds from spawn to READY, the
    RESULT document)."""
    child = Child(args)
    try:
        ready_s, _ = child.expect("READY", timeout_s)
        _, payload = child.expect("RESULT", timeout_s)
    finally:
        child.finish()
    return ready_s, json.loads(payload)


def side_by_side(count: int) -> List[int]:
    """The CPUs a workload times on at once: ``count`` of the usable
    ones, fewer on a host that has fewer.

    On a shared host each vCPU switches on its own between a fast and a
    slow speed (interference from outside the VM), so a timing taken on
    every one of these CPUs at once, keeping the fastest, tracks the
    code rather than the neighbours.
    """
    return sorted(os.sched_getaffinity(0))[:count]


def pin(cpu: Optional[int]) -> None:
    """Child side of :func:`start_pinned`: run on ``cpu`` only (before
    the set-up, so all of it runs there)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


@contextlib.contextmanager
def start_pinned(argss: Sequence[Sequence[Any]], cpus: Sequence[int],
                 stdin: bool = False, timeout_s: float = 60.0
                 ) -> Iterator[List[Child]]:
    """Spawn one child per CPU at once, each given ``--cpu``; yields
    them once every one is READY, and waits for them to exit (killing
    them all if the body fails)."""
    children: List[Child] = []
    try:
        for args, cpu in zip(argss, cpus):
            children.append(Child([*args, "--cpu", cpu], stdin=stdin))
        for child in children:
            child.expect("READY", timeout_s)
        yield children
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        for child in children:
            child.finish()


def replica_errors(results: Sequence[Dict]) -> List[str]:
    """Every side-by-side child's errors, plus one if their work
    fingerprints differ."""
    errors = [e for r in results for e in r["errors"]]
    works = [r["work"] for r in results]
    if any(w != works[0] for w in works):
        errors.append(f"side-by-side processes did different work: {works}")
    return errors


def setup_probe(args: Sequence[Any], timeout_s: float = 60.0) -> float:
    """Seconds from spawning a fresh child to its READY line.

    One child alone: on the reference host two fit-sweep set-ups
    started at once, one per CPU, took a median 11% longer than one
    alone, and the faster of the two was no steadier.
    """
    child = Child(args)
    try:
        ready_s, _ = child.expect("READY", timeout_s)
    finally:
        child.finish()
    return ready_s


def fresh_dir(name: str) -> Path:
    """An empty directory under the build tree (removed first)."""
    path = BUILD / "runs" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def median(xs: Iterable[float]) -> float:
    return float(statistics.median(list(xs)))


def geomean(xs: Iterable[float]) -> float:
    xs = list(xs)
    return float(math.exp(sum(math.log(x) for x in xs) / len(xs)))


def tail(xs: Iterable[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it: the
    11th-largest sample, with its percentile rank and the count."""
    s = sorted(xs)
    n = len(s)
    if n < 11:
        raise ValueError(f"{n} samples cannot give a tail with ten beyond")
    return {"value": s[n - 11], "percentile": 100.0 * (n - 11) / (n - 1),
            "samples": n}


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux ru_maxrss)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------- #
def source_digest() -> str:
    """sha256 over the package sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.rglob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_fingerprint(seed: int, seconds: int) -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    def version(dist: str) -> Optional[str]:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": int(bench_env()["OPENBLAS_NUM_THREADS"]),
            "git_sha": git_sha(), "source_digest": source_digest()[:16],
            "run_seconds": seconds, "seed": seed}


def check_fingerprint(workload: str, seed: int, work: Dict[str, Any]
                      ) -> Optional[str]:
    """Compare ``work`` with the first run of the same code and seed in
    this checkout (stored on first sight); returns the mismatch."""
    path = (BUILD / "fingerprints" / source_digest()[:16]
            / f"{workload}-seed{seed}.json")
    if path.is_file():
        first = json.loads(path.read_text())
        if first != work:
            return f"work fingerprint {work} != first run's {first}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(work, sort_keys=True))
    os.replace(tmp, path)
    return None


# --------------------------------------------------------------------- #
# The prepared fit cache (zoo-batch and serve-vit read it)
# --------------------------------------------------------------------- #
def prepared_cache() -> Path:
    """Directory holding the prepared fit cache, fitted on first use.

    Prepared once per checkout and source digest, before any timed
    run; every set-up then copies it (:func:`copy_prepared`) so each
    one reads the same entries from a cache nobody has written to.
    """
    digest = source_digest()[:16]
    target = BUILD / "prepared" / digest
    if (target / "DONE").is_file():
        return target
    tmp = BUILD / "prepared" / f".{digest}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    child = Child([__file__, "prepare", tmp])
    try:
        child.expect("PREPARED", 600.0)
    finally:
        code = child.finish()
    if code != 0:
        raise RuntimeError(f"preparing the fit cache failed ({code})")
    (tmp / "DONE").write_text(digest)
    shutil.rmtree(target, ignore_errors=True)
    os.replace(tmp, target)
    return target


def copy_prepared(prepared: Path, dest: Path) -> Path:
    """Copy the prepared cache into ``dest``; returns the cache dir."""
    shutil.copytree(prepared, dest / "prepared")
    return dest / "prepared" / "fits"


def baked_mses(session: Any, graph: Any, n_breakpoints: int
               ) -> Dict[str, float]:
    """Grid MSE per fit key of the PWLs ``session.rewrite(graph,
    n_breakpoints)`` bakes in (exact-PWL natives, MSE 0, excluded).

    Repeats that rewrite with the session's ``fit`` recorded, so the
    fits are the rewrite's own, whatever keys it asks for; raises when
    one is not served from the session's (prepared) cache.
    """
    arts: list = []
    fit = session.fit

    def recorded(requests: Any) -> list:
        out = fit(requests)
        arts.extend(out)
        return out

    session.fit = recorded
    try:
        session.rewrite(graph, n_breakpoints)
    finally:
        del session.fit
    fresh = sorted({a.key for a in arts if not a.from_cache})
    if fresh:
        raise RuntimeError(f"fits not served from the prepared cache: "
                           f"{fresh}")
    return {a.key: a.grid_mse for a in arts if a.init_used != "native"}


def _prepare(directory: Path) -> None:
    """Fit every PWL the zoo and the served ViT bake, through the same
    ``Session.rewrite`` path their set-ups use (so the keys match)."""
    from repro.api import Session

    import serve_vit
    import zoo_batch

    with Session(cache=directory / "fits") as session:
        for variant in zoo_batch.variants():
            session.rewrite(zoo_batch.build_trunk(variant), ZOO_BREAKPOINTS)
        session.rewrite(serve_vit.build_graph(), SERVE_BREAKPOINTS)


if __name__ == "__main__":
    if sys.argv[1:2] == ["prepare"]:
        apply_env()
        _prepare(Path(sys.argv[2]))
        emit("PREPARED")
    else:
        sys.exit(f"usage: {sys.argv[0]} prepare <dir>")
