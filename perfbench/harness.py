"""Process runner, strict JSON, statistics, environment capture and the
reference routing the benchmark checks `rareclass predict` against.

Nothing here imports rareclass: the program under test only ever runs in
child processes, the way a user runs it.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class StrictJSONError(ValueError):
    """A file the program wrote is not valid JSON (NaN and Infinity included)."""


def _reject_constant(name: str):
    raise StrictJSONError(f"non-JSON constant {name}")


def strict_loads(text: str):
    """json.loads that rejects the NaN/Infinity extensions Python accepts by default."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise StrictJSONError(str(exc)) from exc


def strict_load(path: Path):
    return strict_loads(Path(path).read_text(encoding="utf-8"))


def strict_load_lines(path: Path) -> list:
    return [strict_loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


@dataclass
class CmdResult:
    """One child process: what it cost and how it ended."""
    name: str
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    probe_s: float = 0.0             # host speed around the command, see probe()


def child_env() -> dict:
    """The user's environment (BLAS threads untouched) with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(name: str, argv: list[str], workdir: Path, timeout_s: float = 120.0) -> CmdResult:
    """Run argv to completion through perfbench/launch.py, which reports the
    command's own wall time, CPU time and peak RSS."""
    out_path, err_path = workdir / f"{name}.stdout", workdir / f"{name}.stderr"
    cost_path = workdir / f"{name}.cost.json"
    cost_path.unlink(missing_ok=True)
    launcher = [sys.executable, str(HERE / "launch.py"), str(cost_path), "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(launcher, stdout=out, stderr=err, env=child_env(), cwd=workdir,
                                start_new_session=True)
        try:
            proc.wait(timeout=timeout_s)
        except BaseException:
            # timeout, or the benchmark itself is stopped: take the command down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(sys.exc_info()[1], subprocess.TimeoutExpired):
                raise
    try:
        cost = json.loads(cost_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        cost = {"returncode": proc.returncode or -1, "wall_s": timeout_s, "cpu_s": 0.0,
                "peak_rss_mb": 0.0}
    return CmdResult(name=name, returncode=cost["returncode"], wall_s=cost["wall_s"],
                     cpu_s=cost["cpu_s"], peak_rss_mb=cost["peak_rss_mb"],
                     stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                     stderr=err_path.read_text(encoding="utf-8", errors="replace"))


PROBE_LOOPS = 1_000_000


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    On a shared VM the speed of the same code drifts by tens of percent from
    one minute to the next. The benchmark times this loop before and after
    each command and divides a run's wall times by the median probe time of
    that run, which removes most of the drift between runs.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def rareclass_argv(args: list[str]) -> list[str]:
    """The `rareclass` console script, spelled so it needs no installation."""
    return [sys.executable, "-m", "rareclass.cli", *args]


def summarize(values: list[float]) -> dict:
    """Median and sample count, plus the highest percentile that still has at
    least ten samples beyond it (only when the sample is large enough)."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(pct / 100.0 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            out[f"p{pct:g}"] = ordered[rank - 1]
            break
    return out


def _blas_info() -> dict:
    info = {"name": None, "version": None}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):
        pass
    return info


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use (what the commands get too, since
    they inherit this environment); None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_state() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode != 0:
            return {"revision": None, "dirty": None}
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, timeout=10)
        return {"revision": rev.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": None, "dirty": None}


def environment() -> dict:
    """What the numbers depend on besides the code (ROADMAP aim 4)."""
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "platform": platform.platform(),
        "git": _git_state(),
    }


@dataclass
class Model:
    """The parts of a model document that routing needs, read with strict JSON."""
    w0: np.ndarray
    b0: float
    W: np.ndarray
    b: np.ndarray
    t: np.ndarray

    @classmethod
    def from_file(cls, path: Path) -> "Model":
        doc = strict_load(path)
        K, d = int(doc["K"]), int(doc["d"])
        p = doc["params"]
        model = cls(w0=np.asarray(p["w0"], dtype=np.float64), b0=float(p["b0"]),
                    W=np.asarray(p["W"], dtype=np.float64).reshape(K, d),
                    b=np.asarray(p["b"], dtype=np.float64),
                    t=np.asarray(doc["thresholds"]["t"], dtype=np.float64))
        if model.w0.shape != (d,) or model.b.shape != (K,) or model.t.shape != (K,):
            raise ValueError("model document shapes disagree with its d and K")
        return model


# Scores this close to a decision boundary may round either way between the
# program's per-item dot products and the vectorized reference below.
BOUNDARY_EPS = 1e-9


@dataclass
class Routing:
    verdicts: np.ndarray          # "Majority" | "Known" | "Emerging"
    subclass: np.ndarray          # 1..K for Known, 0 otherwise
    gc: np.ndarray
    ambiguous: np.ndarray         # True where rounding could flip the verdict


def reference_route(model: Model, X: np.ndarray) -> Routing:
    """Majority filter, then argmax-with-reject over the specialized classifiers
    (threshold inclusive, ties to the smallest id), computed independently of
    rareclass.recognizer."""
    gc = X @ model.w0 + model.b0
    S = X @ model.W.T + model.b
    accept = S >= model.t
    masked = np.where(accept, S, -np.inf)
    best = np.argmax(masked, axis=1) + 1          # first maximum = smallest id
    verdicts = np.where(gc <= 0, "Majority", np.where(accept.any(axis=1), "Known", "Emerging"))
    subclass = np.where(verdicts == "Known", best, 0)
    near_gc = np.abs(gc) <= BOUNDARY_EPS * (1 + np.abs(gc))
    near_t = (np.abs(S - model.t) <= BOUNDARY_EPS * (1 + np.abs(S))).any(axis=1)
    near_tie = np.zeros(len(X), dtype=bool)
    if S.shape[1] > 1:
        top2 = np.sort(masked, axis=1)[:, -2:]
        both = np.isfinite(top2).all(axis=1)
        near_tie[both] = top2[both, 1] - top2[both, 0] <= BOUNDARY_EPS
    return Routing(verdicts=verdicts, subclass=subclass, gc=gc,
                   ambiguous=near_gc | (gc > 0) & (near_t | near_tie))


@dataclass
class DecisionCheck:
    mismatches: int = 0
    first: list[str] = field(default_factory=list)


def check_decisions(decisions: list[dict], ref: Routing) -> DecisionCheck:
    """Compare every decision record with the reference routing, item by item."""
    out = DecisionCheck()
    if len(decisions) != len(ref.verdicts):
        out.mismatches = abs(len(decisions) - len(ref.verdicts)) or 1
        out.first.append(f"{len(decisions)} decisions for {len(ref.verdicts)} items")
        return out
    for i, rec in enumerate(decisions):
        want_v, want_k = ref.verdicts[i], int(ref.subclass[i])
        got_v, got_k = rec.get("verdict"), rec.get("subclass", 0) or 0
        gc = rec.get("gc_score")
        ok = (rec.get("index") == i and got_v == want_v and got_k == want_k
              and isinstance(gc, (int, float))
              and abs(gc - ref.gc[i]) <= 1e-9 * (1 + abs(ref.gc[i])))
        if not ok and not ref.ambiguous[i]:
            out.mismatches += 1
            if len(out.first) < 3:
                out.first.append(f"item {i}: got {got_v}/{got_k}, want {want_v}/{want_k}")
    return out


def rare_f1(pred_rare: np.ndarray, true_rare: np.ndarray) -> float:
    """F1 of the rare-vs-majority decision (a verdict other than Majority is 'rare')."""
    tp = float(np.sum(pred_rare & true_rare))
    fp = float(np.sum(pred_rare & ~true_rare))
    fn = float(np.sum(~pred_rare & true_rare))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0
