"""Shared helpers: checkout paths, the metric lists of BENCHMARK.json, the
fixed BLAS thread environment, percentile summaries and machine facts."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"

# Every process the benchmark starts (worker, server, client) runs with one
# BLAS thread, so both commits and all workloads see the same thread layout on
# a 2-vCPU box and the server and load generator do not fight over cores.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}



def benchmark_metrics(key: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list,
    in its order. BENCHMARK.json is the only place these lists are written."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


# Gated end-to-end metrics, the same for every workload. Tail latencies are
# printed and kept in the result file but not gated: on a 2-vCPU box their
# spread over runs exceeds the largest bound (25%) a metric may have (see
# NOTES.md).
E2E = benchmark_metrics("end_to_end")

# Tail percentile ladder: report the highest rung that still has at least
# TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def has_sources(root: Path) -> bool:
    return (root / "src" / "adctr" / "__init__.py").is_file()


def use_checkout_sources(root: Path) -> None:
    """Import ``adctr`` from the checkout's ``src``, never from elsewhere."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout in every run
    return env


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(sorted_values[min(rank, n) - 1])


def summarize(values) -> dict:
    """Median, the highest ladder percentile with at least ten samples beyond
    it, and the sample count."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return {"p50": float("nan"), "tail": float("nan"), "tail_q": None, "n": 0}
    tail_q = next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND), 50.0)
    return {"p50": percentile(vals, 50.0), "tail": percentile(vals, tail_q),
            "tail_q": tail_q, "n": n}


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        return float("nan")
    mid = len(vals) // 2
    return float(vals[mid]) if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def lower_quartile(values) -> float:
    """First quartile, as ``statistics.quantiles(values, n=4)`` gives it."""
    vals = sorted(values)
    if len(vals) < 2:
        return float(vals[0])
    return float(statistics.quantiles(vals, n=4)[0])


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _git_sha(root: Path) -> str:
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)  # never look above the checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _blas_build() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_facts(root: Path) -> dict:
    import numpy as np

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(),
        "blas_env": {k: os.environ.get(k, "") for k in sorted(BLAS_ENV)},
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
    }


def read_json_line(text: str) -> dict:
    """The last non-empty line of a child's stdout, parsed as JSON."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])
