"""Benchmark entry point. Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Generates the workload's inputs from the seed, runs the workload in its own
process against the checkout's ``src``, checks its outputs, prints every
named metric with its unit and sample count, and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Each run's full result is also kept under ``perfbench/.work/results``.
Workloads, metrics and the layer map are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from common import (BENCH_DIR, BLAS_ENV, E2E, child_env, has_sources,  # noqa: E402
                    machine_facts, read_json_line, use_checkout_sources)

WORKLOADS = ("train-dstn-i", "serve-replay", "serve-rank")
WORKER_TIMEOUT_S = 150  # leaves input generation inside the 180 s a run may take


def work_root(root: Path) -> Path:
    return root / BENCH_DIR.name / ".work"


def run(workload: str, seed: int, seconds: int, trace: int, size: str, root: Path) -> dict:
    """One run: inputs, worker, assembled result (including the final line)."""
    import inputs

    workdir = work_root(root) / run_name(workload, size, seed, trace)
    shutil.rmtree(workdir, ignore_errors=True)
    manifest = inputs.make(workload, seed, seconds, size, workdir)
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), workload,
                           str(workdir), str(trace)],
                          cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    out = read_json_line(proc.stdout)
    if trace:
        metrics = {name: {"value": value, "unit": layers.PER_LAYER[name]}
                   for name, value in out["per_layer"].items()}
    else:
        metrics = {name: {"value": out["e2e"][name]["value"], "unit": unit}
                   for name, unit in E2E.items()}
    correct = out["n_problems"] == 0 and out["failed"] == 0
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "size": size, "manifest": manifest, "facts": machine_facts(root),
            "worker": out,
            "line": {"correct": correct, "attempted": out["attempted"],
                     "failed": out["failed"], "metrics": metrics}}


def report(result: dict, root: Path) -> None:
    """Human-readable lines before the final JSON line."""
    w = result["worker"]
    print(f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']} wall={w['wall_s']:.1f}s")
    print(f"# machine: {json.dumps(result['facts'], sort_keys=True)}")
    for name, m in w["named"].items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']}")
    for key, value in w["records"].items():
        print(f"# {key}: {json.dumps(value)}")
    for problem in w["problems"]:
        print(f"# PROBLEM: {problem}")
    if result["trace"]:
        for name, value in w["per_layer"].items():
            print(f"{name:40s} {value:>14.6g} {layers.PER_LAYER[name]}")
        untraced = results_path(root, result["workload"], result["size"], result["seed"], 0)
        base = None
        if untraced.is_file():
            with open(untraced, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        # Only a run of the same inputs and amount of work is comparable.
        if base is not None and base["seconds"] == result["seconds"]:
            base = base["worker"]["e2e"]
            for name in E2E:
                delta = w["e2e"][name]["value"] - base[name]["value"]
                print(f"# tracing overhead {name}: {delta:+.6g} {E2E[name]} "
                      f"({delta / base[name]['value']:+.1%})")


def run_name(workload: str, size: str, seed: int, trace: int) -> str:
    return f"{workload}-{size}-s{seed}-t{trace}"


def results_path(root: Path, workload: str, size: str, seed: int, trace: int) -> Path:
    return work_root(root) / "results" / f"{run_name(workload, size, seed, trace)}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not has_sources(root):
        print(f"error: {root} holds no src/adctr; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    use_checkout_sources(root)

    result = run(args.workload, args.seed, args.seconds, args.trace, args.size, root)
    path = results_path(root, args.workload, args.size, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    report(result, root)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
