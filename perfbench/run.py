"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload comparison-tabu --seed 1 --seconds 20 --trace 0

The workload runs in a fresh single-threaded Python process (perfbench/worker.py)
that imports maxsat_qubo from this checkout's ``src``. Set-up time is measured
here, from starting a process until it reports that the package is imported
and the workload inputs are built; it is the median over SETUP_SAMPLES
processes, the workload's own included. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the digest of the outputs and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _start(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            cwd=ROOT, env=_child_env())
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if ready else b""
    setup_s = time.perf_counter() - start
    if line.strip() != b"ready":
        _stop(proc)
        raise BenchError(f"worker {' '.join(argv)} did not get ready")
    return proc, setup_s


def run(args) -> tuple[dict, dict]:
    deadline = time.perf_counter() + TIME_LIMIT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s = _start(argv + ["--setup-only"], deadline)
        try:
            proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        setups.append(setup_s)
    proc, setup_s = _start(argv, deadline)
    setups.append(setup_s)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {TIME_LIMIT_S} s") from None
    finally:
        _stop(proc)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    info = result.pop("info")
    info["setup_samples_s"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "maxsat_qubo", "__init__.py")):
        print(f"error: no maxsat_qubo sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        info, result = run(args)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
