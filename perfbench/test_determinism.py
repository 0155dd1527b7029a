"""The workload seed alone determines each workload's outputs.

Run with ``python3 -m pytest -q perfbench/test_determinism.py`` (about two
minutes on two cores); the repository's own test suite does not collect it.
"""

import json
import os
import subprocess
import sys

import pytest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("comparison-tabu", "pruning-sa", "scaling-large", "calibration-select")


def _run(workload: str, seed: int) -> tuple[dict, dict]:
    """One repetition of the workload's unit; (info line, result line)."""
    done = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, check=True)
    info, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(info)["info"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_digest_and_quality(workload):
    first_info, first = _run(workload, 1)
    again_info, again = _run(workload, 1)
    other_info, other = _run(workload, 2)
    for result in (first, again, other):
        assert result["correct"] and result["failed"] == 0
    assert again_info["digest"] == first_info["digest"]
    assert (again["metrics"]["best_sat_frac"]["value"]
            == first["metrics"]["best_sat_frac"]["value"])
    assert other_info["digest"] != first_info["digest"]
