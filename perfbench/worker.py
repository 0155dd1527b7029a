"""One workload in one fresh single-threaded process; started by run.py.

Protocol on standard output: a line ``ready`` once the package is imported
and the workload inputs are built (run.py times set-up up to that line), then
one JSON object on the last line. With ``--setup-only`` the process exits
after ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace

import hostspeed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the acceptance share of a traced unit that the named layer spans must cover
MIN_COVERAGE = 0.9
# where a traced run writes its spans, relative to the checkout
SPANS_DIR = ".perfbench_spans"


def _import_package():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import maxsat_qubo

    if not os.path.abspath(maxsat_qubo.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"maxsat_qubo imported from {maxsat_qubo.__file__}, not this checkout")


def _unit(workload, recorder):
    """Run the workload's fixed work once under the recorder.

    Returns (outcome, start, end); the outcome is None when the work raised.
    """
    with recorder.patched():
        start = time.perf_counter()
        try:
            outcome = workload.run()
        except Exception:
            traceback.print_exc()
            outcome = None
        end = time.perf_counter()
    return outcome, start, end


def _probed_unit(workload, recorder, probe: hostspeed.Probe):
    """One unit under the host-speed probe, bracketed by bursts outside its timing.

    Returns (outcome, seconds, scaled seconds, slowness per kernel): the unit's
    wall time less the bursts inside it, that time at the nominal host speed,
    and each kernel's median burst time over its nominal time.
    """
    first = len(probe.bursts)
    probe.bracket()
    with probe.sampling():
        outcome, start, end = _unit(workload, recorder)
    probe.bracket()
    return (outcome, end - start - probe.spent(first, start, end),
            probe.scaled(first, start, end), probe.slowness(first))


def _probe_solves(solve_spans) -> tracing.Recorder:
    """Zero-budget solves (same matrix and seeds) that time solver set-up alone."""
    from maxsat_qubo import solvers

    recorder = tracing.Recorder(tracing.TARGETS)
    with recorder.patched():
        for span in solve_spans:
            config = span.arg(1, "config")
            config = replace(config, iteration_limit=0) if config.kind == "tabu" else replace(
                config, sa_sweeps=0)
            solvers.solve(span.arg(0, "q"), config)
    return recorder


def layer_metrics(recorder, probe_recorder, untraced_s, traced_s) -> dict:
    """Per-layer metrics from one traced unit and its zero-budget probes."""
    from maxsat_qubo import qubo

    spans = recorder.spans
    own = tracing.self_times(spans)
    probes = probe_recorder.named("solvers.solve")
    probe_self = tracing.self_times(probe_recorder.spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    solves = recorder.named("solvers.solve")
    loop = {"tabu": [0.0, 0], "sa": [0.0, 0]}
    for span, probe in zip(solves, probes):
        config = span.arg(1, "config")
        dim = span.arg(0, "q").dim
        if config.kind in loop:
            work = config.iteration_limit if config.kind == "tabu" else dim * config.sa_sweeps
            loop[config.kind][0] += own[span.id] - probe_self[probe.id]
            loop[config.kind][1] += work
    densities = []
    for span in solves:
        matrix = span.arg(0, "q")
        pairs = matrix.dim * (matrix.dim - 1) / 2
        densities.append(qubo.nnz_offdiag(matrix) / pairs if pairs else 0.0)
    cli_spans = {"gen": 0.0, "transform": 0.0, "solve": 0.0}
    for span in recorder.named("cli.main"):
        command = span.arg(0, "argv")[0]
        if command in cli_spans:
            cli_spans[command] += span.duration
    dense_builds = recorder.named("qubo.dense_build")
    searches = [s for s in spans if s.target == "search_3x3"]
    emitted = recorder.named("harness.emit")

    def per_unit(kind):
        seconds, work = loop[kind]
        return seconds / work * 1e6 if work else 0.0

    return {
        "solvers.tabu_us_per_iter": (per_unit("tabu"), "us"),
        "solvers.sa_us_per_site_sweep": (per_unit("sa"), "us"),
        "solvers.init_s": (sum(probe_self[p.id] for p in probes), "s"),
        "solvers.calls": (len(solves), "count"),
        "solvers.samples": (sum(s.arg(1, "config").samples for s in solves), "count"),
        "solvers.solve_s": (total("solvers.solve"), "s"),
        "solvers.solve_self_s": (sum(own[s.id] for s in solves), "s"),
        "qubo.reverify_s": (total("qubo.reverify"), "s"),
        "qubo.dense_build_s": (total("qubo.dense_build"), "s"),
        "qubo.dense_builds": (len(dense_builds), "count"),
        "qubo.dense_bytes_computed": (sum(4 * s.args[0].dim ** 2 for s in dense_builds), "bytes"),
        "qubo.text_s": (total("qubo.text"), "s"),
        "qubo.prune_s": (total("qubo.prune"), "s"),
        "qubo.nnz_density": (statistics.fmean(densities) if densities else 0.0, "fraction"),
        "formula.generate_s": (total("formula.generate"), "s"),
        "formula.score_s": (total("formula.score"), "s"),
        "formula.score_calls": (count("formula.score"), "count"),
        "formula.text_s": (total("formula.text"), "s"),
        "transform.assemble_s": (total("transform.assemble"), "s"),
        "transform.assemble_calls": (count("transform.assemble"), "count"),
        "pattern_search.search_s": (total("pattern_search.search"), "s"),
        "pattern_search.candidates": (
            sum(len(s.arg(0, "values")) ** 6 for s in searches), "count"),
        "pattern_search.select_self_s": (
            sum(own[s.id] for s in recorder.named("pattern_search.select")), "s"),
        "harness.baseline_s": (total("harness.baseline"), "s"),
        "harness.summarize_s": (total("harness.summarize"), "s"),
        "harness.emit_s": (total("harness.emit"), "s"),
        "harness.records_bytes": (
            sum(os.path.getsize(s.result[0]) for s in emitted), "bytes"),
        "cli.gen_s": (cli_spans["gen"], "s"),
        "cli.transform_s": (cli_spans["transform"], "s"),
        "cli.solve_s": (cli_spans["solve"], "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }


class Measurement:
    """Timings and correctness counts of one run's repeated units."""

    def __init__(self):
        self.untraced: list[float] = []
        self.scaled: list[float] = []
        self.slowness: list[dict[str, float]] = []
        self.traced: list[float] = []
        self.attempted = self.failed = 0
        self.best_sat_frac = 0.0
        self.digest = self.recorder = None
        self.traced_window = None

    def first(self, workload, outcome, spans) -> None:
        """Check the first unit in full; a unit whose work or check raised fails all its calls."""
        self.attempted = self.failed = workload.calls_per_unit
        if outcome is None:
            return
        try:
            check = workload.check(outcome, spans)
            self.digest = workload.digest(outcome)
        except Exception:
            traceback.print_exc()
            return
        self.attempted, self.failed = check.attempted, check.failed
        self.best_sat_frac = check.best_sat_frac

    def repeat(self, workload, outcome) -> None:
        """Count a later unit: it fails unless it reproduces the first unit's digest."""
        self.attempted += workload.calls_per_unit
        try:
            same = outcome is not None and workload.digest(outcome) == self.digest
        except Exception:
            traceback.print_exc()
            same = False
        if not same:
            self.failed += workload.calls_per_unit


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Repeat the workload's unit until the time budget is spent (at least once).

    The first untraced unit is checked in full; every later unit must
    reproduce its digest, or all of its solver calls count as failed. In a
    traced run each repetition is an untraced unit followed by a traced one;
    otherwise each unit runs under the host-speed probe.
    """
    deadline = time.perf_counter() + seconds
    result = Measurement()
    probe = None if trace else hostspeed.Probe(workload.probe_kernels)
    repetitions: list[float] = []
    while True:
        began = time.perf_counter()
        # only the first unit's checks read spans; later units run unpatched
        recorder = tracing.Recorder(() if result.untraced else tracing.KEPT)
        if probe is None:
            outcome, start, end = _unit(workload, recorder)
            result.untraced.append(end - start)
        else:
            outcome, unit_s, scaled_s, slowness = _probed_unit(workload, recorder, probe)
            result.untraced.append(unit_s)
            result.scaled.append(scaled_s)
            result.slowness.append(slowness)
        checking = time.perf_counter()
        if len(result.untraced) == 1:
            result.first(workload, outcome, recorder.spans)
        else:
            result.repeat(workload, outcome)
        repetitions.append(checking - began)
        del outcome, recorder
        if trace:
            result.recorder = tracing.Recorder(tracing.TARGETS)
            outcome, start, end = _unit(workload, result.recorder)
            result.traced.append(end - start)
            result.traced_window = (start, end)
            result.repeat(workload, outcome)
            repetitions[-1] += end - start
            del outcome
        if result.failed:
            break
        if time.perf_counter() + statistics.median(repetitions) > deadline:
            break
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    import numpy as np

    import workloads

    tracing.import_package()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        run = measure(workload, args.seconds, bool(args.trace))
        correct = run.failed == 0
        spans_file = None
        if args.trace:
            probe_recorder = _probe_solves(run.recorder.named("solvers.solve"))
            values = layer_metrics(run.recorder, probe_recorder,
                                   statistics.median(run.untraced[1:] or run.untraced),
                                   statistics.median(run.traced))
            os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
            spans_file = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.jsonl")
            tracing.write_spans(os.path.join(ROOT, spans_file),
                                {"unit": run.recorder.spans, "probe": probe_recorder.spans})
            share = tracing.coverage(run.recorder.spans, *run.traced_window)
            values["trace.coverage"] = (share, "fraction")
            missing = set(workload.layers) - {s.name.split(".")[0] for s in run.recorder.spans}
            if missing:
                print(f"error: no spans from layers {sorted(missing)}", file=sys.stderr)
                correct = False
            if share < MIN_COVERAGE:
                print(f"error: layer spans cover {share:.1%} of the unit", file=sys.stderr)
                correct = False
        else:
            values = {
                "experiment_s": (statistics.median(run.scaled[1:] or run.scaled), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "best_sat_frac": (run.best_sat_frac, "fraction"),
                "passed_frac": (1 - run.failed / run.attempted, "fraction"),
            }
        print(json.dumps({
            "correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()},
            "info": {"workload": args.workload, "seed": args.seed, "digest": run.digest,
                     "units": len(run.untraced), "unit_s": run.untraced,
                     "scaled_unit_s": run.scaled, "unit_slowness": run.slowness,
                     "traced_unit_s": run.traced, "spans": spans_file,
                     "nproc": len(os.sched_getaffinity(0)),
                     "python": platform.python_version(), "numpy": np.__version__},
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)


if __name__ == "__main__":
    sys.exit(main())
