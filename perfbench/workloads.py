"""The four benchmark workloads: their fixed work, correctness checks and digests.

Each workload builds its inputs from the workload seed, runs one fixed unit of
work through maxsat_qubo's public functions, and then checks that unit's
outputs outside the timed section. A solver call counts as failed when any of
its samples' stored energy differs from the exact Python-int ``qubo.energy``,
when the best sample's reported satisfied count differs from the scalar
``count_satisfied`` of its decoded bits, or when the matrix it ran on fails a
known answer (dimension, fully pruned stage, clause-pattern census).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from maxsat_qubo import cli, formula as fm, harness, pattern_search, qubo, solvers, transform
from maxsat_qubo.rng import mix

# solver calls per formula and transform in a pruning sweep: 11 stages x {min, random}
PRUNING_CALLS = 22


@dataclass
class Check:
    attempted: int
    failed: int
    best_sat_frac: float


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def _expected_dim(name: str, num_vars: int, num_clauses: int) -> int:
    return num_vars if name == "fullapprox" else num_vars + num_clauses


def _energies_exact(matrix: qubo.QuboMatrix, bits_and_energies) -> bool:
    return all(qubo.energy(matrix, bits) == stored for bits, stored in bits_and_energies)


def _best_index(satisfied) -> int:
    values = list(satisfied)
    return values.index(max(values))


class HarnessWorkload:
    """``harness.run_experiment`` on one formula, then ``harness.emit`` to a temp dir."""

    layers = ("formula", "transform", "qubo", "solvers", "harness")
    # the hostspeed.py kernels that match this work: interpreted loops and numpy calls
    probe_kernels = ("interp", "small_numpy", "array_numpy")

    def __init__(self, tmp: str, config: harness.ExperimentConfig):
        self.config = config
        self.tmp = tmp
        self.calls_per_unit = config.count * len(config.transforms) * (
            PRUNING_CALLS if config.kind == "pruning_sweep" else 1)
        if config.kind == "comparison":
            self.calls_per_unit += config.count

    def run(self):
        records, summary = harness.run_experiment(self.config)
        paths = harness.emit(records, summary, self.tmp, self.config.kind, timestamp="bench")
        return records, paths

    def digest(self, outcome) -> str:
        _, paths = outcome
        chunks = []
        for path in paths:
            with open(path, "rb") as fh:
                chunks.append(fh.read())
        return _sha256(*chunks)

    def check(self, outcome, spans) -> Check:
        records, _ = outcome
        cfg = self.config
        calls = [s for s in spans if s.name in ("solvers.solve", "harness.baseline")]
        bests: dict[tuple[int, str], int] = {}
        for record in records:
            key = (record.formula_id, record.method)
            bests[key] = max(bests.get(key, record.satisfied), record.satisfied)
        best_sat_frac = float(np.mean(list(bests.values()))) / cfg.num_clauses
        if len(calls) != self.calls_per_unit:
            return Check(self.calls_per_unit, self.calls_per_unit, best_sat_frac)
        failed = 0
        position = 0
        formula = layout = None
        bad: set[int] = set()
        for span in spans:
            if span.name == "transform.assemble":
                formula, spec = span.arg(0, "formula"), span.arg(1, "spec")
                matrix, layout = span.result
                if matrix.dim != _expected_dim(spec.name, cfg.num_vars, cfg.num_clauses):
                    bad.add(id(matrix))
            elif span.name == "qubo.prune":
                stages = span.result
                if len(stages) != 11 or qubo.nnz_offdiag(stages[-1].matrix) != 0:
                    bad.update(id(stage.matrix) for stage in stages)
            elif span.name == "solvers.solve":
                matrix, results = span.arg(0, "q"), span.result
                chunk = records[position:position + len(results)]
                position += len(results)
                ok = (id(matrix) not in bad and matrix.dim == layout.dim
                      and self._solve_ok(formula, layout, matrix, results, chunk))
                failed += not ok
            elif span.name == "harness.baseline":
                pairs = span.result
                chunk = records[position:position + len(pairs)]
                position += len(pairs)
                failed += not self._baseline_ok(span.arg(0, "formula"), pairs, chunk)
        if position != len(records):
            failed = self.calls_per_unit
        return Check(self.calls_per_unit, failed, best_sat_frac)

    @staticmethod
    def _solve_ok(formula, layout, matrix, results, chunk) -> bool:
        if len(chunk) != len(results) or any(
                record.method == harness.RANDOM_METHOD or record.energy != result.energy
                or record.seed != result.seed_used or record.sample != result.run_index
                for record, result in zip(chunk, results)):
            return False
        if not _energies_exact(matrix, ((r.bits, r.energy) for r in results)):
            return False
        best = _best_index(record.satisfied for record in chunk)
        return chunk[best].satisfied == fm.count_satisfied(
            formula, transform.decode(results[best].bits, layout))

    @staticmethod
    def _baseline_ok(formula, pairs, chunk) -> bool:
        if len(chunk) != len(pairs) or any(
                record.method != harness.RANDOM_METHOD or record.satisfied != satisfied
                for record, (_, satisfied) in zip(chunk, pairs)):
            return False
        best = _best_index(record.satisfied for record in chunk)
        return chunk[best].satisfied == fm.count_satisfied(formula, pairs[best][0])


def comparison_tabu(seed: int, tmp: str) -> HarnessWorkload:
    config = harness.ExperimentConfig(
        kind="comparison", count=1, num_vars=145, num_clauses=500, seed=seed,
        transforms=("fullapprox", "chancellor_repaired", "nuesslein"),
        solver=solvers.SolverConfig(kind="tabu", samples=100, iteration_limit=2000))
    return HarnessWorkload(tmp, config)


def pruning_sa(seed: int, tmp: str) -> HarnessWorkload:
    config = harness.ExperimentConfig(
        kind="pruning_sweep", count=1, num_vars=58, num_clauses=200, seed=seed,
        transforms=("nuesslein",),
        solver=solvers.SolverConfig(kind="sa", samples=50, sa_sweeps=30))
    return HarnessWorkload(tmp, config)


class ScalingLarge:
    """In-process CLI: ``gen``, ``transform`` to both forms, ``solve`` each with tabu."""

    layers = ("cli", "formula", "transform", "qubo", "solvers")
    # long dense C calls on fresh dim x dim buffers, which interpreted kernels do not track
    probe_kernels = ("dense_numpy", "page_faults")
    num_vars, num_clauses, samples = 1390, 5000, 10
    methods = ("fullapprox", "nuesslein")
    calls_per_unit = len(methods)

    def __init__(self, seed: int, tmp: str):
        self.cnf = os.path.join(tmp, "formula_000.cnf")
        self.files = {m: (os.path.join(tmp, f"{m}.qubo"), os.path.join(tmp, f"{m}.jsonl"))
                      for m in self.methods}
        self.commands = [["gen", "--vars", str(self.num_vars), "--clauses", str(self.num_clauses),
                          "--seed", str(seed), "--out", tmp]]
        for method, (qubo_path, _) in self.files.items():
            self.commands.append(["transform", "--method", method, "--in", self.cnf,
                                  "--out", qubo_path])
        for method, (qubo_path, out_path) in self.files.items():
            self.commands.append(["solve", "--solver", "tabu", "--samples", str(self.samples),
                                  "--iter", "200", "--seed", str(mix(seed, 5)), "--in", qubo_path,
                                  "--cnf", self.cnf, "--out", out_path])

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.commands:
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"maxsat-qubo {argv[0]} exited with {code}")
        return self.files

    @staticmethod
    def _read(path: str) -> str:
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def _rows(self, method: str) -> list[dict]:
        return [json.loads(line) for line in self._read(self.files[method][1]).splitlines()]

    def digest(self, outcome) -> str:
        chunks = [self._read(self.cnf).encode()]
        for method, (qubo_path, _) in self.files.items():
            rows = [{k: v for k, v in row.items() if k != "elapsed_ms"}
                    for row in self._rows(method)]
            chunks += [self._read(qubo_path).encode(), json.dumps(rows).encode()]
        return _sha256(*chunks)

    def check(self, outcome, spans) -> Check:
        formula = fm.parse_dimacs(self._read(self.cnf))
        failed = 0
        fractions = []
        for method, (qubo_path, _) in self.files.items():
            matrix, layout = qubo.parse_qubo(self._read(qubo_path))
            layout = layout or qubo.VariableLayout(formula.num_vars)
            rows = self._rows(method)
            bits = [tuple(int(b) for b in row["bits"]) for row in rows]
            best = _best_index(row["satisfied"] for row in rows)
            fractions.append(rows[best]["satisfied"] / formula.num_clauses)
            ok = (matrix.dim == _expected_dim(method, self.num_vars, self.num_clauses)
                  and formula.num_clauses == self.num_clauses
                  and len(rows) == self.samples
                  and _energies_exact(matrix, zip(bits, (row["energy"] for row in rows)))
                  and rows[best]["satisfied"] == fm.count_satisfied(
                      formula, transform.decode(bits[best], layout)))
            failed += not ok
        return Check(self.calls_per_unit, failed, float(np.mean(fractions)))


class CalibrationSelect:
    """Census search of 3x3 approximations, then calibration over all 256 combinations."""

    layers = ("pattern_search", "formula", "transform", "qubo", "solvers")
    probe_kernels = ("interp", "small_numpy", "array_numpy")
    values = (-1, 0, 1)
    num_vars, num_clauses = 145, 500
    calls_per_unit = 256

    def __init__(self, seed: int, tmp: str):
        self.formula_seed = mix(seed, 1, 0)
        self.select_seed = mix(seed, 6)
        self.config = solvers.SolverConfig(kind="tabu", samples=10, iteration_limit=200)

    def run(self):
        per_type = [pattern_search.search_3x3(self.values, clause_type, transform.APPROX_6_OF_7)
                    for clause_type in range(4)]
        specs = pattern_search.enumerate_combinations(per_type)
        formula = fm.generate_balanced(self.num_vars, self.num_clauses, self.formula_seed)
        best, scores = pattern_search.select_best_combination(formula, specs, self.config,
                                                              self.select_seed)
        return per_type, specs, formula, best, scores

    def digest(self, outcome) -> str:
        per_type, specs, _, best, scores = outcome
        patterns = [[sorted(p.coefficients.items()) for p in patterns] for patterns in per_type]
        return _sha256(json.dumps([patterns, [s.name for s in specs], scores, best.name]).encode())

    def check(self, outcome, spans) -> Check:
        per_type, specs, formula, best, scores = outcome
        best_sat_frac = float(np.mean(scores)) / self.num_clauses
        census_ok = all(
            len(patterns) == pattern_search.CANONICAL_PATTERNS_PER_TYPE
            and pattern_search.coverage_check(patterns, clause_type)[0]
            for clause_type, patterns in enumerate(per_type))
        assembles = [s for s in spans if s.name == "transform.assemble"]
        solves = [s for s in spans if s.name == "solvers.solve"]
        if not (census_ok and len(specs) == len(scores) == len(solves) == len(assembles)
                == self.calls_per_unit):
            return Check(self.calls_per_unit, self.calls_per_unit, best_sat_frac)
        n = formula.num_vars
        failed = 0
        for index, (built, solved) in enumerate(zip(assembles, solves)):
            matrix, layout = built.result
            results = solved.result
            counts = fm.count_satisfied_many(
                formula, np.asarray([r.bits for r in results], dtype=np.int64)[:, :n])
            top = int(np.argmax(counts))
            ok = (solved.arg(0, "q") is matrix and matrix.dim == n
                  and _energies_exact(matrix, ((r.bits, r.energy) for r in results))
                  and scores[index] == int(counts[top]) == fm.count_satisfied(
                      formula, transform.decode(results[top].bits, layout)))
            failed += not ok
        expected = max(range(len(specs)), key=lambda i: (scores[i], -i))
        if best is not specs[expected]:
            failed = self.calls_per_unit
        return Check(self.calls_per_unit, failed, best_sat_frac)


WORKLOADS = {
    "comparison-tabu": comparison_tabu,
    "pruning-sa": pruning_sa,
    "scaling-large": ScalingLarge,
    "calibration-select": CalibrationSelect,
}
