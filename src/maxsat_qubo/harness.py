"""Experiment orchestration: pruning sweeps, transformation comparisons, scaling runs.

Experiments are pure functions of their configuration. Every random draw is
derived from the configuration seed, so rerunning a configuration reproduces
the record stream exactly; wall-clock timing is therefore kept out of record
files and reported separately in the metadata emitted by the CLI.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from itertools import combinations
from typing import Sequence

import numpy as np

from .formula import CnfFormula, generate_balanced
from .qubo import PRUNING_STRATEGIES, pruning_schedule
from .rng import mix
from .solvers import (MAX_SEEDS, SolverConfig, random_baseline, require_integers,
                      satisfied_counts, solve)
from .transform import assemble, builtin_spec

RANDOM_METHOD = "random"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    count: int
    num_vars: int
    num_clauses: int
    seed: int
    transforms: tuple[str, ...]
    solver: SolverConfig

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        require_integers(self, {"count": (1, MAX_SEEDS), "num_vars": (3, None),
                                "num_clauses": (1, None), "seed": (None, None)})
        if not isinstance(self.transforms, (list, tuple)) or not all(
                isinstance(name, str) for name in self.transforms):
            raise TypeError(f"transforms must be a list of names, got {self.transforms!r}")
        if not self.transforms:
            raise ValueError("transforms must name at least one transformation")
        # a repeated name would merge two methods' records into one summary row
        if len(set(self.transforms)) != len(self.transforms):
            raise ValueError(f"transforms repeat a name: {list(self.transforms)}")
        for spec in map(builtin_spec, self.transforms):
            if self.kind == "pruning_sweep" and not spec.uses_aux:
                raise ValueError("pruning sweep needs aux-based transformations, "
                                 f"{spec.name} is 3x3")
        if self.solver.seed != 0:
            raise ValueError("solver seed must be left at 0: every run seed derives from "
                             "the experiment seed")
        if self.solver.time_limit_ms is not None:
            raise ValueError("experiments do not take time_limit_ms: a wall-clock budget "
                             "breaks byte-reproducibility of the records; set a fixed budget")
        object.__setattr__(self, "transforms", tuple(self.transforms))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        solver_data = data.pop("solver", None)
        if not isinstance(solver_data, dict):
            raise ValueError("config needs a 'solver' object")
        try:
            return cls(solver=SolverConfig(**solver_data), **data)
        except TypeError as exc:
            raise ValueError(f"bad experiment config: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunRecord:
    formula_id: int
    method: str
    sample: int
    satisfied: int
    energy: int | None
    seed: int


@dataclass(frozen=True)
class SummaryRow:
    kind: str
    method: str
    other: str = ""
    formula_id: int | None = None
    value: int | float = 0


def best_of_k(records: Sequence[RunRecord]) -> int:
    """Highest satisfied-clause count among one formula-and-method's records."""
    if not records:
        raise ValueError("best_of_k needs at least one record")
    return max(record.satisfied for record in records)


def formula_seed(seed: int, formula_id: int) -> int:
    """Generator seed of formula formula_id under a seed, for experiments and `gen` alike."""
    return mix(seed, 1, formula_id)


def _formula_for(config: ExperimentConfig, formula_id: int) -> CnfFormula:
    return generate_balanced(config.num_vars, config.num_clauses,
                             formula_seed(config.seed, formula_id))


def _solve_records(formula, matrix, config: SolverConfig, seed: int,
                   formula_id: int, method: str) -> list[RunRecord]:
    results = solve(matrix, replace(config, seed=seed))
    satisfied = satisfied_counts(formula, results)
    return [
        RunRecord(formula_id=formula_id, method=method, sample=r.run_index,
                  satisfied=int(satisfied[r.run_index]), energy=r.energy,
                  seed=r.seed_used)
        for r in results
    ]


def run_pruning_sweep(config: ExperimentConfig) -> tuple[list[RunRecord], list[SummaryRow]]:
    """Solve all 11 pruning stages of each transformation under both strategies.

    Stage matrices are shared work per strategy; the solver seed depends on
    formula, transformation and stage but not on the strategy, so the fully
    pruned stage (identical matrices) yields identical records.
    """
    records: list[RunRecord] = []
    for formula_id in range(config.count):
        formula = _formula_for(config, formula_id)
        for ti, name in enumerate(config.transforms):
            matrix, _ = assemble(formula, builtin_spec(name))
            for strategy in PRUNING_STRATEGIES:
                stages = pruning_schedule(matrix, strategy, mix(config.seed, 2, formula_id, ti))
                for stage in stages:
                    method = f"{name}:{strategy}:{stage.stage * 10}"
                    seed = mix(config.seed, 3, formula_id, ti, stage.stage)
                    records.extend(_solve_records(formula, stage.matrix, config.solver,
                                                  seed, formula_id, method))
    return records, summarize_pruning(records)


def summarize_pruning(records: Sequence[RunRecord]) -> list[SummaryRow]:
    """Mean best-of-k per method label (transformation, strategy, prune percentage)."""
    return _mean_bests(_bests_by_method(records), "mean_best", 1)


def _comparison_records(config: ExperimentConfig) -> list[RunRecord]:
    records: list[RunRecord] = []
    for formula_id in range(config.count):
        formula = _formula_for(config, formula_id)
        for mi, name in enumerate(config.transforms):
            matrix, _ = assemble(formula, builtin_spec(name))
            seed = mix(config.seed, 3, formula_id, mi)
            records.extend(_solve_records(formula, matrix, config.solver, seed,
                                          formula_id, name))
        baseline_seed = mix(config.seed, 4, formula_id)
        for sample, (_, satisfied) in enumerate(
                random_baseline(formula, config.solver.samples, baseline_seed)):
            records.append(RunRecord(formula_id=formula_id, method=RANDOM_METHOD,
                                     sample=sample, satisfied=satisfied, energy=None,
                                     seed=baseline_seed))
    return records


def run_comparison(config: ExperimentConfig) -> tuple[list[RunRecord], list[SummaryRow]]:
    """Best-of-k comparison of the configured transformations against random guessing."""
    records = _comparison_records(config)
    return records, summarize_comparison(records)


def run_scaling(config: ExperimentConfig) -> tuple[list[RunRecord], list[SummaryRow]]:
    """Comparison records on large instances, summarized as per-method satisfied fractions."""
    records = _comparison_records(config)
    return records, summarize_scaling(records, config.num_clauses)


def _bests_by_method(records: Sequence[RunRecord]) -> dict[str, dict[int, int]]:
    groups: dict[str, dict[int, list[RunRecord]]] = {}
    for record in records:
        groups.setdefault(record.method, {}).setdefault(record.formula_id, []).append(record)
    return {method: {formula_id: best_of_k(group) for formula_id, group in per_formula.items()}
            for method, per_formula in groups.items()}


def _mean_bests(bests: dict[str, dict[int, int]], kind: str, scale: int) -> list[SummaryRow]:
    """One row per method: the mean over its sorted formulas of best-of-k / scale."""
    return [SummaryRow(kind=kind, method=method, value=float(np.mean(
                [per_formula[f] / scale for f in sorted(per_formula)])))
            for method, per_formula in bests.items()]


def summarize_comparison(records: Sequence[RunRecord]) -> list[SummaryRow]:
    """Per-formula bests, means, pairwise differences, baseline-relative improvements.

    The improvement of A over B on a formula is
    (best_A - best_random) / (best_B - best_random) - 1; formulas where the
    denominator is not positive are skipped and counted in an
    improvement_omitted row for the pair.
    """
    bests = _bests_by_method(records)
    methods = list(bests)
    formulas = sorted({f for per in bests.values() for f in per})
    rows: list[SummaryRow] = []
    for formula_id in formulas:
        for method in methods:
            rows.append(SummaryRow(kind="best", method=method, formula_id=formula_id,
                                   value=bests[method][formula_id]))
    rows += _mean_bests(bests, "mean", 1)
    for a, b in combinations(methods, 2):
        for formula_id in formulas:
            rows.append(SummaryRow(kind="diff", method=a, other=b, formula_id=formula_id,
                                   value=bests[a][formula_id] - bests[b][formula_id]))
    if RANDOM_METHOD in bests:
        contenders = [m for m in methods if m != RANDOM_METHOD]
        for a, b in combinations(contenders, 2):
            omitted = 0
            for formula_id in formulas:
                baseline = bests[RANDOM_METHOD][formula_id]
                denominator = bests[b][formula_id] - baseline
                if denominator > 0:
                    gain = (bests[a][formula_id] - baseline) / denominator - 1
                    rows.append(SummaryRow(kind="improvement", method=a, other=b,
                                           formula_id=formula_id, value=float(gain)))
                else:
                    omitted += 1
            rows.append(SummaryRow(kind="improvement_omitted", method=a, other=b,
                                   value=omitted))
    return rows


def summarize_scaling(records: Sequence[RunRecord], num_clauses: int) -> list[SummaryRow]:
    """One row per method: mean over formulas of best-of-k divided by clause count."""
    return _mean_bests(_bests_by_method(records), "fraction", num_clauses)


_RUNNERS = {"pruning_sweep": run_pruning_sweep, "comparison": run_comparison,
            "scaling": run_scaling}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> tuple[list[RunRecord], list[SummaryRow]]:
    return _RUNNERS[config.kind](config)


def make_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def records_to_jsonl(records: Sequence[RunRecord]) -> str:
    return "".join(json.dumps({
        "formula": r.formula_id, "method": r.method, "sample": r.sample,
        "satisfied": r.satisfied, "energy": r.energy, "seed": r.seed,
    }) + "\n" for r in records)


def summary_to_csv(summary: Sequence[SummaryRow]) -> str:
    lines = ["kind,method,other,formula,value"]
    for row in summary:
        formula = "" if row.formula_id is None else str(row.formula_id)
        lines.append(f"{row.kind},{row.method},{row.other},{formula},{row.value}")
    return "".join(line + "\n" for line in lines)


def write_text(path: str, content: str) -> None:
    """Write a UTF-8 file as is (no newline translation); OSError names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit(records: Sequence[RunRecord], summary: Sequence[SummaryRow], directory: str,
         experiment: str, timestamp: str | None = None) -> tuple[str, str]:
    """Write records as JSONL and the summary as CSV; returns the two paths."""
    stamp = timestamp or make_timestamp()
    records_path = os.path.join(directory, f"{experiment}_{stamp}_records.jsonl")
    summary_path = os.path.join(directory, f"{experiment}_{stamp}_summary.csv")
    write_text(records_path, records_to_jsonl(records))
    write_text(summary_path, summary_to_csv(summary))
    return records_path, summary_path


def emit_meta(directory: str, experiment: str, payload: dict,
              timestamp: str | None = None) -> str:
    """Write run metadata (config echo, timing, notes) alongside emitted results."""
    stamp = timestamp or make_timestamp()
    path = os.path.join(directory, f"{experiment}_{stamp}_meta.json")
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
