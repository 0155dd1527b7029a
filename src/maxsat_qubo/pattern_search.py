"""Exhaustive clause-pattern enumeration and the combination selection procedure."""

from __future__ import annotations

import numbers
from dataclasses import replace
from itertools import product
from typing import Sequence

import numpy as np

from .formula import CnfFormula, enumerate_rows
from .qubo import EXACT_INT64_BOUND
from .rng import mix
from .solvers import satisfied_counts, solve
# coverage_check is read from here too, next to the searches whose results it checks
from .transform import (EXACT_ALL_7, SLOT_ORDERS, ClausePattern, TransformSpec, assemble,
                        coverage_check, meets_criterion, triple_energies)

MAX_SEARCH_CANDIDATES = 10 ** 8

# canonical search values; enumeration over them finds this many
# 6-of-7 approximations for every clause type
CANONICAL_VALUES = (-1, 0, 1)
CANONICAL_PATTERNS_PER_TYPE = 4


def _as_values(values) -> tuple[int, ...]:
    """The search values as ints; they must be non-empty, distinct integers (not bools)."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, numbers.Integral) or isinstance(v, bool):
            raise ValueError(f"search values must be integers, got {v!r}")
    values = tuple(int(v) for v in values)
    if not values:
        raise ValueError("value set must be non-empty")
    if len(set(values)) != len(values):
        raise ValueError(f"value set has duplicates: {values}")
    return values


def _search(values, dim: int, clause_type: int, criterion: str) -> list[ClausePattern]:
    """Patterns meeting the criterion among all rows of SLOT_ORDERS[dim] coefficients."""
    order = SLOT_ORDERS[dim]
    vals = _as_values(values)
    total = len(vals) ** len(order)
    if total > MAX_SEARCH_CANDIDATES:
        raise ValueError(f"{total} candidates exceed the {MAX_SEARCH_CANDIDATES} guard")
    if max(map(abs, vals)) * len(order) >= EXACT_INT64_BOUND:
        raise ValueError("search values this large could give energies of 2^62 or more")
    vals = np.asarray(vals, dtype=np.int64)
    patterns = []
    for digits in enumerate_rows(len(vals), len(order)):
        candidates = vals[digits]
        keep = meets_criterion(triple_energies(candidates, dim), clause_type, criterion)
        patterns += [ClausePattern(dim, {key: int(c) for key, c in zip(order, row) if c})
                     for row in candidates[keep]]
    return patterns


def search_3x3(values, clause_type: int, criterion: str) -> list[ClausePattern]:
    """All 3x3 patterns over the value set that meet the criterion, among the |S|^6 rows
    of (a1, a2, a3, a12, a13, a23) in lexicographic order over the value set's own order."""
    return _search(values, 3, clause_type, criterion)


def search_4x4(values, clause_type: int) -> list[ClausePattern]:
    """All 4x4 patterns over the value set whose aux-minimized triple energies
    put every satisfying assignment at the minimum and the falsifying one above it."""
    return _search(values, 4, clause_type, EXACT_ALL_7)


def enumerate_combinations(per_type: Sequence[Sequence[ClausePattern]]) -> list[TransformSpec]:
    """Cartesian product of per-type pattern lists, type-0 index varying slowest."""
    if len(per_type) != 4:
        raise ValueError("per_type must hold one pattern list per clause type")
    for clause_type, patterns in enumerate(per_type):
        if not patterns:
            raise ValueError(f"empty pattern list for clause type {clause_type}")
    specs = []
    for indices in product(*(range(len(patterns)) for patterns in per_type)):
        name = "combo-" + "-".join(str(i) for i in indices)
        specs.append(TransformSpec(name, tuple(per_type[t][indices[t]] for t in range(4))))
    return specs


def select_best_combination(formula: CnfFormula, specs: Sequence[TransformSpec],
                            solver_config, seed: int) -> tuple[TransformSpec, list[int]]:
    """Score each spec by solving its assembly of the calibration formula.

    Spec i runs with seed mix(seed, i), so a nonzero solver_config.seed is
    rejected, as is a time limit; the score is the best decoded satisfied-clause
    count over the configured samples. Ties go to the lowest spec index.
    """
    if not specs:
        raise ValueError("no specs to choose from")
    if solver_config.seed != 0:
        raise ValueError("solver seed must be left at 0: spec i runs with mix(seed, i)")
    if solver_config.time_limit_ms is not None:
        raise ValueError("calibration does not take time_limit_ms: scores vary with host speed")
    scores: list[int] = []
    for index, spec in enumerate(specs):
        results = solve(assemble(formula, spec)[0], replace(solver_config, seed=mix(seed, index)))
        scores.append(int(satisfied_counts(formula, results).max()))
    best_index = max(range(len(specs)), key=lambda i: (scores[i], -i))
    return specs[best_index], scores
