"""Exhaustive clause-pattern enumeration and the combination selection procedure."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .formula import CnfFormula, count_satisfied
from .rng import mix
from .solvers import solve
from .transform import (APPROX_6_OF_7, EXACT_ALL_7, TRIPLES, ClausePattern,
                        TransformSpec, assemble, decode, pattern_minima,
                        satisfying_triples, unsat_triple)

MAX_4X4_CANDIDATES = 10 ** 8
_CHUNK = 1 << 18

# canonical search values; enumeration over them finds this many
# 6-of-7 approximations for every clause type
CANONICAL_VALUES = (-1, 0, 1)
CANONICAL_PATTERNS_PER_TYPE = 4

# coefficient slot order used by the searches, most significant digit first
COEFF_ORDER_3X3 = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
COEFF_ORDER_4X4 = ((0, 0), (1, 1), (2, 2), (3, 3),
                   (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class ValueSet:
    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(int(v) for v in self.values)
        if not values:
            raise ValueError("value set must be non-empty")
        if len(set(values)) != len(values):
            raise ValueError(f"value set has duplicates: {values}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class CombinationChoice:
    indices: tuple[int, int, int, int]
    score: int


def _as_values(values) -> tuple[int, ...]:
    if isinstance(values, ValueSet):
        return values.values
    return ValueSet(tuple(values)).values


def _feature_matrix(coeff_order, assignments) -> np.ndarray:
    features = np.zeros((len(coeff_order), len(assignments)), dtype=np.int64)
    for row, (i, j) in enumerate(coeff_order):
        for col, bits in enumerate(assignments):
            features[row, col] = bits[i] if i == j else bits[i] * bits[j]
    return features


def _digit_columns(indices: np.ndarray, values: np.ndarray, num_digits: int) -> np.ndarray:
    base = len(values)
    columns = np.empty((len(indices), num_digits), dtype=np.int64)
    for pos in range(num_digits):
        columns[:, pos] = values[(indices // base ** (num_digits - 1 - pos)) % base]
    return columns


def _patterns_from_rows(rows: np.ndarray, coeff_order, dim: int) -> list[ClausePattern]:
    return [ClausePattern(dim, {key: int(c) for key, c in zip(coeff_order, row) if c})
            for row in rows]


def search_3x3(values, clause_type: int, criterion: str) -> list[ClausePattern]:
    """All 3x3 patterns over the value set meeting the criterion, in enumeration order.

    Candidates are the |S|^6 assignments to (a1, a2, a3, a12, a13, a23),
    enumerated lexicographically over the value set's own ordering.
    """
    if criterion not in (EXACT_ALL_7, APPROX_6_OF_7):
        raise ValueError(f"unknown criterion {criterion!r}")
    vals = np.asarray(_as_values(values), dtype=np.int64)
    unsat_col = TRIPLES.index(unsat_triple(clause_type))
    features = _feature_matrix(COEFF_ORDER_3X3, TRIPLES)
    total = len(vals) ** 6
    accepted_rows = []
    for start in range(0, total, _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        candidates = _digit_columns(indices, vals, 6)
        energies = candidates @ features
        low = energies.min(axis=1)
        at_min = energies == low[:, None]
        sat_at_min = at_min.sum(axis=1) - at_min[:, unsat_col]
        needed = 7 if criterion == EXACT_ALL_7 else 6
        keep = (sat_at_min == needed) & (energies[:, unsat_col] > low)
        if keep.any():
            accepted_rows.append(candidates[keep])
    rows = np.concatenate(accepted_rows) if accepted_rows else np.empty((0, 6), dtype=np.int64)
    return _patterns_from_rows(rows, COEFF_ORDER_3X3, 3)


def search_4x4(values, clause_type: int) -> list[ClausePattern]:
    """All 4x4 patterns over the value set whose aux-minimized triple energies
    put every satisfying assignment at the minimum and the falsifying one above it."""
    vals = np.asarray(_as_values(values), dtype=np.int64)
    total = len(vals) ** 10
    if total > MAX_4X4_CANDIDATES:
        raise ValueError(f"{total} candidates exceed the {MAX_4X4_CANDIDATES} guard")
    assignments = [t + (a,) for t in TRIPLES for a in (0, 1)]
    features = _feature_matrix(COEFF_ORDER_4X4, assignments)
    unsat_col = TRIPLES.index(unsat_triple(clause_type))
    accepted_rows = []
    for start in range(0, total, _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        candidates = _digit_columns(indices, vals, 10)
        energies = candidates @ features
        by_triple = np.minimum(energies[:, 0::2], energies[:, 1::2])
        low = by_triple.min(axis=1)
        at_min = by_triple == low[:, None]
        sat_at_min = at_min.sum(axis=1) - at_min[:, unsat_col]
        keep = (sat_at_min == 7) & (by_triple[:, unsat_col] > low)
        if keep.any():
            accepted_rows.append(candidates[keep])
    rows = np.concatenate(accepted_rows) if accepted_rows else np.empty((0, 10), dtype=np.int64)
    return _patterns_from_rows(rows, COEFF_ORDER_4X4, 4)


def coverage_check(patterns: Sequence[ClausePattern],
                   clause_type: int) -> tuple[bool, tuple[int | None, ...]]:
    """Whether every satisfying triple attains the minimum in some pattern.

    Returns the coverage flag and, per satisfying triple, the index of the
    first covering pattern (None where uncovered).
    """
    minima = [set(pattern_minima(p)) for p in patterns]
    witnesses = []
    for triple in satisfying_triples(clause_type):
        witness = next((i for i, mins in enumerate(minima) if triple in mins), None)
        witnesses.append(witness)
    return all(w is not None for w in witnesses), tuple(witnesses)


def enumerate_combinations(per_type: Sequence[Sequence[ClausePattern]]) -> list[TransformSpec]:
    """Cartesian product of per-type pattern lists, type-0 index varying slowest."""
    if len(per_type) != 4:
        raise ValueError("per_type must hold one pattern list per clause type")
    for clause_type, patterns in enumerate(per_type):
        if not patterns:
            raise ValueError(f"empty pattern list for clause type {clause_type}")
    dims = {p.dim for patterns in per_type for p in patterns}
    if len(dims) != 1:
        raise ValueError(f"pattern lists mix dimensions: {sorted(dims)}")
    uses_aux = dims.pop() == 4
    specs = []
    for indices in product(*(range(len(patterns)) for patterns in per_type)):
        name = "combo-" + "-".join(str(i) for i in indices)
        patterns = tuple(per_type[t][indices[t]] for t in range(4))
        specs.append(TransformSpec(name, patterns, uses_aux))
    return specs


def select_best_combination(formula: CnfFormula, specs: Sequence[TransformSpec],
                            solver_config, seed: int) -> tuple[TransformSpec, list[int]]:
    """Score each spec by solving its assembly of the calibration formula.

    Spec i runs with seed mix(seed, i); the score is the best decoded
    satisfied-clause count over the configured samples. Ties go to the lowest
    spec index.
    """
    if not specs:
        raise ValueError("no specs to choose from")
    scores: list[int] = []
    for index, spec in enumerate(specs):
        matrix, layout = assemble(formula, spec)
        config = replace(solver_config, seed=mix(seed, index))
        results = solve(matrix, config)
        scores.append(max(count_satisfied(formula, decode(r.bits, layout)) for r in results))
    best_index = max(range(len(specs)), key=lambda i: (scores[i], -i))
    return specs[best_index], scores


def score_combinations(per_type: Sequence[Sequence[ClausePattern]], formula: CnfFormula,
                       solver_config, seed: int) -> list[CombinationChoice]:
    """Score every per-type combination; choices carry their pattern indices."""
    specs = enumerate_combinations(per_type)
    _, scores = select_best_combination(formula, specs, solver_config, seed)
    index_tuples = product(*(range(len(patterns)) for patterns in per_type))
    return [CombinationChoice(indices=indices, score=score)
            for indices, score in zip(index_tuples, scores)]


def approximation_census(values) -> dict:
    """Per-type approx-6-of-7 pattern counts with coverage and discrepancy flags."""
    vals = _as_values(values)
    counts = []
    covered = []
    for clause_type in range(4):
        patterns = search_3x3(vals, clause_type, APPROX_6_OF_7)
        counts.append(len(patterns))
        covered.append(coverage_check(patterns, clause_type)[0])
    census = {"values": list(vals), "counts": counts, "covered": covered}
    if tuple(vals) == CANONICAL_VALUES:
        census["expected_count"] = CANONICAL_PATTERNS_PER_TYPE
        census["discrepancies"] = [
            clause_type for clause_type, count in enumerate(counts)
            if count != CANONICAL_PATTERNS_PER_TYPE
        ]
    return census
