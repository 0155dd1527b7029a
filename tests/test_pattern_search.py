"""Exhaustive 3x3/4x4 searches, coverage, combination enumeration and selection."""

import itertools
import re
import time

import numpy as np

import pytest

from maxsat_qubo.formula import CnfFormula, generate_balanced
from maxsat_qubo.pattern_search import (
    CANONICAL_PATTERNS_PER_TYPE,
    CANONICAL_VALUES,
    MAX_SEARCH_CANDIDATES,
    coverage_check,
    enumerate_combinations,
    search_3x3,
    search_4x4,
    select_best_combination,
)
from maxsat_qubo.solvers import SolverConfig
from maxsat_qubo.transform import (
    APPROX_6_OF_7,
    EXACT_ALL_7,
    SLOT_ORDERS,
    ClausePattern,
    builtin_spec,
    verify_pattern,
)


def test_value_set_validation():
    with pytest.raises(ValueError, match="non-empty"):
        search_3x3((), 0, APPROX_6_OF_7)
    with pytest.raises(ValueError, match="duplicates"):
        search_3x3((1, 1), 0, APPROX_6_OF_7)
    for values, bad in (((-1, 0.5, 1), "0.5"), ((-1, 0.5, 0), "0.5"), ((-1, 1.0), "1.0"),
                        ((0, True), "True")):
        with pytest.raises(TypeError, match=f"^search value must be an integer, got {bad}$"):
            search_3x3(values, 0, APPROX_6_OF_7)
    assert search_3x3(np.array([-1, 0, 1]), 0, APPROX_6_OF_7) == \
        search_3x3((-1, 0, 1), 0, APPROX_6_OF_7)


def _naive_search_3x3(values, clause_type, criterion):
    """Independent re-enumeration: build every candidate and ask the verifier."""
    found = []
    for coeffs in itertools.product(values, repeat=6):
        pattern = ClausePattern(3, dict(zip(SLOT_ORDERS[3], coeffs)))
        if verify_pattern(pattern, clause_type, criterion).valid:
            found.append(pattern)
    return found


@pytest.mark.parametrize("clause_type", range(4))
def test_search_3x3_matches_naive_enumeration(clause_type):
    fast = search_3x3(CANONICAL_VALUES, clause_type, APPROX_6_OF_7)
    naive = _naive_search_3x3(CANONICAL_VALUES, clause_type, APPROX_6_OF_7)
    assert fast == naive


@pytest.mark.parametrize("clause_type", range(4))
def test_search_3x3_finds_four_per_type(clause_type):
    patterns = search_3x3(CANONICAL_VALUES, clause_type, APPROX_6_OF_7)
    assert len(patterns) == CANONICAL_PATTERNS_PER_TYPE
    published = builtin_spec("fullapprox").patterns[clause_type]
    assert published in patterns
    for pattern in patterns:
        assert verify_pattern(pattern, clause_type, APPROX_6_OF_7).valid


@pytest.mark.parametrize("clause_type", range(4))
@pytest.mark.parametrize("values", [(-1, 0, 1), (-2, -1, 0, 1, 2)])
def test_search_3x3_exact_always_empty(values, clause_type):
    assert search_3x3(values, clause_type, EXACT_ALL_7) == []


def test_search_3x3_degenerate_value_set():
    for clause_type in range(4):
        assert search_3x3((0,), clause_type, APPROX_6_OF_7) == []


def test_search_3x3_symmetric_types_closed_under_slot_permutation():
    for clause_type in (0, 3):
        patterns = search_3x3(CANONICAL_VALUES, clause_type, APPROX_6_OF_7)
        pool = set()
        for pattern in patterns:
            pool.add(tuple(sorted(pattern.coefficients.items())))
        for pattern in patterns:
            for perm in itertools.permutations(range(3)):
                remapped = {}
                for (i, j), value in pattern.coefficients.items():
                    a, b = sorted((perm[i], perm[j]))
                    remapped[(a, b)] = value
                assert tuple(sorted(remapped.items())) in pool


def test_search_4x4_contains_published_exact_patterns():
    values = (-2, -1, 0, 1, 2)
    type0 = search_4x4(values, 0)
    assert builtin_spec("nuesslein").patterns[0] in type0
    assert builtin_spec("chancellor_printed").patterns[0] in type0
    type3 = search_4x4(values, 3)
    assert builtin_spec("nuesslein").patterns[3] in type3
    for pattern in type0[:50]:
        assert verify_pattern(pattern, 0, EXACT_ALL_7).valid


def test_search_4x4_degenerate_and_guard():
    assert search_4x4((0,), 1) == []
    with pytest.raises(ValueError, match="guard"):
        search_4x4(tuple(range(-3, 4)), 0)


def test_search_3x3_guard_refuses_before_enumerating():
    # 22 values are 22^6 = 1.1e8 candidates, tens of seconds of enumeration
    started = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(
            f"{22 ** 6} candidates exceed the {MAX_SEARCH_CANDIDATES} guard")):
        search_3x3(range(-11, 11), 0, APPROX_6_OF_7)
    assert time.perf_counter() - started < 1


def test_coverage_check_canonical_sets():
    for clause_type in range(4):
        patterns = search_3x3(CANONICAL_VALUES, clause_type, APPROX_6_OF_7)
        covered, witnesses = coverage_check(patterns, clause_type)
        assert covered
        assert all(w is not None for w in witnesses)
        assert len(witnesses) == 7
        single_covered, single_witnesses = coverage_check(patterns[:1], clause_type)
        assert not single_covered
        assert sum(1 for w in single_witnesses if w is None) == 1
    assert coverage_check([], 0) == (False, (None,) * 7)


def test_enumerate_combinations_sizes_and_order():
    per_type = [search_3x3(CANONICAL_VALUES, t, APPROX_6_OF_7) for t in range(4)]
    specs = enumerate_combinations(per_type)
    assert len(specs) == 256
    assert specs[0].patterns == tuple(per_type[t][0] for t in range(4))
    # type-0 index varies slowest, type-3 fastest
    assert specs[1].patterns[3] == per_type[3][1]
    assert specs[64].patterns[0] == per_type[0][1]
    singles = enumerate_combinations([p[:1] for p in per_type])
    assert len(singles) == 1
    doubled = enumerate_combinations([per_type[0][:2]] + [p[:1] for p in per_type[1:]])
    assert len(doubled) == 2
    assert doubled[0].patterns[0] == per_type[0][0]
    assert doubled[1].patterns[0] == per_type[0][1]
    with pytest.raises(ValueError, match="empty"):
        enumerate_combinations([[], per_type[1], per_type[2], per_type[3]])
    # a 4x4 pattern among 3x3 lists: TransformSpec refuses the first mixed combination
    with pytest.raises(ValueError, match=r"^patterns mix dimensions: \[3, 4\]$"):
        enumerate_combinations([per_type[0][:2] + [builtin_spec("nuesslein").patterns[0]],
                                *per_type[1:]])


def test_select_best_combination_trivial_and_ties():
    formula = CnfFormula(3, ((1, 2, 3), (-1, 2, -3)))
    config = SolverConfig(kind="brute", samples=1, seed=0)
    spec = builtin_spec("fullapprox")
    best, scores = select_best_combination(formula, [spec], config, seed=5)
    assert best == spec
    assert scores == [2]
    # identical specs score identically; tie goes to index 0
    best, scores = select_best_combination(formula, [spec, spec], config, seed=5)
    assert scores[0] == scores[1]
    assert best is spec


def test_select_best_combination_small_calibration():
    per_type = [search_3x3(CANONICAL_VALUES, t, APPROX_6_OF_7) for t in range(4)]
    specs = enumerate_combinations(per_type)
    formula = generate_balanced(20, 69, seed=11)
    config = SolverConfig(kind="tabu", samples=1, seed=0, iteration_limit=150)
    best, scores = select_best_combination(formula, specs, config, seed=3)
    assert len(scores) == 256
    top = max(scores)
    assert scores.index(top) == specs.index(best)
    for clause_type in range(4):
        assert verify_pattern(best.patterns[clause_type], clause_type, APPROX_6_OF_7).valid


def test_combination_names_carry_indices_aligned_with_scores():
    per_type = [search_3x3(CANONICAL_VALUES, t, APPROX_6_OF_7)[:2] for t in range(4)]
    formula = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    config = SolverConfig(kind="brute", samples=1, seed=0)
    specs = enumerate_combinations(per_type)
    _, scores = select_best_combination(formula, specs, config, seed=8)
    assert len(specs) == len(scores) == 16
    for spec, indices in zip(specs, itertools.product(range(2), repeat=4)):
        assert spec.name == "combo-" + "-".join(map(str, indices))
        assert spec.patterns == tuple(per_type[t][i] for t, i in enumerate(indices))
    assert all(0 <= score <= 2 for score in scores)


def test_calibration_rejects_a_solver_seed_it_would_override():
    per_type = [search_3x3(CANONICAL_VALUES, t, APPROX_6_OF_7)[:1] for t in range(4)]
    formula = CnfFormula(3, ((1, 2, 3),))
    config = SolverConfig(kind="brute", samples=1, seed=987654)
    with pytest.raises(ValueError, match="solver seed must be left at 0"):
        select_best_combination(formula, enumerate_combinations(per_type), config, seed=1)


def test_calibration_rejects_a_time_limit():
    formula = CnfFormula(3, ((1, 2, 3),))
    config = SolverConfig(kind="tabu", samples=1, seed=0, time_limit_ms=50)
    with pytest.raises(ValueError, match="^calibration does not take time_limit_ms"):
        select_best_combination(formula, [builtin_spec("fullapprox")], config, seed=1)
