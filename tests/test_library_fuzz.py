"""Library fuzz: every integer parameter of the public API follows one rule, rng.require_int.

Each case is one public call with one integer argument left free. The test makes the
call with a plain int, then with the same value as a numpy int, a bool, a float, an
integral float, a str and None, then with a negative and, for seeds and for parameters
with an upper bound, 2^70. A numpy int gives the plain int's result, and a dataclass
that stores it stores a plain int. Every other non-integer raises a TypeError that names
the parameter. A negative or 2^70 either works or raises a ValueError that names it, and
a seed is taken mod 2^64. No other exception passes. Calls through a writer parse its
text back, so every header a writer writes is one its reader reads.
"""

import dataclasses
import json
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsat_qubo import (APPROX_6_OF_7, EXACT_ALL_7, ClausePattern, CnfFormula,
                         ExperimentConfig, QuboMatrix, SolverConfig, VariableLayout,
                         builtin_spec, clause_penalty, coverage_check, generate_balanced,
                         parse_dimacs, parse_pattern, parse_qubo, prune_min, prune_random,
                         pruning_schedule, pruning_stage, random_baseline, run_experiment,
                         search_3x3, select_best_combination, simulated_annealing, solve,
                         tabu_search, verify_pattern, write_dimacs, write_pattern, write_qubo)
from maxsat_qubo.harness import formula_seed

_Q = QuboMatrix(4, {(0, 0): -1, (0, 1): 2, (1, 2): -1, (1, 3): 1, (2, 3): 3, (3, 3): -2})
_FORMULA = CnfFormula(5, ((1, 2, -3), (-2, 4, 5), (1, -4, -5)))
_PATTERN = builtin_spec("nuesslein").patterns[1]
_SEEDS = st.integers(0, 2 ** 63 - 1)


class Case(NamedTuple):
    name: str  # the parameter as the messages name it
    values: st.SearchStrategy  # the plain ints the call is made with
    call: Callable
    huge: bool = False  # 2^70 is tried: the parameter has an upper bound
    seed: bool = False  # taken mod 2^64, so 2^70 and negatives give a reduced seed's result
    optional: bool = False  # None is a valid value


def _seed(call) -> Case:
    return Case("seed", _SEEDS, call, huge=True, seed=True)


def _formula_written_back(formula):
    assert parse_dimacs(write_dimacs(formula)) == formula
    return formula


def _matrix_written_back(q):
    assert parse_qubo(write_qubo(q)) == (q, VariableLayout(q.dim))
    return q


def _layout_written_back(layout):
    q = QuboMatrix(layout.dim, {(0, 0): 1})
    assert parse_qubo(write_qubo(q, layout)) == (q, layout)
    return layout


def _unseeded(result):
    """A single run's bits and energy, without the seed it echoes as given."""
    return result.bits, result.energy


def _experiment(**fields):
    return ExperimentConfig(**{
        "kind": "comparison", "count": 1, "num_vars": 6, "num_clauses": 10, "seed": 3,
        "transforms": ("nuesslein",), "solver": SolverConfig(kind="tabu", iteration_limit=5),
        **fields})


_TYPES = st.integers(0, 3)
CASES = {
    "clause_penalty": Case("clause_type", _TYPES, lambda t: clause_penalty(t, (0, 1, 1)), True),
    "verify_pattern": Case("clause_type", _TYPES,
                           lambda t: verify_pattern(_PATTERN, t, EXACT_ALL_7), True),
    "coverage_check": Case("clause_type", _TYPES, lambda t: coverage_check([_PATTERN], t), True),
    "search_3x3.clause_type": Case("clause_type", _TYPES,
                                   lambda t: search_3x3((-1, 0, 1), t, APPROX_6_OF_7), True),
    # 2^70 meets the magnitude guard, whose message names the search values
    "search_3x3.values": Case("search value", st.integers(2, 4),
                              lambda v: search_3x3((-1, 0, v), 0, APPROX_6_OF_7), True),
    "write_pattern": Case("clause_type", _TYPES,
                          lambda t: parse_pattern(write_pattern(_PATTERN, t)), True),
    "ClausePattern": Case("dim", st.integers(3, 4),
                          lambda d: ClausePattern(d, {(0, 1): 1, (2, 2): -1}), True),
    "CnfFormula": Case("num_vars", st.integers(1, 6),
                       lambda n: _formula_written_back(CnfFormula(n, ((1, 2, -3),)))),
    "generate_balanced.num_vars": Case(
        "num_vars", st.integers(3, 7), lambda n: _formula_written_back(generate_balanced(n, 8, 1))),
    # at 5 variables 8·C(5, 3) = 80 distinct clauses exist, the bound past which it refuses
    "generate_balanced.num_clauses": Case("num_clauses", st.integers(0, 20),
                                          lambda m: generate_balanced(5, m, 1), True),
    "generate_balanced.seed": _seed(lambda s: generate_balanced(5, 8, s)),
    "QuboMatrix": Case("dim", st.integers(4, 7),
                       lambda d: _matrix_written_back(QuboMatrix(d, _Q.entries))),
    "VariableLayout": Case("num_problem_vars", st.integers(0, 4),
                           lambda n: _layout_written_back(VariableLayout(n, (0, 1)))),
    "pruning_stage.stage": Case("stage", st.integers(0, 10),
                                lambda k: pruning_stage(_Q, "random", k, 3), True),
    "pruning_stage.seed": _seed(lambda s: pruning_stage(_Q, "random", 5, s)),
    "pruning_schedule.min": _seed(lambda s: pruning_schedule(_Q, "min", s)),
    "pruning_schedule.random": _seed(lambda s: pruning_schedule(_Q, "random", s)),
    "prune_min": Case("count", st.integers(0, 4), lambda c: prune_min(_Q, c), True),
    "prune_random.count": Case("count", st.integers(0, 4), lambda c: prune_random(_Q, c, 3), True),
    "prune_random.seed": _seed(lambda s: prune_random(_Q, 2, s)),
    "random_baseline.k": Case("k", st.integers(1, 5), lambda k: random_baseline(_FORMULA, k, 3)),
    "random_baseline.seed": _seed(lambda s: random_baseline(_FORMULA, 3, s)),
    # the wrappers' budgets are SolverConfig fields, where None takes the default
    "tabu_search.iteration_limit": Case("iteration_limit", st.integers(0, 20),
                                        lambda i: tabu_search(_Q, i, 2, 3), optional=True),
    "tabu_search.tenure": Case("tenure", st.integers(1, 6), lambda t: tabu_search(_Q, 10, t, 3),
                               optional=True),
    "tabu_search.seed": _seed(lambda s: _unseeded(tabu_search(_Q, 10, 2, s))),
    "simulated_annealing.sweeps": Case("sweeps", st.integers(0, 10),
                                       lambda w: simulated_annealing(_Q, w, 0.1, 5.0, 3),
                                       optional=True),
    "simulated_annealing.seed": _seed(
        lambda s: _unseeded(simulated_annealing(_Q, 5, 0.1, 5.0, s))),
    "solve.seed": _seed(
        lambda s: solve(_Q, SolverConfig(kind="tabu", samples=2, seed=s, iteration_limit=5))),
    "SolverConfig.samples": Case("samples", st.integers(1, 5),
                                 lambda k: SolverConfig(kind="random", samples=k), True),
    "SolverConfig.seed": Case("seed", _SEEDS, lambda s: SolverConfig(kind="random", seed=s)),
    "SolverConfig.iteration_limit": Case(
        "iteration_limit", st.integers(0, 50),
        lambda i: SolverConfig(kind="tabu", iteration_limit=i), optional=True),
    "SolverConfig.time_limit_ms": Case(
        "time_limit_ms", st.integers(1, 50),
        lambda t: SolverConfig(kind="tabu", time_limit_ms=t), optional=True),
    "SolverConfig.tabu_tenure": Case(
        "tabu_tenure", st.integers(1, 50),
        lambda t: SolverConfig(kind="tabu", tabu_tenure=t), optional=True),
    "SolverConfig.sa_sweeps": Case(
        "sa_sweeps", st.integers(0, 50),
        lambda w: SolverConfig(kind="sa", sa_sweeps=w), optional=True),
    "ExperimentConfig.count": Case("count", st.integers(1, 3), lambda c: _experiment(count=c), True),
    "ExperimentConfig.num_vars": Case("num_vars", st.integers(3, 10),
                                      lambda n: _experiment(num_vars=n)),
    "ExperimentConfig.num_clauses": Case("num_clauses", st.integers(1, 20),
                                         lambda m: _experiment(num_clauses=m)),
    "ExperimentConfig.seed": Case("seed", _SEEDS, lambda s: _experiment(seed=s)),
    "select_best_combination": _seed(lambda s: select_best_combination(
        _FORMULA, [builtin_spec("fullapprox")], SolverConfig(kind="tabu", iteration_limit=5), s)),
    "formula_seed": _seed(lambda s: formula_seed(s, 2)),
}

_NON_INTEGERS = {"bool": lambda v: bool(v % 2), "float": lambda v: v + 0.5,
                 "integral float": float, "str": str, "None": lambda v: None}


def _outcome(call, value):
    """("value", the result), or (the exception type, its message) for a TypeError or a
    ValueError; any other exception propagates and fails the test."""
    try:
        return "value", call(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_parameters_follow_one_rule(case, data):
    value = data.draw(case.values)
    plain = _outcome(case.call, value)
    kind, result = _outcome(case.call, np.int64(value))
    assert (kind, result) == plain
    if kind == "value" and dataclasses.is_dataclass(result) and hasattr(result, case.name):
        assert type(getattr(result, case.name)) is int
        if isinstance(result, (SolverConfig, ExperimentConfig)):
            json.dumps(dataclasses.asdict(result))
    for variant, make in _NON_INTEGERS.items():
        if variant == "None" and case.optional:
            continue
        kind, message = _outcome(case.call, make(value))
        assert kind is TypeError and case.name in message, (variant, kind, message)
    for other in [-value - 1] + [2 ** 70] * case.huge:
        kind, result = outcome = _outcome(case.call, other)
        if case.seed:
            assert outcome == _outcome(case.call, other % 2 ** 64)
        elif kind != "value":
            assert kind is ValueError and case.name in result, (other, kind, result)


@pytest.mark.parametrize("fields", [
    {"kind": "comparison", "transforms": ("nuesslein", "fullapprox"),
     "solver": SolverConfig(kind="tabu", samples=2, iteration_limit=5)},
    {"kind": "pruning_sweep", "transforms": ("nuesslein",),
     "solver": SolverConfig(kind="sa", samples=2, sa_sweeps=3)},
], ids=["comparison", "pruning_sweep"])
def test_numpy_seed_and_counts_give_the_plain_records(fields):
    config = _experiment(**{**fields, "count": np.int64(2), "seed": np.int64(7)})
    assert json.loads(json.dumps(config.to_dict()))["seed"] == 7
    assert run_experiment(config) == run_experiment(_experiment(**{**fields, "count": 2, "seed": 7}))

