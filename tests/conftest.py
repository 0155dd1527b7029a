"""Shared fixtures: reference matrices and seeded instance builders."""

import numpy as np
import pytest

from maxsat_qubo.formula import CnfFormula, count_satisfied, parse_dimacs
from maxsat_qubo.qubo import QuboMatrix
from maxsat_qubo.rng import generator


EXAMPLE1_TEXT = "p cnf 3 2\n1 2 3 0\n1 2 -3 0\n"

# combined two-clause example matrix over (x1, x2, x3, a1, a2)
COMBINED_EXAMPLE_ENTRIES = {
    (0, 0): -3, (0, 1): 2, (0, 2): 1, (0, 3): 1, (0, 4): 1,
    (1, 1): -3, (1, 2): 1, (1, 3): 1, (1, 4): 1,
    (2, 2): -2, (2, 3): 1, (2, 4): 1,
    (3, 3): -2,
    (4, 4): -1,
}

# approximation pattern for a clause without negations, as a standalone matrix
APPROX_TYPE0_ENTRIES = {
    (0, 0): -1, (1, 1): -1, (2, 2): -1,
    (0, 1): 1, (0, 2): 1, (1, 2): 1,
}


@pytest.fixture
def example1():
    return parse_dimacs(EXAMPLE1_TEXT)


@pytest.fixture
def combined_example_matrix():
    return QuboMatrix(5, dict(COMBINED_EXAMPLE_ENTRIES))


@pytest.fixture
def approx_type0_matrix():
    return QuboMatrix(3, dict(APPROX_TYPE0_ENTRIES))


def random_formula(num_vars, num_clauses, seed):
    """Plain random 3SAT: distinct variables per clause, duplicate clauses allowed."""
    rng = generator(seed)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        negated = rng.integers(0, 2, size=3)
        clauses.append(tuple(-int(v) if n else int(v) for v, n in zip(variables, negated)))
    return CnfFormula(num_vars, tuple(clauses))


def planted_formula(num_vars, num_clauses, seed):
    """Random 3SAT with a planted satisfying assignment; returns (formula, assignment)."""
    rng = generator(seed)
    witness = tuple(int(b) for b in rng.integers(0, 2, size=num_vars))
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=3, replace=False) + 1
        negated = [bool(n) for n in rng.integers(0, 2, size=3)]
        lits = [-int(v) if n else int(v) for v, n in zip(variables, negated)]
        if not any(bool(witness[abs(lit) - 1]) == (lit > 0) for lit in lits):
            fix = int(rng.integers(0, 3))
            lits[fix] = -lits[fix]
        clauses.append(tuple(lits))
    formula = CnfFormula(num_vars, tuple(clauses))
    assert count_satisfied(formula, witness) == num_clauses
    return formula, witness


def random_qubo(dim, num_offdiag, seed, low=-3, high=3):
    """Random integer QUBO with a full diagonal and num_offdiag couplings."""
    rng = generator(seed)
    entries = {}
    for i in range(dim):
        value = int(rng.integers(low, high + 1))
        entries[(i, i)] = value if value else 1
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    chosen = rng.choice(len(pairs), size=min(num_offdiag, len(pairs)), replace=False)
    for index in chosen:
        value = int(rng.integers(low, high + 1))
        entries[pairs[index]] = value if value else -1
    return QuboMatrix(dim, entries)


def naive_energy(q, bits):
    """Dense quadratic-form evaluation, independent of the sparse accumulation."""
    x = np.asarray(bits, dtype=np.int64)
    dense = np.zeros((q.dim, q.dim), dtype=np.int64)
    for (i, j), value in q.entries.items():
        dense[i, j] = value
    return int(x @ dense @ x)
