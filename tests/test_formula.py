"""Formula parsing, clause classification, balanced generation, brute-force oracle."""

import itertools
import re

import numpy as np
import pytest

from maxsat_qubo.formula import (
    CnfFormula,
    brute_force_maxsat,
    classify_clause,
    clause_penalty,
    count_satisfied,
    count_satisfied_many,
    enumerate_rows,
    generate_balanced,
    parse_dimacs,
    write_dimacs,
)
from maxsat_qubo.rng import generator

from conftest import EXAMPLE1_TEXT, random_formula


def test_parse_single_positive_clause():
    formula = parse_dimacs("p cnf 3 1\n1 2 3 0")
    assert formula.num_vars == 3
    assert formula.num_clauses == 1
    assert formula.clauses == ((1, 2, 3),)


def test_parse_example_formula():
    formula = parse_dimacs(EXAMPLE1_TEXT)
    assert formula.num_vars == 3
    assert formula.clauses == ((1, 2, 3), (1, 2, -3))
    assert all(type(lit) is int for clause in formula.clauses for lit in clause)


def test_parse_rejects_repeated_variable():
    with pytest.raises(ValueError, match="distinct"):
        parse_dimacs("p cnf 2 1\n1 1 2 0")


@pytest.mark.parametrize("text,match", [
    ("1 2 3 0", "header"),
    ("p cnf x 1\n1 2 3 0", "header"),
    ("p cnf 3 1\n1 2 0", "literals"),
    ("p cnf 3 1\n1 2 3 4 0", "literals"),
    ("p cnf 3 1\n1 2 4 0", "exceeds"),
    ("p cnf 3 2\n1 2 3 0", "declares"),
    ("p cnf 3 1\n1 2 3", "unterminated"),
    ("c only a comment\n", "^missing 'p cnf' header$"),
    ("p cnf 3 1\n1 2 3 0\np cnf 3 1\n", "^line 3: second 'p cnf' header$"),
    ("c seed\n1 2 3 0\np cnf 3 1\n", "^line 2: entry before 'p cnf' header$"),
    ("p qubo 3 1\n1 2 3 0\n", "^line 1: malformed header 'p qubo 3 1'$"),
    ("p cnf 3 1 1\n1 2 3 0\n", "^line 1: malformed header 'p cnf 3 1 1'$"),
    ("p cnf 3 one\n1 2 3 0\n", "^line 1: non-integer field in header 'p cnf 3 one'$"),
])
def test_parse_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_dimacs(text)


def _deep_dimacs_lines():
    """A 502-line DIMACS file: a comment, the header, then clause k on line k + 2."""
    return write_dimacs(generate_balanced(145, 500, 3), comments=["seed=3"]).splitlines()


@pytest.mark.parametrize("line, message", [
    ("12 x -7 0", "line 400: non-integer clause token"),
    ("12 -7 1.5 0", "line 400: non-integer clause token"),
    ("12 -7 0", "clause 398 has 2 literals, expected 3"),
    ("12 -7 5 9 0", "clause 398 has 4 literals, expected 3"),
    ("12 -146 5 0", "variable 146 exceeds declared num_vars=145"),
    ("p cnf 145 500", "line 400: second 'p cnf' header"),
], ids=["letter", "fraction", "two-literals", "four-literals", "out-of-range", "header"])
def test_parse_errors_deep_in_a_large_file(line, message):
    lines = _deep_dimacs_lines()
    lines[399] = line
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_dimacs("\n".join(lines) + "\n")


def test_parse_literal_beyond_int64_is_out_of_range():
    huge = 10 ** 23
    with pytest.raises(ValueError, match=f"^variable {huge} exceeds declared num_vars=3$"):
        parse_dimacs(f"p cnf 3 2\n1 2 3 0\n1 -{huge} 3 0\n")


def test_write_canonical():
    formula = CnfFormula(3, ((1, 2, 3),))
    assert write_dimacs(formula) == "p cnf 3 1\n1 2 3 0\n"
    assert write_dimacs(CnfFormula(1, ())) == "p cnf 1 0\n"


def test_write_comments_are_ignored_by_parse():
    formula = parse_dimacs(EXAMPLE1_TEXT)
    text = write_dimacs(formula, comments=["seed=7 generator=balanced"])
    assert text.startswith("c seed=7")
    assert parse_dimacs(text) == formula


@pytest.mark.parametrize("comment", ["a\rb", "seed=7\n1 2 3 0", "tail\n", "x\u2028y"])
def test_write_refuses_a_comment_with_a_line_break(comment):
    formula = parse_dimacs(EXAMPLE1_TEXT)
    message = f"^comment {re.escape(repr(comment))} holds a line break$"
    with pytest.raises(ValueError, match=message):
        write_dimacs(formula, comments=["seed=7", comment])


def test_roundtrip_random_formulas():
    for seed in range(20):
        formula = random_formula(8, 15, seed)
        assert parse_dimacs(write_dimacs(formula)) == formula


def test_classify_examples():
    assert classify_clause((1, 2, 3)) == (0, (1, 2, 3))
    assert classify_clause((1, 2, -3)) == (1, (1, 2, 3))
    assert classify_clause((-5, 2, -7)) == (2, (2, 5, 7))
    # stable within each group by clause position
    assert classify_clause((-7, 2, -5)) == (2, (2, 7, 5))
    assert classify_clause((-1, 4, -2)) == (2, (4, 1, 2))


def test_clause_penalty_examples():
    assert clause_penalty(0, (0, 0, 0)) == 0
    assert clause_penalty(3, (1, 1, 1)) == 0
    assert clause_penalty(1, (0, 0, 1)) == 0
    assert clause_penalty(1, (1, 0, 1)) == -1


def _canonical_clause_satisfied(clause_type, bits):
    # first 3 - t literals plain, last t negated
    lits = [bool(b) for b in bits[:3 - clause_type]]
    lits += [not bool(b) for b in bits[3 - clause_type:]]
    return any(lits)


def test_clause_penalty_matches_logic_on_all_32_cases():
    for clause_type in range(4):
        for bits in itertools.product((0, 1), repeat=3):
            expected = -1 if _canonical_clause_satisfied(clause_type, bits) else 0
            assert clause_penalty(clause_type, bits) == expected


def test_count_satisfied_examples(example1):
    assert count_satisfied(example1, (0, 0, 0)) == 1
    assert count_satisfied(example1, (1, 0, 0)) == 2
    assert count_satisfied(CnfFormula(4, ()), (0, 1, 0, 1)) == 0
    with pytest.raises(ValueError, match="length"):
        count_satisfied(example1, (0, 0))


def test_count_satisfied_complements_all_false_clauses():
    for seed in range(5):
        formula = random_formula(7, 12, seed)
        rng = generator(seed + 100)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=7))
        all_false = sum(
            1 for cl in formula.clauses if not any(bits[abs(lit) - 1] == (lit > 0) for lit in cl))
        assert count_satisfied(formula, bits) == formula.num_clauses - all_false


def test_count_satisfied_many_matches_scalar():
    formula = random_formula(9, 20, 3)
    rows = generator(17).integers(0, 2, size=(50, 9))
    counts = count_satisfied_many(formula, rows)
    for row, count in zip(rows, counts):
        assert count_satisfied(formula, tuple(row)) == count


def test_generate_balanced_small():
    formula = generate_balanced(3, 1, seed=7)
    assert set(map(abs, formula.clauses[0])) == {1, 2, 3}


def test_generate_balanced_rejects_too_few_vars():
    with pytest.raises(ValueError):
        generate_balanced(2, 5, seed=0)


def test_generate_balanced_refuses_more_clauses_than_exist():
    # 3 variables give 8 distinct clauses: 8 are drawn, a 9th is refused before any draw
    assert len(set(generate_balanced(3, 8, seed=0).clauses)) == 8
    with pytest.raises(ValueError, match=r"^distinctness unsatisfiable for num_vars=3, "
                                         r"num_clauses=9: only 8 distinct clauses exist$"):
        generate_balanced(3, 9, seed=0)


@pytest.mark.parametrize("num_vars,num_clauses,seed", [
    (10, 30, 0), (10, 31, 1), (29, 100, 2), (145, 500, 3), (1390, 5000, 1),
])
def test_generate_balanced_properties(num_vars, num_clauses, seed):
    formula = generate_balanced(num_vars, num_clauses, seed)
    assert formula.num_vars == num_vars
    assert formula.num_clauses == num_clauses
    occurrences = np.zeros(num_vars, dtype=int)
    positive = np.zeros(num_vars, dtype=int)
    negative = np.zeros(num_vars, dtype=int)
    seen = set()
    for clause in formula.clauses:
        key = tuple(sorted(clause))
        assert key not in seen, "duplicate clause"
        seen.add(key)
        for lit in clause:
            occurrences[abs(lit) - 1] += 1
            if lit < 0:
                negative[-lit - 1] += 1
            else:
                positive[lit - 1] += 1
    assert occurrences.max() - occurrences.min() <= 1
    assert np.abs(positive - negative).max() <= 1


def test_generate_balanced_deterministic():
    a = generate_balanced(20, 60, seed=42)
    b = generate_balanced(20, 60, seed=42)
    assert a == b
    c = generate_balanced(20, 60, seed=43)
    assert c != a


def test_brute_force_maxsat_example(example1):
    assert brute_force_maxsat(example1) == (2, (1, 0, 0))


def test_brute_force_maxsat_opposed_clauses():
    formula = CnfFormula(3, ((1, 2, 3), (-1, -2, -3)))
    assert brute_force_maxsat(formula) == (2, (1, 0, 0))


def test_brute_force_maxsat_empty():
    assert brute_force_maxsat(CnfFormula(3, ())) == (0, (0, 0, 0))


def test_brute_force_maxsat_guard():
    with pytest.raises(ValueError, match="25"):
        brute_force_maxsat(CnfFormula(26, ()))


def test_enumerate_rows_counts_with_the_first_digit_most_significant():
    rows = np.concatenate(list(enumerate_rows(3, 2)))
    assert rows.tolist() == [[a, b] for a in range(3) for b in range(3)]
    assert [block.shape for block in enumerate_rows(2, 17)] == [(1 << 16, 17)] * 2
    assert next(enumerate_rows(2, 17))[-1].tolist() == [0] + [1] * 16
    # one empty row for width 0, one row of zeros for radix 1
    assert [block.shape for block in enumerate_rows(2, 0)] == [(1, 0)]
    assert np.concatenate(list(enumerate_rows(1, 4))).tolist() == [[0, 0, 0, 0]]


def test_brute_force_maxsat_witness_is_the_lowest_optimum_past_the_first_block():
    # 17 variables put the assignments in two blocks, and every optimum sets x17, which
    # only the second block holds; its first row is the lowest-value optimum
    formula = CnfFormula(17, tuple((17, a, b) for a in (1, -1) for b in (2, -2)))
    assert brute_force_maxsat(formula) == (4, (0,) * 16 + (1,))


def test_brute_force_maxsat_dominates_random_assignments():
    formula = random_formula(10, 25, 9)
    best, witness = brute_force_maxsat(formula)
    assert count_satisfied(formula, witness) == best
    rng = generator(123)
    for _ in range(100):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=10))
        assert count_satisfied(formula, bits) <= best


def test_literal_and_clause_validation():
    with pytest.raises(ValueError, match="0 is not a DIMACS literal"):
        CnfFormula(3, ((1, 0, 3),))
    with pytest.raises(ValueError, match="exactly 3 literals, got 2"):
        CnfFormula(3, ((1, 2),))
    with pytest.raises(ValueError, match="^variable 3 exceeds declared num_vars=2$"):
        CnfFormula(2, ((1, 2, 3),))
    with pytest.raises(ValueError, match="distinct"):
        CnfFormula(3, ((1, -1, 3),))
    with pytest.raises(TypeError):
        CnfFormula(3, ((1, 2.0, 3),))
    with pytest.raises(TypeError):
        CnfFormula(3.5, ((1, 2, -3),))
    with pytest.raises(ValueError, match=f"^variable {10 ** 23} exceeds"):
        CnfFormula(3, ((1, 2, -10 ** 23),))
    # numpy integers are stored as Python ints
    formula = CnfFormula(3, (tuple(np.array([1, -2, 3])),))
    assert formula.clauses == ((1, -2, 3),)
    assert all(type(lit) is int for lit in formula.clauses[0])
    assert type(CnfFormula(np.int64(3), formula.clauses).num_vars) is int
