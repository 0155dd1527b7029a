"""Built-in pattern tables, verification, repair, assembly, hint construction, decoding."""

import numpy as np
import pytest

from maxsat_qubo.formula import CnfFormula, brute_force_maxsat, classify_clause, clause_of, count_satisfied
from maxsat_qubo.qubo import VariableLayout, brute_force_min, energy, minimize_with_aux
from maxsat_qubo.rng import generator
from maxsat_qubo.transform import (
    APPROX_6_OF_7,
    BUILTIN_SPEC_NAMES,
    EXACT_ALL_7,
    TRIPLES,
    ClausePattern,
    TransformSpec,
    approximate_with_hint,
    assemble,
    builtin_spec,
    decode,
    negation_substitute,
    parse_pattern,
    pattern_energies,
    pattern_minima,
    verify_pattern,
    write_pattern,
)
from maxsat_qubo.pattern_search import search_3x3

from conftest import planted_formula, random_formula


def test_builtin_fullapprox_type0():
    pattern = builtin_spec("fullapprox").patterns[0]
    assert pattern.coefficients == {(0, 0): -1, (1, 1): -1, (2, 2): -1,
                                    (0, 1): 1, (0, 2): 1, (1, 2): 1}


def test_builtin_nuesslein_type0():
    pattern = builtin_spec("nuesslein").patterns[0]
    assert pattern.coefficients == {(0, 1): 2, (0, 3): -2, (1, 3): -2,
                                    (2, 2): -1, (2, 3): 1, (3, 3): 1}


def test_builtin_chancellor_printed_type0():
    pattern = builtin_spec("chancellor_printed").patterns[0]
    assert pattern.coefficients == {(0, 0): -2, (1, 1): -2, (2, 2): -2, (3, 3): -2,
                                    (0, 1): 1, (0, 2): 1, (0, 3): 1,
                                    (1, 2): 1, (1, 3): 1, (2, 3): 1}


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown transformation"):
        builtin_spec("choi")


def test_verify_nuesslein_type0_exact():
    report = verify_pattern(builtin_spec("nuesslein").patterns[0], 0, EXACT_ALL_7)
    assert report.valid
    assert report.min_energy == -1
    assert report.unsat_energy == 0
    assert len(report.minima) == 7
    assert (0, 0, 0) not in report.minima


def test_verify_chancellor_printed_type2_invalid():
    pattern = builtin_spec("chancellor_printed").patterns[2]
    report = verify_pattern(pattern, 2, EXACT_ALL_7)
    assert not report.valid
    energies = pattern_energies(pattern)
    assert energies[TRIPLES.index((0, 0, 0))] == 0
    assert energies[TRIPLES.index((0, 1, 1))] == -1


def test_verify_fullapprox_type1_approx():
    report = verify_pattern(builtin_spec("fullapprox").patterns[1], 1, APPROX_6_OF_7)
    assert report.valid
    assert report.min_energy == 0
    energies = pattern_energies(builtin_spec("fullapprox").patterns[1])
    assert energies[TRIPLES.index((1, 1, 0))] == 1
    assert energies[TRIPLES.index((0, 0, 1))] == 1


def test_all_builtin_verification_profile():
    for name in BUILTIN_SPEC_NAMES:
        spec = builtin_spec(name)
        assert spec.uses_aux == (spec.patterns[0].dim == 4)
    printed = builtin_spec("chancellor_printed")
    expected = {0: True, 1: False, 2: False, 3: True}
    for t in range(4):
        assert verify_pattern(printed.patterns[t], t, EXACT_ALL_7).valid == expected[t]
    for name in ("chancellor_repaired", "nuesslein"):
        for t in range(4):
            report = verify_pattern(builtin_spec(name).patterns[t], t, EXACT_ALL_7)
            assert report.valid
            assert report.unsat_energy - report.min_energy == 1
    for t in range(4):
        report = verify_pattern(builtin_spec("fullapprox").patterns[t], t, APPROX_6_OF_7)
        assert report.valid
        assert sum(1 for tr in report.minima) == 6


def test_negation_substitute_one_negation():
    base = builtin_spec("chancellor_printed").patterns[0]
    repaired = negation_substitute(base, (False, False, True))
    assert repaired.coefficients == {
        (0, 0): -1, (1, 1): -1, (2, 2): 2, (3, 3): -1,
        (0, 1): 1, (0, 2): -1, (1, 2): -1, (0, 3): 1, (1, 3): 1, (2, 3): -1,
    }


def test_negation_substitute_identity_and_full_mask():
    base = builtin_spec("chancellor_printed").patterns[0]
    assert negation_substitute(base, (False, False, False)) == base
    full = negation_substitute(base, (True, True, True))
    assert verify_pattern(full, 3, EXACT_ALL_7).valid


def test_negation_substitute_rejects_invalid_base():
    bad = builtin_spec("chancellor_printed").patterns[1]
    with pytest.raises(ValueError, match="exact-all-7"):
        negation_substitute(bad, (False, False, True))


def test_assemble_single_nuesslein_clause():
    formula = CnfFormula(3, (clause_of(1, 2, 3),))
    matrix, layout = assemble(formula, builtin_spec("nuesslein"))
    assert matrix.dim == 4
    assert matrix.entries == {(0, 1): 2, (0, 3): -2, (1, 3): -2,
                              (2, 2): -1, (2, 3): 1, (3, 3): 1}
    assert layout == VariableLayout(3, (0,))


def test_assemble_example_fullapprox(example1):
    matrix, layout = assemble(example1, builtin_spec("fullapprox"))
    assert matrix.dim == 3
    assert matrix.entries == {(0, 0): -1, (1, 1): -1, (0, 1): 2}
    assert layout == VariableLayout(3)


def test_assemble_dimensions():
    formula = random_formula(9, 14, 4)
    approx, _ = assemble(formula, builtin_spec("fullapprox"))
    exact, layout = assemble(formula, builtin_spec("nuesslein"))
    assert approx.dim == 9
    assert exact.dim == 9 + 14
    assert layout.aux_owners == tuple(range(14))


def test_assemble_places_patterns_on_canonical_order():
    # (-x5 v x2 v -x7) is a type-2 clause with canonical order (2, 5, 7)
    formula = CnfFormula(7, (clause_of(-5, 2, -7),))
    matrix, _ = assemble(formula, builtin_spec("fullapprox"))
    pattern = builtin_spec("fullapprox").patterns[2]
    slots = [1, 4, 6]
    expected = {}
    for (i, j), value in pattern.coefficients.items():
        a, b = sorted((slots[i], slots[j]))
        expected[(a, b)] = value
    assert matrix.entries == expected


def _pattern_energy_at(pattern, bits):
    total = 0
    for (i, j), value in pattern.coefficients.items():
        total += value * bits[i] if i == j else value * bits[i] * bits[j]
    return total


@pytest.mark.parametrize("name", ["nuesslein", "chancellor_repaired", "fullapprox"])
def test_assembly_linearity(name):
    spec = builtin_spec(name)
    rng = generator(55)
    for trial in range(10):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, 21))
        formula = random_formula(n, m, int(rng.integers(0, 2**31)))
        matrix, layout = assemble(formula, spec)
        for _ in range(5):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=matrix.dim))
            total = 0
            for ci, clause in enumerate(formula.clauses):
                clause_type, order = classify_clause(clause)
                slots = [v - 1 for v in order]
                if spec.uses_aux:
                    slots.append(n + ci)
                restriction = tuple(bits[s] for s in slots)
                total += _pattern_energy_at(spec.patterns[clause_type], restriction)
            assert energy(matrix, bits) == total


@pytest.mark.parametrize("name", ["nuesslein", "chancellor_repaired"])
def test_exact_spec_recovers_maxsat_optimum(name):
    spec = builtin_spec(name)
    rng = generator(99)
    for trial in range(30):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(5, 31))
        formula = random_formula(n, m, int(rng.integers(0, 2**31)))
        matrix, layout = assemble(formula, spec)
        _, witness = minimize_with_aux(matrix, layout)
        best, _ = brute_force_maxsat(formula)
        assert count_satisfied(formula, witness) == best


def test_fullapprox_soundness_floor():
    # The decoded minimizer can sit a clause or two below the MAX-SAT optimum
    # (that is the approximation trade-off), so the random-guess floor holds
    # in aggregate, not per draw: see notes on the discarded per-instance form.
    rng = generator(1234)
    achieved_counts = []
    single_draw_counts = []
    for trial in range(20):
        n = int(rng.integers(5, 11))
        m = int(rng.integers(10, 31))
        formula = random_formula(n, m, int(rng.integers(0, 2**31)))
        matrix, layout = assemble(formula, builtin_spec("fullapprox"))
        _, witness = brute_force_min(matrix)
        achieved = count_satisfied(formula, decode(witness, layout))
        best, _ = brute_force_maxsat(formula)
        assert achieved >= best - formula.num_clauses
        draws = [count_satisfied(formula, tuple(int(b) for b in bits))
                 for bits in rng.integers(0, 2, size=(100, n))]
        achieved_counts.append(achieved - best)
        single_draw_counts.append(np.mean(draws) - best)
    assert np.mean(achieved_counts) > np.mean(single_draw_counts)
    assert min(achieved_counts) >= -3


def _canonical_approx_sets():
    return [search_3x3((-1, 0, 1), t, APPROX_6_OF_7) for t in range(4)]


def test_hint_construction_satisfying_hint_attains_minimum():
    approx_sets = _canonical_approx_sets()
    rng = generator(31)
    for trial in range(10):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(5, 31))
        formula, witness = planted_formula(n, m, int(rng.integers(0, 2**31)))
        matrix = approximate_with_hint(formula, witness, approx_sets)
        assert matrix.dim == n
        best, _ = brute_force_min(matrix)
        assert energy(matrix, witness) == best


def test_hint_construction_switches_pattern():
    approx_sets = _canonical_approx_sets()
    formula = CnfFormula(3, (clause_of(1, 2, 3),))
    default = approx_sets[0][0]
    excluded = next(t for t in TRIPLES
                    if t not in set(pattern_minima(default)) and t != (0, 0, 0))
    matrix = approximate_with_hint(formula, excluded, approx_sets)
    assert matrix.entries != default.coefficients
    assert energy(matrix, excluded) == brute_force_min(matrix)[0]


def test_hint_construction_tolerates_falsifying_hint():
    approx_sets = _canonical_approx_sets()
    formula = CnfFormula(3, (clause_of(1, 2, 3),))
    matrix = approximate_with_hint(formula, (0, 0, 0), approx_sets)
    assert matrix.dim == 3
    assert matrix.entries == approx_sets[0][0].coefficients


def test_hint_construction_rejects_uncovered_sets():
    approx_sets = _canonical_approx_sets()
    thin = [patterns[:1] for patterns in approx_sets]
    formula = CnfFormula(3, (clause_of(1, 2, 3),))
    with pytest.raises(ValueError, match="cover"):
        approximate_with_hint(formula, (1, 1, 1), thin)


@pytest.mark.parametrize("clause_type, patterns, match", [
    (2, [], "no approximation patterns for clause type 2"),
    (0, [builtin_spec("nuesslein").patterns[0]], "expects 3x3 patterns"),
    # a valid type-1 approximation whose six minima leave out (0, 0, 0)
    (1, [ClausePattern(3, {(0, 0): -1, (1, 1): -1, (0, 1): 1})],
     r"clause type 1 patterns do not cover satisfying triples \[\(0, 0, 0\)\]"),
])
def test_hint_construction_rejects_bad_pattern_lists(clause_type, patterns, match):
    approx_sets = _canonical_approx_sets()
    approx_sets[clause_type] = patterns
    formula = CnfFormula(3, (clause_of(1, 2, 3),))
    with pytest.raises(ValueError, match=match):
        approximate_with_hint(formula, (1, 1, 1), approx_sets)


@pytest.mark.parametrize("hint, match", [
    ((1, 1), "hint length 2 != num_vars 3"),
    ((0, 0, 2), "hint entry 2 is 2, expected 0 or 1"),
    ((0, -1, 1), "hint entry 1 is -1, expected 0 or 1"),
])
def test_hint_construction_rejects_bad_hints(hint, match):
    formula = CnfFormula(3, (clause_of(1, 2, 3),))
    with pytest.raises(ValueError, match=match):
        approximate_with_hint(formula, hint, _canonical_approx_sets())


def test_decode():
    layout = VariableLayout(3, (0, 1))
    assert decode((1, 0, 0, 1, 1), layout) == (1, 0, 0)
    assert decode((1, 0, 1), VariableLayout(3)) == (1, 0, 1)
    with pytest.raises(ValueError, match="length"):
        decode((1, 0), layout)
    # int() would read 0.7 as 0; every entry, aux bits too, must be 0 or 1
    for bits, message in (((0.7, 1, 0), "bit 0 is 0.7"), ((1, 2, 0), "bit 1 is 2"),
                          ((1, 0, 0, 1, 2), "bit 4 is 2")):
        with pytest.raises(ValueError, match=f"{message}, expected 0 or 1"):
            decode(bits, layout if len(bits) == 5 else VariableLayout(3))
    # a float owner or problem-variable count is refused, not truncated
    with pytest.raises(TypeError):
        VariableLayout(2, (1.5,))
    with pytest.raises(TypeError):
        VariableLayout(2.5)


def test_pattern_file_roundtrip():
    pattern = builtin_spec("nuesslein").patterns[2]
    text = write_pattern(pattern, 2, comments=["two negations"])
    assert "p pattern 4 2 6" in text
    parsed, clause_type = parse_pattern(text)
    assert parsed == pattern
    assert clause_type == 2


@pytest.mark.parametrize("text,match", [
    ("p pattern 3 0 1\n0 0 1\np pattern 3 2 1\n", "line 3: second 'p pattern' header"),
    ("p pattern 3 0 1\n0 1 one\n", "line 2: non-integer"),
    ("p pattern 3 x 1\n", "line 1: non-integer"),
    ("c only a comment\n", "missing 'p pattern' header"),
    ("\nc no header\n", "^missing 'p pattern' header$"),
    ("p pattern 3 0 1\n0 0 1\np pattern 3 0 1\n", "^line 3: second 'p pattern' header$"),
    ("c first\n0 0 1\np pattern 3 0 1\n", "^line 2: entry before 'p pattern' header$"),
    ("p qubo 3 1\n0 0 1\n", "^line 1: malformed header 'p qubo 3 1'$"),
    ("p pattern 3 1\n0 0 1\n", "^line 1: malformed header 'p pattern 3 1'$"),
    ("p pattern 3 0 one\n0 0 1\n", "^line 1: non-integer field in header 'p pattern 3 0 one'$"),
])
def test_pattern_text_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_pattern(text)


def test_transform_spec_validation():
    p3 = builtin_spec("fullapprox").patterns[0]
    p4 = builtin_spec("nuesslein").patterns[0]
    with pytest.raises(ValueError, match="dimensions"):
        TransformSpec("mixed", (p3, p3, p3, p4))
    # a float slot or coefficient is refused, not truncated or dropped
    with pytest.raises(TypeError):
        ClausePattern(3, {(0, 1): 0.5})
    with pytest.raises(TypeError):
        ClausePattern(3, {(0, 1): 2.7})
    with pytest.raises(TypeError):
        ClausePattern(3, {(0.0, 1): 1})
    with pytest.raises(TypeError):
        ClausePattern(3.0, {(0, 1): 1})
