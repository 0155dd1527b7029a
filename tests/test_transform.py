"""Built-in pattern tables, verification, repair, assembly, hint construction, decoding."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from maxsat_qubo.formula import (CnfFormula, brute_force_maxsat, classify_clause,
                                 clause_penalty, count_satisfied, generate_balanced)
from maxsat_qubo.qubo import (VariableLayout, brute_force_min, energy, minimize_with_aux,
                              pruning_schedule)
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
    unsat_triple,
    verify_pattern,
    write_pattern,
)
from maxsat_qubo.pattern_search import search_3x3

from conftest import planted_formula, random_formula, run_capped


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
    assert BUILTIN_SPEC_NAMES == ("chancellor_printed", "chancellor_repaired", "nuesslein",
                                  "fullapprox")
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


def test_negation_substitute_takes_a_mask_of_three_bits():
    base = builtin_spec("chancellor_printed").patterns[0]
    assert negation_substitute(base, np.array([0, 0, 1])) == \
        negation_substitute(base, (False, False, True))
    for mask, message in (("abc", "^mask entry 0 is 'a', expected 0 or 1$"),
                          ((1, 0, 2), "^mask entry 2 is 2, expected 0 or 1$"),
                          ((True, False), "^expected length 3, got 2$"),
                          ((0, 0, 0, 1), "^expected length 3, got 4$")):
        with pytest.raises(ValueError, match=message):
            negation_substitute(base, mask)


def test_negation_substitute_rejects_invalid_base():
    bad = builtin_spec("chancellor_printed").patterns[1]
    with pytest.raises(ValueError, match="exact-all-7"):
        negation_substitute(bad, (False, False, True))


def test_assemble_single_nuesslein_clause():
    formula = CnfFormula(3, ((1, 2, 3),))
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
    formula = CnfFormula(7, ((-5, 2, -7),))
    matrix, _ = assemble(formula, builtin_spec("fullapprox"))
    pattern = builtin_spec("fullapprox").patterns[2]
    slots = [1, 4, 6]
    expected = {}
    for (i, j), value in pattern.coefficients.items():
        a, b = sorted((slots[i], slots[j]))
        expected[(a, b)] = value
    assert matrix.entries == expected


_HUGE_ASSEMBLY = """
import json, sys, time
from maxsat_qubo.formula import CnfFormula
from maxsat_qubo.transform import assemble, builtin_spec
for n, name in json.loads(sys.argv[1]):
    start = time.perf_counter()
    try:
        matrix, layout = assemble(CnfFormula(n, ((n, n - 1, 1),)), builtin_spec(name))
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "seconds": time.perf_counter() - start}))
    else:
        print(json.dumps({"dim": matrix.dim, "layout": [layout.num_problem_vars,
                                                        list(layout.aux_owners)],
                          "entries": [[*key, value] for key, value in matrix.entries.items()]}))
"""


def _assemble_huge(cases):
    """Assemble the clause (n, n - 1, 1) at each (n, spec name) in a child capped at 2 GB, so
    an allocation in proportion to n fails there instead of taking the host's memory."""
    proc = run_capped(["-c", _HUGE_ASSEMBLY, json.dumps(cases)])
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_assembly_refuses_a_dim_whose_int64_keys_could_wrap():
    # isqrt(2^63) = 3037000499 is the largest dim whose keys i * dim + j fit in int64: at
    # n = 3037000499 the fullapprox dim n still fits, and the nuesslein dim n + 1 does not
    for result in _assemble_huge([[4 * 10**9, "fullapprox"], [4 * 10**9, "nuesslein"],
                                  [3037000499, "nuesslein"]]):
        assert "exceeds 3037000499" in result["error"]
        assert result["seconds"] < 1


@pytest.mark.parametrize("n, name", [(3 * 10**9, "fullapprox"), (3 * 10**9, "nuesslein"),
                                     (3037000499, "fullapprox")])
def test_assembly_at_a_huge_dim_relabels_the_small_one(n, name):
    """The clause (n, n - 1, 1) gives the n=3 matrix of the clause (3, 2, 1) with variables
    2 and 3 moved to n - 1 and n, and the aux bit to n, however large n is."""
    small, small_layout = assemble(CnfFormula(3, ((3, 2, 1),)), builtin_spec(name))
    label = [0, n - 2, n - 1, n]
    expected = {tuple(sorted((label[i], label[j]))): value
                for (i, j), value in small.entries.items()}
    [result] = _assemble_huge([[n, name]])
    assert result["dim"] == small.dim - 3 + n
    assert result["layout"] == [n, list(small_layout.aux_owners)]
    assert {(i, j): value for i, j, value in result["entries"]} == expected


def test_assemblies_of_one_formula_share_their_key_tuples():
    formula = random_formula(30, 120, 8)
    for first, second in [(assemble(formula, builtin_spec("fullapprox"))[0],
                           approximate_with_hint(formula, (0,) * 30, _canonical_approx_sets())),
                          (assemble(formula, builtin_spec("nuesslein"))[0],
                           assemble(formula, builtin_spec("chancellor_repaired"))[0])]:
        keys = {key: key for key in first.entries}
        common = [key for key in second.entries if key in keys]
        assert len(common) > 100
        assert all(keys[key] is key for key in common)


def _bytes_per_entry_kept(build):
    """Bytes still allocated per stored entry after build() returns a list of matrices that
    stay alive, allocations made before the call excluded."""
    gc.collect()
    tracemalloc.start()
    try:
        matrices = build()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size / sum(len(matrix.entries) for matrix in matrices)


# a dict slot costs about 40 B and a key tuple of its own about 60 B more, so at most 60 B
# per stored entry means the matrices share their key tuples
def test_assembled_matrices_cost_no_key_tuple_per_entry():
    """The assembly plan is built inside the measurement and counted there."""
    formula, spec = generate_balanced(145, 500, 3), builtin_spec("fullapprox")
    assert _bytes_per_entry_kept(lambda: [assemble(formula, spec)[0] for _ in range(64)]) <= 60


def test_pruning_stages_cost_no_key_tuple_per_entry():
    source, _ = assemble(generate_balanced(145, 500, 3), builtin_spec("nuesslein"))
    assert _bytes_per_entry_kept(
        lambda: [stage.matrix for stage in pruning_schedule(source, "min")]) <= 60


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
    formula = CnfFormula(3, ((1, 2, 3),))
    default = approx_sets[0][0]
    excluded = next(t for t in TRIPLES
                    if t not in set(pattern_minima(default)) and t != (0, 0, 0))
    matrix = approximate_with_hint(formula, excluded, approx_sets)
    assert matrix.entries != default.coefficients
    assert energy(matrix, excluded) == brute_force_min(matrix)[0]


def test_hint_construction_tolerates_falsifying_hint():
    approx_sets = _canonical_approx_sets()
    formula = CnfFormula(3, ((1, 2, 3),))
    matrix = approximate_with_hint(formula, (0, 0, 0), approx_sets)
    assert matrix.dim == 3
    assert matrix.entries == approx_sets[0][0].coefficients


def test_hint_construction_rejects_uncovered_sets():
    approx_sets = _canonical_approx_sets()
    thin = [patterns[:1] for patterns in approx_sets]
    formula = CnfFormula(3, ((1, 2, 3),))
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
    formula = CnfFormula(3, ((1, 2, 3),))
    with pytest.raises(ValueError, match=match):
        approximate_with_hint(formula, (1, 1, 1), approx_sets)


@pytest.mark.parametrize("hint, match", [
    pytest.param((1, 1), "^expected length 3, got 2$", id="hint0-hint length 2 != num_vars 3"),
    ((0, 0, 2), "hint entry 2 is 2, expected 0 or 1"),
    ((0, -1, 1), "hint entry 1 is -1, expected 0 or 1"),
])
def test_hint_construction_rejects_bad_hints(hint, match):
    formula = CnfFormula(3, ((1, 2, 3),))
    with pytest.raises(ValueError, match=match):
        approximate_with_hint(formula, hint, _canonical_approx_sets())


def test_decode():
    layout = VariableLayout(3, (0, 1))
    assert decode((1, 0, 0, 1, 1), layout) == (1, 0, 0)
    assert decode((1, 0, 1), VariableLayout(3)) == (1, 0, 1)
    with pytest.raises(ValueError, match="^expected length 5, got 2$"):
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


@pytest.mark.parametrize("call", [
    lambda: clause_penalty(4, (0, 0, 0)),
    lambda: unsat_triple(4),
    lambda: write_pattern(builtin_spec("fullapprox").patterns[0], 4),
    lambda: parse_pattern("p pattern 3 4 1\n0 0 -1\n"),
], ids=["clause_penalty", "unsat_triple", "write_pattern", "parse_pattern"])
def test_clause_type_4_gives_one_message(call):
    with pytest.raises(ValueError, match=r"^clause_type must be <= 3, got 4$"):
        call()


# a zero coefficient is dropped only after its slot pair passes the range check
@pytest.mark.parametrize("coefficients", [{(0, 3): 1}, {(2, 1): 1}, {(0, 5): 0}])
def test_pattern_refuses_a_slot_pair_outside_its_triangle(coefficients):
    with pytest.raises(ValueError, match="outside upper triangle of dim 3$"):
        ClausePattern(3, coefficients)


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
