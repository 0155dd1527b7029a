"""Energies, aux minimization, brute-force minima, pruning, and QUBO text format."""

import collections
import itertools
import re

import numpy as np
import pytest

from maxsat_qubo.formula import CnfFormula, count_satisfied, count_satisfied_many
from maxsat_qubo.qubo import (
    MAX_KEYED_DIM,
    QuboMatrix,
    VariableLayout,
    brute_force_min,
    energy,
    energy_many,
    energy_min_aux,
    energy_min_aux_many,
    minimize_with_aux,
    nnz_offdiag,
    parse_qubo,
    prune_min,
    prune_random,
    pruning_schedule,
    write_qubo,
)
from maxsat_qubo.rng import generator

from conftest import naive_energy, random_qubo, run_capped

CHANCELLOR_TYPE0 = {
    (0, 0): -2, (1, 1): -2, (2, 2): -2, (3, 3): -2,
    (0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1,
}


def test_matrix_validation():
    with pytest.raises(ValueError, match="zero"):
        QuboMatrix(2, {(0, 0): 0})
    with pytest.raises(ValueError, match="triangle"):
        QuboMatrix(2, {(1, 0): 1})
    with pytest.raises(ValueError, match="triangle"):
        QuboMatrix(2, {(0, 2): 1})
    # a float index or coefficient is refused, not truncated
    with pytest.raises(TypeError):
        QuboMatrix(2, {(0, 1): 2.7})
    with pytest.raises(TypeError):
        QuboMatrix(2, {(0, 1.0): 1})
    with pytest.raises(TypeError):
        QuboMatrix(2.5, {(0, 1): 1})


def test_matrix_keeps_plain_int_key_tuples_and_rebuilds_others():
    key = (0, 1)
    q = QuboMatrix(3, {key: 2, (1, 2): 1})
    assert next(iter(q.entries)) is key
    Pair = collections.namedtuple("Pair", "i j")
    for entries in ({(np.int64(0), np.int64(1)): 2, (True, 2): 1},
                    {Pair(0, 1): 2, Pair(1, 2): 1}):
        q = QuboMatrix(3, entries)
        assert q.entries == {(0, 1): 2, (1, 2): 1}
        assert all(type(key) is tuple and list(map(type, key)) == [int, int]
                   for key in q.entries)


_HUGE_DIM = """
import sys
from maxsat_qubo.qubo import QuboMatrix
from maxsat_qubo.solvers import SolverConfig, solve
dim = int(sys.argv[1])
for q in (QuboMatrix(dim, {}), QuboMatrix(dim, {(dim - 1, dim - 1): -1})):
    for call in (q.diag_coupling, lambda: solve(q, SolverConfig(kind="random"))):
        try:
            call()
        except ValueError as exc:
            print(exc)
"""


def test_compiling_refuses_a_dim_whose_keys_could_wrap():
    """Run in a child capped at 2 GB: an allocation in proportion to the dim fails there with
    MemoryError, which the child does not catch, instead of taking the host's memory."""
    assert MAX_KEYED_DIM == 3037000499 and MAX_KEYED_DIM ** 2 < 1 << 63 <= (MAX_KEYED_DIM + 1) ** 2
    for dim in (MAX_KEYED_DIM + 1, 10**30):
        proc = run_capped(["-c", _HUGE_DIM, str(dim)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"matrix dim {dim} exceeds {MAX_KEYED_DIM}, past "
                                            "which int64 entry keys i * dim + j could wrap"] * 4


def test_energy_examples(approx_type0_matrix, combined_example_matrix):
    assert energy(approx_type0_matrix, (1, 0, 0)) == -1
    assert energy(approx_type0_matrix, (0, 0, 0)) == 0
    assert energy(combined_example_matrix, (1, 0, 0, 0, 0)) == -3
    with pytest.raises(ValueError, match="length"):
        energy(approx_type0_matrix, (1, 0))


def test_energy_matches_naive_dense_evaluator():
    rng = generator(5)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 13))
        q = random_qubo(dim, int(rng.integers(0, dim * (dim - 1) // 2 + 1)),
                        int(rng.integers(0, 2**31)))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=dim))
        assert energy(q, bits) == naive_energy(q, bits)
        checked += 1


def test_energy_many_matches_scalar():
    q = random_qubo(9, 20, 11)
    rows = generator(12).integers(0, 2, size=(40, 9))
    values = energy_many(q, rows)
    for row, value in zip(rows, values):
        assert energy(q, tuple(row)) == value


def test_energy_min_aux_chancellor_clause():
    q = QuboMatrix(4, dict(CHANCELLOR_TYPE0))
    layout = VariableLayout(3, (0,))
    assert energy_min_aux(q, layout, (1, 0, 0)) == -3
    assert energy_min_aux(q, layout, (0, 0, 0)) == -2


def test_energy_min_aux_without_aux_equals_energy(approx_type0_matrix):
    layout = VariableLayout(3)
    for bits in itertools.product((0, 1), repeat=3):
        assert energy_min_aux(approx_type0_matrix, layout, bits) == \
            energy(approx_type0_matrix, bits)


def _enumerated_min_aux(q, layout, assignment):
    num_aux = len(layout.aux_owners)
    best = None
    for aux_index in range(1 << num_aux):
        full = list(assignment) + [(aux_index >> a) & 1 for a in range(num_aux)]
        value = energy(q, full)
        best = value if best is None or value < best else best
    return best


def test_energy_min_aux_fast_path_matches_enumeration():
    rng = generator(21)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        num_aux = int(rng.integers(1, 11))
        dim = n + num_aux
        entries = {}
        for i in range(dim):
            value = int(rng.integers(-3, 4))
            if value:
                entries[(i, i)] = value
        # problem-problem and problem-aux couplings only
        for i in range(n):
            for j in range(i + 1, dim):
                if rng.random() < 0.4:
                    value = int(rng.integers(-3, 4))
                    if value:
                        entries[(i, j)] = value
        q = QuboMatrix(dim, entries)
        layout = VariableLayout(n, tuple(range(num_aux)))
        for _ in range(5):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            assert energy_min_aux(q, layout, bits) == _enumerated_min_aux(q, layout, bits)


def test_energy_min_aux_rejects_aux_aux_coupling():
    q = QuboMatrix(4, {(0, 0): 1, (2, 3): -2, (2, 2): 1, (3, 3): 1, (0, 2): -1})
    layout = VariableLayout(2, (0, 1))
    with pytest.raises(ValueError, match="aux-aux"):
        energy_min_aux(q, layout, (0, 1))
    with pytest.raises(ValueError, match="aux-aux"):
        energy_min_aux_many(q, layout, np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="aux-aux"):
        minimize_with_aux(q, layout)


def test_energy_min_aux_many_matches_scalar():
    q = QuboMatrix(5, {(0, 0): -1, (1, 1): 2, (0, 1): 1, (0, 3): -2, (1, 4): 1,
                       (3, 3): 1, (4, 4): -1})
    layout = VariableLayout(3, (0, 1))
    rows = np.array(list(itertools.product((0, 1), repeat=3)))
    values = energy_min_aux_many(q, layout, rows)
    for row, value in zip(rows, values):
        assert energy_min_aux(q, layout, tuple(row)) == value


# x1 true satisfies only the first clause; x2 true satisfies both
TWO_CLAUSES = CnfFormula(3, ((1, 2, 3), (-1, 2, 3)))


@pytest.mark.parametrize("call, message", [
    (lambda q: energy(q, (2, 0)), "bit 0 is 2, expected 0 or 1"),
    (lambda q: energy(q, (0.7, 1.9)), "bit 0 is 0.7, expected 0 or 1"),
    (lambda q: energy(q, (1, 0, 1)), "expected length 2, got 3"),
    (lambda q: energy_many(q, [[2, 0]]), "row 0 entry 0 is 2, expected 0 or 1"),
    (lambda q: energy_many(q, [[1, 0], [0, 0.7]]), "row 1 entry 1 is 0.7, expected 0 or 1"),
    (lambda q: energy_min_aux(q, VariableLayout(2), (2, 0)), "row 0 entry 0 is 2"),
    (lambda q: energy_min_aux_many(q, VariableLayout(2), [[0, -1]]), "row 0 entry 1 is -1"),
    (lambda q: count_satisfied(TWO_CLAUSES, (2, 0, 0)), "bit 0 is 2, expected 0 or 1"),
    (lambda q: count_satisfied(TWO_CLAUSES, (1, 0.7, 0)), "bit 1 is 0.7, expected 0 or 1"),
    (lambda q: count_satisfied(TWO_CLAUSES, (-1, 0, 0)), "bit 0 is -1, expected 0 or 1"),
    (lambda q: count_satisfied(TWO_CLAUSES, (1, 0)), "expected length 3, got 2"),
    (lambda q: count_satisfied_many(TWO_CLAUSES, [[2, 0, 0]]),
     "row 0 entry 0 is 2, expected 0 or 1"),
    (lambda q: count_satisfied_many(TWO_CLAUSES, [[1, 0, 0], [0, 0.7, 0]]),
     "row 1 entry 1 is 0.7, expected 0 or 1"),
    (lambda q: count_satisfied_many(TWO_CLAUSES, np.array([[0, -1, 0]])),
     "row 0 entry 1 is -1, expected 0 or 1"),
], ids=["energy", "energy-fraction", "energy-length", "many", "many-fraction", "min-aux",
        "min-aux-many", "score", "score-fraction", "score-negative", "score-length",
        "score-many", "score-many-fraction", "score-many-negative"])
def test_energies_refuse_entries_other_than_0_and_1(call, message):
    q = QuboMatrix(2, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match=re.escape(message)):
        call(q)
    # bools are 0 and 1
    assert energy(q, (True, True)) == energy_many(q, [[True, True]])[0] == 2
    assert count_satisfied(TWO_CLAUSES, (True, False, False)) == 1
    rows = np.array([[True, False, False], [False, True, False]])
    assert count_satisfied_many(TWO_CLAUSES, rows).tolist() == [1, 2]


def test_minimize_with_aux_matches_brute_force():
    for seed in range(10):
        q = random_qubo(8, 12, seed + 300)
        layout = VariableLayout(5, (0, 1, 2))
        entries = {k: v for k, v in q.entries.items()
                   if not (k[0] >= 5 and k[1] >= 5 and k[0] != k[1])}
        q = QuboMatrix(8, entries)
        best, witness = minimize_with_aux(q, layout)
        full_best, full_witness = brute_force_min(q)
        assert best == full_best
        assert witness == full_witness[:5]


def test_brute_force_min_examples(approx_type0_matrix):
    assert brute_force_min(approx_type0_matrix) == (-1, (1, 0, 0))
    assert brute_force_min(QuboMatrix(3, {})) == (0, (0, 0, 0))
    assert brute_force_min(QuboMatrix(1, {(0, 0): -1})) == (-1, (1,))
    with pytest.raises(ValueError, match="25"):
        brute_force_min(QuboMatrix(26, {(0, 0): 1}))


def test_brute_force_min_dominates_random_vectors():
    q = random_qubo(10, 20, 77)
    best, witness = brute_force_min(q)
    assert energy(q, witness) == best
    rng = generator(78)
    for _ in range(100):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=10))
        assert energy(q, bits) >= best


def test_nnz_offdiag(approx_type0_matrix, combined_example_matrix):
    assert nnz_offdiag(combined_example_matrix) == 9
    assert nnz_offdiag(approx_type0_matrix) == 3
    assert nnz_offdiag(QuboMatrix(3, {(0, 0): 1, (2, 2): -1})) == 0


def test_prune_min_examples():
    q = QuboMatrix(3, {(0, 1): 2, (0, 2): -1, (1, 2): 1})
    assert prune_min(q, 1).entries == {(0, 1): 2, (1, 2): 1}
    tie = QuboMatrix(3, {(0, 1): 1, (0, 2): 1})
    assert prune_min(tie, 1).entries == {(0, 2): 1}
    full = prune_min(q, nnz_offdiag(q))
    assert nnz_offdiag(full) == 0
    with pytest.raises(ValueError, match="count"):
        prune_min(q, 4)


def test_prune_min_keeps_diagonal():
    q = random_qubo(8, 15, 5)
    pruned = prune_min(q, nnz_offdiag(q))
    diag = {k: v for k, v in q.entries.items() if k[0] == k[1]}
    assert pruned.entries == diag


def test_prune_random_examples():
    q = random_qubo(7, 12, 9)
    assert prune_random(q, 0, seed=3) == q
    assert nnz_offdiag(prune_random(q, nnz_offdiag(q), seed=3)) == 0
    assert prune_random(q, 5, seed=4) == prune_random(q, 5, seed=4)


def test_prune_min_permutation_stable():
    # distinct off-diagonal values so the index tie-break never engages
    entries = {(0, 0): 1, (1, 1): -2, (2, 2): 3, (3, 3): -1,
               (0, 1): 4, (0, 2): -5, (1, 3): 2, (2, 3): -3, (0, 3): 6}
    q = QuboMatrix(4, entries)
    relabel = {0: 2, 1: 0, 2: 3, 3: 1}

    def apply_relabel(matrix):
        remapped = {}
        for (i, j), value in matrix.entries.items():
            a, b = relabel[i], relabel[j]
            remapped[(min(a, b), max(a, b))] = value
        return QuboMatrix(matrix.dim, remapped)

    for count in range(6):
        assert apply_relabel(prune_min(q, count)) == prune_min(apply_relabel(q), count)


def test_pruning_schedule_targets():
    q9 = random_qubo(8, 9, 1)
    assert nnz_offdiag(q9) == 9
    stages = pruning_schedule(q9, "min")
    assert [s.removed_cumulative for s in stages] == [0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 9]
    q10 = random_qubo(8, 10, 2)
    stages = pruning_schedule(q10, "min")
    assert [s.removed_cumulative for s in stages] == list(range(11))


@pytest.mark.parametrize("strategy", ["min", "random"])
def test_pruning_schedule_chain(strategy):
    q = random_qubo(10, 30, 6)
    stages = pruning_schedule(q, strategy, seed=13)
    assert len(stages) == 11
    assert stages[0].matrix == q
    assert nnz_offdiag(stages[10].matrix) == 0
    diag = {k: v for k, v in q.entries.items() if k[0] == k[1]}
    for earlier, later in zip(stages, stages[1:]):
        assert set(later.matrix.entries) <= set(earlier.matrix.entries)
        assert {k: v for k, v in later.matrix.entries.items() if k[0] == k[1]} == diag
    # the schedule and the one-shot prune calls share one removal order
    for stage in stages:
        target = stage.removed_cumulative
        expected = prune_min(q, target) if strategy == "min" else prune_random(q, target, seed=13)
        assert stage.matrix == expected


@pytest.mark.parametrize("strategy", ["min", "random"])
def test_pruning_stages_keep_the_source_key_tuples(strategy):
    q = random_qubo(10, 30, 6)
    keys = {key: key for key in q.entries}
    for stage in pruning_schedule(q, strategy, seed=13):
        assert all(keys[key] is key for key in stage.matrix.entries)


def test_pruning_schedule_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        pruning_schedule(random_qubo(4, 3, 0), "magnitude")


def test_qubo_text_roundtrip():
    q = random_qubo(6, 9, 42)
    text = write_qubo(q)
    parsed, layout = parse_qubo(text)
    assert parsed == q
    assert layout == VariableLayout(6)
    assert write_qubo(parsed) == text


def test_qubo_text_roundtrip_with_layout():
    q = QuboMatrix(5, {(0, 0): -3, (0, 1): 2, (2, 4): 1, (3, 3): -2, (4, 4): -1})
    layout = VariableLayout(3, (0, 1))
    text = write_qubo(q, layout, comments=["two clauses"])
    assert "c aux 3 clause 0" in text
    parsed, parsed_layout = parse_qubo(text)
    assert parsed == q
    assert parsed_layout == layout


def test_qubo_writer_refuses_a_free_comment_read_as_aux():
    q = QuboMatrix(3, {(0, 0): 1})
    with pytest.raises(ValueError, match="^comment ' aux 2 clause 0' starts with 'aux'"):
        write_qubo(q, comments=["transform=x", " aux 2 clause 0"])
    assert parse_qubo(write_qubo(q, comments=["auxiliary bits: none"])) == (q, VariableLayout(3))


@pytest.mark.parametrize("comment", ["run 1\n0 1 5", "a\r\nb", "x\x0cy"])
def test_qubo_writer_refuses_a_comment_with_a_line_break(comment):
    q = QuboMatrix(2, {(0, 0): 1})
    message = f"^comment {re.escape(repr(comment))} holds a line break$"
    with pytest.raises(ValueError, match=message):
        write_qubo(q, VariableLayout(1, (0,)), comments=[comment])


@pytest.mark.parametrize("text,match", [
    ("0 0 1\n", "header"),
    ("p qubo 2 1\n0 0 1\n0 1 2\n", "declares"),
    ("p qubo 2 2\n0 0 1\n0 0 2\n", "duplicate"),
    ("p qubo 2 1\n0 0\n", "i j coeff"),
    ("c aux 0 clause 0\np qubo 2 1\n1 1 1\n", "trailing"),
    ("p qubo 2 1\n0 0 1\np qubo 3 1\n", "line 3: second 'p qubo' header"),
    ("p qubo 2 1\n0 1 1.5\n", "line 2: non-integer"),
    ("p qubo two 1\n", "line 1: non-integer"),
    ("c aux 1 clause x\np qubo 2 1\n1 1 1\n", "line 1: non-integer"),
    ("c aux 2 clause 0\nc aux 2 clause 1\np qubo 3 1\n0 0 1\n", "line 2: repeated aux index 2"),
    ("c only a comment\n", "^missing 'p qubo' header$"),
    ("p qubo 2 1\n0 0 1\np qubo 2 1\n", "^line 3: second 'p qubo' header$"),
    ("c aux 1 clause 0\n0 0 1\np qubo 2 1\n", "^line 2: entry before 'p qubo' header$"),
    ("p cnf 2 1\n0 0 1\n", "^line 1: malformed header 'p cnf 2 1'$"),
    ("p qubo 2\n0 0 1\n", "^line 1: malformed header 'p qubo 2'$"),
    ("p qubo 2 one\n0 0 1\n", "^line 1: non-integer field in header 'p qubo 2 one'$"),
    ("c aux 2 clase 0\np qubo 3 1\n0 0 1\n", "^line 1: malformed aux comment 'c aux 2 clase 0'$"),
    ("p qubo 3 1\nc aux 2 clause 0 extra\n0 0 1\n",
     "^line 2: malformed aux comment 'c aux 2 clause 0 extra'$"),
])
def test_qubo_text_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_qubo(text)


def _deep_qubo_lines():
    """A 1,701-line QUBO file: the header, then entries on lines 2 to 1701."""
    return write_qubo(random_qubo(200, 1500, 5)).splitlines()


@pytest.mark.parametrize("replace, message", [
    (lambda lines: "3 x 1", "line 1500: non-integer field in '3 x 1'"),
    (lambda lines: " 3   4 ", "line 1500: expected 'i j coeff', got '3   4'"),
    (lambda lines: "3 4 5 6", "line 1500: expected 'i j coeff', got '3 4 5 6'"),
    (lambda lines: lines[1498], "line 1500: duplicate entry ({}, {})"),
], ids=["non-integer", "two-fields", "four-fields", "duplicate"])
def test_qubo_text_errors_deep_in_a_large_file_name_the_line(replace, message):
    lines = _deep_qubo_lines()
    lines[1499] = replace(lines)
    message = message.format(*lines[1498].split()[:2])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_qubo("\n".join(lines) + "\n")


def test_qubo_text_keeps_coefficients_beyond_int64_exact():
    big = 10 ** 26
    q = QuboMatrix(3, {(0, 0): big, (0, 2): -big - 7, (1, 1): 1})
    text = write_qubo(q)
    assert text == "p qubo 3 3\n0 0 100000000000000000000000000\n" \
        "0 2 -100000000000000000000000007\n1 1 1\n"
    assert parse_qubo(text) == (q, VariableLayout(3))
