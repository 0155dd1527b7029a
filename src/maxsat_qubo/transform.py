"""Clause-level QUBO patterns, verification and repair, and formula-to-QUBO assembly."""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np

from .formula import CnfFormula, _unchecked, check_bits, check_clause_type, enumerate_rows
from .qubo import (EXACT_INT64_BOUND, QuboMatrix, VariableLayout, check_keyed_dim, read_triplets,
                   write_triplets)
from .rng import require_int

EXACT_ALL_7 = "exact-all-7"
APPROX_6_OF_7 = "approx-6-of-7"

# per pattern dim, every assignment to its slots, the first slot most significant: the 8
# triples for dim 3, their (triple, aux) pairs for dim 4; a triple's index is x @ (4, 2, 1)
_ASSIGNMENTS = {dim: next(enumerate_rows(2, dim)) for dim in (3, 4)}
TRIPLES: tuple[tuple[int, int, int], ...] = tuple(map(tuple, _ASSIGNMENTS[3].tolist()))

# slot pairs behind the entries of a pattern's coefficient row, per pattern dim;
# the searches enumerate rows with the first slot as the most significant digit
SLOT_ORDERS = {
    3: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)),
    4: ((0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}

# per pattern dim, the 0/1 monomial of each slot pair (rows) under each assignment (columns)
_FEATURES = {dim: np.array([bits[:, i] * bits[:, j] for i, j in SLOT_ORDERS[dim]], dtype=np.int64)
             for dim, bits in _ASSIGNMENTS.items()}


def unsat_triple(clause_type: int) -> tuple[int, int, int]:
    """The single assignment falsifying the canonical clause of a type."""
    check_clause_type(clause_type)
    return tuple([0] * (3 - clause_type) + [1] * clause_type)


def satisfying_triples(clause_type: int) -> tuple[tuple[int, int, int], ...]:
    bad = unsat_triple(clause_type)
    return tuple(t for t in TRIPLES if t != bad)


@dataclass(frozen=True)
class ClausePattern:
    """A 3x3 or 4x4 upper-triangular coefficient template for one clause.

    Slots 0..2 are the clause's canonically ordered variables; slot 3, when
    present, is the clause's auxiliary variable.
    """

    dim: int
    coefficients: dict[tuple[int, int], int]

    def __post_init__(self):
        dim = require_int(self.dim, "pattern dim", 3, 4)  # a float slot or value raises TypeError
        checked = {}
        for (i, j), value in self.coefficients.items():
            i, j, value = operator.index(i), operator.index(j), operator.index(value)
            if not 0 <= i <= j < dim:
                raise ValueError(f"slot pair {(i, j)} outside upper triangle of dim {dim}")
            if value:
                checked[i, j] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coefficients", checked)

    @property
    def uses_aux(self) -> bool:
        return self.dim == 4

    @property
    def row(self) -> list[int]:
        return [self.coefficients.get(key, 0) for key in SLOT_ORDERS[self.dim]]


@dataclass(frozen=True)
class TransformSpec:
    """One clause pattern per clause type; defines a full formula-to-QUBO transformation."""

    name: str
    patterns: tuple[ClausePattern, ClausePattern, ClausePattern, ClausePattern]

    def __post_init__(self):
        patterns = tuple(self.patterns)
        if len(patterns) != 4:
            raise ValueError("a spec needs one pattern per clause type (4 patterns)")
        dims = {p.dim for p in patterns}
        if len(dims) != 1:
            raise ValueError(f"patterns mix dimensions: {sorted(dims)}")
        object.__setattr__(self, "patterns", patterns)

    @property
    def uses_aux(self) -> bool:
        return self.patterns[0].uses_aux


@dataclass(frozen=True)
class VerificationReport:
    clause_type: int
    criterion: str
    valid: bool
    min_energy: int
    minima: tuple[tuple[int, int, int], ...]
    unsat_energy: int


def triple_energies(rows, dim: int) -> np.ndarray:
    """(k, 8) triple energies of (k, len(SLOT_ORDERS[dim])) int64 coefficient rows;
    for dim 4 each triple takes the lower of its aux=0 and aux=1 energies."""
    energies = rows @ _FEATURES[dim]
    if dim == 4:
        energies = np.minimum(energies[:, 0::2], energies[:, 1::2])
    return energies


def meets_criterion(energies: np.ndarray, clause_type: int, criterion: str) -> np.ndarray:
    """Per row of (k, 8) triple energies, whether it meets the criterion for a clause type.

    exact-all-7: all seven satisfying triples share the minimum and the
    falsifying triple sits strictly above it. approx-6-of-7: exactly six
    satisfying triples share the minimum while the leftover satisfying triple
    and the falsifying triple both sit strictly above it.
    """
    if criterion not in (EXACT_ALL_7, APPROX_6_OF_7):
        raise ValueError(f"unknown criterion {criterion!r}")
    unsat_col = TRIPLES.index(unsat_triple(clause_type))
    low = energies.min(axis=1)
    at_min = energies == low[:, None]
    sat_at_min = at_min.sum(axis=1) - at_min[:, unsat_col]
    needed = 7 if criterion == EXACT_ALL_7 else 6
    return (sat_at_min == needed) & (energies[:, unsat_col] > low)


def pattern_energies(pattern: ClausePattern) -> np.ndarray:
    """Energies of the 8 variable triples, minimizing over the aux bit for 4x4 patterns."""
    row = pattern.row
    if sum(map(abs, row)) >= EXACT_INT64_BOUND:
        raise ValueError("pattern coefficient magnitudes sum to 2^62 or more")
    return triple_energies(np.array([row], dtype=np.int64), pattern.dim)[0]


def _triples_at_min(values: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    return tuple(compress(TRIPLES, (values == values.min()).tolist()))


def pattern_minima(pattern: ClausePattern) -> tuple[tuple[int, int, int], ...]:
    """Triples attaining the pattern's minimum energy (aux minimized out)."""
    return _triples_at_min(pattern_energies(pattern))


def verify_pattern(pattern: ClausePattern, clause_type: int, criterion: str) -> VerificationReport:
    """Exhaustively check a pattern against a clause type (see meets_criterion)."""
    clause_type = check_clause_type(clause_type)
    values = pattern_energies(pattern)
    valid = bool(meets_criterion(values[None, :], clause_type, criterion)[0])
    unsat_energy = int(values[TRIPLES.index(unsat_triple(clause_type))])
    return VerificationReport(clause_type, criterion, valid, int(values.min()),
                              _triples_at_min(values), unsat_energy)


def coverage_check(patterns: Sequence[ClausePattern],
                   clause_type: int) -> tuple[bool, tuple[int | None, ...]]:
    """Whether every satisfying triple attains the minimum in some pattern.

    Returns the coverage flag and, per satisfying triple, the index of the
    first covering pattern (None where uncovered).
    """
    minima = [set(pattern_minima(p)) for p in patterns]
    witnesses = tuple(next((i for i, mins in enumerate(minima) if triple in mins), None)
                      for triple in satisfying_triples(clause_type))
    return all(w is not None for w in witnesses), witnesses


def negation_substitute(base: ClausePattern, mask: Sequence[bool]) -> ClausePattern:
    """Rewrite a type-0 4x4 pattern for negated slots by substituting x -> 1 - x.

    The masked variable slots are replaced symbolically, coefficients are
    re-collected, and the leftover constant is dropped. The result must pass
    exact-all-7 for the clause type given by the mask's popcount; a failure
    means the base pattern was not a valid type-0 transformation.
    """
    if base.dim != 4:
        raise ValueError("negation substitution is defined for 4x4 patterns")
    check_bits(mask, 3, "mask entry")
    mask = tuple(bool(b) for b in mask)
    if not verify_pattern(base, 0, EXACT_ALL_7).valid:
        raise ValueError("base pattern does not pass exact-all-7 for clause type 0")

    sign = [-1 if negated else 1 for negated in mask] + [1]  # the aux slot is never negated
    coefficients: defaultdict[tuple[int, int], int] = defaultdict(int)
    for (i, j), c in base.coefficients.items():
        if i == j:
            coefficients[i, i] += sign[i] * c
            continue
        # x = 1 - y on a masked end also leaves c x_other on the other end's diagonal
        coefficients[i, j] += sign[i] * sign[j] * c
        if sign[i] < 0:
            coefficients[j, j] += sign[j] * c
        if sign[j] < 0:
            coefficients[i, i] += sign[i] * c
    result = ClausePattern(4, coefficients)
    clause_type = sum(mask)
    if not verify_pattern(result, clause_type, EXACT_ALL_7).valid:
        raise ValueError(f"substituted pattern fails exact-all-7 for clause type {clause_type}")
    return result


_CHANCELLOR_PRINTED = (
    {(0, 0): -2, (1, 1): -2, (2, 2): -2, (3, 3): -2,
     (0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1},
    {(0, 0): -1, (1, 1): -1, (3, 3): -1, (0, 1): 1, (0, 3): 1, (1, 3): 1},
    {(0, 0): -1, (1, 1): -1, (2, 2): -1, (3, 3): 2,
     (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1},
    {(0, 0): -1, (1, 1): -1, (2, 2): -1, (3, 3): -1,
     (0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1},
)

_NUESSLEIN = (
    {(0, 1): 2, (0, 3): -2, (1, 3): -2, (2, 2): -1, (2, 3): 1, (3, 3): 1},
    {(0, 1): 2, (0, 3): -2, (1, 3): -2, (2, 2): 1, (2, 3): -1, (3, 3): 2},
    {(0, 0): 2, (0, 1): -2, (0, 3): -2, (1, 3): 2, (2, 2): 1, (2, 3): -1},
    {(0, 0): -1, (1, 1): -1, (2, 2): -1, (3, 3): -1,
     (0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1},
)

_FULLAPPROX = (
    {(0, 0): -1, (1, 1): -1, (2, 2): -1, (0, 1): 1, (0, 2): 1, (1, 2): 1},
    {(0, 1): 1, (0, 2): -1, (1, 2): -1, (2, 2): 1},
    {(0, 0): 1, (0, 1): -1, (0, 2): -1, (1, 2): 1},
    {(0, 0): -1, (1, 1): -1, (2, 2): -1, (0, 1): 1, (0, 2): 1, (1, 2): 1},
)


# each built-in transformation's patterns builder, in the order the CLI lists them
_BUILTIN_PATTERNS = {
    "chancellor_printed": lambda: tuple(ClausePattern(4, c) for c in _CHANCELLOR_PRINTED),
    "chancellor_repaired": lambda: tuple(
        negation_substitute(ClausePattern(4, _CHANCELLOR_PRINTED[0]), unsat_triple(t))
        for t in range(4)),
    "nuesslein": lambda: tuple(ClausePattern(4, c) for c in _NUESSLEIN),
    "fullapprox": lambda: tuple(ClausePattern(3, c) for c in _FULLAPPROX),
}
BUILTIN_SPEC_NAMES = tuple(_BUILTIN_PATTERNS)


@lru_cache(maxsize=None)
def builtin_spec(name: str) -> TransformSpec:
    """One of the built-in transformations.

    chancellor_printed carries the published coefficients verbatim, two of
    which fail verification; chancellor_repaired rebuilds the negated clause
    types from the valid type-0 pattern by negation substitution.
    """
    if name not in _BUILTIN_PATTERNS:
        raise ValueError(f"unknown transformation {name!r}, expected one of {BUILTIN_SPEC_NAMES}")
    return TransformSpec(name, _BUILTIN_PATTERNS[name]())


class _AssemblyPlan(NamedTuple):
    """How clause slot pairs land on matrix entries, for one formula and pattern dim."""

    dim: int  # the matrix dim
    order: np.ndarray  # the flat (clause, slot pair) cells sorted by the entry they land on
    starts: np.ndarray  # where each entry's run of cells starts in that order
    # one (i, j) tuple per entry, ascending, over shared index ints: every matrix assembled
    # from the plan, and every pruning stage of one, stores these tuples as its keys, so a
    # stored entry costs a dict slot and no key of its own
    keys: tuple[tuple[int, int], ...]


def _assembly_plan(formula: CnfFormula, pattern_dim: int) -> _AssemblyPlan:
    """The formula's cached read-only plan for patterns of a dim: slots 0..2 are clause
    l's canonical variables and slot 3 is its aux bit n + l; the matrix dim is n + m for
    4x4 patterns and n for 3x3 ones. ValueError for a matrix dim above MAX_KEYED_DIM."""
    plan = formula.assembly_plans.get(pattern_dim)
    if plan is None:
        n, m = formula.num_vars, formula.num_clauses
        dim = n + m if pattern_dim == 4 else n
        check_keyed_dim(dim)
        slots = np.c_[formula.clause_arrays[0], n + np.arange(m)]
        keys = (np.sort(slots[:, SLOT_ORDERS[pattern_dim]], axis=2) @ (dim, 1)).ravel()
        order = np.argsort(keys)
        keys, starts = np.unique(keys[order], return_index=True)
        first, second = (part.tolist() for part in np.divmod(keys, dim))
        shared: dict[int, int] = {}  # one int object per index the keys use
        pairs = zip(map(shared.setdefault, first, first), map(shared.setdefault, second, second))
        plan = _AssemblyPlan(dim, order, starts, tuple(pairs))
        plan.order.setflags(write=False)
        plan.starts.setflags(write=False)
        formula.assembly_plans[pattern_dim] = plan
    return plan


def _sum_patterns(formula: CnfFormula, patterns: Sequence[ClausePattern],
                  choice: np.ndarray) -> QuboMatrix:
    """Sum patterns[choice[l]] over the clauses l along the formula's assembly plan for
    their dim; ValueError for magnitudes that could wrap."""
    rows = [pattern.row for pattern in patterns]
    magnitudes = [sum(map(abs, row)) for row in rows]
    uses = np.bincount(choice, minlength=len(rows)).tolist()
    if max(magnitudes + [sum(w * u for w, u in zip(magnitudes, uses))]) >= EXACT_INT64_BOUND:
        raise ValueError("coefficient magnitudes sum to 2^62 or more; int64 sums could wrap")
    dim, order, starts, keys = _assembly_plan(formula, patterns[0].dim)
    sums = np.add.reduceat(np.array(rows, dtype=np.int64)[choice].ravel()[order], starts)
    kept = sums != 0
    # the plan's keys lie in the upper triangle of dim, and every kept sum is a nonzero int
    return _unchecked(QuboMatrix, dim,
                      dict(zip(compress(keys, kept.tolist()), sums[kept].tolist())))


def assemble(formula: CnfFormula, spec: TransformSpec) -> tuple[QuboMatrix, VariableLayout]:
    """Sum instantiated clause patterns into one QUBO matrix.

    Each clause's pattern lands on its canonically ordered variables; specs
    with auxiliary slots bind clause l's aux to index n + l. Coefficients
    that cancel to zero are not stored. Where each clause slot pair lands
    is the formula's assembly plan for the spec's pattern dim, built on
    first use and cached on the formula, so assembling many specs of one
    formula pays for it once. The plan's key tuples become the matrix's keys.
    A matrix dim above qubo.MAX_KEYED_DIM is refused with ValueError before
    anything is allocated, since the plan's int64 keys i * dim + j could wrap.
    """
    n, m = formula.num_vars, formula.num_clauses
    matrix = _sum_patterns(formula, spec.patterns, formula.clause_arrays[1].sum(axis=1))
    return matrix, VariableLayout(n, tuple(range(m)) if spec.uses_aux else ())


def approximate_with_hint(formula: CnfFormula, hint: Sequence[int],
                          approx_sets: Sequence[Sequence[ClausePattern]]) -> QuboMatrix:
    """Assemble a 3x3-pattern approximation in which the 0/1 hint stays optimal.

    Every clause the hint satisfies gets the first pattern from its type's
    list whose minima include the hint's restriction; clauses the hint
    falsifies get their type's first pattern. Each per-type list must jointly
    cover all seven satisfying triples, which guarantees a choice exists.
    """
    check_bits(hint, formula.num_vars, "hint entry")
    if len(approx_sets) != 4:
        raise ValueError("approx_sets must hold one pattern list per clause type")
    flat, table = [], []  # table: per type and triple, the index into flat of the pattern to use
    for clause_type, patterns in enumerate(approx_sets):
        if not patterns:
            raise ValueError(f"no approximation patterns for clause type {clause_type}")
        if any(p.dim != 3 for p in patterns):
            raise ValueError("hint-preserving assembly expects 3x3 patterns")
        _, witnesses = coverage_check(patterns, clause_type)
        choices = dict(zip(satisfying_triples(clause_type), witnesses))
        missing = [t for t, w in choices.items() if w is None]
        if missing:
            raise ValueError(
                f"clause type {clause_type} patterns do not cover satisfying triples {missing}"
            )
        table.append([len(flat) + choices.get(triple, 0) for triple in TRIPLES])
        flat += patterns
    variables, negated = formula.clause_arrays
    hinted = np.asarray(hint, dtype=np.int64)[variables] @ (4, 2, 1)  # index into TRIPLES
    return _sum_patterns(formula, flat, np.array(table)[negated.sum(1), hinted])


def decode(bits: Sequence[int], layout: VariableLayout) -> tuple[int, ...]:
    """Project a solver bit vector onto the problem variables; every entry must be 0 or 1."""
    check_bits(bits, layout.dim)
    return tuple(int(b) for b in bits[:layout.num_problem_vars])


def write_pattern(pattern: ClausePattern, clause_type: int, comments: Sequence[str] = ()) -> str:
    """Serialize a pattern to the pattern text format."""
    return write_triplets("pattern", (pattern.dim, check_clause_type(clause_type)),
                          pattern.coefficients, comments)


def parse_pattern(text: str) -> tuple[ClausePattern, int]:
    """Parse pattern text into (pattern, clause_type)."""
    (dim, clause_type, _), coefficients, _, _ = read_triplets(text, "pattern", 3)
    check_clause_type(clause_type)
    return ClausePattern(dim, coefficients), clause_type
