"""3SAT formulas: the shared text grammar, DIMACS I/O, clause types, generation, MAX-3SAT oracle."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .rng import generator, mix

MAX_ENUMERATION_BITS = 25
_CHUNK = 1 << 16


@dataclass(frozen=True)
class CnfFormula:
    """A 3SAT formula. Each clause is a triple of signed DIMACS literals, in file order:
    3 is x3 and -3 is its negation. clause_arrays is their cached numpy view."""
    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        num_vars = operator.index(self.num_vars)
        if num_vars < 1:
            raise ValueError("num_vars must be positive")
        clauses = tuple(tuple(map(operator.index, clause)) for clause in self.clauses)
        for clause in clauses:
            if len(clause) != 3:
                raise ValueError(f"a clause needs exactly 3 literals, got {len(clause)}")
            low, middle, high = sorted(map(abs, clause))
            if low == 0:
                raise ValueError(f"0 is not a DIMACS literal: {list(clause)}")
            if high > num_vars:
                raise ValueError(f"variable {high} exceeds declared num_vars={num_vars}")
            if low == middle or middle == high:
                raise ValueError(f"clause variables must be pairwise distinct: {list(clause)}")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @cached_property
    def clause_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (m, 3) arrays of 0-based variable indices and negation flags, in each
        clause's canonical order (see classify_clause): a row's negation count is its type."""
        canonical = [classify_clause(clause) for clause in self.clauses]
        variables = np.array([order for _, order in canonical], dtype=np.int64).reshape(-1, 3) - 1
        negated = np.arange(3) >= 3 - np.array([t for t, _ in canonical], dtype=np.int64)[:, None]
        variables.setflags(write=False)
        negated.setflags(write=False)
        return variables, negated

    @cached_property
    def assembly_plans(self) -> dict:
        """Per pattern dim, the part of a QUBO assembly that depends on the clauses alone;
        transform fills it on first use."""
        return {}


def clause_of(*lits: int) -> tuple[int, ...]:
    """A clause from DIMACS-style signed integers, e.g. clause_of(1, 2, -3); CnfFormula
    validates it."""
    return lits


def read_lines(text: str, kind: str, header_ints: int, comments: list | None = None):
    """Read the line grammar of DIMACS, QUBO and pattern text. Blank lines are skipped, and
    a line starting with c is a comment, appended to `comments` as (line number, fields).
    One 'p <kind> <header_ints integers>' header, whose last integer declares the body's
    size, must come before every other line. Yields (line number, line, header integers),
    then (line number, line, fields) for each body line."""
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        lead = fields[0][0]
        if lead == "c":
            if comments is not None:
                comments.append((lineno, fields))
        elif lead == "p":
            if len(fields) != 2 + header_ints or fields[1] != kind:
                raise ValueError(f"line {lineno}: malformed header {raw.strip()!r}")
            if header is not None:
                raise ValueError(f"line {lineno}: second 'p {kind}' header")
            try:
                header = tuple(map(int, fields[2:]))
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer field in header "
                                 f"{raw.strip()!r}") from None
            yield lineno, raw, header
        elif header is None:
            raise ValueError(f"line {lineno}: entry before 'p {kind}' header")
        else:
            yield lineno, raw, fields
    if header is None:
        raise ValueError(f"missing 'p {kind}' header")


def write_lines(kind: str, header: Sequence[int], lines: Sequence[str],
                comments: Sequence[str] = ()) -> str:
    """The text read_lines reads: 'c' comment lines, then 'p <kind> <header integers>
    <line count>', then the body lines, each ending in a newline. A comment that holds a
    line break is refused: read_lines would read its second line as a body line."""
    for comment in comments:
        if "".join(comment.splitlines()) != comment:
            raise ValueError(f"comment {comment!r} holds a line break")
    head = "".join(f"c {comment}\n" for comment in comments)
    return f"{head}{' '.join(['p', kind, *map(str, header), str(len(lines))])}\n{''.join(lines)}"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text into a formula of 3-literal clauses."""
    lines = read_lines(text, "cnf", 2)
    lineno, raw, (num_vars, num_clauses) = next(lines)
    if num_vars < 1 or num_clauses < 0:
        raise ValueError(f"line {lineno}: invalid header counts {raw.strip()!r}")
    tokens: list[int] = []
    for lineno, _, fields in lines:
        try:
            tokens.extend(map(int, fields))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer clause token") from None
    clauses = []
    start = 0
    for end in [index for index, tok in enumerate(tokens) if tok == 0]:
        if end - start != 3:
            raise ValueError(f"clause {len(clauses) + 1} has {end - start} literals, expected 3")
        clauses.append(tuple(tokens[start:end]))
        start = end + 1
    formula = CnfFormula(num_vars, tuple(clauses))
    if start != len(tokens):
        raise ValueError("unterminated clause (missing trailing 0)")
    if len(clauses) != num_clauses:
        raise ValueError(f"header declares {num_clauses} clauses but {len(clauses)} were read")
    return formula


def write_dimacs(formula: CnfFormula, comments: Sequence[str] = ()) -> str:
    """Serialize a formula to DIMACS CNF; parse_dimacs(write_dimacs(f)) == f."""
    return write_lines("cnf", (formula.num_vars,),
                       ["{} {} {} 0\n".format(*clause) for clause in formula.clauses], comments)


def classify_clause(clause: tuple[int, int, int]) -> tuple[int, tuple[int, int, int]]:
    """Clause type (number of negations) and canonical variable order.

    Non-negated variables come first, negated ones last, each group keeping
    the clause's own literal order. Pattern tables are written for clauses in
    this canonical shape.
    """
    plain = [lit for lit in clause if lit > 0]
    negated = [-lit for lit in clause if lit < 0]
    return len(negated), tuple(plain + negated)


def clause_penalty(clause_type: int, bits: Sequence[int]) -> int:
    """Pseudo-Boolean penalty of the canonical clause of a type: -1 if satisfied, 0 if not."""
    if clause_type not in (0, 1, 2, 3):
        raise ValueError(f"clause type must be 0..3, got {clause_type}")
    x, y, z = (int(b) for b in bits)
    if clause_type == 0:
        return -x - y - z + x * y + x * z + y * z - x * y * z
    if clause_type == 1:
        return -1 + z - x * z - y * z + x * y * z
    if clause_type == 2:
        return -1 + y * z - x * y * z
    return -1 + x * y * z


def count_satisfied(formula: CnfFormula, bits: Sequence[int]) -> int:
    """Number of clauses with at least one true literal under the assignment."""
    if len(bits) != formula.num_vars:
        raise ValueError(f"assignment length {len(bits)} != num_vars {formula.num_vars}")
    return sum(any(bool(bits[abs(lit) - 1]) == (lit > 0) for lit in clause)
               for clause in formula.clauses)


def count_satisfied_many(formula: CnfFormula, bits_rows: np.ndarray) -> np.ndarray:
    """Vectorized count_satisfied over rows of a (k, num_vars) 0/1 matrix."""
    rows = np.asarray(bits_rows, dtype=bool)
    if rows.ndim != 2 or rows.shape[1] != formula.num_vars:
        raise ValueError(f"expected shape (k, {formula.num_vars}), got {rows.shape}")
    variables, negated = formula.clause_arrays
    truth = rows[:, variables] ^ negated[None, :, :]
    return truth.any(axis=2).sum(axis=1).astype(np.int64)


def _balanced_attempt(num_vars: int, num_clauses: int,
                      rng: np.random.Generator) -> tuple[tuple[int, int, int], ...] | None:
    """One greedy construction, or None when a clause is forced to repeat an earlier one."""
    scaled_occurrences = np.zeros(num_vars, dtype=np.int64)  # occurrences * num_vars
    polarity = [0] * num_vars  # positive minus negative occurrences
    seen: set[tuple[int, ...]] = set()
    clauses: list[tuple[int, ...]] = []
    max_redraws = 200
    for _ in range(num_clauses):
        for _ in range(max_redraws):
            # rank = occurrences * num_vars + a permutation that breaks ties and makes every
            # rank distinct: the three least ranks, in rank order, are the three least-used
            # variables in tie-break order
            rank = rng.permutation(num_vars)
            rank += scaled_occurrences
            least = rank.argpartition(2)[:3]
            chosen = least[rank[least].argsort()].tolist()
            clause = []
            for v in chosen:
                if polarity[v] < 0:
                    neg = False
                elif polarity[v] > 0:
                    neg = True
                else:
                    neg = bool(rng.integers(0, 2))
                clause.append(-v - 1 if neg else v + 1)
            key = tuple(sorted(clause))
            if key not in seen:
                break
        else:
            return None
        seen.add(key)
        scaled_occurrences[chosen] += num_vars
        for v, lit in zip(chosen, clause):
            polarity[v] += 1 if lit > 0 else -1
        clauses.append(tuple(clause))
    return tuple(clauses)


def generate_balanced(num_vars: int, num_clauses: int, seed: int) -> CnfFormula:
    """Random 3SAT instance with balanced variable occurrences and polarities.

    Greedy construction: each clause takes the three least-used distinct
    variables (seeded tie-break), each literal takes its variable's currently
    rarer polarity (seeded tie-break), and clauses duplicating an earlier
    variable set with identical polarities are redrawn. Occurrence counts
    stay within a spread of 1 across variables, as do per-variable polarity
    counts. A clause can become fully forced (no ties left to redraw); when
    that forced clause is a duplicate, the whole construction restarts with a
    re-derived seed, keeping the result a pure function of (n, m, seed).
    """
    if num_vars < 3:
        raise ValueError(f"balanced generation needs num_vars >= 3, got {num_vars}")
    if num_clauses < 0:
        raise ValueError("num_clauses must be non-negative")
    max_restarts = 50
    for restart in range(max_restarts):
        rng = generator(seed if restart == 0 else mix(seed, 0xBA1A, restart))
        clauses = _balanced_attempt(num_vars, num_clauses, rng)
        if clauses is not None:
            return CnfFormula(num_vars, clauses)
    raise ValueError(
        f"balance or distinctness unsatisfiable for num_vars={num_vars}, "
        f"num_clauses={num_clauses} (gave up after {max_restarts} restarts)"
    )


def enumerate_rows(radix: int, width: int):
    """Every row of `width` base-`radix` digits in ascending order, the first digit most
    significant, as (k, width) int64 blocks of at most _CHUNK rows. A block is one prefix
    over every suffix of the longest width that fits; the suffix table is built once."""
    low = next(w for w in range(width, -1, -1) if radix ** w <= _CHUNK)
    place = radix ** np.arange(low - 1, -1, -1, dtype=np.int64)
    suffixes = np.arange(radix ** low, dtype=np.int64)[:, None] // place % radix
    for prefix in product(range(radix), repeat=width - low):
        block = np.empty((len(suffixes), width), dtype=np.int64)
        block[:, :width - low] = prefix
        block[:, width - low:] = suffixes
        yield block


def enumerate_min(num_bits: int, values_of) -> tuple[int, tuple[int, ...]]:
    """Minimum of values_of over all 2^num_bits 0/1 vectors, in chunks.

    values_of maps a (k, num_bits) int64 block of consecutive assignments, variable 1 the
    least-significant bit, to their k values. The witness is the lowest-value assignment
    attaining the minimum. More than MAX_ENUMERATION_BITS bits raise ValueError.
    """
    if num_bits > MAX_ENUMERATION_BITS:
        raise ValueError(f"enumeration limited to {MAX_ENUMERATION_BITS} bits, got {num_bits}")
    best_value = witness = None
    for digits in enumerate_rows(2, num_bits):
        rows = digits[:, ::-1]
        values = values_of(rows)
        chunk_index = int(np.argmin(values))
        if best_value is None or values[chunk_index] < best_value:
            best_value = int(values[chunk_index])
            witness = tuple(rows[chunk_index].tolist())
    return best_value, witness


def brute_force_maxsat(formula: CnfFormula) -> tuple[int, tuple[int, ...]]:
    """Exact MAX-3SAT by enumeration; the witness is the lowest-value optimum in
    enumerate_min's order."""
    best, witness = enumerate_min(formula.num_vars,
                                  lambda rows: -count_satisfied_many(formula, rows))
    return -best, witness
