"""3SAT formulas: the shared text grammar, DIMACS I/O, clause types, generation, MAX-3SAT oracle."""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .rng import generator, mix, require_int

MAX_ENUMERATION_BITS = 25
_CHUNK = 1 << 16
# a token of at most 18 digits fits int64 (10^18 - 1 < 2^63): the bulk reader takes no longer
# one, since np.fromstring saturates where int() would not
_BULK_DIGITS = 18
# the bytes of a canonical body: digits, the minus sign, the space and the newline
_BULK_BYTES = np.zeros(256, dtype=bool)
_BULK_BYTES[list(b"0123456789- \n")] = True


def _unchecked(cls, *values):
    """An instance of a frozen dataclass from field values already known to pass its
    __post_init__ checks, built without running them again."""
    instance = object.__new__(cls)
    for field, value in zip(dataclasses.fields(cls), values):
        object.__setattr__(instance, field.name, value)
    return instance


@dataclass(frozen=True)
class CnfFormula:
    """A 3SAT formula. Each clause is a triple of signed DIMACS literals, in file order:
    3 is x3 and -3 is its negation. clause_arrays is their cached numpy view. Generation
    and the bulk DIMACS reader build formulas valid by construction with _unchecked."""
    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        num_vars = require_int(self.num_vars, "num_vars", 1)
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
        literals = np.array(self.clauses, dtype=np.int64).reshape(-1, 3)
        # a stable sort of each row's negation flags puts the plain literals first and the
        # negated ones last, each group in the clause's own order
        order = np.argsort(literals < 0, axis=1, kind="stable")
        literals = np.take_along_axis(literals, order, axis=1)
        variables, negated = np.abs(literals) - 1, literals < 0
        variables.setflags(write=False)
        negated.setflags(write=False)
        return variables, negated

    @cached_property
    def assembly_plans(self) -> dict:
        """Per pattern dim, the part of a QUBO assembly that depends on the clauses alone;
        transform fills it on first use."""
        return {}


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


def _bulk_body(text: str, header_lineno: int, width: int) -> np.ndarray | None:
    """The body after the header on line header_lineno, as read_lines numbers it, as an
    (m, width) int64 array in one numpy pass, when the body is canonical: what write_lines
    writes, ASCII lines of `width` single-space-separated integers of at most _BULK_DIGITS
    digits with an optional leading minus, each line ending in a newline. None for any
    other spelling, which read_lines' callers then read line by line."""
    end = -1
    for _ in range(header_lineno):
        end = text.find("\n", end + 1)
        if end < 0:
            return None
    # every line break of the head a newline: then its lines number as read_lines numbers them
    if len(text[:end + 1].splitlines()) != header_lineno:
        return None
    body = text[end + 1:]
    if not body.isascii():
        return None
    data = body.encode("ascii")
    raw = np.frombuffer(data, dtype=np.uint8)
    if not raw.size:
        return np.empty((0, width), dtype=np.int64)
    if raw[-1] != 10 or not _BULK_BYTES[raw].all():
        return None
    ends = np.flatnonzero((raw == 32) | (raw == 10))  # each token ends at one separator
    if ends.size % width or not (raw[ends].reshape(-1, width)
                                 == [32] * (width - 1) + [10]).all():
        return None
    starts = np.r_[0, ends[:-1] + 1]
    negative = raw[starts] == 45
    digits = ends - starts - negative
    # a minus only at the start of a token, which holds 1 to _BULK_DIGITS digits after it
    if (np.count_nonzero(raw == 45) != np.count_nonzero(negative)
            or not ((digits >= 1) & (digits <= _BULK_DIGITS)).all()):
        return None
    return np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, width)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text into a formula of 3-literal clauses. A canonical body (see
    _bulk_body) of valid 'a b c 0' clauses, as many as the header declares, is read in one
    numpy pass; every other text takes the line loop, which raises every error."""
    lines = read_lines(text, "cnf", 2)
    lineno, raw, (num_vars, num_clauses) = next(lines)
    if num_vars < 1 or num_clauses < 0:
        raise ValueError(f"line {lineno}: invalid header counts {raw.strip()!r}")
    body = _bulk_body(text, lineno, 4)
    if body is not None and len(body) == num_clauses:
        variables = np.abs(body[:, :3])
        a, b, c = variables.T
        if (not body[:, 3].any() and (variables >= 1).all() and (a != b).all()
                and (a != c).all() and (b != c).all()
                and int(variables.max(initial=0)) <= num_vars):
            return _unchecked(CnfFormula, num_vars,
                              tuple(zip(*(column.tolist() for column in body[:, :3].T))))
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


def check_clause_type(clause_type: int) -> int:
    """clause_type as a plain int: TypeError unless it is an integer, then ValueError unless
    it is a negation count that classify_clause yields, 0..3."""
    return require_int(clause_type, "clause_type", 0, 3)


def clause_penalty(clause_type: int, bits: Sequence[int]) -> int:
    """Pseudo-Boolean penalty of the canonical clause of a type: -1 if satisfied, 0 if not."""
    check_clause_type(clause_type)
    x, y, z = (int(b) for b in bits)
    if clause_type == 0:
        return -x - y - z + x * y + x * z + y * z - x * y * z
    if clause_type == 1:
        return -1 + z - x * z - y * z + x * y * z
    if clause_type == 2:
        return -1 + y * z - x * y * z
    return -1 + x * y * z


def check_bits(bits: Sequence, width: int, name: str = "bit") -> None:
    """ValueError for a length other than width, then naming the first entry not 0 or 1."""
    if len(bits) != width:
        raise ValueError(f"expected length {width}, got {len(bits)}")
    bad = next((index for index, bit in enumerate(bits) if bit not in (0, 1)), None)
    if bad is not None:
        raise ValueError(f"{name} {bad} is {bits[bad]!r}, expected 0 or 1")


def check_bit_rows(bits_rows, width: int) -> np.ndarray:
    """Rows of a (k, width) 0/1 matrix as an array; ValueError for another shape or for the
    first entry that is not 0 or 1, checked before any cast so that 0.7 is not read as 0."""
    rows = np.asarray(bits_rows)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"expected shape (k, {width}), got {rows.shape}")
    mask = (rows != 0) & (rows != 1)
    if mask.any():  # argwhere alone costs more than the whole check on a clean chunk
        row, column = np.argwhere(mask)[0].tolist()
        raise ValueError(f"row {row} entry {column} is {rows[row].tolist()[column]!r}, "
                         "expected 0 or 1")
    return rows


def count_satisfied(formula: CnfFormula, bits: Sequence[int]) -> int:
    """Number of clauses with at least one true literal under the 0/1 assignment."""
    check_bits(bits, formula.num_vars)
    return sum(any(bool(bits[abs(lit) - 1]) == (lit > 0) for lit in clause)
               for clause in formula.clauses)


def count_satisfied_many(formula: CnfFormula, bits_rows: np.ndarray) -> np.ndarray:
    """Vectorized count_satisfied over rows of a (k, num_vars) 0/1 matrix."""
    return _satisfied_rows(formula, check_bit_rows(bits_rows, formula.num_vars).astype(bool))


def _satisfied_rows(formula: CnfFormula, rows: np.ndarray) -> np.ndarray:
    """count_satisfied_many of rows already known to be a (k, num_vars) bool array."""
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
    picked = np.iinfo(np.int64).max  # above every rank
    for _ in range(num_clauses):
        for _ in range(max_redraws):
            # rank = occurrences * num_vars + a permutation that breaks ties and makes every
            # rank distinct, so each argmin is the unique least rank; overwriting it with the
            # int64 max before the next pick yields the three least-used variables in
            # tie-break order
            rank = rng.permutation(num_vars)
            rank += scaled_occurrences
            chosen = []
            clause = []
            for _ in range(3):
                v = int(rank.argmin())
                rank[v] = picked
                chosen.append(v)
                p = polarity[v]
                if p < 0:
                    neg = False
                elif p > 0:
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
        for v, lit in zip(chosen, clause):
            scaled_occurrences[v] += num_vars
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
    num_vars = require_int(num_vars, "num_vars", 3)
    num_clauses = require_int(num_clauses, "num_clauses", 0)
    distinct = 8 * math.comb(num_vars, 3)  # 3 distinct variables, each in either polarity
    if num_clauses > distinct:
        raise ValueError(f"distinctness unsatisfiable for num_vars={num_vars}, "
                         f"num_clauses={num_clauses}: only {distinct} distinct clauses exist")
    max_restarts = 50
    for restart in range(max_restarts):
        rng = generator(seed if restart == 0 else mix(seed, 0xBA1A, restart))
        clauses = _balanced_attempt(num_vars, num_clauses, rng)
        if clauses is not None:
            # three distinct variables of 1..num_vars per clause, each a plain int
            return _unchecked(CnfFormula, num_vars, clauses)
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
    # enumerated rows are 0/1 by construction; the bit check is a measurable share of a chunk
    best, witness = enumerate_min(formula.num_vars,
                                  lambda rows: -_satisfied_rows(formula, rows.astype(bool)))
    return -best, witness
