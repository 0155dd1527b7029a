"""Sparse upper-triangular QUBO matrices: energies, exact minimization, pruning, text I/O."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .formula import (_bulk_body, _unchecked, check_bit_rows, check_bits, enumerate_min,
                      read_lines, write_lines)
from .rng import generator, require_int

# int64 energies and flip deltas stay exact while sum |c| < 2^62
EXACT_INT64_BOUND = 1 << 62
# the largest matrix dim whose entry keys i * dim + j, with i, j < dim, fit in int64
MAX_KEYED_DIM = math.isqrt(1 << 63)
# the removal orders of _removal_order, which the CLI offers and the pruning sweep runs
PRUNING_STRATEGIES = ("min", "random")

Entries = dict[tuple[int, int], int]


def check_keyed_dim(dim: int) -> None:
    """ValueError for a matrix dim above MAX_KEYED_DIM, checked before anything is sized by it."""
    if dim > MAX_KEYED_DIM:
        raise ValueError(f"matrix dim {dim} exceeds {MAX_KEYED_DIM}, past which int64 "
                         "entry keys i * dim + j could wrap")


@dataclass(frozen=True)
class QuboMatrix:
    """x^T Q x with integer coefficients stored as {(i, j): c} for i <= j. Assembly,
    pruning and the bulk QUBO reader build matrices valid by construction with
    formula._unchecked, which skips the per-entry checks below."""

    dim: int
    entries: Entries

    def __post_init__(self):
        dim, index = require_int(self.dim, "dim", 1), operator.index  # a float key raises TypeError
        checked: Entries = {}
        for key, value in self.entries.items():
            i, j = key
            # a plain tuple of two exact ints is kept as given, so matrices built over one
            # set of key tuples (an assembly plan's, a pruned source's) share them
            if not (type(key) is tuple and type(i) is int and type(j) is int):
                i, j = index(i), index(j)
                key = i, j
            value = index(value)
            if not 0 <= i <= j < dim:
                raise ValueError(f"entry {(i, j)} outside upper triangle of dim {dim}")
            if not value:
                raise ValueError(f"entry {(i, j)} stores a zero coefficient")
            checked[key] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", checked)

    def diag_coupling(self) -> "CompiledQubo":
        """The compiled form that every vectorized energy and solver path uses.

        Built fresh on each call: a copy cached on the matrix would stay
        alive with every matrix a caller keeps. Raises ValueError before any
        allocation for a dim above MAX_KEYED_DIM, or when the coefficient
        magnitudes sum to 2^62 or more, past which int64 energies could wrap.
        """
        check_keyed_dim(self.dim)
        total = sum(map(abs, self.entries.values()))
        if total >= EXACT_INT64_BOUND:
            raise ValueError(f"coefficient magnitudes sum to {total}, at or above 2^62; "
                             "int64 energies would not be exact")
        count = len(self.entries)
        pairs = np.fromiter(chain.from_iterable(self.entries), dtype=np.int64,
                            count=2 * count).reshape(count, 2)
        values = np.fromiter(self.entries.values(), dtype=np.int64, count=count)
        i, j = pairs[:, 0], pairs[:, 1]
        on_diag = i == j
        diag = np.zeros(self.dim, dtype=np.int64)
        diag[i[on_diag]] = values[on_diag]
        off = ~on_diag
        row = np.concatenate([i[off], j[off]])
        col = np.concatenate([j[off], i[off]])
        weight = np.concatenate([values[off], values[off]])
        # one composite key sorts by (row, col) several times faster than lexsort
        order = np.argsort(row * self.dim + col)
        row, col, weight = row[order], col[order], weight[order]
        degree = np.bincount(row, minlength=self.dim)
        slot = np.arange(row.size) - (np.cumsum(degree) - degree)[row]
        # every row gets at least one slot; padding points at the row's own bit with weight 0:
        # a bit's field never depends on itself, so padded slots are inert in every update
        slots = np.maximum(degree, 1)
        width = int(slots.max())
        idx = np.repeat(np.arange(self.dim)[:, None], width, axis=1)
        weights = np.zeros(idx.shape, dtype=np.int64)
        idx[row, slot] = col
        weights[row, slot] = weight
        narrow = int(np.partition(slots, self.dim // 2)[self.dim // 2])
        return CompiledQubo(diag, idx, weights, slots, width if 2 * narrow > width else narrow)


class CompiledQubo(NamedTuple):
    """Diagonal plus padded symmetric neighbour lists of a QuboMatrix.

    Row i of idx/weight holds bit i's off-diagonal neighbours, ascending, and their
    coefficients in its first slots[i] = max(degree, 1) slots; the rest point at i itself
    with weight 0. gains and tabu's neighbour update read the first `narrow` slots of
    every row, and the rest only of rows with slots > narrow: narrow is the median row's
    slots, or the full width when that is more than half of it, so on mostly short rows
    the padding of the long ones is skipped. All arrays are int64.
    """

    diag: np.ndarray
    idx: np.ndarray
    weight: np.ndarray
    slots: np.ndarray
    narrow: int

    def gains(self, rows: np.ndarray) -> np.ndarray:
        """Energy change from flipping each bit in each row of a (k, dim) matrix.

        That is (1 - 2 x_i) times bit i's local field diag_i + sum_j c_ij x_j. The fields
        are summed bit-major, on a contiguous (dim, k) transpose of the rows, with one row
        gather per slot: over the first `narrow` slots for every bit, and over the rest
        for the wide bits only, whose fields are gathered and scattered back once.
        """
        columns = np.ascontiguousarray(rows.T)
        fields = np.repeat(self.diag[:, None], len(rows), axis=1)
        for s in range(self.narrow):
            fields += columns.take(self.idx[:, s], axis=0) * self.weight[:, s, None]
        wide = np.flatnonzero(self.slots > self.narrow)
        if len(wide):
            wide_fields = fields[wide]
            wide_idx, wide_weight = self.idx[wide, self.narrow:], self.weight[wide, self.narrow:]
            for s in range(wide_idx.shape[1]):
                wide_fields += columns.take(wide_idx[:, s], axis=0) * wide_weight[:, s, None]
            fields[wide] = wide_fields
        return (1 - 2 * rows) * fields.T

    def energies(self, rows: np.ndarray, gains: np.ndarray | None = None) -> np.ndarray:
        """Energy of each row; pass the rows' flip gains when they are already at hand."""
        if gains is None:
            gains = self.gains(rows)
        # a set bit's gain is minus its field, and sum_i x_i (diag_i + field_i) counts
        # the diagonal and every coupling twice
        return (rows * (self.diag - gains)).sum(axis=1) // 2

    def colour_classes(self) -> list[np.ndarray]:
        """Greedy colouring of the interaction graph in index order, as ascending bit arrays.

        Each bit takes the smallest colour that no lower-index neighbour has, so no
        coupling joins two bits of one class.
        """
        colours: list[int] = []
        for i, (row, slots) in enumerate(zip(self.idx.tolist(), self.slots.tolist())):
            taken = {colours[j] for j in row[:slots] if j < i}
            colour = 0
            while colour in taken:
                colour += 1
            colours.append(colour)
        colour_of = np.asarray(colours, dtype=np.int64)
        return [np.flatnonzero(colour_of == c) for c in range(int(colour_of.max()) + 1)]


@dataclass(frozen=True)
class VariableLayout:
    """Variable semantics of a matrix: n problem bits then one aux bit per owning clause."""

    num_problem_vars: int
    aux_owners: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "num_problem_vars",
                           require_int(self.num_problem_vars, "num_problem_vars", 0))
        object.__setattr__(self, "aux_owners", tuple(map(operator.index, self.aux_owners)))

    @property
    def dim(self) -> int:
        return self.num_problem_vars + len(self.aux_owners)


@dataclass(frozen=True)
class PruneStage:
    stage: int
    matrix: QuboMatrix
    removed_cumulative: int


def energy(q: QuboMatrix, bits: Sequence[int]) -> int:
    """Exact integer energy sum(Q_ii x_i) + sum(Q_ij x_i x_j)."""
    check_bits(bits, q.dim)
    x = [int(b) for b in bits]
    total = 0
    for (i, j), value in q.entries.items():
        if i == j:
            total += value * x[i]
        else:
            total += value * x[i] * x[j]
    return total


def energy_many(q: QuboMatrix, bits_rows: np.ndarray) -> np.ndarray:
    """Vectorized energy over rows of a (k, dim) 0/1 matrix."""
    return q.diag_coupling().energies(check_bit_rows(bits_rows, q.dim).astype(np.int64))


def _compile_for_layout(q: QuboMatrix, layout: VariableLayout) -> CompiledQubo:
    """Compiled form of a matrix whose aux bits couple only to problem bits."""
    if layout.dim != q.dim:
        raise ValueError(f"layout dim {layout.dim} != matrix dim {q.dim}")
    compiled = q.diag_coupling()
    n = layout.num_problem_vars
    if (compiled.idx[n:][compiled.weight[n:] != 0] >= n).any():
        raise ValueError("aux-aux couplings present; aux bits cannot be minimized out "
                         "one at a time")
    return compiled


def _min_aux_energies(compiled: CompiledQubo, rows: np.ndarray) -> np.ndarray:
    """Problem energy of each (k, n) row plus min(0, field) of every aux bit."""
    n = rows.shape[1]
    full = np.zeros((len(rows), len(compiled.diag)), dtype=np.int64)
    full[:, :n] = rows
    gains = compiled.gains(full)
    # the aux bits are 0 here, so their gains are their fields
    return compiled.energies(full, gains) + np.minimum(gains[:, n:], 0).sum(axis=1)


def energy_min_aux_many(q: QuboMatrix, layout: VariableLayout, bits_rows: np.ndarray) -> np.ndarray:
    """Energies of rows of a (k, n) 0/1 matrix of problem assignments, aux bits minimized out.

    Each aux bit contributes min(0, field), its diagonal plus its couplings
    into the fixed assignment. Matrices with aux-aux couplings are rejected.
    """
    rows = check_bit_rows(bits_rows, layout.num_problem_vars).astype(np.int64)
    return _min_aux_energies(_compile_for_layout(q, layout), rows)


def energy_min_aux(q: QuboMatrix, layout: VariableLayout, assignment: Sequence[int]) -> int:
    """Energy of one problem assignment with auxiliary bits minimized out."""
    return int(energy_min_aux_many(q, layout, [assignment])[0])


def minimize_with_aux(q: QuboMatrix, layout: VariableLayout) -> tuple[int, tuple[int, ...]]:
    """Exact minimum over problem assignments with aux bits minimized out.

    Enumerates the 2^n problem assignments only, so it stays exact for
    matrices whose full dimension is far beyond brute_force_min's reach.
    The witness is the lowest-value optimum in enumerate_min's order.
    """
    compiled = _compile_for_layout(q, layout)
    return enumerate_min(layout.num_problem_vars, lambda rows: _min_aux_energies(compiled, rows))


def brute_force_min(q: QuboMatrix) -> tuple[int, tuple[int, ...]]:
    """Exact global minimum over all 2^dim bit vectors; lowest-value witness."""
    return enumerate_min(q.dim, q.diag_coupling().energies)


def nnz_offdiag(q: QuboMatrix) -> int:
    """Number of stored strictly off-diagonal coefficients."""
    return sum(1 for (i, j) in q.entries if i < j)


def _removal_order(q: QuboMatrix, strategy: str, seed: int = 0) -> list[tuple[int, int]]:
    """Off-diagonal keys in removal order: "min" takes the smallest signed coefficient
    first, then the lowest index; "random" a seeded uniform order. Both check the seed."""
    require_int(seed, "seed")
    keys = sorted(key for key in q.entries if key[0] < key[1])
    if strategy == "min":
        return sorted(keys, key=q.entries.__getitem__)  # stable: index order breaks ties
    if strategy == "random":
        return [keys[i] for i in generator(seed).permutation(len(keys))]
    raise ValueError(f"unknown pruning strategy {strategy!r}")


def _remove(q: QuboMatrix, keys) -> QuboMatrix:
    entries = dict(q.entries)
    for key in keys:
        del entries[key]
    # what is left of valid entries is valid; the copy is sized for it, where the trimmed
    # dict keeps the table of every entry it started with
    return _unchecked(QuboMatrix, q.dim, dict(entries))


def _prune(q: QuboMatrix, strategy: str, count: int, seed: int = 0) -> QuboMatrix:
    order = _removal_order(q, strategy, seed)
    return _remove(q, order[:require_int(count, "count", 0, len(order))])


def prune_min(q: QuboMatrix, count: int) -> QuboMatrix:
    """Copy of q without its `count` smallest (signed) off-diagonal coefficients."""
    return _prune(q, "min", count)


def prune_random(q: QuboMatrix, count: int, seed: int) -> QuboMatrix:
    """Copy of q without `count` seeded-uniformly chosen off-diagonal coefficients."""
    return _prune(q, "random", count, seed)


def _stage(q: QuboMatrix, order: list[tuple[int, int]], k: int) -> PruneStage:
    """Stage k of 0..10: q without the first round(k * N / 10) keys of its N-key removal
    order, halves rounding up, so stage 10 strips the off-diagonal completely."""
    target = (2 * k * len(order) + 10) // 20
    return PruneStage(stage=k, matrix=_remove(q, order[:target]), removed_cumulative=target)


def pruning_schedule(q: QuboMatrix, strategy: str, seed: int = 0) -> list[PruneStage]:
    """Eleven pruning stages removing 0%, 10%, ..., 100% of off-diagonal entries, all from
    one removal order."""
    order = _removal_order(q, strategy, seed)
    return [_stage(q, order, k) for k in range(11)]


def pruning_stage(q: QuboMatrix, strategy: str, stage: int, seed: int = 0) -> PruneStage:
    """pruning_schedule(q, strategy, seed)[stage], built alone; stage must lie in 0..10."""
    stage = require_int(stage, "stage", 0, 10)
    return _stage(q, _removal_order(q, strategy, seed), stage)


def write_qubo(q: QuboMatrix, layout: VariableLayout | None = None,
               comments: Sequence[str] = ()) -> str:
    """Serialize a matrix to the QUBO text format; a layout's aux bits become comments. A
    free comment may not start with the word aux, which marks those."""
    for comment in comments:
        if comment.split()[:1] == ["aux"]:
            raise ValueError(f"comment {comment!r} starts with 'aux', which marks a layout line")
    if layout is not None:
        if layout.dim != q.dim:
            raise ValueError(f"layout dim {layout.dim} != matrix dim {q.dim}")
        comments = [*comments, *(f"aux {layout.num_problem_vars + offset} clause {owner}"
                                 for offset, owner in enumerate(layout.aux_owners))]
    return write_triplets("qubo", (q.dim,), q.entries, comments)


def read_triplets(text, kind: str, header_ints: int):
    """Read QUBO or pattern text: 'i j coeff' lines under a read_lines header that declares
    their count, whose first integer is the dim. Returns (header integers, entries,
    comments as (line number, fields), upper), where upper says that every entry is known
    to lie in the upper triangle of that dim with a nonzero coefficient, and the dim to be
    positive.

    A canonical body (see formula._bulk_body) of distinct keys, as many as the header
    declares, is read in one numpy pass; every other text takes the line loop, which raises
    every error and reports upper False."""
    comments: list[tuple[int, list[str]]] = []
    lines = read_lines(text, kind, header_ints, comments)
    lineno, _, header = next(lines)
    body = _bulk_body(text, lineno, 3)
    if body is not None and len(body) == header[-1]:
        i, j, value = body.T
        upper = (header[0] > int(j.max(initial=0))
                 and bool(((0 <= i) & (i <= j) & (value != 0)).all()))
        i, j, value = (column.tolist() for column in body.T)
        del body
        entries = dict(zip(zip(i, j), value))
        if len(entries) == len(value):  # else a key repeats, which the line loop reports
            return header, entries, comments, upper
    entries: Entries = {}
    for lineno, raw, fields in lines:
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'i j coeff', got {raw.strip()!r}")
        try:
            i, j, value = map(int, fields)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {' '.join(fields)!r}") from None
        if (i, j) in entries:
            raise ValueError(f"line {lineno}: duplicate entry ({i}, {j})")
        entries[(i, j)] = value
    if len(entries) != header[-1]:
        raise ValueError(f"header declares {header[-1]} entries but {len(entries)} were read")
    return header, entries, comments, False


def write_triplets(kind: str, header: Sequence[int], entries: Entries,
                   comments: Sequence[str] = ()) -> str:
    """Write the text read_triplets reads, entries in key order."""
    return write_lines(kind, header, [f"{i} {j} {entries[i, j]}\n" for i, j in sorted(entries)],
                       comments)


def parse_qubo(text: str) -> tuple[QuboMatrix, VariableLayout]:
    """Parse QUBO text and its layout, where bits without an aux comment are problem bits.
    A comment whose first word is aux must read 'c aux <index> clause <owner>'."""
    (dim, _), entries, comments, upper = read_triplets(text, "qubo", 2)
    aux: dict[int, int] = {}
    for lineno, fields in comments:
        if (fields[0][1:] or "".join(fields[1:2])) == "aux":  # the first word after the c
            line = " ".join(fields)
            if len(fields) != 5 or fields[:2] != ["c", "aux"] or fields[3] != "clause":
                raise ValueError(f"line {lineno}: malformed aux comment {line!r}")
            try:
                index, owner = map(int, fields[2::2])
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer field in "
                                 f"{' '.join(fields[2::2])!r}") from None
            if index in aux:
                raise ValueError(f"line {lineno}: repeated aux index {index}")
            aux[index] = owner
    matrix = _unchecked(QuboMatrix, dim, entries) if upper else QuboMatrix(dim, entries)
    indices = sorted(aux)
    n = dim - len(indices)
    if indices != list(range(n, dim)):
        raise ValueError(f"aux indices {indices} are not the trailing block of dim {dim}")
    return matrix, VariableLayout(n, tuple(aux[i] for i in indices))
