"""Classical QUBO samplers: exact brute force, tabu search, simulated annealing, random guessing.

All samplers are seed-deterministic. Multi-sample calls advance every sample
in vectorized lockstep; each sample's trajectory depends only on its own
derived seed, so results are identical to running the samples one at a time.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formula import CnfFormula, count_satisfied_many
from .qubo import CompiledQubo, QuboMatrix, brute_force_min
from .rng import generator, mix

# the most seeds one call derives (SolverConfig.samples, gen --count): a seeded generator
# holds ~1 KB, so an accepted call's generators stay under ~100 MB
MAX_SEEDS = 100_000
# the SolverConfig option fields each solver kind reads; the CLI and experiments defer to it
SOLVER_OPTIONS = {
    "brute": (),
    "tabu": ("iteration_limit", "tabu_tenure", "time_limit_ms"),
    "sa": ("sa_sweeps", "sa_beta_start", "sa_beta_end", "time_limit_ms"),
    "random": (),
}
SOLVER_KINDS = tuple(SOLVER_OPTIONS)
_OPTION_FIELDS = tuple(dict.fromkeys(name for names in SOLVER_OPTIONS.values() for name in names))
# what an SA config leaves out; every other kind must leave these fields None
_SA_DEFAULTS = {"sa_sweeps": 1000, "sa_beta_start": 0.1, "sa_beta_end": 10.0}
# SolverConfig's integer fields in check order, their (least, greatest) bounds (None: unbounded)
_INTEGER_BOUNDS = {"samples": (1, MAX_SEEDS), "seed": (None, None), "iteration_limit": (0, None),
                   "time_limit_ms": (1, None), "tabu_tenure": (1, None), "sa_sweeps": (0, None)}

_BIG = np.int64(1) << 62
# the fewest entries a tabu flip log starts with: a fold, a dozen numpy calls, then comes
# at most once per _LOG_ROWS / 2 iterations
_LOG_ROWS = 256
# the uniforms an SA block holds when dim·k is smaller: a numpy call per sweep and sample
# is then paid once per block
_SA_BLOCK = 1 << 16


def require_integers(obj, bounds: dict[str, tuple[int | None, int | None]]) -> None:
    """TypeError unless each named attribute is an integer (a bool is not), then ValueError
    unless it lies in its (least, greatest) bounds (None: unbounded), in the table's order."""
    for name, (least, greatest) in bounds.items():
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
        if greatest is not None and value > greatest:
            raise ValueError(f"{name} must be <= {greatest}, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    kind: str
    samples: int = 1
    seed: int = 0
    iteration_limit: int | None = None
    time_limit_ms: int | None = None
    tabu_tenure: int | None = None
    sa_beta_start: float | None = None
    sa_beta_end: float | None = None
    sa_sweeps: int | None = None

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}, expected one of {SOLVER_KINDS}")
        if self.kind == "sa":
            for name, default in _SA_DEFAULTS.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
        require_integers(self, {name: bounds for name, bounds in _INTEGER_BOUNDS.items()
                                if name not in _OPTION_FIELDS or getattr(self, name) is not None})
        for name in ("sa_beta_start", "sa_beta_end"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ValueError(f"{name} is beyond the float range, got {value!r}") from None
        ignored = [name for name in _OPTION_FIELDS if name not in SOLVER_OPTIONS[self.kind]
                   and getattr(self, name) is not None]
        if ignored:
            raise ValueError(f"solver {self.kind} ignores {' '.join(ignored)}")
        # an infinite beta, or a ratio end / start that overflows to one in the schedule,
        # turns the accept test's -beta * 0 into NaN
        if self.kind == "sa" and not (0 < self.sa_beta_start < self.sa_beta_end < math.inf
                                      and self.sa_beta_end / self.sa_beta_start < math.inf):
            raise ValueError("need 0 < sa_beta_start < sa_beta_end < inf and a finite "
                             "sa_beta_end / sa_beta_start")


@dataclass(frozen=True)
class SolveResult:
    bits: tuple[int, ...]
    energy: int
    run_index: int
    seed_used: int


def _initial_states(compiled: CompiledQubo, seeds: Sequence[int]):
    """Seeded random rows with their flip gains D and energies E."""
    gens = [generator(s) for s in seeds]
    X = np.stack([g.integers(0, 2, size=len(compiled.diag), dtype=np.int64) for g in gens])
    D = compiled.gains(X)
    return gens, X, D, compiled.energies(X, D)


def _narrow_width(compiled: CompiledQubo) -> int:
    """The neighbour slots tabu updates for every flip: the median row's slot count
    max(degree, 1), or the full width when that is more than half of it. Rows of bits with
    more neighbours update their remaining slots in a second pass."""
    width = compiled.idx.shape[1]
    slots = np.maximum(compiled.degree, 1)
    narrow = int(np.partition(slots, len(slots) // 2)[len(slots) // 2])
    return width if 2 * narrow > width else narrow


def _batch_tabu(compiled: CompiledQubo, seeds: Sequence[int], config: SolverConfig):
    """Lockstep best-improvement tabu search over one row per seed.

    Each iteration flips a row's best non-tabu bit, lowest index on ties; a tabu bit may
    still flip if it strictly improves the row's incumbent best (aspiration), and a row
    whose every bit is tabu ignores the list. A bit is tabu for `tenure` iterations after
    its latest flip. The flip gains D = S·G, S = 1 - 2X, are carried: a flip negates its
    bit's gain and updates its neighbours'. The update reads the first _narrow_width
    slots of every row's neighbour list, and the rest only in the rows whose flipped bit
    has more neighbours, so on mostly short rows it skips the padding of the long ones.

    A tabu bit's cell of D holds its gain plus _BIG = 2^62 for as long as it is tabu, so
    one (k, dim) argmin finds every row's best free bit, or its best bit when all are tabu.
    CompiledQubo refuses sum |c| >= 2^62, so no gain plus _BIG wraps, and two gains of one
    row differ by at most sum |c|: each coefficient but their shared coupling feeds only
    one of them, and that coupling moves their difference by at most its |c|. A masked
    cell thus reads strictly above every free one. `latest` holds the iteration of each
    cell's latest flip, the one record of renewals: each iteration a flip masks one cell
    per row (a renewed cell, flipped again while tabu, is unmasked first), and the flip
    `tenure` iterations back unmasks its cell only if that flip is still the cell's
    latest, O(k) each. That test runs only if some renewal came within the last `tenure`
    iterations; otherwise every expiring flip is still its cell's latest.

    Each row carries slack = best energy - E + _BIG: aspiration compares the tabu cells
    of D against it, a row improves on its best when it exceeds _BIG, and the best energy
    returned is E + slack - _BIG.

    A log holds each iteration's flipped cells. Its last min(iteration, tenure) entries
    are the tabu window, which the aspiration test gathers, O(k·min(tenure, iterations))
    per iteration. An iteration records only each row's best energy and its flip count
    there; the best rows are rebuilt once at the end, from the final state with each
    row's later flips undone. A full log of 2·tenure or more entries folds: the best rows
    it reaches back to are rebuilt and stored, and only its tabu window is kept. A
    shorter one doubles. The log starts at max(_LOG_ROWS, 2·min(tenure, dim)) entries, or
    the iteration limit if lower, so a run with tenure <= dim holds a fixed
    O(k·max(_LOG_ROWS, tenure)) however long it runs.
    """
    start, time_limit_ms = time.perf_counter(), config.time_limit_ms
    dim = len(compiled.diag)
    iteration_limit = config.iteration_limit
    if iteration_limit is None and time_limit_ms is None:
        iteration_limit = 10_000 * dim
    tenure = config.tabu_tenure or max(10, dim // 10)
    _, X, D, E = _initial_states(compiled, seeds)
    S = 1 - 2 * X
    # slack = best energy - E + _BIG; best_S is filled by _rebuild_best
    slack, best_S = np.full_like(E, _BIG), np.empty_like(S)
    # flat views: one flat index per cell is cheaper than a (row, column) pair
    flat_S, flat_D = S.reshape(-1), D.reshape(-1)
    row_start = np.arange(len(seeds)) * dim
    # every row updates its first `narrow` neighbour slots, and a row that flipped a bit
    # with more neighbours the rest; contiguous copies, as take() on a column slice is slow
    narrow = _narrow_width(compiled)
    narrow_idx = np.ascontiguousarray(compiled.idx[:, :narrow])
    narrow_weight = np.ascontiguousarray(compiled.weight[:, :narrow])
    rest_idx = np.ascontiguousarray(compiled.idx[:, narrow:])
    rest_weight = np.ascontiguousarray(compiled.weight[:, narrow:])
    offsets = np.repeat(row_start[:, None], narrow, axis=1)
    wide = compiled.degree > narrow
    # log[j - base] holds the cells flipped at iteration j; best_at[r] counts the flips
    # row r had made when it reached its best energy
    size = max(_LOG_ROWS, 2 * min(tenure, dim))
    if iteration_limit is not None:
        size = min(size, iteration_limit)
    log = np.empty((size, len(seeds)), dtype=np.int64)
    base = 0
    best_at = np.zeros(len(seeds), dtype=np.int64)
    latest = np.full(D.size, -1, dtype=np.int64)  # the iteration of each cell's latest flip
    renewed_at = -1  # the latest iteration that renewed a tabu cell
    iteration = 0
    while iteration_limit is None or iteration < iteration_limit:
        if time_limit_ms is not None and (time.perf_counter() - start) * 1000 >= time_limit_ms:
            break
        end = iteration - base
        if end == len(log):
            if 2 * tenure <= end:
                # fold: store the best rows the log reaches back to, keep its tabu window
                _rebuild_best(best_S, S, log, base, best_at)
                log[:tenure] = log[end - tenure:]
                base, end = iteration - tenure, tenure
            else:
                log = np.concatenate([log, np.empty_like(log)])
        flip = D.argmin(axis=1)
        # every cell flipped in the last `tenure` iterations is tabu; aspiration allows
        # those that beat the incumbent
        tabu = log[end - min(iteration, tenure):end]
        aspiring = flat_D[tabu] < slack
        # only dim or more recent flips can leave a row's every bit, and its argmin, tabu
        may_renew = len(tabu) >= dim
        if np.count_nonzero(aspiring):
            # unmasked, a bit that beats its row's incumbent beats every masked bit, so
            # the argmin takes the row's best allowed bit
            aspiring_cells = tabu[aspiring]
            flat_D[aspiring_cells] -= _BIG
            flip = D.argmin(axis=1)
            flat_D[aspiring_cells] += _BIG
            may_renew = True
        cells = row_start + flip
        if may_renew:
            # a tabu bit flipped again is unmasked here and masked anew by its flip
            renewed = latest[cells] >= max(iteration - tenure, 0)
            if np.count_nonzero(renewed):
                flat_D[cells[renewed]] -= _BIG
                renewed_at = iteration
        gain, sign = flat_D[cells], flat_S[cells]
        flat_S[cells] = -sign
        flat_D[cells] = _BIG - gain
        # neighbour j's gain moves by s_j·s_i·w_ij; padding (own bit, weight 0) adds 0
        nbrs = narrow_idx.take(flip, axis=0)
        nbrs += offsets
        flat_D[nbrs] += flat_S[nbrs] * sign[:, None] * narrow_weight.take(flip, axis=0)
        if rest_idx.shape[1]:
            wide_rows = np.flatnonzero(wide.take(flip))
            if len(wide_rows):
                wide_flip = flip[wide_rows]
                nbrs = row_start[wide_rows, None] + rest_idx.take(wide_flip, axis=0)
                flat_D[nbrs] += (flat_S[nbrs] * sign[wide_rows, None]
                                 * rest_weight.take(wide_flip, axis=0))
        E += gain
        slack -= gain
        latest[cells] = iteration
        if iteration >= tenure:
            expired = log[end - tenure]
            if renewed_at > iteration - tenure:
                # a cell flipped again since the flip `tenure` iterations back stays masked
                expired = expired[latest[expired] == iteration - tenure]
            flat_D[expired] -= _BIG
        log[end] = cells
        improved = slack > _BIG
        iteration += 1
        if np.count_nonzero(improved):
            slack[improved] = _BIG
            best_at[improved] = iteration
    _rebuild_best(best_S, S, log[:iteration - base], base, best_at)
    return E + slack - _BIG, (1 - best_S) // 2


def _rebuild_best(best_S, S, log, base, best_at) -> None:
    """Write into best_S the best row of each row r whose best came at flip best_at[r] >=
    base: S with the flips the log holds from best_at[r] on undone. log[j] holds the
    flat cells of flip base + j, so it must reach S's flip count."""
    rows = best_at >= base
    undone = (np.arange(base, base + len(log))[:, None] >= best_at) & rows
    odd = np.bincount(log[undone], minlength=S.size)
    odd &= 1  # in place: the one (k, dim) temporary
    np.copyto(best_S, S, where=rows[:, None])
    flat, flipped = best_S.reshape(-1), np.flatnonzero(odd)
    flat[flipped] = -flat[flipped]


def _sa_schedule(config: SolverConfig, gens, dim: int):
    """Each sweep's beta and its (dim, k) block of uniforms, bit-major.

    Betas and uniforms are drawn _SA_BLOCK // (dim·k) sweeps at a time (at least one), so a
    call holds at most max(_SA_BLOCK, dim·k) of either, whatever sa_sweeps is. A block's
    g.random((b, dim)) is the stream of b calls of g.random(dim).
    """
    sweeps, beta_start = config.sa_sweeps, config.sa_beta_start
    ratio, last = config.sa_beta_end / beta_start, max(1, sweeps - 1)
    block = max(1, _SA_BLOCK // (dim * len(gens)))
    for first in range(0, sweeps, block):
        count = min(block, sweeps - first)
        betas = beta_start * ratio ** (np.arange(first, first + count) / last)
        uniforms = np.empty((count, dim, len(gens)))
        for r, g in enumerate(gens):
            uniforms[:, :, r] = g.random((count, dim))
        yield from zip(betas, uniforms)


def _batch_sa(compiled: CompiledQubo, seeds: Sequence[int], config: SolverConfig):
    """Lockstep Metropolis annealing on a geometric beta schedule, one colour class at a time.

    A sweep visits the colour classes of compiled.colour_classes() in order. Bits of one
    class share no coupling, so each bit's local field is read from the class-start state,
    and its flip difference and accept decision (u < exp(-beta * max(delta, 0)), u drawn
    per bit per sweep) are made on that state; all accepted flips apply together and the
    best state is tracked after each class.

    The state is bit-major, XT of shape (dim, k): row i holds bit i of every sample, so a
    class reads its bits, neighbours and uniforms with row gathers and writes its flips
    back with one row assignment. Rows are transposed back to (k, dim) only when a best
    state is stored. Betas and uniforms come from _sa_schedule in bounded blocks.
    """
    start, time_limit_ms = time.perf_counter(), config.time_limit_ms
    dim = len(compiled.diag)
    gens, X, _, E = _initial_states(compiled, seeds)
    best_energy, best_bits = E.copy(), X.copy()
    XT = np.ascontiguousarray(X.T)  # a view of X when k = 1, hence the copy above
    # per class, its bits' neighbour lists end to end, split at starts. reduceat reads an
    # empty segment as the next element, so a bit without neighbours keeps its first slot,
    # padding on itself with weight 0.
    slots = np.maximum(compiled.degree, 1)
    classes = []
    for members in compiled.colour_classes():
        kept = np.arange(compiled.idx.shape[1]) < slots[members, None]
        starts = np.cumsum(slots[members]) - slots[members]
        classes.append((members, compiled.diag[members, None], compiled.idx[members][kept],
                        compiled.weight[members][kept][:, None], starts))
    for beta, uniforms in _sa_schedule(config, gens, dim):
        if time_limit_ms is not None and (time.perf_counter() - start) * 1000 >= time_limit_ms:
            break
        for members, diag, nbrs, nbr_weight, starts in classes:
            current = XT.take(members, axis=0)
            fields = diag + np.add.reduceat(XT.take(nbrs, axis=0) * nbr_weight, starts, axis=0)
            delta = (1 - 2 * current) * fields
            # uniforms lie in [0, 1) and a downhill move's threshold is exp(0) = 1
            accepted = uniforms.take(members, axis=0) < np.exp(-beta * np.maximum(delta, 0))
            XT[members] = current ^ accepted
            E += (delta * accepted).sum(axis=0)
            improved = E < best_energy
            if improved.any():
                best_energy[improved] = E[improved]
                best_bits[improved] = XT[:, improved].T
    return best_energy, best_bits


def _results_from_batch(compiled: CompiledQubo, seeds, best_bits,
                        tracked_energy) -> list[SolveResult]:
    """Results with energies recomputed from the compiled matrix; they must equal the
    tracked ones."""
    energies = compiled.energies(best_bits)
    if not np.array_equal(energies, tracked_energy):
        raise RuntimeError(f"tracked best energies {tracked_energy.tolist()} differ from "
                           f"recomputed {energies.tolist()}")
    return [
        SolveResult(bits=tuple(bits), energy=energy, run_index=r, seed_used=seeds[r])
        for r, (bits, energy) in enumerate(zip(best_bits.tolist(), energies.tolist()))
    ]


def _run(q: QuboMatrix, config: SolverConfig, seeds: Sequence[int]) -> list[SolveResult]:
    """One run of the configured sampler per seed; config.samples and config.seed are not read."""
    compiled = q.diag_coupling()
    if config.kind == "brute":
        best_value, witness = brute_force_min(q)
        best_energy, best_bits = np.full(len(seeds), best_value), np.array([witness] * len(seeds))
    elif config.kind == "random":
        _, best_bits, _, best_energy = _initial_states(compiled, seeds)
    else:
        sampler = _batch_tabu if config.kind == "tabu" else _batch_sa
        best_energy, best_bits = sampler(compiled, seeds, config)
    return _results_from_batch(compiled, seeds, best_bits, best_energy)


def tabu_search(q: QuboMatrix, iteration_limit: int, tenure: int, seed: int) -> SolveResult:
    """Single tabu run from a seeded random start; returns the best vector seen."""
    config = SolverConfig(kind="tabu", iteration_limit=iteration_limit, tabu_tenure=tenure)
    return _run(q, config, [seed])[0]


def simulated_annealing(q: QuboMatrix, sweeps: int, beta_start: float, beta_end: float,
                        seed: int) -> SolveResult:
    """Single annealing run; returns the best vector seen."""
    config = SolverConfig(kind="sa", sa_sweeps=sweeps, sa_beta_start=beta_start,
                          sa_beta_end=beta_end)
    return _run(q, config, [seed])[0]


def solve(q: QuboMatrix, config: SolverConfig) -> list[SolveResult]:
    """Run the configured sampler; run r uses the derived seed mix(config.seed, r)."""
    return _run(q, config, [mix(config.seed, r) for r in range(config.samples)])


def satisfied_counts(formula: CnfFormula, results: Sequence[SolveResult]) -> np.ndarray:
    """Satisfied-clause count of each result, read from its first num_vars (problem) bits."""
    bits = np.asarray([r.bits for r in results], dtype=np.int64)
    return count_satisfied_many(formula, bits[:, :formula.num_vars])


def random_baseline(formula: CnfFormula, k: int, seed: int) -> list[tuple[tuple[int, ...], int]]:
    """k seeded uniform assignments with their satisfied-clause counts."""
    if k < 1:
        raise ValueError("k must be >= 1")
    X = generator(seed).integers(0, 2, size=(k, formula.num_vars), dtype=np.int64)
    counts = count_satisfied_many(formula, X)
    return list(zip(map(tuple, X.tolist()), counts.tolist()))
