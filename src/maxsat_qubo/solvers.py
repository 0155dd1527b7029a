"""Classical QUBO samplers: exact brute force, tabu search, simulated annealing, random guessing.

All samplers are seed-deterministic. Multi-sample calls advance every sample
in vectorized lockstep; each sample's trajectory depends only on its own
derived seed, so results are identical to running the samples one at a time.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .formula import CnfFormula, count_satisfied_many
from .qubo import CompiledQubo, QuboMatrix, brute_force_min
from .rng import generator, mix

# the SolverConfig option fields each solver kind reads; the CLI and experiments defer to it
SOLVER_OPTIONS = {
    "brute": (),
    "tabu": ("iteration_limit", "tabu_tenure", "time_limit_ms"),
    "sa": ("sa_sweeps", "sa_beta_start", "sa_beta_end", "time_limit_ms"),
    "random": (),
}
SOLVER_KINDS = tuple(SOLVER_OPTIONS)
_OPTION_FIELDS = tuple(dict.fromkeys(name for names in SOLVER_OPTIONS.values() for name in names))

_BIG = np.int64(1) << 62


def require_integers(obj, names: Sequence[str]) -> None:
    """TypeError unless each named attribute is an integer (a bool is not)."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    kind: str
    samples: int = 1
    seed: int = 0
    iteration_limit: int | None = None
    time_limit_ms: int | None = None
    tabu_tenure: int | None = None
    sa_beta_start: float = 0.1
    sa_beta_end: float = 10.0
    sa_sweeps: int = 1000

    def __post_init__(self):
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}, expected one of {SOLVER_KINDS}")
        require_integers(self, [name for name in ("samples", "seed", "iteration_limit",
                                                  "time_limit_ms", "tabu_tenure", "sa_sweeps")
                                if getattr(self, name) is not None])
        for name in ("sa_beta_start", "sa_beta_end"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        defaults = {field.name: field.default for field in fields(self)}
        ignored = [name for name in _OPTION_FIELDS if name not in SOLVER_OPTIONS[self.kind]
                   and getattr(self, name) != defaults[name]]
        if ignored:
            raise ValueError(f"solver {self.kind} ignores {' '.join(ignored)}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.iteration_limit is not None and self.iteration_limit < 0:
            raise ValueError("iteration_limit must be non-negative")
        if self.time_limit_ms is not None and self.time_limit_ms < 1:
            raise ValueError("time_limit_ms must be positive")
        if self.tabu_tenure is not None and self.tabu_tenure < 1:
            raise ValueError("tabu_tenure must be positive")
        if self.sa_sweeps < 0:
            raise ValueError("sa_sweeps must be non-negative")
        # an infinite beta turns the accept test's -beta * 0 into NaN
        if not 0 < self.sa_beta_start < self.sa_beta_end < math.inf:
            raise ValueError("need 0 < sa_beta_start < sa_beta_end < inf")


@dataclass(frozen=True)
class SolveResult:
    bits: tuple[int, ...]
    energy: int
    run_index: int
    seed_used: int


def energy_gains(q: QuboMatrix, bits: Sequence[int]) -> np.ndarray:
    """Exact energy change from flipping each single bit of the vector."""
    if len(bits) != q.dim:
        raise ValueError(f"bit vector length {len(bits)} != dim {q.dim}")
    return q.diag_coupling().gains(np.asarray([[int(b) for b in bits]], dtype=np.int64))[0]


def _initial_states(compiled: CompiledQubo, seeds: Sequence[int]):
    """Seeded random rows with their flip gains D and energies E."""
    gens = [generator(s) for s in seeds]
    X = np.stack([g.integers(0, 2, size=len(compiled.diag), dtype=np.int64) for g in gens])
    D = compiled.gains(X)
    return gens, X, D, compiled.energies(X, D)


def _batch_tabu(compiled: CompiledQubo, seeds: Sequence[int], config: SolverConfig):
    """Lockstep best-improvement tabu search over one row per seed.

    Each iteration flips a row's best non-tabu bit, lowest index on ties; a tabu bit may
    still flip if it strictly improves the row's incumbent best (aspiration), and a row
    whose every bit is tabu ignores the list. The flip gains D = (1 - 2X)·G are carried,
    not rebuilt: a flip negates its bit's gain and updates its neighbours', O(k·width)
    per iteration. SA keeps the fields G instead, updated once per colour class (see
    _batch_sa).
    """
    start, time_limit_ms = time.perf_counter(), config.time_limit_ms
    dim = len(compiled.diag)
    iteration_limit = config.iteration_limit
    if iteration_limit is None and time_limit_ms is None:
        iteration_limit = 10_000 * dim
    tenure = config.tabu_tenure or max(10, dim // 10)
    _, X, D, E = _initial_states(compiled, seeds)
    best_energy, best_bits, tabu_until = E.copy(), X.copy(), np.zeros_like(X)
    # flat views: one flat index per cell is cheaper than a (row, column) pair
    flat_X, flat_D, flat_tabu = X.reshape(-1), D.reshape(-1), tabu_until.reshape(-1)
    rows = np.arange(len(seeds))
    row_start = rows * dim
    iteration = 0
    while iteration_limit is None or iteration < iteration_limit:
        if time_limit_ms is not None and (time.perf_counter() - start) * 1000 >= time_limit_ms:
            break
        # |D| < 2^62 = _BIG under CompiledQubo's bound, so only tabu slots read _BIG. If a bit
        # aspirates, so do all bits at the row's least gain: best_any is the best allowed bit.
        best_any = D.argmin(axis=1)
        free = np.where(tabu_until <= iteration, D, _BIG)
        best_free = free.argmin(axis=1)
        stuck = free[rows, best_free] == _BIG
        flip = np.where((D[rows, best_any] < best_energy - E) | stuck, best_any, best_free)
        cells = row_start + flip
        gain, sign = flat_D[cells], 1 - 2 * flat_X[cells]
        flat_X[cells] += sign
        flat_D[cells] = -gain
        # neighbour j's gain moves by (1 - 2x_j)·sign·w_ij; padding (own bit, weight 0) adds 0
        nbrs = row_start[:, None] + compiled.idx[flip]
        flat_D[nbrs] += (1 - 2 * flat_X[nbrs]) * sign[:, None] * compiled.weight[flip]
        E += gain
        flat_tabu[cells] = iteration + 1 + tenure
        improved = E < best_energy
        if improved.any():
            best_energy[improved] = E[improved]
            best_bits[improved] = X[improved]
        iteration += 1
    return best_energy, best_bits


def _class_tables(compiled: CompiledQubo):
    """Bits renumbered class by class, with each class's field-update table.

    Returns the permutation (position -> bit) that lays the colour classes out
    contiguously, and per class its position range [lo, hi), the positions of the bits
    with a neighbour in the class, and a padded (targets, width) table of those
    neighbours' positions and weights. Padding points at position dim, a column of
    signed flips that is always 0.
    """
    classes = compiled.colour_classes()
    dim = len(compiled.diag)
    perm = np.concatenate(classes)
    position = np.empty(dim, dtype=np.int64)
    position[perm] = np.arange(dim)
    bounds = np.cumsum([0] + [len(c) for c in classes])
    colour = np.repeat(np.arange(len(classes)), np.diff(bounds))
    rows, slots = np.nonzero(np.arange(compiled.idx.shape[1]) < compiled.degree[:, None])
    src, target = position[rows], position[compiled.idx[rows, slots]]
    # one sort lays the couplings out by (source class, target); a target is one table row
    order = np.argsort(colour[src] * dim + target, kind="stable")
    src, target, weight = src[order], target[order], compiled.weight[rows, slots][order]
    parts = np.searchsorted(colour[src], np.arange(len(classes) + 1))
    tables = []
    for c in range(len(classes)):
        part = slice(parts[c], parts[c + 1])
        targets, row, count = np.unique(target[part], return_inverse=True, return_counts=True)
        slot = np.arange(row.size) - (np.cumsum(count) - count)[row]
        table = np.full((targets.size, count.max(initial=0)), dim, dtype=np.int64)
        weights = np.zeros(table.shape, dtype=np.int64)
        table[row, slot] = src[part]
        weights[row, slot] = weight[part]
        tables.append((bounds[c], bounds[c + 1], targets, table, weights))
    return perm, tables


def _batch_sa(compiled: CompiledQubo, seeds: Sequence[int], config: SolverConfig):
    """Lockstep Metropolis annealing on a geometric beta schedule, one colour class at a time.

    A sweep visits the colour classes of compiled.colour_classes() in order. Bits of one
    class share no coupling, so each bit's flip difference and accept decision
    (u < exp(-beta * max(delta, 0)), u drawn per bit per sweep) is made on the
    class-start state and all accepted flips apply together. The fields G are updated
    once per class and the best state is tracked after each class.
    """
    start, time_limit_ms, sweeps = time.perf_counter(), config.time_limit_ms, config.sa_sweeps
    dim = len(compiled.diag)
    gens, X, D, E = _initial_states(compiled, seeds)
    if sweeps == 0:
        return E, X
    perm, tables = _class_tables(compiled)
    # state in class order, so each class is a contiguous slice; F holds the signed flips.
    # Fields, not carried gains: a field update needs no read of the target bits.
    X, G = X[:, perm], ((1 - 2 * X) * D)[:, perm]
    F = np.zeros((len(seeds), dim + 1), dtype=np.int64)
    best_energy, best_bits = E.copy(), X.copy()
    exponents = np.arange(sweeps) / max(1, sweeps - 1)
    betas = config.sa_beta_start * (config.sa_beta_end / config.sa_beta_start) ** exponents
    for beta in betas:
        if time_limit_ms is not None and (time.perf_counter() - start) * 1000 >= time_limit_ms:
            break
        uniforms = np.stack([g.random(dim) for g in gens])[:, perm]
        for lo, hi, targets, src, weight in tables:
            flip = 1 - 2 * X[:, lo:hi]
            delta = flip * G[:, lo:hi]
            # uniforms lie in [0, 1) and a downhill move's threshold is exp(0) = 1
            accepted = uniforms[:, lo:hi] < np.exp(-beta * np.maximum(delta, 0))
            sign = F[:, lo:hi]
            np.multiply(flip, accepted, out=sign)
            X[:, lo:hi] += sign
            E += (sign * G[:, lo:hi]).sum(axis=1)
            if targets.size:
                G[:, targets] += (F[:, src] * weight).sum(axis=2)
            improved = E < best_energy
            if improved.any():
                best_energy[improved] = E[improved]
                best_bits[improved] = X[improved]
    return best_energy, best_bits[:, np.argsort(perm)]


def _results_from_batch(q: QuboMatrix, seeds, best_bits, tracked_energy=None,
                        compiled: CompiledQubo | None = None) -> list[SolveResult]:
    """Results with energies recomputed from the matrix; they must equal any tracked ones.

    Pass q's compiled form when it is at hand, so that a solve compiles the matrix once.
    """
    if compiled is None:
        compiled = q.diag_coupling()
    energies = compiled.energies(best_bits)
    if tracked_energy is not None and not np.array_equal(energies, tracked_energy):
        raise RuntimeError(f"tracked best energies {tracked_energy.tolist()} differ from "
                           f"recomputed {energies.tolist()}")
    return [
        SolveResult(bits=tuple(bits), energy=energy, run_index=r, seed_used=seeds[r])
        for r, (bits, energy) in enumerate(zip(best_bits.tolist(), energies.tolist()))
    ]


def _run(q: QuboMatrix, config: SolverConfig, seeds: Sequence[int]) -> list[SolveResult]:
    """One run of the configured sampler per seed; config.samples and config.seed are not read."""
    if config.kind == "brute":
        best_value, witness = brute_force_min(q)
        return [SolveResult(bits=witness, energy=best_value, run_index=r, seed_used=seed)
                for r, seed in enumerate(seeds)]

    compiled = q.diag_coupling()
    if config.kind == "random":
        X = np.stack([generator(s).integers(0, 2, size=q.dim, dtype=np.int64) for s in seeds])
        return _results_from_batch(q, seeds, X, compiled=compiled)

    sampler = _batch_tabu if config.kind == "tabu" else _batch_sa
    best_energy, best_bits = sampler(compiled, seeds, config)
    return _results_from_batch(q, seeds, best_bits, best_energy, compiled)


def tabu_search(q: QuboMatrix, iteration_limit: int, tenure: int, seed: int,
                time_limit_ms: int | None = None) -> SolveResult:
    """Single tabu run from a seeded random start; returns the best vector seen."""
    config = SolverConfig(kind="tabu", iteration_limit=iteration_limit, tabu_tenure=tenure,
                          time_limit_ms=time_limit_ms)
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
