"""Sampler correctness: exact deltas, determinism, incumbent tracking, budgets."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from maxsat_qubo.formula import CnfFormula, brute_force_maxsat, count_satisfied, generate_balanced
from maxsat_qubo.pattern_search import enumerate_combinations, search_3x3
from maxsat_qubo.qubo import QuboMatrix, VariableLayout, brute_force_min, energy, minimize_with_aux
from maxsat_qubo import solvers
from maxsat_qubo.rng import generator, mix
from maxsat_qubo.solvers import (
    SolverConfig,
    _results_from_batch,
    random_baseline,
    satisfied_counts,
    simulated_annealing,
    solve,
    tabu_search,
)
from maxsat_qubo.transform import APPROX_6_OF_7, assemble, builtin_spec, decode

from conftest import random_formula, random_qubo


def test_seed_derivation_takes_integers_and_names():
    assert mix(1, 2) != mix(1, 3)
    assert mix(1, "nuesslein") != mix(1, "fullapprox")
    assert mix(1, np.int64(2)) == mix(1, 2)
    # a float part is refused, not truncated to mix(1, 2)
    with pytest.raises(TypeError):
        mix(1, 2.7)


def test_every_exact_enumeration_stops_at_25_bits():
    q = QuboMatrix(26, {(0, 0): 1})
    message = "enumeration limited to 25 bits, got 26"
    with pytest.raises(ValueError, match=message):
        brute_force_maxsat(CnfFormula(26, ()))
    with pytest.raises(ValueError, match=message):
        minimize_with_aux(q, VariableLayout(26))
    with pytest.raises(ValueError, match=message):
        brute_force_min(q)
    with pytest.raises(ValueError, match=message):
        solve(q, SolverConfig(kind="brute"))


def test_satisfied_counts_match_scalar_decoding():
    formula = random_formula(9, 30, seed=4)
    matrix, layout = assemble(formula, builtin_spec("nuesslein"))
    assert layout.dim > formula.num_vars
    results = solve(matrix, SolverConfig(kind="tabu", samples=6, iteration_limit=20))
    counts = satisfied_counts(formula, results)
    assert counts.tolist() == [count_satisfied(formula, decode(r.bits, layout))
                               for r in results]


def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        SolverConfig(kind="annealer")
    with pytest.raises(ValueError, match="samples"):
        SolverConfig(kind="tabu", samples=0)
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(kind="sa", sa_beta_start=5.0, sa_beta_end=1.0)
    # an infinite beta would make the accept test's -beta * 0 NaN
    with pytest.raises(ValueError, match="sa_beta_end < inf"):
        SolverConfig(kind="sa", sa_beta_end=math.inf)
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(kind="sa", sa_beta_start=math.nan)
    # end / start is 1e600, past the float range: every beta after the first would be inf
    with pytest.raises(ValueError, match=r"^need 0 < sa_beta_start < sa_beta_end < inf and a "
                                         r"finite sa_beta_end / sa_beta_start$"):
        SolverConfig(kind="sa", sa_beta_start=1e-300, sa_beta_end=1e300)
    with pytest.raises(ValueError, match="finite sa_beta_end / sa_beta_start$"):
        SolverConfig(kind="sa", sa_beta_start=5e-324, sa_beta_end=1.0)
    # an integer beta past the float range passes `< inf` but cannot become a float
    with pytest.raises(ValueError, match="^sa_beta_end is beyond the float range, got 1000"):
        SolverConfig(kind="sa", sa_beta_end=10**400)
    with pytest.raises(ValueError, match="^sa_beta_start is beyond the float range, got -1000"):
        SolverConfig(kind="sa", sa_beta_start=-(10**400))
    with pytest.raises(ValueError, match="time_limit"):
        SolverConfig(kind="tabu", time_limit_ms=0)
    # each bounded field is refused one below its least value and accepted at it
    for kind, name, least in [("tabu", "samples", 1), ("tabu", "iteration_limit", 0),
                              ("tabu", "time_limit_ms", 1), ("tabu", "tabu_tenure", 1),
                              ("sa", "sa_sweeps", 0)]:
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
            SolverConfig(kind=kind, **{name: least - 1})
        assert getattr(SolverConfig(kind=kind, **{name: least}), name) == least


def test_config_stores_betas_as_floats():
    config = SolverConfig(kind="sa", sa_beta_start=1, sa_beta_end=10**300)
    assert type(config.sa_beta_start) is float and config.sa_beta_start == 1.0
    assert type(config.sa_beta_end) is float and config.sa_beta_end == 1e300
    assert config == SolverConfig(kind="sa", sa_beta_start=1.0, sa_beta_end=1e300)


@pytest.mark.parametrize("options, error, message", [
    ({"kind": "tabu", "sa_sweeps": 7, "sa_beta_start": 3.0}, ValueError,
     "solver tabu ignores sa_sweeps sa_beta_start$"),
    ({"kind": "sa", "iteration_limit": 5, "tabu_tenure": 3}, ValueError,
     "solver sa ignores iteration_limit tabu_tenure$"),
    ({"kind": "random", "iteration_limit": 9}, ValueError, "solver random ignores iteration_limit$"),
    ({"kind": "brute", "time_limit_ms": 5}, ValueError, "solver brute ignores time_limit_ms$"),
    ({"kind": "sa", "samples": 2.5}, TypeError, "samples must be an integer"),
    ({"kind": "sa", "seed": True}, TypeError, "seed must be an integer"),
    ({"kind": "tabu", "iteration_limit": 5.5}, TypeError, "iteration_limit must be an integer"),
    ({"kind": "sa", "sa_beta_end": "5"}, TypeError, "sa_beta_end must be a real number"),
    ({"kind": "random", "samples": None}, TypeError, "^samples must be an integer, got None$"),
    ({"kind": "tabu", "seed": None}, TypeError, "^seed must be an integer, got None$"),
])
def test_config_rejects_ignored_options_and_wrong_types(options, error, message):
    with pytest.raises(error, match=message):
        SolverConfig(**options)


def test_config_refuses_more_samples_than_the_seed_cap():
    assert SolverConfig(kind="random", samples=solvers.MAX_SEEDS).samples == solvers.MAX_SEEDS
    with pytest.raises(ValueError, match=f"^samples must be <= {solvers.MAX_SEEDS}, got {10**15}$"):
        SolverConfig(kind="random", samples=10**15)


def test_config_rejects_ignored_options_even_at_the_sa_defaults():
    with pytest.raises(ValueError, match="^solver tabu ignores sa_sweeps sa_beta_start sa_beta_end$"):
        SolverConfig(kind="tabu", sa_sweeps=1000, sa_beta_start=0.1, sa_beta_end=10.0)
    assert SolverConfig(kind="tabu").sa_sweeps is None
    assert SolverConfig(kind="sa") == SolverConfig(kind="sa", sa_sweeps=1000, sa_beta_start=0.1,
                                                   sa_beta_end=10.0)


def test_energy_gains_match_flip_differences():
    rng = generator(2024)
    checked = 0
    while checked < 10_000:
        dim = int(rng.integers(2, 14))
        q = random_qubo(dim, int(rng.integers(0, dim * (dim - 1) // 2 + 1)),
                        int(rng.integers(0, 2**31)))
        bits = [int(b) for b in rng.integers(0, 2, size=dim)]
        gains = q.diag_coupling().gains(np.asarray([bits], dtype=np.int64))[0]
        before = energy(q, bits)
        for i in range(dim):
            flipped = list(bits)
            flipped[i] ^= 1
            assert energy(q, flipped) - before == gains[i]
            checked += 1


def test_tabu_single_flip_example():
    q = QuboMatrix(1, {(0, 0): -1})
    results = solve(q, SolverConfig(kind="tabu", samples=1, seed=3, iteration_limit=5))
    assert results[0].bits == (1,)
    assert results[0].energy == -1


def test_tabu_separable_diagonal():
    q = QuboMatrix(3, {(0, 0): -1, (1, 1): 2, (2, 2): -3})
    result = tabu_search(q, iteration_limit=3, tenure=10, seed=9)
    assert result.bits == (1, 0, 1)
    assert result.energy == -4


def test_tabu_zero_iterations_returns_seeded_start():
    q = random_qubo(8, 12, 5)
    result = tabu_search(q, iteration_limit=0, tenure=5, seed=31)
    expected = tuple(int(b) for b in generator(31).integers(0, 2, size=8))
    assert result.bits == expected
    assert result.energy == energy(q, result.bits)


def test_tabu_splits_its_neighbour_update_only_on_the_exact_transformations():
    """Comparison's exact transformations, mostly degree-3 aux bits, update 3 slots per
    flip and the rest only for wider bits; fullapprox and the first 16 calibration specs,
    whose median row fills more than half the width, keep one full-width pass."""
    formula = generate_balanced(145, 500, mix(1, 1, 0))
    for name in ("nuesslein", "chancellor_repaired"):
        compiled = assemble(formula, builtin_spec(name))[0].diag_coupling()
        assert compiled.narrow == 3 < compiled.idx.shape[1]
    per_type = [search_3x3((-1, 0, 1), clause_type, APPROX_6_OF_7) for clause_type in range(4)]
    specs = [builtin_spec("fullapprox")] + enumerate_combinations(per_type)[:16]
    for spec in specs:
        compiled = assemble(formula, spec)[0].diag_coupling()
        assert compiled.narrow == compiled.idx.shape[1]


def test_tabu_solves_satisfiable_formula():
    rng = generator(7)
    formula = None
    while formula is None:
        candidate = random_formula(8, 20, int(rng.integers(0, 2**31)))
        best, _ = brute_force_maxsat(candidate)
        if best == 20:
            formula = candidate
    matrix, layout = assemble(formula, builtin_spec("nuesslein"))
    solved = 0
    for run in range(100):
        result = tabu_search(matrix, iteration_limit=600, tenure=10, seed=mix(77, run))
        assignment = decode(result.bits, layout)
        if count_satisfied(formula, assignment) == 20:
            solved += 1
    assert solved >= 95


def test_sa_diagonal_example():
    q = QuboMatrix(1, {(0, 0): -5})
    result = simulated_annealing(q, sweeps=5, beta_start=0.5, beta_end=5.0, seed=2)
    assert result.bits == (1,)
    assert result.energy == -5


def test_sa_zero_sweeps_returns_seeded_start():
    q = random_qubo(6, 8, 1)
    result = simulated_annealing(q, sweeps=0, beta_start=0.1, beta_end=10.0, seed=12)
    expected = tuple(int(b) for b in generator(12).integers(0, 2, size=6))
    assert result.bits == expected


def test_sa_invalid_schedule():
    q = QuboMatrix(2, {(0, 0): 1})
    with pytest.raises(ValueError, match="beta"):
        simulated_annealing(q, sweeps=3, beta_start=2.0, beta_end=1.0, seed=0)


def _stable(results):
    """Everything except wall-clock timing."""
    if not isinstance(results, list):
        results = [results]
    return [(r.bits, r.energy, r.run_index, r.seed_used) for r in results]


def test_sa_deterministic():
    q = random_qubo(12, 30, 8)
    a = simulated_annealing(q, sweeps=20, beta_start=0.2, beta_end=8.0, seed=99)
    b = simulated_annealing(q, sweeps=20, beta_start=0.2, beta_end=8.0, seed=99)
    assert _stable(a) == _stable(b)


def test_solve_brute_matches_brute_force_min(approx_type0_matrix):
    results = solve(approx_type0_matrix, SolverConfig(kind="brute", samples=2, seed=4))
    assert [r.energy for r in results] == [-1, -1]
    assert results[0].bits == brute_force_min(approx_type0_matrix)[1]
    assert [r.run_index for r in results] == [0, 1]


def test_solve_brute_checks_its_energy_like_every_solver(monkeypatch):
    q = QuboMatrix(2, {(0, 0): -1, (1, 1): -1})
    monkeypatch.setattr(solvers, "enumerate_min", lambda num_bits, values_of: (-3, (1, 1)))
    with pytest.raises(RuntimeError, match=r"^tracked best energies \[-3, -3\] differ from "
                                           r"recomputed \[-2, -2\]$"):
        solve(q, SolverConfig(kind="brute", samples=2))

def test_solve_brute_guard():
    with pytest.raises(ValueError, match="25"):
        solve(QuboMatrix(30, {(0, 0): 1}), SolverConfig(kind="brute"))


def test_solve_random_kind():
    q = random_qubo(7, 10, 3)
    results = solve(q, SolverConfig(kind="random", samples=6, seed=11))
    assert len(results) == 6
    for result in results:
        assert result.energy == energy(q, result.bits)
        assert result.bits == tuple(
            int(b) for b in generator(mix(11, result.run_index)).integers(0, 2, size=7))


@pytest.mark.parametrize("kind,extra", [
    ("tabu", {"iteration_limit": 200, "tabu_tenure": 7}),
    ("sa", {"sa_sweeps": 15}),
    ("random", {}),
])
def test_solve_deterministic_per_config(kind, extra):
    q = random_qubo(15, 40, 21)
    config = SolverConfig(kind=kind, samples=5, seed=1312, **extra)
    assert _stable(solve(q, config)) == _stable(solve(q, config))


@pytest.mark.parametrize("kind,extra", [
    ("tabu", {"iteration_limit": 120, "tabu_tenure": 5}),
    ("sa", {"sa_sweeps": 10}),
])
def test_batch_rows_match_single_runs(kind, extra):
    q = random_qubo(12, 25, 33)
    config = SolverConfig(kind=kind, samples=4, seed=500, **extra)
    batch = solve(q, config)
    for r in range(4):
        seed = mix(500, r)
        if kind == "tabu":
            single = tabu_search(q, extra["iteration_limit"], extra["tabu_tenure"], seed)
        else:
            single = simulated_annealing(q, extra["sa_sweeps"], 0.1, 10.0, seed)
        assert batch[r].bits == single.bits
        assert batch[r].energy == single.energy


def test_batch_rows_match_single_runs_across_uniform_blocks():
    """dim·k = 2400 puts SA's block edges at sweeps 27 and 54, so the last block is
    partial; a single run (k=1) draws all 60 sweeps in one block."""
    q = random_qubo(60, 150, 41)
    config = SolverConfig(kind="sa", samples=40, seed=8, sa_sweeps=60, sa_beta_start=0.3,
                          sa_beta_end=4.0)
    block = solvers._SA_BLOCK // (q.dim * config.samples)
    assert 0 < block < config.sa_sweeps and config.sa_sweeps % block
    assert solvers._SA_BLOCK // q.dim >= config.sa_sweeps
    singles = [simulated_annealing(q, 60, 0.3, 4.0, mix(8, r)) for r in range(40)]
    assert [(r.bits, r.energy, r.seed_used) for r in solve(q, config)] == \
        [(r.bits, r.energy, r.seed_used) for r in singles]


def test_sa_huge_sweep_budget_under_a_time_limit_holds_one_block():
    """The beta schedule and the uniforms are drawn one bounded block at a time, so ten
    million sweeps under a 1 ms limit allocate no array of sweeps."""
    q = QuboMatrix(2, {(0, 0): -1, (0, 1): 2})
    tracemalloc.start()
    try:
        started = time.perf_counter()
        results = solve(q, SolverConfig(kind="sa", samples=3, sa_sweeps=10 ** 7,
                                        time_limit_ms=1))
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert elapsed < 1.0
    assert [r.energy for r in results] == [energy(q, r.bits) for r in results]


def test_results_energy_reverifies_and_incumbent_monotone():
    q = random_qubo(20, 80, 13)
    for kind, extra in (("tabu", {"iteration_limit": 300}), ("sa", {"sa_sweeps": 25})):
        config = SolverConfig(kind=kind, samples=8, seed=77, **extra)
        for result in solve(q, config):
            assert result.energy == energy(q, result.bits)
            start = tuple(int(b) for b in
                          generator(result.seed_used).integers(0, 2, size=20))
            assert result.energy <= energy(q, start)


def test_results_reject_tracked_energy_mismatch():
    q = random_qubo(5, 6, 2)
    zeros = np.zeros((2, 5), dtype=np.int64)
    compiled = q.diag_coupling()
    assert [r.energy for r in _results_from_batch(compiled, [0, 1], zeros, np.zeros(2))] == [0, 0]
    with pytest.raises(RuntimeError, match="tracked"):
        _results_from_batch(compiled, [0, 1], zeros, np.array([0, 1]))


def test_tabu_budget_scaling_never_hurts():
    q = random_qubo(18, 60, 321)
    for run in range(20):
        seed = mix(9, run)
        small = tabu_search(q, iteration_limit=40, tenure=5, seed=seed)
        large = tabu_search(q, iteration_limit=400, tenure=5, seed=seed)
        assert large.energy <= small.energy


def test_sa_budget_scaling_median():
    q = random_qubo(18, 60, 321)
    small = [simulated_annealing(q, 5, 0.1, 10.0, mix(4, r)).energy for r in range(24)]
    large = [simulated_annealing(q, 50, 0.1, 10.0, mix(4, r)).energy for r in range(24)]
    assert np.median(large) <= np.median(small)


def test_tabu_time_limit_stops():
    q = random_qubo(30, 200, 2)
    config = SolverConfig(kind="tabu", samples=2, seed=0, time_limit_ms=30)
    results = solve(q, config)
    assert len(results) == 2
    for result in results:
        assert result.energy == energy(q, result.bits)


def test_random_baseline_statistics():
    formula = random_formula(30, 120, 6)
    samples = random_baseline(formula, 2000, seed=42)
    counts = np.array([count for _, count in samples])
    assert abs(counts.mean() - 7 / 8 * 120) < 2.0
    for bits, count in samples[:20]:
        assert count_satisfied(formula, bits) == count


def test_random_baseline_edges():
    from maxsat_qubo.formula import CnfFormula
    empty = CnfFormula(4, ())
    assert random_baseline(empty, 1, seed=0)[0][1] == 0
    with pytest.raises(ValueError, match="k"):
        random_baseline(empty, 0, seed=0)
