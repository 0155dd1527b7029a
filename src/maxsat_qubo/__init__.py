"""MAX-3SAT to QUBO: exact and approximate clause transformations, pattern search,
pruning, and seed-deterministic classical samplers."""

from .formula import (
    CnfFormula,
    brute_force_maxsat,
    classify_clause,
    clause_penalty,
    count_satisfied,
    generate_balanced,
    parse_dimacs,
    write_dimacs,
)
from .qubo import (
    PruneStage,
    QuboMatrix,
    VariableLayout,
    brute_force_min,
    energy,
    energy_min_aux,
    minimize_with_aux,
    nnz_offdiag,
    parse_qubo,
    prune_min,
    prune_random,
    pruning_schedule,
    pruning_stage,
    write_qubo,
)
from .transform import (
    APPROX_6_OF_7,
    EXACT_ALL_7,
    ClausePattern,
    TransformSpec,
    VerificationReport,
    approximate_with_hint,
    assemble,
    builtin_spec,
    decode,
    negation_substitute,
    parse_pattern,
    verify_pattern,
    write_pattern,
)
from .pattern_search import (
    coverage_check,
    enumerate_combinations,
    search_3x3,
    search_4x4,
    select_best_combination,
)
from .solvers import (
    SolverConfig,
    SolveResult,
    random_baseline,
    simulated_annealing,
    solve,
    tabu_search,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    SummaryRow,
    best_of_k,
    emit,
    run_comparison,
    run_experiment,
    run_pruning_sweep,
    run_scaling,
)

__all__ = [name for name in dir() if not name.startswith("_")]
