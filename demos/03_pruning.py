"""Naive QUBO approximation by deleting couplings, and why it does not pay.

Starting from an exact (n+m)-dimensional transformation, off-diagonal
coefficients are removed in ten steps, either smallest-signed-value first or
uniformly at random, until only the diagonal is left. Solution quality drops
as soon as 10% of the couplings are gone.
"""

from maxsat_qubo import ExperimentConfig, SolverConfig, run_pruning_sweep
from maxsat_qubo.qubo import PRUNING_STRATEGIES

CONFIG = ExperimentConfig(kind="pruning_sweep", count=4, num_vars=40, num_clauses=138, seed=3,
                          transforms=("nuesslein", "chancellor_repaired"),
                          solver=SolverConfig(kind="sa", samples=30, sa_sweeps=50))

print(f"{CONFIG.count} balanced formulas, n={CONFIG.num_vars}, m={CONFIG.num_clauses}, "
      f"best-of-{CONFIG.solver.samples} simulated annealing\n")

# the summary is summarize_pruning's: mean best-of-k per "transform:strategy:percent" label
records, summary = run_pruning_sweep(CONFIG)
means = {row.method: row.value for row in summary}
for name in CONFIG.transforms:
    print(f"=== {name} ===")
    print("prune%   " + "  ".join(f"{k * 10:4d}" for k in range(11)))
    for strategy in PRUNING_STRATEGIES:
        print(f"{strategy:8s} " + "  ".join(f"{means[f'{name}:{strategy}:{k * 10}']:4.0f}"
                                            for k in range(11)))
    # the fully pruned stage is one diagonal matrix, solved with one seed under both orders
    ends = [[r.satisfied for r in records if r.method == f"{name}:{strategy}:100"]
            for strategy in PRUNING_STRATEGIES]
    print(f"100% pruned records equal under both strategies: {ends[0] == ends[1]}\n")

print("Both strategies end at the same diagonal-only matrix (100% pruned), and")
print("both lose clauses immediately at the 10% stage.")
