"""Naive QUBO approximation by deleting couplings, and why it does not pay.

Starting from an exact (n+m)-dimensional transformation, off-diagonal
coefficients are removed in ten steps, either smallest-signed-value first or
uniformly at random, until only the diagonal is left. Solution quality drops
as soon as 10% of the couplings are gone.
"""

import numpy as np

from maxsat_qubo import SolverConfig, assemble, builtin_spec, generate_balanced, pruning_schedule, solve
from maxsat_qubo.qubo import PRUNING_STRATEGIES
from maxsat_qubo.rng import mix
from maxsat_qubo.solvers import satisfied_counts

NUM_FORMULAS = 4
N, M = 40, 138
SOLVER = dict(kind="sa", samples=30, sa_sweeps=50)

print(f"{NUM_FORMULAS} balanced formulas, n={N}, m={M}, best-of-{SOLVER['samples']} "
      "simulated annealing\n")

for name in ("nuesslein", "chancellor_repaired"):
    spec = builtin_spec(name)
    print(f"=== {name} ===")
    print("prune%   " + "  ".join(f"{k * 10:4d}" for k in range(11)))
    for strategy in PRUNING_STRATEGIES:
        means = np.zeros(11)
        for f in range(NUM_FORMULAS):
            formula = generate_balanced(N, M, mix(3, f))
            matrix, layout = assemble(formula, spec)
            stages = pruning_schedule(matrix, strategy, mix(3, 2, f))
            for stage in stages:
                config = SolverConfig(seed=mix(3, 4, f, stage.stage), **SOLVER)
                means[stage.stage] += satisfied_counts(formula, solve(stage.matrix, config)).max()
        means /= NUM_FORMULAS
        print(f"{strategy:8s} " + "  ".join(f"{v:4.0f}" for v in means))
    print()

print("Both strategies end at the same diagonal-only matrix (100% pruned), and")
print("both lose clauses immediately at the 10% stage.")
