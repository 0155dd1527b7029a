"""Exhaustive pattern discovery over a small value set.

Over S = {-1, 0, 1} there is no 3x3 template whose seven satisfying
assignments all reach the minimum (the search proves it by enumeration), but
relaxing to six-of-seven yields exactly four templates per clause type, and
together they cover every satisfying assignment. Fixing one template per type
gives 4^4 = 256 candidate transformations; a seeded tabu pass on a single
calibration formula picks the best one.
"""

from maxsat_qubo import (
    EXACT_ALL_7,
    APPROX_6_OF_7,
    SolverConfig,
    builtin_spec,
    coverage_check,
    enumerate_combinations,
    generate_balanced,
    search_3x3,
    search_4x4,
    select_best_combination,
)

values = (-1, 0, 1)
print(f"value set: {values}")

per_type = []
for clause_type in range(4):
    exact = search_3x3(values, clause_type, EXACT_ALL_7)
    approx = search_3x3(values, clause_type, APPROX_6_OF_7)
    covered, _ = coverage_check(approx, clause_type)
    published = builtin_spec("fullapprox").patterns[clause_type] in approx
    print(f"type {clause_type}: exact={len(exact)} approx={len(approx)} "
          f"covered={covered} contains_published={published}")
    per_type.append(approx)

print("\ntype-0 approximations (diagonal then couplings):")
for pattern in per_type[0]:
    print(f"  {pattern.row}")

print("\n4x4 exact search over {-2..2} (aux slot absorbs the cubic term):")
found = search_4x4((-2, -1, 0, 1, 2), 0)
print(f"type 0: {len(found)} exact 4x4 templates; "
      f"published tables are among them: "
      f"{builtin_spec('nuesslein').patterns[0] in found and builtin_spec('chancellor_printed').patterns[0] in found}")

print("\ncalibrating the 256 combinations on one formula (tiny budget):")
specs = enumerate_combinations(per_type)
formula = generate_balanced(30, 104, seed=1)
config = SolverConfig(kind="tabu", samples=1, seed=0, iteration_limit=300)
best, scores = select_best_combination(formula, specs, config, seed=2)
print(f"best combination: {best.name} with {max(scores)}/{formula.num_clauses} "
      f"satisfied; score range {min(scores)}..{max(scores)}")
