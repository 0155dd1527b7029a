"""Command-line interface: gen, transform, prune, solve, search, verify, experiment."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import harness, pattern_search, qubo, solvers, transform
from .formula import generate_balanced, parse_dimacs, write_dimacs
from .rng import mix
from .transform import APPROX_6_OF_7, EXACT_ALL_7

_CRITERIA = {"exact": EXACT_ALL_7, "approx": APPROX_6_OF_7,
             EXACT_ALL_7: EXACT_ALL_7, APPROX_6_OF_7: APPROX_6_OF_7}

# solve flag -> the SolverConfig field it sets; solvers.SOLVER_OPTIONS says who reads it
_SOLVER_FLAGS = {"iter": "iteration_limit", "tenure": "tabu_tenure",
                 "time_limit_ms": "time_limit_ms", "sweeps": "sa_sweeps",
                 "beta_start": "sa_beta_start", "beta_end": "sa_beta_end"}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    seeds = [mix(args.seed, 1, index) for index in range(args.count)]
    texts = [write_dimacs(generate_balanced(args.vars, args.clauses, seed),
                          comments=[f"seed={seed} generator=balanced"]) for seed in seeds]
    os.makedirs(args.out, exist_ok=True)
    for index, text in enumerate(texts):
        harness.write_text(os.path.join(args.out, f"formula_{index:03d}.cnf"), text)
    print(f"wrote {args.count} formulas to {args.out}")
    return 0


def _cmd_transform(args) -> int:
    formula = parse_dimacs(_read(args.infile))
    spec = transform.builtin_spec(args.method)
    matrix, layout = transform.assemble(formula, spec)
    comments = [f"transform={args.method} vars={formula.num_vars} clauses={formula.num_clauses}"]
    harness.write_text(args.out, qubo.write_qubo(matrix, layout, comments=comments))
    print(f"wrote dim-{matrix.dim} QUBO with {len(matrix.entries)} entries to {args.out}")
    return 0


def _cmd_prune(args) -> int:
    matrix, layout = qubo.parse_qubo(_read(args.infile))
    stages = qubo.pruning_schedule(matrix, args.strategy, args.seed)
    stage = stages[args.stage]
    comments = [f"pruned strategy={args.strategy} stage={args.stage} "
                f"removed={stage.removed_cumulative}"]
    harness.write_text(args.out, qubo.write_qubo(stage.matrix, layout, comments=comments))
    print(f"stage {args.stage}: removed {stage.removed_cumulative} of "
          f"{qubo.nnz_offdiag(matrix)} off-diagonal entries; wrote {args.out}")
    return 0


def _cmd_solve(args) -> int:
    given = {flag: getattr(args, flag) for flag in _SOLVER_FLAGS
             if getattr(args, flag) is not None}
    ignored = ["--" + flag.replace("_", "-") for flag in given
               if _SOLVER_FLAGS[flag] not in solvers.SOLVER_OPTIONS[args.solver]]
    if ignored:
        raise ValueError(f"solver {args.solver} ignores {' '.join(ignored)}")
    matrix, layout = qubo.parse_qubo(_read(args.infile))
    formula = None
    if args.cnf:
        formula = parse_dimacs(_read(args.cnf))
        if layout is None:
            if matrix.dim != formula.num_vars:
                raise ValueError(
                    f"QUBO dim {matrix.dim} != formula vars {formula.num_vars} "
                    "and the file carries no aux layout")
            layout = qubo.VariableLayout(formula.num_vars)
        elif layout.num_problem_vars != formula.num_vars:
            raise ValueError(f"layout problem vars {layout.num_problem_vars} != "
                             f"formula vars {formula.num_vars}")
    config = solvers.SolverConfig(
        kind=args.solver, samples=args.samples, seed=args.seed,
        **{_SOLVER_FLAGS[flag]: value for flag, value in given.items()})
    started = time.perf_counter()
    results = solvers.solve(matrix, config)
    wall_ms = int(round((time.perf_counter() - started) * 1000))
    rows = [{"run": result.run_index,
             "bits": "".join(map(str, result.bits)),
             "energy": result.energy,
             "seed": result.seed_used} for result in results]
    if formula is not None:
        for row, count in zip(rows, solvers.satisfied_counts(formula, results).tolist()):
            row["satisfied"] = count
    harness.write_text(args.out, "".join(json.dumps(row) + "\n" for row in rows))
    best = min(result.energy for result in results)
    print(f"{len(results)} samples in {wall_ms} ms, best energy {best}; wrote {args.out}")
    return 0


def _cmd_search(args) -> int:
    values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    criterion = _CRITERIA[args.criterion]
    if args.dim == 4 and criterion != EXACT_ALL_7:
        raise ValueError("4x4 search supports only the exact criterion")
    if args.dim == 3:
        patterns = pattern_search.search_3x3(values, args.type, criterion)
    else:
        patterns = pattern_search.search_4x4(values, args.type)
    os.makedirs(args.out, exist_ok=True)
    files = []
    for index, pattern in enumerate(patterns):
        filename = f"type{args.type}_{index:03d}.pattern"
        harness.write_text(os.path.join(args.out, filename),
                           transform.write_pattern(pattern, args.type))
        files.append(filename)
    manifest = {
        "dim": args.dim, "clause_type": args.type, "criterion": criterion,
        "values": values, "count": len(patterns), "files": files,
    }
    if (args.dim == 3 and criterion == APPROX_6_OF_7
            and tuple(values) == pattern_search.CANONICAL_VALUES):
        manifest["expected_count"] = pattern_search.CANONICAL_PATTERNS_PER_TYPE
        manifest["discrepancy"] = len(patterns) != pattern_search.CANONICAL_PATTERNS_PER_TYPE
    harness.write_text(os.path.join(args.out, "search_manifest.json"),
                       json.dumps(manifest, indent=2) + "\n")
    print(f"found {len(patterns)} patterns; wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    pattern, stored_type = transform.parse_pattern(_read(args.pattern))
    clause_type = stored_type if args.type is None else args.type
    report = transform.verify_pattern(pattern, clause_type, _CRITERIA[args.criterion])
    print(f"clause_type={report.clause_type} criterion={report.criterion} "
          f"valid={report.valid}")
    print(f"min_energy={report.min_energy} unsat_energy={report.unsat_energy}")
    print("minima=" + " ".join("".join(str(b) for b in t) for t in report.minima))
    return 0 if report.valid else 1


def _cmd_experiment(args) -> int:
    config = harness.ExperimentConfig.from_dict(json.loads(_read(args.config)))
    started = time.perf_counter()
    records, summary = harness.run_experiment(config)
    wall_ms = int(round((time.perf_counter() - started) * 1000))
    os.makedirs(args.out, exist_ok=True)
    stamp = harness.make_timestamp()
    records_path, summary_path = harness.emit(records, summary, args.out,
                                              config.kind, timestamp=stamp)
    harness.emit_meta(args.out, config.kind, {
        "config": config.to_dict(),
        "wall_ms": wall_ms,
        "records": os.path.basename(records_path),
        "summary": os.path.basename(summary_path),
        "sampling": "independent seeded solver runs",
    }, timestamp=stamp)
    print(f"{len(records)} records; wrote {records_path} and {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maxsat-qubo")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate balanced 3SAT formulas")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clauses", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("transform", help="transform a CNF file into a QUBO file")
    p.add_argument("--method", required=True, choices=transform.BUILTIN_SPEC_NAMES)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("prune", help="remove off-diagonal entries from a QUBO file")
    p.add_argument("--strategy", required=True, choices=("min", "random"))
    p.add_argument("--stage", type=int, required=True, choices=range(11))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("solve", help="sample a QUBO file with a classical solver")
    p.add_argument("--solver", required=True, choices=solvers.SOLVER_KINDS)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iter", type=int, default=None)
    p.add_argument("--time-limit-ms", type=int, default=None)
    p.add_argument("--tenure", type=int, default=None)
    p.add_argument("--sweeps", type=int, default=None)
    p.add_argument("--beta-start", type=float, default=None)
    p.add_argument("--beta-end", type=float, default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--cnf", default=None, help="CNF file for decoding satisfied counts")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("search", help="enumerate clause patterns over a value set")
    p.add_argument("--dim", type=int, required=True, choices=(3, 4))
    p.add_argument("--values", required=True, help='comma-separated integers, e.g. "-1,0,1"')
    p.add_argument("--type", type=int, required=True, choices=range(4))
    p.add_argument("--criterion", default="approx", choices=sorted(_CRITERIA))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="verify a pattern file against a clause type")
    p.add_argument("--pattern", required=True)
    p.add_argument("--type", type=int, default=None, choices=range(4))
    p.add_argument("--criterion", required=True, choices=sorted(_CRITERIA))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def _merge_values_flag(argv: list[str]) -> list[str]:
    # argparse reads "-1,0,1" as an option; fold it into "--values=-1,0,1"
    merged = []
    skip = False
    for position, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--values" and position + 1 < len(argv):
            merged.append(f"--values={argv[position + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_values_flag(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
