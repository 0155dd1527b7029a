"""End-to-end command-line runs covering every subcommand and exit code."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from maxsat_qubo import qubo
from maxsat_qubo.cli import _SOLVER_FLAGS, build_parser, main
from maxsat_qubo.formula import count_satisfied, parse_dimacs
from maxsat_qubo.harness import ExperimentConfig, _formula_for
from maxsat_qubo.qubo import PRUNING_STRATEGIES, nnz_offdiag, parse_qubo, pruning_schedule
from maxsat_qubo.solvers import MAX_SEEDS, SOLVER_KINDS, SOLVER_OPTIONS, SolverConfig
from maxsat_qubo.transform import (APPROX_6_OF_7, BUILTIN_SPEC_NAMES, decode, parse_pattern,
                                   verify_pattern)

from conftest import run_capped


@pytest.fixture
def cnf_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 4 3\n1 2 3 0\n-1 2 -4 0\n-2 -3 -4 0\n", encoding="utf-8")
    return str(path)


def test_gen_writes_parseable_formulas(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen", "--vars", "10", "--clauses", "30", "--count", "2",
                 "--seed", "9", "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == ["formula_000.cnf", "formula_001.cnf"]
    text = open(os.path.join(out, names[0]), encoding="utf-8").read()
    assert text.startswith("c seed=")
    assert "generator=balanced" in text
    formula = parse_dimacs(text)
    assert formula.num_vars == 10
    assert formula.num_clauses == 30


def test_gen_validation_error(tmp_path):
    assert main(["gen", "--vars", "2", "--clauses", "3",
                 "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("count", ["-2", "0"])
def test_gen_rejects_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "g"
    assert main(["gen", "--vars", "5", "--clauses", "8", "--count", count,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: count must be >= 1, got {count}\n"
    assert "wrote" not in captured.out
    assert not out.exists()


_EXPERIMENT = {"kind": "comparison", "count": 1, "num_vars": 6, "num_clauses": 10, "seed": 3,
               "transforms": ["nuesslein"], "solver": {"kind": "tabu", "iteration_limit": 5}}


@pytest.mark.parametrize("command, config", [
    (["gen", "--vars", "2", "--clauses", "3"], None),
    (["experiment"], {"transforms": ["bogus"]}),
    (["experiment"], {"kind": "pruning_sweep", "transforms": ["fullapprox"]}),
    (["experiment"], {"num_vars": 3, "num_clauses": 9}),
], ids=["gen-too-few-vars", "unknown-transform", "pruning-3x3", "infeasible-generation"])
def test_failed_command_leaves_no_output(tmp_path, capsys, command, config):
    argv = list(command)
    if config is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**_EXPERIMENT, **config}), encoding="utf-8")
        argv += ["--config", str(config_path)]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_transform_prune_solve_pipeline(tmp_path, cnf_file):
    qubo_path = str(tmp_path / "f.qubo")
    assert main(["transform", "--method", "nuesslein", "--in", cnf_file,
                 "--out", qubo_path]) == 0
    matrix, layout = parse_qubo(open(qubo_path, encoding="utf-8").read())
    assert matrix.dim == 7
    assert layout.num_problem_vars == 4

    pruned_path = str(tmp_path / "f_pruned.qubo")
    assert main(["prune", "--strategy", "min", "--stage", "10", "--seed", "1",
                 "--in", qubo_path, "--out", pruned_path]) == 0
    pruned, pruned_layout = parse_qubo(open(pruned_path, encoding="utf-8").read())
    assert nnz_offdiag(pruned) == 0
    assert pruned_layout == layout

    results_path = str(tmp_path / "r.jsonl")
    assert main(["solve", "--solver", "tabu", "--samples", "3", "--seed", "4",
                 "--iter", "200", "--in", qubo_path, "--cnf", cnf_file,
                 "--out", results_path]) == 0
    formula = parse_dimacs(open(cnf_file, encoding="utf-8").read())
    lines = open(results_path, encoding="utf-8").read().splitlines()
    assert len(lines) == 3
    from maxsat_qubo.qubo import energy
    for line in lines:
        row = json.loads(line)
        bits = tuple(int(b) for b in row["bits"])
        assert energy(matrix, bits) == row["energy"]
        assert count_satisfied(formula, decode(bits, layout)) == row["satisfied"]


def test_solve_rejects_mismatched_cnf(tmp_path, capsys, cnf_file):
    # the 4-variable formula against a file without aux comments, then one with an aux bit
    for text, problem_vars in [("p qubo 2 1\n0 0 -1\n", 2),
                               ("c aux 2 clause 0\np qubo 3 1\n0 0 -1\n", 2),
                               ("p qubo 5 1\n0 0 -1\n", 5)]:
        qubo_path = tmp_path / "small.qubo"
        qubo_path.write_text(text, encoding="utf-8")
        out = tmp_path / "r.jsonl"
        assert main(["solve", "--solver", "brute", "--in", str(qubo_path),
                     "--cnf", cnf_file, "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: QUBO problem vars {problem_vars} != formula vars 4\n"
        assert not out.exists()


def test_solve_coefficients_beyond_int32(tmp_path):
    from maxsat_qubo.qubo import energy
    qubo_path = tmp_path / "wide.qubo"
    qubo_path.write_text("p qubo 3 4\n0 0 -1\n0 1 2147483648\n1 1 -1\n1 2 -3000000000\n",
                         encoding="utf-8")
    matrix, _ = parse_qubo(qubo_path.read_text(encoding="utf-8"))
    results_path = tmp_path / "r.jsonl"
    for solver, budget in (("tabu", ["--iter", "20"]), ("sa", ["--sweeps", "5"]),
                           ("brute", []), ("random", [])):
        assert main(["solve", "--solver", solver, "--samples", "3", *budget,
                     "--in", str(qubo_path), "--out", str(results_path)]) == 0
        for line in results_path.read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            assert energy(matrix, tuple(int(b) for b in row["bits"])) == row["energy"]


def test_solve_rejects_coefficients_beyond_exact_int64(tmp_path, capsys):
    qubo_path = tmp_path / "huge.qubo"
    qubo_path.write_text("p qubo 2 2\n0 0 2305843009213693952\n0 1 -2305843009213693952\n",
                         encoding="utf-8")
    assert main(["solve", "--solver", "tabu", "--iter", "5", "--in", str(qubo_path),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("error: coefficient magnitudes sum to")


_DEEP_CNF = "".join(["c deep\np cnf 4 400\n", "1 2 3 0\n-1 2 -4 0\n" * 150, "1 2 x 0\n",
                     "-2 -3 -4 0\n" * 99])
_DEEP_QUBO = "".join(["p qubo 30 465\n", *(f"{i} {j} 1\n" for i in range(30)
                                             for j in range(i, 30) if (i, j) != (12, 20)),
                      "12 19 1\n"])


@pytest.mark.parametrize("command, name, text, message", [
    (["transform", "--method", "nuesslein"], "huge.cnf",
     "p cnf 3 1\n1 2 -100000000000000000000000 0\n",
     "error: variable 100000000000000000000000 exceeds declared num_vars=3\n"),
    (["solve", "--solver", "tabu", "--iter", "5"], "huge.qubo",
     "p qubo 2 2\n0 0 100000000000000000000000000\n0 1 -1\n",
     "error: coefficient magnitudes sum to 100000000000000000000000001, at or above 2^62"),
    (["transform", "--method", "fullapprox"], "deep.cnf", _DEEP_CNF,
     "error: line 303: non-integer clause token\n"),
    (["solve", "--solver", "brute"], "deep.qubo", _DEEP_QUBO,
     "error: line 466: duplicate entry (12, 19)\n"),
    (["solve", "--solver", "brute"], "aux.qubo", "c aux 2 clase 0\np qubo 3 1\n0 0 1\n",
     "error: line 1: malformed aux comment 'c aux 2 clase 0'\n"),
    # a declared variable past int64 does not fit the formula's int64 clause arrays
    (["transform", "--method", "fullapprox"], "wide.cnf",
     "p cnf 18446744073709551616 1\n1 2 9223372036854775808 0\n", "error: "),
], ids=["literal-beyond-int64", "coefficient-beyond-int64", "deep-cnf-token", "deep-qubo-entry",
        "malformed-aux-comment", "variable-beyond-int64"])
def test_bad_input_files_give_an_error_line(tmp_path, capsys, command, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(command + ["--in", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("method", ["fullapprox", "nuesslein"])
def test_transform_refuses_a_dim_whose_keys_could_wrap(tmp_path, method):
    """Run in a child capped at 2 GB: a transform that allocated in proportion to the
    4*10^9 variables would fail there, not take the host's memory."""
    path, out = tmp_path / "huge.cnf", tmp_path / "huge.qubo"
    path.write_text("p cnf 4000000000 1\n1 2 3 0\n", encoding="utf-8")
    proc = run_capped(["-m", "maxsat_qubo.cli", "transform", "--method", method,
                       "--in", str(path), "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: matrix dim 400000000")
    assert "exceeds 3037000499" in proc.stderr
    assert not out.exists()


_HUGE_INDEX_QUBO = ("p qubo 18446744073709551616 2\n9223372036854775808 9223372036854775808 1\n"
                    "9223372036854775808 9223372036854775809 -2\n")


def test_prune_writes_indices_beyond_int64(tmp_path):
    path, out = tmp_path / "huge.qubo", tmp_path / "p.qubo"
    path.write_text(_HUGE_INDEX_QUBO, encoding="utf-8")
    assert main(["prune", "--strategy", "min", "--stage", "10", "--in", str(path),
                 "--out", str(out)]) == 0
    matrix, _ = parse_qubo(_HUGE_INDEX_QUBO)
    assert parse_qubo(out.read_text(encoding="utf-8"))[0] == \
        pruning_schedule(matrix, "min")[10].matrix



@pytest.mark.parametrize("strategy, seed", [("min", "0"), ("random", "3")])
def test_prune_builds_only_the_stage_it_writes(tmp_path, monkeypatch, cnf_file, strategy, seed):
    qubo_path, out = tmp_path / "f.qubo", tmp_path / "p.qubo"
    assert main(["transform", "--method", "nuesslein", "--in", cnf_file,
                 "--out", str(qubo_path)]) == 0
    matrix, _ = parse_qubo(qubo_path.read_text(encoding="utf-8"))
    expected = pruning_schedule(matrix, strategy, int(seed))[5]

    def refuse(*args, **kwargs):
        raise AssertionError("prune built the whole schedule")

    monkeypatch.setattr(qubo, "pruning_schedule", refuse)
    assert main(["prune", "--strategy", strategy, "--seed", seed, "--stage", "5",
                 "--in", str(qubo_path), "--out", str(out)]) == 0
    assert parse_qubo(out.read_text(encoding="utf-8"))[0] == expected.matrix

# gen asks numpy for 10^15 int64 entries (7.11 PiB), which no host grants; solve is refused
# on the 10^15 dim before it allocates anything
@pytest.mark.parametrize("command, name, text, message", [
    (["solve", "--solver", "random"], "huge.qubo", "p qubo 1000000000000000 0\n",
     "error: matrix dim 1000000000000000 exceeds 3037000499, "),
    (["gen", "--vars", "1000000000000000", "--clauses", "1"], None, None,
     "error: Unable to allocate"),
], ids=["solve-random", "gen"])
def test_allocation_failure_gives_an_error_line(tmp_path, capsys, command, name, text, message):
    if name is not None:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        command = command + ["--in", str(path)]
    out = tmp_path / "out"
    assert main(command + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("solver, flags, ignored", [
    ("sa", ["--iter", "5", "--tenure", "3", "--sweeps", "2"], "--iter --tenure"),
    ("tabu", ["--sweeps", "7", "--beta-start", "3"], "--sweeps --beta-start"),
    ("random", ["--time-limit-ms", "5", "--iter", "9"], "--iter --time-limit-ms"),
    ("brute", ["--beta-end", "2"], "--beta-end"),
])
def test_solve_rejects_flags_its_solver_ignores(tmp_path, capsys, solver, flags, ignored):
    qubo_path = tmp_path / "small.qubo"
    qubo_path.write_text("p qubo 2 1\n0 0 -1\n", encoding="utf-8")
    results_path = tmp_path / "r.jsonl"
    assert main(["solve", "--solver", solver, *flags, "--in", str(qubo_path),
                 "--out", str(results_path)]) == 1
    assert capsys.readouterr().err == f"error: solver {solver} ignores {ignored}\n"
    assert not results_path.exists()


def test_solve_rejects_an_infinite_beta(tmp_path, capsys):
    qubo_path = tmp_path / "small.qubo"
    qubo_path.write_text("p qubo 2 1\n0 0 -1\n", encoding="utf-8")
    results_path = tmp_path / "r.jsonl"
    assert main(["solve", "--solver", "sa", "--sweeps", "20", "--beta-end", "inf",
                 "--in", str(qubo_path), "--out", str(results_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beta" in err
    assert not results_path.exists()



def test_solve_refuses_betas_whose_ratio_overflows(tmp_path, capsys):
    # end / start overflows to inf: every later beta would be inf, every downhill move refused
    qubo_path = tmp_path / "small.qubo"
    qubo_path.write_text("p qubo 2 2\n0 0 -1\n1 1 -1\n", encoding="utf-8")
    results_path = tmp_path / "r.jsonl"
    assert main(["solve", "--solver", "sa", "--samples", "3", "--sweeps", "5",
                 "--beta-start", "1e-300", "--beta-end", "1e300",
                 "--in", str(qubo_path), "--out", str(results_path)]) == 1
    assert capsys.readouterr().err == ("error: need 0 < sa_beta_start < sa_beta_end < inf and "
                                       "a finite sa_beta_end / sa_beta_start\n")
    assert not results_path.exists()

def test_solve_accepts_its_solver_flags_and_reports_batch_time(tmp_path, capsys):
    qubo_path = tmp_path / "small.qubo"
    qubo_path.write_text("p qubo 2 1\n0 0 -1\n", encoding="utf-8")
    results_path = tmp_path / "r.jsonl"
    assert main(["solve", "--solver", "sa", "--samples", "3", "--sweeps", "4",
                 "--beta-start", "0.5", "--beta-end", "5", "--time-limit-ms", "60000",
                 "--in", str(qubo_path), "--out", str(results_path)]) == 0
    assert re.fullmatch(r"3 samples in \d+ ms, best energy -1; wrote .*\n",
                        capsys.readouterr().out)
    rows = [json.loads(line) for line in results_path.read_text(encoding="utf-8").splitlines()]
    assert [sorted(row) for row in rows] == [["bits", "energy", "run", "seed"]] * 3


def test_solve_accepts_a_tenure_at_the_int64_limit(tmp_path, cnf_file):
    qubo_path, results_path = tmp_path / "f.qubo", tmp_path / "r.jsonl"
    assert main(["transform", "--method", "nuesslein", "--in", cnf_file,
                 "--out", str(qubo_path)]) == 0
    assert main(["solve", "--solver", "tabu", "--samples", "5", "--iter", "5",
                 "--tenure", "9223372036854775807", "--in", str(qubo_path),
                 "--cnf", cnf_file, "--out", str(results_path)]) == 0
    assert len(results_path.read_text(encoding="utf-8").splitlines()) == 5


def test_io_error_exit_code(tmp_path):
    assert main(["transform", "--method", "nuesslein", "--in",
                 str(tmp_path / "nope.cnf"), "--out", str(tmp_path / "o.qubo")]) == 2


def test_search_and_verify(tmp_path):
    out = str(tmp_path / "patterns")
    assert main(["search", "--dim", "3", "--values", "-1,0,1", "--type", "1",
                 "--criterion", "approx", "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "search_manifest.json"), encoding="utf-8"))
    assert manifest["count"] == 4
    assert manifest["expected_count"] == 4
    assert manifest["discrepancy"] is False
    assert len(manifest["files"]) == 4
    first = os.path.join(out, manifest["files"][0])
    pattern, clause_type = parse_pattern(open(first, encoding="utf-8").read())
    assert clause_type == 1
    assert verify_pattern(pattern, 1, APPROX_6_OF_7).valid

    assert main(["verify", "--pattern", first, "--criterion", "approx"]) == 0
    assert main(["verify", "--pattern", first, "--type", "0",
                 "--criterion", "exact"]) == 1


def test_search_3x3_refuses_more_candidates_than_the_guard(tmp_path, capsys):
    out = tmp_path / "patterns"
    assert main(["search", "--dim", "3", "--values", ",".join(map(str, range(-11, 11))),
                 "--type", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {22 ** 6} candidates exceed the ")
    assert not out.exists()


def test_search_rejects_approx_4x4(tmp_path):
    assert main(["search", "--dim", "4", "--values", "-1,0,1", "--type", "0",
                 "--criterion", "approx", "--out", str(tmp_path / "x")]) == 1


def test_experiment_command(tmp_path):
    config = {
        "kind": "comparison", "count": 2, "num_vars": 8, "num_clauses": 20,
        "seed": 3, "transforms": ["fullapprox", "nuesslein"],
        "solver": {"kind": "sa", "samples": 3, "seed": 0, "sa_sweeps": 6},
    }
    config_path = str(tmp_path / "config.json")
    open(config_path, "w", encoding="utf-8").write(json.dumps(config))
    out = str(tmp_path / "results")
    assert main(["experiment", "--config", config_path, "--out", out]) == 0
    names = sorted(os.listdir(out))
    kinds = [name.split("_")[-1] for name in names]
    assert kinds == ["meta.json", "records.jsonl", "summary.csv"]
    meta = json.load(open(os.path.join(out, names[0]), encoding="utf-8"))
    assert meta["config"]["kind"] == "comparison"
    assert meta["sampling"] == "independent seeded solver runs"


def test_experiment_rejects_bad_config(tmp_path):
    config_path = str(tmp_path / "config.json")
    open(config_path, "w", encoding="utf-8").write("{\"kind\": \"comparison\"}")
    assert main(["experiment", "--config", config_path,
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("change", [
    {"solver": {"kind": "sa", "samples": 2.5}},
    {"solver": {"kind": "sa", "samples": True}},
    {"solver": {"kind": "tabu", "iteration_limit": 5.5}},
    {"solver": {"kind": "sa", "sa_beta_end": "5"}},
    {"solver": {"kind": "tabu", "sa_sweeps": 7}},
    {"solver": {"kind": "tabu", "seed": 12345}},
    {"seed": 1.5},
    {"count": "2"},
    {"transforms": "nuesslein"},
    {"transforms": [1]},
    {"solver": {"kind": "tabu", "iteration_limit": 5, "time_limit_ms": 40}},
    {"transforms": ["nuesslein", "nuesslein"]},
    {"solver": {"kind": "sa", "sa_beta_start": 1e-300, "sa_beta_end": 1e300}},
    {"solver": {"kind": "sa", "sa_beta_end": 10**400}},
    {"solver": {"kind": "sa", "samples": None}},
])
def test_experiment_rejects_wrongly_typed_or_ignored_values(tmp_path, capsys, change):
    config = {"kind": "comparison", "count": 1, "num_vars": 6, "num_clauses": 10, "seed": 3,
              "transforms": ["nuesslein"], "solver": {"kind": "tabu", "iteration_limit": 5}}
    config.update(change)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_experiment_refuses_a_count_above_the_seed_cap(tmp_path):
    """Run capped and timed: without the cap the experiment generates formulas until it is
    killed."""
    config_path, out = tmp_path / "config.json", tmp_path / "o"
    config_path.write_text(json.dumps({**_EXPERIMENT, "count": 10**30}), encoding="utf-8")
    proc = run_capped(["-m", "maxsat_qubo.cli", "experiment", "--config", str(config_path),
                       "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr == f"error: count must be <= {MAX_SEEDS}, got {10**30}\n"
    assert not out.exists()


def test_solve_refuses_a_dim_whose_keys_could_wrap(tmp_path):
    """Run capped: a solve that allocated in proportion to the 4*10^9 bits would fail there
    with MemoryError, not reach the refusal."""
    path, out = tmp_path / "huge.qubo", tmp_path / "r.jsonl"
    path.write_text("p qubo 4000000000 0\n", encoding="utf-8")
    proc = run_capped(["-m", "maxsat_qubo.cli", "solve", "--solver", "random",
                       "--in", str(path), "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr == ("error: matrix dim 4000000000 exceeds 3037000499, past which int64 "
                           "entry keys i * dim + j could wrap\n")
    assert not out.exists()


def test_solver_flags_cover_solver_options():
    flag_fields = list(_SOLVER_FLAGS.values())
    assert set(flag_fields) <= {field.name for field in dataclasses.fields(SolverConfig)}
    for options in SOLVER_OPTIONS.values():
        for option in options:
            assert flag_fields.count(option) == 1
    parser = build_parser()
    for flag, field in _SOLVER_FLAGS.items():
        args = parser.parse_args(["solve", "--solver", "tabu", "--" + flag.replace("_", "-"),
                                  "1", "--in", "q", "--out", "r"])
        assert getattr(args, flag) == 1


def test_cli_choices_are_the_library_lists():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))

    def choices(command, dest):
        return tuple(next(action.choices for action in commands[command]._actions
                          if action.dest == dest))

    assert choices("prune", "strategy") == PRUNING_STRATEGIES
    assert choices("solve", "solver") == SOLVER_KINDS
    assert choices("transform", "method") == BUILTIN_SPEC_NAMES


def test_gen_writes_the_formulas_an_experiment_solves(tmp_path):
    out = tmp_path / "g"
    assert main(["gen", "--vars", "10", "--clauses", "30", "--count", "2", "--seed", "9",
                 "--out", str(out)]) == 0
    config = ExperimentConfig(kind="comparison", count=2, num_vars=10, num_clauses=30, seed=9,
                              transforms=("fullapprox",), solver=SolverConfig(kind="random"))
    for formula_id in range(2):
        text = (out / f"formula_{formula_id:03d}.cnf").read_text(encoding="utf-8")
        assert parse_dimacs(text) == _formula_for(config, formula_id)


# each id names the capped field or flag
@pytest.mark.parametrize("command, message", [
    (["solve", "--solver", "random", "--in", "{qubo}", "--samples"], "samples"),
    (["gen", "--vars", "5", "--clauses", "8", "--count"], "count"),
], ids=["command0-samples", "command1---count"])
def test_seed_counts_above_the_cap_are_refused_at_once(tmp_path, command, message):
    qubo_path = tmp_path / "q.qubo"
    qubo_path.write_text("p qubo 2 1\n0 0 -1\n", encoding="utf-8")
    out = tmp_path / "o"
    # without the cap either command derives seeds for minutes, so it runs capped and timed
    proc = run_capped(["-m", "maxsat_qubo.cli", *(arg.format(qubo=qubo_path) for arg in command),
                       str(10**15), "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message} must be <= {MAX_SEEDS}, got {10**15}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "experiment"])
def test_clause_counts_above_the_distinct_clauses_are_refused_at_once(tmp_path, command):
    # 1000 variables offer 8 * C(1000, 3) distinct clauses; without the bound the generator
    # redraws until it is killed, so the command runs capped and timed
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "comparison", "count": 1, "num_vars": 1000, "num_clauses": 10**12, "seed": 3,
        "transforms": ["nuesslein"], "solver": {"kind": "tabu", "iteration_limit": 5}}))
    out = tmp_path / "o"
    argv = (["gen", "--vars", "1000", "--clauses", str(10**12)] if command == "gen"
            else ["experiment", "--config", str(config)])
    proc = run_capped(["-m", "maxsat_qubo.cli", *argv, "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr == ("error: distinctness unsatisfiable for num_vars=1000, "
                           f"num_clauses={10**12}: only 1329336000 distinct clauses exist\n")
    assert not out.exists()


def test_console_module_entrypoint(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "maxsat_qubo.cli", "gen", "--vars", "5",
         "--clauses", "8", "--out", str(tmp_path / "g")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 1 formulas" in proc.stdout
