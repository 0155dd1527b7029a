"""Golden digests: the sha256 of every output an experiment, the CLI, calibration and the
demos produce for small fixed inputs. Refactors must leave these bytes unchanged; a pin
that moves means a record, file or printed figure changed, and the change must be named."""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

from maxsat_qubo.cli import main
from maxsat_qubo.formula import generate_balanced
from maxsat_qubo.harness import (ExperimentConfig, records_to_jsonl, run_comparison,
                                 run_pruning_sweep, run_scaling, summary_to_csv)
from maxsat_qubo.pattern_search import (CANONICAL_VALUES, enumerate_combinations, search_3x3,
                                        select_best_combination)
from maxsat_qubo.solvers import SolverConfig
from maxsat_qubo.transform import APPROX_6_OF_7

ROOT = Path(__file__).resolve().parents[1]


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


EXPERIMENTS = {
    "comparison": (run_comparison, ExperimentConfig(
        kind="comparison", count=2, num_vars=20, num_clauses=80, seed=5,
        transforms=("fullapprox", "nuesslein"),
        solver=SolverConfig(kind="tabu", samples=6, iteration_limit=300))),
    # stage 10 of each schedule is diagonal-only
    "pruning-sa": (run_pruning_sweep, ExperimentConfig(
        kind="pruning_sweep", count=1, num_vars=12, num_clauses=40, seed=8,
        transforms=("nuesslein",), solver=SolverConfig(kind="sa", samples=4, sa_sweeps=25))),
    "scaling": (run_scaling, ExperimentConfig(
        kind="scaling", count=2, num_vars=40, num_clauses=150, seed=3,
        transforms=("fullapprox", "chancellor_repaired"),
        solver=SolverConfig(kind="tabu", samples=4, iteration_limit=400))),
}

EXPERIMENT_PINS = {
    "comparison": "fdadd818c60d63e42a1f09ccc1c7faacc10c620459f4ee842b4be5ed41034c1a",
    "pruning-sa": "8f35ec782f2ad561a405eb356824c5ddb45dc19c94575b027362fdedd72f0b43",
    "scaling": "da5d2a55020bc373db5d64e28c963b1a56429701372bf4bc3e098c3f57e21a17",
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_records_and_summary(name):
    run, config = EXPERIMENTS[name]
    records, summary = run(config)
    assert _sha(records_to_jsonl(records) + summary_to_csv(summary)) == EXPERIMENT_PINS[name]


def test_select_best_combination():
    per_type = [search_3x3(CANONICAL_VALUES, t, APPROX_6_OF_7)[:2] for t in range(4)]
    specs = enumerate_combinations(per_type)
    formula = generate_balanced(20, 90, 4)
    best, scores = select_best_combination(
        formula, specs, SolverConfig(kind="tabu", samples=3, iteration_limit=40), seed=6)
    assert (best.name, scores) == (
        "combo-0-0-0-0", [88, 87, 86, 85, 88, 85, 87, 84, 85, 84, 86, 85, 86, 84, 85, 85])


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Every file a gen, transform, prune, solve and search pipeline writes, by name."""
    out = tmp_path_factory.mktemp("cli")
    cnf, approx, exact = out / "formula_000.cnf", out / "fullapprox.qubo", out / "nuesslein.qubo"
    commands = [
        ["gen", "--vars", "20", "--clauses", "38", "--seed", "11", "--out", out],
        ["transform", "--method", "fullapprox", "--in", cnf, "--out", approx],
        ["transform", "--method", "nuesslein", "--in", cnf, "--out", exact],
        ["prune", "--strategy", "min", "--stage", "4", "--in", exact, "--out", out / "min.qubo"],
        ["prune", "--strategy", "random", "--stage", "7", "--seed", "2", "--in", exact,
         "--out", out / "random.qubo"],
        ["solve", "--solver", "tabu", "--samples", "4", "--iter", "150", "--seed", "3",
         "--in", exact, "--cnf", cnf, "--out", out / "tabu.jsonl"],
        ["solve", "--solver", "sa", "--samples", "4", "--sweeps", "40", "--seed", "3",
         "--in", out / "random.qubo", "--cnf", cnf, "--out", out / "sa.jsonl"],
        ["solve", "--solver", "brute", "--in", approx, "--cnf", cnf, "--out", out / "brute.jsonl"],
        ["solve", "--solver", "random", "--samples", "5", "--seed", "3", "--in", exact,
         "--cnf", cnf, "--out", out / "random.jsonl"],
        ["search", "--dim", "3", "--values", "-1,0,1", "--type", "1", "--out", out / "search3"],
        ["search", "--dim", "4", "--values", "-1,0,1", "--type", "2", "--criterion", "exact",
         "--out", out / "search4"],
    ]
    for command in commands:
        assert main([str(part) for part in command]) == 0
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


CLI_PINS = {
    "formula_000.cnf": "60789a63f05a269fb3faa049a6475ecad0b7fcc61ba3db47d8b9cfc61ae6ea4f",
    "fullapprox.qubo": "79d2d333f3b539eb7d4401b396c732d2cc334eac3a8faec56317fd3876379264",
    "nuesslein.qubo": "7c02b2ace30b4d112dce15c7d6a368d17042cc587b15a35fcf4cf3ac3d456283",
    "min.qubo": "699166ca16866d8e262e40f6af7a7b13bf67338aa36e5f214065562c34732461",
    "random.qubo": "62c8597f49a490591f42fb1b1de774df2590ee4d52d4c39d31084de7dc08e384",
    "tabu.jsonl": "bb9a1e17b2a2488dd447832e5d4e32180b99b0b7a1daff9e54bf3b055dceefb5",
    "sa.jsonl": "a623b27d79f723f6acf6f83ef91ab2a1f37e60b2400bd57a5e3b486bc9164e0c",
    "brute.jsonl": "b0a4e4c538c77b10e2c65b623eb19463649b0c32e4e7a40c9082a2cba0466f72",
    "random.jsonl": "1bb2a3e1cbf2b2f3898e35d3f2ca64679998b78848730ba6ccfcaa651f3a0d1a",
    "search3": "819e898826a2be7e3ab2a7fafa4d96ad4c4ebf45ffe4bda4c00ce92ea9aacb7b",
    "search4": "52c02e18fcdc4df83e773a09421773bda3a8ba89f594892dfb02b1292eec3a77",
}


@pytest.fixture(scope="module")
def scale_files(tmp_path_factory):
    """The paper's scaling size, n=1390 and m=5000, where the other pins stop at n=145: the
    formula, and each transformation's QUBO with its tabu and SA samples, by name."""
    out = tmp_path_factory.mktemp("scale")
    cnf = out / "formula_000.cnf"
    commands = [["gen", "--vars", "1390", "--clauses", "5000", "--seed", "1", "--out", out]]
    for method in ("fullapprox", "nuesslein", "chancellor_repaired"):
        qubo = out / f"{method}.qubo"
        commands += [
            ["transform", "--method", method, "--in", cnf, "--out", qubo],
            ["solve", "--solver", "tabu", "--samples", "10", "--iter", "200", "--in", qubo,
             "--cnf", cnf, "--out", out / f"{method}.jsonl"],
            ["solve", "--solver", "sa", "--samples", "10", "--sweeps", "10", "--in", qubo,
             "--cnf", cnf, "--out", out / f"{method}.sa.jsonl"],
        ]
    for command in commands:
        assert main([str(part) for part in command]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()}


SCALE_PINS = {
    "fullapprox.qubo": "a5c145ad77e21aff0e51521fb51815df26656ec8a214257f00b5567322a05011",
    "fullapprox.jsonl": "22a50fcfd649737187b3a75457b685f60aa6f72a5e9ee3c5a5ee415cb18046d2",
    "fullapprox.sa.jsonl": "b3e59f6eca3143bb641f393b3037f3874386b2307648038ee5239967814772c0",
    "nuesslein.qubo": "ef3d45ed22b25c59087f1bcba334b13a36377fbc0c5420cd03c1b69b169bc325",
    "nuesslein.jsonl": "8e6bb71358760ae844c4a4bf86ca77d2540f3b5b9d63411a4ab1277f1c489fbe",
    "nuesslein.sa.jsonl": "730527ee36256fbdd90337d9391613e3833430fc1d178a0afe174da4e3264fa8",
    "chancellor_repaired.qubo": "32cac14ab8d69c770c13c8610f59cbf29a9a2fa5c0418ef2d44b6510cc0aad79",
    "chancellor_repaired.jsonl": "618f455f7075f65973c171ab350c2222bdda554f782008b491870fe95c19920c",
    "chancellor_repaired.sa.jsonl": "29d7ff1576a0c5ea806c485fd29380b3556d1b0f1f3aa8b00545c9ba66b1bdeb",
}


def test_cli_gen_at_scaling_size(scale_files):
    assert _sha(scale_files["formula_000.cnf"]) == \
        "ca5023b6a175ebdf3f0ad09523113aeba8408d619626e84910bb2afb4666b470"


@pytest.mark.parametrize("name", SCALE_PINS)
def test_cli_output_at_scaling_size(scale_files, name):
    assert _sha(scale_files[name]) == SCALE_PINS[name]


@pytest.mark.parametrize("name", CLI_PINS)
def test_cli_output(cli_files, name):
    # a search writes a folder: its files are digested together, in name order
    files = {key: data for key, data in cli_files.items()
             if key == name or key.startswith(name + "/")}
    assert files
    assert _sha(json.dumps({key: _sha(data) for key, data in files.items()})) == CLI_PINS[name]


DEMO_PINS = {
    "01_clause_patterns": "1e4e226ed501f164a1937ae03fe7d477e8fad2ffa4b920bf5ab5b94da6f4a2d3",
    "04_comparison": "48c57fa0d1f8ee48a57aed469242a1babdc77f894c93ef815001f324a83df52e",
    "05_scaling": "77f25f8d550c29e98a1d4adf8ce428405583afd41dc918e0791cb480c3882d06",
}


@pytest.mark.parametrize("name", DEMO_PINS)
def test_demo_stdout(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    assert _sha(out.getvalue()) == DEMO_PINS[name]
