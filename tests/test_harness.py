"""Experiment runners, summaries, and record persistence."""

import os
from dataclasses import replace

import pytest

from maxsat_qubo.formula import count_satisfied, generate_balanced
from maxsat_qubo.harness import (
    ExperimentConfig,
    RunRecord,
    SummaryRow,
    best_of_k,
    emit,
    parse_records,
    parse_summary,
    records_to_jsonl,
    run_comparison,
    run_experiment,
    run_pruning_sweep,
    run_scaling,
    summarize_comparison,
    summarize_pruning,
    summarize_scaling,
    summary_to_csv,
)
from maxsat_qubo.rng import mix
from maxsat_qubo.solvers import SolverConfig, solve
from maxsat_qubo.transform import assemble, builtin_spec


def _sa_config(kind="comparison", count=2, num_vars=8, num_clauses=20, seed=5,
               transforms=("nuesslein",), samples=4, sweeps=8):
    return ExperimentConfig(
        kind=kind, count=count, num_vars=num_vars, num_clauses=num_clauses, seed=seed,
        transforms=tuple(transforms),
        solver=SolverConfig(kind="sa", samples=samples, seed=0, sa_sweeps=sweeps))


def test_best_of_k():
    records = [RunRecord(0, "m", i, s, None, 0) for i, s in enumerate((450, 462, 455))]
    assert best_of_k(records) == 462
    assert best_of_k(records[:1]) == 450
    assert best_of_k([RunRecord(0, "m", i, 7, None, 0) for i in range(3)]) == 7
    with pytest.raises(ValueError, match="record"):
        best_of_k([])


def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        _sa_config(kind="ablation")
    with pytest.raises(ValueError, match="count"):
        _sa_config(count=0)
    with pytest.raises(ValueError, match="transformation"):
        _sa_config(transforms=())
    with pytest.raises(ValueError, match="solver"):
        ExperimentConfig.from_dict({"kind": "comparison", "count": 1, "num_vars": 5,
                                    "num_clauses": 5, "seed": 0, "transforms": ["nuesslein"]})
    with pytest.raises(ValueError, match="bad experiment config"):
        ExperimentConfig.from_dict({"kind": "comparison", "count": 1, "num_vars": 5,
                                    "num_clauses": 5, "seed": 0, "transforms": ["nuesslein"],
                                    "solver": {"kind": "sa"}, "extra": 1})
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_dict([["kind", "comparison"]])
    with pytest.raises(ValueError, match="run seed derives from the experiment seed"):
        ExperimentConfig.from_dict({"kind": "comparison", "count": 1, "num_vars": 5,
                                    "num_clauses": 5, "seed": 0, "transforms": ["nuesslein"],
                                    "solver": {"kind": "sa", "seed": 12345}})
    with pytest.raises(ValueError, match="solver tabu ignores sa_sweeps"):
        ExperimentConfig.from_dict({"kind": "comparison", "count": 1, "num_vars": 5,
                                    "num_clauses": 5, "seed": 0, "transforms": ["nuesslein"],
                                    "solver": {"kind": "tabu", "sa_sweeps": 7}})
    with pytest.raises(ValueError, match="byte-reproducibility"):
        ExperimentConfig.from_dict({"kind": "comparison", "count": 1, "num_vars": 5,
                                    "num_clauses": 5, "seed": 0, "transforms": ["nuesslein"],
                                    "solver": {"kind": "tabu", "iteration_limit": 50,
                                               "time_limit_ms": 40}})
    with pytest.raises(ValueError, match="transforms repeat a name"):
        _sa_config(transforms=("nuesslein", "nuesslein"))
    with pytest.raises(ValueError, match="transforms repeat a name"):
        ExperimentConfig.from_dict({"kind": "comparison", "count": 1, "num_vars": 5,
                                    "num_clauses": 5, "seed": 0,
                                    "transforms": ["nuesslein", "nuesslein"],
                                    "solver": {"kind": "sa"}})
    # transform names are checked when the config is built, before any formula is solved
    with pytest.raises(ValueError, match="unknown transformation 'bogus'"):
        ExperimentConfig.from_dict({"kind": "comparison", "count": 1, "num_vars": 5,
                                    "num_clauses": 5, "seed": 0,
                                    "transforms": ["fullapprox", "bogus"],
                                    "solver": {"kind": "sa"}})
    with pytest.raises(ValueError, match="^pruning sweep needs aux-based transformations, "
                                         "fullapprox is 3x3$"):
        ExperimentConfig.from_dict({"kind": "pruning_sweep", "count": 1, "num_vars": 5,
                                    "num_clauses": 5, "seed": 0,
                                    "transforms": ["nuesslein", "fullapprox"],
                                    "solver": {"kind": "sa"}})


def test_config_roundtrip():
    config = _sa_config()
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_pruning_sweep_requires_aux_spec():
    with pytest.raises(ValueError, match="aux"):
        _sa_config(kind="pruning_sweep", transforms=("fullapprox",))


def test_pruning_sweep_structure_and_stage_anchors():
    config = _sa_config(kind="pruning_sweep", count=2, num_vars=9, num_clauses=21,
                        transforms=("nuesslein",), samples=3, sweeps=6)
    records, summary = run_pruning_sweep(config)
    # 2 formulas x 1 transform x 2 strategies x 11 stages x 3 samples
    assert len(records) == 2 * 2 * 11 * 3
    methods = {r.method for r in records}
    assert len(methods) == 22

    # stage 0 must equal solving the unpruned assembly with the same seed
    formula = generate_balanced(9, 21, mix(5, 1, 0))
    matrix, layout = assemble(formula, builtin_spec("nuesslein"))
    direct = solve(matrix, SolverConfig(kind="sa", samples=3, seed=mix(5, 3, 0, 0, 0),
                                        sa_sweeps=6))
    stage0 = [r for r in records
              if r.formula_id == 0 and r.method == "nuesslein:min:0"]
    assert [r.energy for r in stage0] == [r.energy for r in direct]
    decoded = [tuple(b for b in r.bits[:9]) for r in direct]
    assert [r.satisfied for r in stage0] == [count_satisfied(formula, d) for d in decoded]

    # both strategies share the diagonal-only endpoint and its solver seed
    for formula_id in range(2):
        for metric in ("satisfied", "energy"):
            min_rows = [getattr(r, metric) for r in records
                        if r.formula_id == formula_id and r.method == "nuesslein:min:100"]
            random_rows = [getattr(r, metric) for r in records
                           if r.formula_id == formula_id and r.method == "nuesslein:random:100"]
            assert min_rows == random_rows

    assert summary == summarize_pruning(records)
    assert {row.kind for row in summary} == {"mean_best"}
    assert len(summary) == 22


def test_comparison_records_and_summary():
    config = _sa_config(count=3, transforms=("fullapprox", "nuesslein"), samples=5)
    records, summary = run_comparison(config)
    # methods: fullapprox, nuesslein, random
    assert len(records) == 3 * 3 * 5
    assert summary == summarize_comparison(records)

    bests = {}
    for r in records:
        key = (r.formula_id, r.method)
        bests[key] = max(bests.get(key, 0), r.satisfied)
    for row in summary:
        if row.kind == "best":
            assert row.value == bests[(row.formula_id, row.method)]
        if row.kind == "diff":
            assert row.value == (bests[(row.formula_id, row.method)]
                                 - bests[(row.formula_id, row.other)])
    diffs = {(row.method, row.other, row.formula_id): row.value
             for row in summary if row.kind == "diff"}
    for (a, b, f), value in diffs.items():
        assert (b, a, f) not in diffs  # one orientation per pair
    mean_rows = [row for row in summary if row.kind == "mean"]
    assert {row.method for row in mean_rows} == {"fullapprox", "nuesslein", "random"}


def test_comparison_identical_methods_zero_diff():
    config = _sa_config(count=2, transforms=("nuesslein",), samples=2)
    records, _ = run_comparison(config)
    copies = [replace(r, method="copy") for r in records if r.method == "nuesslein"]
    summary = summarize_comparison(records + copies)
    diffs = [row for row in summary if row.kind == "diff"
             and {row.method, row.other} == {"nuesslein", "copy"}]
    improvements = [row for row in summary if row.kind == "improvement"
                    and {row.method, row.other} == {"nuesslein", "copy"}]
    assert len(diffs) == 2
    assert improvements
    assert all(row.value == 0 for row in diffs + improvements)


def test_records_satisfied_recomputes():
    config = _sa_config(count=2, transforms=("chancellor_repaired",), samples=3)
    records, _ = run_comparison(config)
    formulas = {f: generate_balanced(8, 20, mix(5, 1, f)) for f in range(2)}
    matrices = {f: assemble(formulas[f], builtin_spec("chancellor_repaired"))
                for f in range(2)}
    for record in records:
        if record.method == "random":
            continue
        matrix, layout = matrices[record.formula_id]
        results = solve(matrix, SolverConfig(kind="sa", samples=3,
                                             seed=mix(5, 3, record.formula_id, 0),
                                             sa_sweeps=8))
        result = results[record.sample]
        assignment = tuple(result.bits[:8])
        assert record.satisfied == count_satisfied(formulas[record.formula_id], assignment)
        assert record.energy == result.energy


def test_scaling_summary_row_accounting():
    config = _sa_config(kind="scaling", count=1,
                        transforms=("fullapprox", "nuesslein", "chancellor_repaired"),
                        samples=1)
    records, summary = run_scaling(config)
    assert len(summary) == 4
    assert {row.kind for row in summary} == {"fraction"}
    assert summary == summarize_scaling(records, 20)
    for row in summary:
        assert 0.0 <= row.value <= 1.0


def test_experiment_determinism_bytes():
    config = _sa_config(count=2, transforms=("fullapprox", "nuesslein"), samples=3)
    records_a, summary_a = run_experiment(config)
    records_b, summary_b = run_experiment(config)
    assert records_to_jsonl(records_a) == records_to_jsonl(records_b)
    assert summary_to_csv(summary_a) == summary_to_csv(summary_b)


def test_emit_and_reparse(tmp_path):
    config = _sa_config(count=2, transforms=("fullapprox",), samples=2)
    records, summary = run_comparison(config)
    records_path, summary_path = emit(records, summary, str(tmp_path),
                                      "comparison", timestamp="20240101T000000Z")
    assert os.path.basename(records_path) == "comparison_20240101T000000Z_records.jsonl"
    assert os.path.basename(summary_path) == "comparison_20240101T000000Z_summary.csv"
    with open(records_path, encoding="utf-8") as fh:
        records_text = fh.read()
    with open(summary_path, encoding="utf-8") as fh:
        summary_text = fh.read()
    assert parse_records(records_text) == records
    assert parse_summary(summary_text) == summary
    # summaries are pure functions of records
    assert summary_to_csv(summarize_comparison(parse_records(records_text))) == summary_text


def test_emit_zero_records(tmp_path):
    records_path, summary_path = emit([], [], str(tmp_path), "comparison",
                                      timestamp="20240101T000000Z")
    assert open(records_path, encoding="utf-8").read() == ""
    assert open(summary_path, encoding="utf-8").read() == "kind,method,other,formula,value\n"


def test_emit_io_error(tmp_path):
    with pytest.raises(OSError, match="cannot write"):
        emit([], [], str(tmp_path / "missing_subdir"), "comparison")


def test_summary_value_formats():
    rows = [SummaryRow(kind="best", method="m", formula_id=0, value=455),
            SummaryRow(kind="mean", method="m", value=455.25)]
    text = summary_to_csv(rows)
    assert "455\n" in text and "455.25\n" in text
    parsed = parse_summary(text)
    assert parsed[0].value == 455 and isinstance(parsed[0].value, int)
    assert parsed[1].value == 455.25 and isinstance(parsed[1].value, float)
